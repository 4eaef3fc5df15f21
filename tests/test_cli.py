"""End-to-end checks of the command line front end.

Most tests here shell out through ``python -m boltpay.cli`` so the exit
codes and stream separation are tested exactly as a user would see them.
The in-process section calls ``cli.main`` on the same paths, so that a
line-coverage tracer and an in-process mutant see them too.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from boltpay import cli
from boltpay.contract import challenge_message
from boltpay.harness import Simulation
from boltpay.qlds import message_bits

PKG_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = PKG_ROOT / "scenarios"

DEMOS = ("mint-pay-redeem", "lost-claim", "challenge",
         "attack-i", "attack-ii", "attack-iii", "merkle-split")


def boltpay(*args, cwd=PKG_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "boltpay.cli", *args],
        capture_output=True, text=True, cwd=cwd)


def test_run_honest_scenario_exits_zero():
    r = boltpay("run", str(SCENARIOS / "honest-payment.bolt"))
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""
    assert r.stdout.startswith("# boltpay trace v1")
    assert "@value" in r.stdout


def test_run_missing_file_exits_two():
    r = boltpay("run", "no-such-file.bolt")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error:" in r.stderr


def test_run_file_that_is_not_utf8_exits_two(tmp_path):
    script = tmp_path / "utf16.bolt"
    script.write_bytes("\ufeffAddParty\talice:50\n".encode("utf-16-le"))
    r = boltpay("run", str(script))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


@pytest.mark.parametrize("scheduler", ["reorder:\u00b2", "reorder:\u0663"])
def test_a_scheduler_count_in_other_digits_exits_two(scheduler):
    r = boltpay("run", str(SCENARIOS / "honest-payment.bolt"),
                "--scheduler", scheduler)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unknown scheduler" in r.stderr and "Traceback" not in r.stderr


def test_run_reports_parse_errors_with_line_numbers(tmp_path):
    bad = tmp_path / "bad.bolt"
    bad.write_text("AddParty\talice:50\nWARP\talice:50\n")
    r = boltpay("run", str(bad))
    assert r.returncode == 2
    assert "line 2" in r.stderr


# A corrupt party claims an honest note and spends it on; with a negative
# claim window the claim would settle the tick it was filed.
FRONT_CLAIM = ("AddParty\talice:50\nAddParty\tbob:50\nAddParty\tmallory:40\n"
               "CORRUPT\tmallory:40\nMINT\talice:50\t25\n"
               "FILECLAIM\tmallory:40\t1\nSETTLE\tmallory:40\t1\n"
               "PAY\tmallory:40\tbob:50\t1\n")


@pytest.mark.parametrize("flag,value", [
    ("--ttr", "-3"), ("--d0", "-5"), ("--t0", "-1"), ("--t1", "-1")])
def test_negative_windows_are_refused_before_any_line_runs(flag, value, tmp_path):
    script = tmp_path / "front-claim.bolt"
    script.write_text(FRONT_CLAIM)
    assert boltpay("run", str(script)).returncode == 0
    # every subcommand refuses it, also those that never build a Simulation
    for command in (("run", str(script)), ("games",), ("demo", "attack-i"),
                    ("demo", "merkle-split")):
        r = boltpay(*command, flag, value)
        assert r.returncode == 2, command
        assert r.stdout == ""
        assert "must not be negative" in r.stderr


@pytest.mark.parametrize("command", [
    ("games",), ("demo", "attack-i"), ("demo", "merkle-split")],
    ids=["games", "attack-i", "merkle-split"])
def test_an_unknown_scheduler_exits_two_without_a_run(command):
    r = boltpay(*command, "--scheduler", "bogus")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unknown scheduler" in r.stderr and "Traceback" not in r.stderr


OUT_COMMANDS = [("run", str(SCENARIOS / "honest-payment.bolt")),
                ("games", "--n", "4"), ("demo", "attack-i")]


@pytest.mark.parametrize("command", OUT_COMMANDS, ids=["run", "games", "demo"])
@pytest.mark.parametrize("where", ["a-directory", "in-a-missing-directory",
                                   "in-a-file"])
def test_an_out_path_that_cannot_be_a_file_exits_two(command, where, tmp_path):
    (tmp_path / "file").write_text("")
    out = {"a-directory": tmp_path,
           "in-a-missing-directory": tmp_path / "no" / "such" / "x",
           "in-a-file": tmp_path / "file" / "x"}[where]
    r = boltpay(*command, "--out", str(out))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr
    assert str(out) in r.stderr


def test_an_unwritable_out_path_is_refused_before_any_work(monkeypatch,
                                                            tmp_path):
    from boltpay import cli

    def work(*args, **kwargs):
        raise AssertionError("a subcommand did work")

    monkeypatch.setattr(cli, "run_scenario", work)
    monkeypatch.setattr(cli, "run_all_games", work)
    monkeypatch.setitem(cli._DEMOS, "attack-i", work)
    for command in OUT_COMMANDS:
        assert cli.main([*command, "--out", str(tmp_path)]) == 2, command


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_an_out_file_that_fails_on_write_exits_two():
    # /dev/full passes every check made up front and then refuses the bytes
    r = boltpay("games", "--n", "4", "--out", "/dev/full")
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_an_out_file_that_fails_on_write_exits_two_in_process(monkeypatch,
                                                             tmp_path, capsys):
    def full(self, text):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    out = tmp_path / "g.txt"
    assert cli.main(["games", "--n", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write --out {out}: No space left on device\n")


def test_a_negative_contract_deposit_is_refused_with_its_line(tmp_path):
    # with the deposit taken as given, initialising the contract would pay
    # mallory 5 coins out of nothing and the run would report a soundness
    # break where the script itself is at fault
    script = tmp_path / "negative-deposit.bolt"
    script.write_text(
        "AddParty\tmallory:50\nCORRUPT\tmallory:50\n"
        f"AddSmartContract\tmallory:50\tmallory:50\tmallory:50=-5\tbase\t{'00' * 32}\n"
        "InitializeWithCoins\tmallory:50\t1\n")
    r = boltpay("run", str(script))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "line 3" in r.stderr and "must not be negative" in r.stderr


def test_a_signature_over_a_514_segment_serial_is_refused(tmp_path):
    # 257 certificates for 514 segments: more message bits than SHA-256 has
    script = tmp_path / "long-serial.bolt"
    script.write_text(
        "AddParty\talice:50\n"
        f"AddSmartContract\talice:50\talice:50\talice:50=5\tsig-gated\t"
        f"{'ab' * 32 * 514}\n"
        "InitializeWithCoins\talice:50\t1\n"
        f"Trigger\talice:50\t1\t0\tRecoverCoinsSig\t{'cd' * 16 * 257}\n")
    r = boltpay("run", str(script))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-2].endswith("RecoverCoinsSig\t0\trejected")


@pytest.mark.parametrize("n", ["0", "300"])
def test_a_key_size_outside_1_to_256_is_refused_before_any_line_runs(n, tmp_path):
    script = tmp_path / "no-mint.bolt"
    script.write_text("AddParty\talice:50\nTICK\t3\n")
    assert boltpay("run", str(script)).returncode == 0
    r = boltpay("run", str(script), "--n", n)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "n must be in 1..256" in r.stderr


@pytest.mark.parametrize("k,code", [("0", 0), ("-5", 2)])
def test_a_negative_tick_count_is_refused_with_its_line(k, code, tmp_path):
    script = tmp_path / "tick.bolt"
    script.write_text(f"AddParty\talice:50\nTICK\t{k}\n")
    r = boltpay("run", str(script))
    assert r.returncode == code, r.stderr
    if code:
        assert r.stdout == ""
        assert "line 2: TICK: tick count must not be negative" in r.stderr


def test_double_spend_needs_the_unsound_flag(tmp_path):
    scenario = str(SCENARIOS / "double-spend-attempt.bolt")
    sound = boltpay("run", scenario)
    assert sound.returncode == 0, sound.stderr
    unsound = boltpay("run", scenario, "--unsound")
    assert unsound.returncode == 1
    assert "violation" in unsound.stderr


def test_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    for out in (a, b):
        r = boltpay("run", str(SCENARIOS / "malicious-lost-claim.bolt"),
                    "--seed", "7", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert r.stdout == ""  # --out redirects the trace away from stdout
    assert a.read_bytes() == b.read_bytes()


def test_different_seed_different_trace(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    scenario = str(SCENARIOS / "honest-payment.bolt")
    assert boltpay("run", scenario, "--seed", "1", "--out", str(a)).returncode == 0
    assert boltpay("run", scenario, "--seed", "2", "--out", str(b)).returncode == 0
    # serials derive from the seed, so the traces must diverge
    assert a.read_bytes() != b.read_bytes()


def test_help_lists_every_tunable():
    r = boltpay("run", "--help")
    assert r.returncode == 0
    for flag in ("--seed", "--variant", "--d0", "--ttr", "--t0", "--t1",
                 "--n", "--scheduler", "--unsound", "--out"):
        assert flag in r.stdout, flag


def test_subcommands_are_required():
    r = boltpay()
    assert r.returncode == 2


@pytest.mark.parametrize("name", DEMOS)
def test_each_demo_runs_clean(name):
    r = boltpay("demo", name)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() != ""


def test_the_merkle_split_demo_signs_once_with_each_one_time_key(monkeypatch,
                                                                 tmp_path):
    from boltpay.bridge import LamportScheme

    keys = []
    sign = LamportScheme.sign

    def spy(self, sk, message):
        keys.append(sk)
        return sign(self, sk, message)

    monkeypatch.setattr(LamportScheme, "sign", spy)
    assert cli.main(["demo", "merkle-split", "--out", str(tmp_path / "d")]) == 0
    assert len(keys) == 4   # the root message and three size probes
    assert len(set(keys)) == len(keys)


def test_unknown_demo_exits_two():
    r = boltpay("demo", "flux-capacitor")
    assert r.returncode == 2
    assert "flux-capacitor" in r.stderr


def test_games_report_no_wins_when_sound():
    r = boltpay("games", "--n", "4")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[-1].startswith("total\t0 wins")
    assert len(lines) == 7  # six games plus the total

def test_games_catch_wins_when_unsound(tmp_path):
    r = boltpay("games", "--n", "4", "--unsound", "--out",
                str(tmp_path / "g.txt"))
    assert r.returncode == 0  # negative control: wins expected, not an error
    text = (tmp_path / "g.txt").read_text()
    assert "sound=False" in text


# -- in process, through cli.main ----------------------------------------------


def test_games_print_each_game_then_the_total_to_stdout(capsys):
    assert cli.main(["games", "--n", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        f"{name}\t0/1000" for name in (
            "counterfeit", "forge-certificate", "forge-signature",
            "sabotage-money", "sabotage-certificate", "sabotage-signature")
    ] + ["total\t0 wins, sound=True"]


def test_a_run_without_out_writes_its_trace_to_stdout(capsys):
    assert cli.main(["run", str(SCENARIOS / "honest-payment.bolt")]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("# boltpay trace v1\n")
    assert out.endswith("\n") and "\t@value\tcounters\t" in out


def test_an_unreadable_script_exits_two_in_process(tmp_path, capsys):
    utf16 = tmp_path / "utf16.bolt"
    utf16.write_bytes("\ufeffAddParty\talice:50\n".encode("utf-16-le"))
    for path in (tmp_path / "no-such-file.bolt", utf16):
        assert cli.main(["run", str(path)]) == 2, path
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_a_positive_peak_under_unsound_exits_one_in_process(tmp_path, capsys):
    out_file = tmp_path / "t.trace"
    assert cli.main(["run", str(SCENARIOS / "double-spend-attempt.bolt"),
                     "--unsound", "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()   # the clones' audit lines, then the peak
    assert all(line.startswith("violation: ") for line in lines)
    assert lines[-1] == "violation: adversary peaked at net +25"
    assert out_file.read_text().startswith("# boltpay trace v1")


def test_a_replayed_challenge_rebinds_the_note_to_a_key_that_signs(tmp_path, capsys):
    """Under sig-gated with n=1 a challenge's 1-bit proof also verifies for
    a thief whose name hashes to the same bit.  The replay rebinds the note
    to a full key of the thief's, so the thief redeems it and the run exits
    1 on the adversary's peak, not 2 on a key the thief cannot sign with."""
    honest = "amy:50"
    thief = next(pid for pid in ("mia:40", "max:40", "kim:40", "lou:40")
                 if message_bits(challenge_message(pid), 1)
                 == message_bits(challenge_message(honest), 1))
    script = tmp_path / "replay.bolt"
    script.write_text("\n".join([
        f"AddParty {honest}", f"AddParty {thief}", f"CORRUPT {thief}",
        f"MINT {honest} 25", f"FILECLAIM {thief} 1", "Tick",
        f"WATCHDOG {honest}", f"REPLAY {thief} 1", "TICK 5",
        f"REDEEM {thief} 1", "TICK 5"]) + "\n")
    out_file = tmp_path / "t.trace"
    assert cli.main(["run", str(script), "--variant", "sig-gated",
                     "--scheduler", "reorder:3", "--n", "1",
                     "--out", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "violation: adversary peaked at net +25\n"
    trace = out_file.read_text().splitlines()
    assert f"1\t{thief}\treplay\t1\t10" in trace
    assert f"6\t{thief}\tredeem\t1\t25" in trace


def test_an_audit_violation_exits_one_in_process(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(Simulation, "audit", lambda self: ["planted problem"])
    assert cli.main(["run", str(SCENARIOS / "honest-payment.bolt"),
                     "--out", str(tmp_path / "t.trace")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "violation: planted problem\n"


@pytest.mark.parametrize("name", cli.ATTACKS)
def test_boltpay_run_on_an_attack_script_prints_its_demo_trace(name, tmp_path,
                                                                capsys):
    _, also_gated, _, script = cli.ATTACKS[name]
    path, out_file = tmp_path / f"{name}.bolt", tmp_path / "t.trace"
    path.write_text(script)
    flags = ["run", str(path), "--ttr", "12", "--n", "8",
             "--scheduler", "reorder:5", "--out", str(out_file)]
    assert cli.main(flags) == 1   # every attack lands on base
    assert capsys.readouterr().err == "violation: adversary peaked at net +25\n"
    demo = (PKG_ROOT / "tests" / "golden" / f"demo.{name}.txt").read_text()
    assert out_file.read_text() == demo.split("\n\n", 1)[1]
    if also_gated:
        assert cli.main([*flags, "--variant", "sig-gated"]) == 0


@pytest.mark.parametrize("flag", [
    ("--variant", "sig-gated"), ("--d0", "5"), ("--ttr", "12"), ("--t0", "3"),
    ("--t1", "3"), ("--n", "8"), ("--scheduler", "reorder:5"), ("--unsound",)],
    ids=lambda flag: flag[0])
def test_an_attack_demo_refuses_a_setting_its_script_cannot_take(
        flag, monkeypatch, tmp_path, capsys):
    def work(*args, **kwargs):
        raise AssertionError("the demo ran")

    monkeypatch.setattr(cli, "run_scenario", work)
    out = tmp_path / "demo.txt"
    for name in cli.ATTACKS:
        assert cli.main(["demo", name, *flag, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"not {flag[0]};" in err
    assert not out.exists()


def test_an_attack_demo_still_takes_its_seed_and_out(tmp_path):
    golden = (PKG_ROOT / "tests" / "golden" / "demo.attack-i.txt").read_text()
    out = tmp_path / "demo.txt"
    assert cli.main(["demo", "attack-i", "--variant", "base", "--out", str(out)]) == 0
    assert out.read_text() == golden
    assert cli.main(["demo", "attack-i", "--seed", "3", "--out", str(out)]) == 0
    seeded = out.read_text()
    assert seeded.split("\n", 1)[0] == golden.split("\n", 1)[0]
    assert seeded != golden
