"""Simulation harness: accounting rules, schedulers, scripts, trace replay."""

import inspect
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay import cli, harness
from boltpay.attacks import run_attack_i, run_attack_ii, run_attack_iii
from boltpay.contract import (
    BanknoteLost,
    BanknoteState,
    ChallengeClaim,
    ChallengeClaimSig,
    ClaimBy,
    ClaimUnchallenged,
    CommitLost,
    NO_CLAIM,
    PhiParams,
    RecoverCoins,
    RecoverCoinsSig,
    RevealLost,
)
from boltpay.errors import BoltPayError, NotOwner, ParseError, ScriptError
from boltpay.ledger import ContractParams
from boltpay.harness import (
    _DIRECTIVES,
    SimConfig,
    Simulation,
    parse_line,
    run_scenario,
    witness_from_fields,
)
from boltpay.wallet import HELD
from strategies import PARTIES, THIEF, script
from trace_oracle import TraceReplay, replay_trace

ALICE = "alice:50"
BOB = "bob:50"
MALLORY = "mallory:40"

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SOUND_SCENARIOS = (
    "honest-payment",
    "double-spend-attempt",
    "spend-then-redeem",
    "malicious-lost-claim",
    "claim-then-spend",
    "challenge-theft-attempt",
    "corrupt-uncorrupt-churn",
)


def scenario_text(name):
    return (SCENARIO_DIR / f"{name}.bolt").read_text()


def checked(sim):
    """Replay the trace through the independent accounting oracle."""
    replay = replay_trace(sim.trace)
    assert replay.max_net == sim.value.max_net
    assert replay.received == sim.value.received
    return replay


# -- accounting rules, pinned one at a time ------------------------------

def test_corrupting_counts_coins_and_held_notes_once():
    sim = Simulation(SimConfig())
    sim.add_party(ALICE)
    sim.add_party("dave:30")
    ssid = sim.mint(ALICE, 20)
    sim.pay(ALICE, "dave:30", ssid)
    sim.corrupt("dave:30")
    assert sim.value.received == 50  # 30 coins plus the 20 note
    assert sim.value.current_or_spent == 30
    assert sim.value.max_net == 0
    checked(sim)


def test_uncorrupting_refunds_coins_but_keeps_the_notes():
    sim = Simulation(SimConfig())
    sim.add_party(ALICE)
    sim.add_party("dave:30")
    ssid = sim.mint(ALICE, 20)
    sim.pay(ALICE, "dave:30", ssid)
    sim.corrupt("dave:30")
    sim.uncorrupt("dave:30")
    assert sim.value.received == 20  # the note stays with the adversary
    assert [n.ssid for n in sim.pool] == [ssid]
    assert sim.wallets["dave:30"].banknote_value == 0
    assert sim.value.max_net == 0
    checked(sim)


def test_corrupting_an_empty_party_changes_nothing():
    sim = Simulation(SimConfig())
    sim.add_party("zed:0")
    sim.corrupt("zed:0")
    assert sim.value.received == 0
    assert sim.value.current_or_spent == 0
    checked(sim)


def test_a_note_offered_to_the_adversary_counts_even_when_refused():
    sim = Simulation(SimConfig())
    sim.add_party(ALICE)
    sim.add_party(MALLORY)
    sim.corrupt(MALLORY)
    ssid = sim.mint(ALICE, 25)
    assert not sim.pay(ALICE, MALLORY, ssid, payee_rejects=True)
    assert sim.value.received == 65  # 40 at corruption plus the offered 25
    assert sim.wallets[ALICE].holds(ssid)
    assert sim.value.max_net == 0
    checked(sim)


def test_spending_a_received_note_back_to_honest_parties_nets_zero():
    sim = Simulation(SimConfig())
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
    sim.corrupt(MALLORY)
    ssid = sim.mint(ALICE, 25)
    sim.pay(ALICE, MALLORY, ssid)
    assert sim.value.received == 65
    sim.pay(MALLORY, BOB, ssid)
    assert sim.value.spent_to_honest == 25
    assert sim.value.current_or_spent == 65
    assert sim.value.max_net == 0
    checked(sim)


def test_redeeming_a_received_note_nets_zero():
    sim = Simulation(SimConfig())
    sim.add_party(ALICE)
    sim.add_party(MALLORY)
    sim.corrupt(MALLORY)
    ssid = sim.mint(ALICE, 25)
    sim.pay(ALICE, MALLORY, ssid)
    assert sim.redeem(MALLORY, ssid) == 25
    assert sim.value.current_or_spent == 65  # 40 + 25 live coins
    assert sim.value.received == 65
    assert sim.value.max_net == 0
    checked(sim)


# a transaction from an honest payer, held, to a party corrupted before
# it lands; then every party honest again, and one more delivery, so the
# counters are written again with nobody corrupt
HELD_TO_THE_CORRUPT = [["AddTransaction", ALICE, THIEF, "4"], ["CORRUPT", THIEF],
                       ["TICK", "3"], *(["UNCORRUPT", pid] for pid in PARTIES),
                       ["AddTransaction", THIEF, BOB, "1"], ["TICK", "3"]]


# 40 examples a case in tier-1, the soak profile's count under that profile
RECOUNT_EXAMPLES = (settings().max_examples
                    if settings.get_current_profile_name() == "soak" else 40)


@pytest.mark.parametrize("variant", ["base", "sig-gated", "commit-reveal"])
@settings(max_examples=RECOUNT_EXAMPLES)
@given(lines=script, at=st.integers(0, 40))
def test_every_counters_line_matches_a_recount_under_reordering(variant, lines, at):
    sim = Simulation(SimConfig(variant=variant, scheduler="reorder:3", n=2,
                               d0=5, t_tr=12, t0=3, t1=3))
    for pid in PARTIES:
        sim.add_party(pid)
    replay, fed = TraceReplay(), 0
    for op, *args in lines[:at] + HELD_TO_THE_CORRUPT + lines[at:]:
        try:
            _, _, method, values = parse_line(0, [op, *args], set(sim.wallets))
            getattr(sim, method)(*values)
        except BoltPayError:
            break
        # the replay rebuilds received and spent from the trace by the
        # harness docstring's rules, and checks each new counters line
        for line in sim.trace[fed:]:
            replay.feed(line)
        fed = len(sim.trace)
        assert replay.corrupt == sim.corrupted
        live = sum(sim.ledger.parties[pid].coins for pid in sim.corrupted)
        current_or_spent = live + replay.spent
        counters = [ln for ln in sim.trace if "\t@value\tcounters\t" in ln]
        last = [int(f) for f in counters[-1].split("\t")[3:]] if counters else [0] * 4
        assert last == [replay.received, current_or_spent,
                        current_or_spent - replay.received, replay.max_net], (op, *args)


# -- schedulers ----------------------------------------------------------

def test_honest_messages_wait_exactly_delta_ticks():
    sim = Simulation(SimConfig(scheduler="reorder:5", t_tr=12))
    sim.add_party(ALICE)
    ssid = sim.mint(ALICE, 20)  # minting is direct, never scheduled
    assert sim.file_claim(ALICE, ssid) is HELD
    # (due, deliver, sender, ssid, witness, deposit)
    assert [entry[2:] for entry in sim._held] == [(ALICE, ssid, BanknoteLost(), 10)]
    assert sim._held[0][0] == 5
    sim.tick(4)
    assert sim.ledger.retrieve_contract(ssid)[1].claim == NO_CLAIM
    sim.tick(1)
    assert isinstance(sim.ledger.retrieve_contract(ssid)[1].claim, ClaimBy)
    assert not sim._held
    checked(sim)


def test_corrupt_messages_skip_the_mempool():
    sim = Simulation(SimConfig(scheduler="reorder:5", t_tr=12))
    sim.add_party(ALICE)
    sim.add_party(MALLORY)
    ssid = sim.mint(ALICE, 20)
    sim.corrupt(MALLORY)
    assert sim.file_claim(MALLORY, ssid) == 0
    assert not sim._held
    assert isinstance(sim.ledger.retrieve_contract(ssid)[1].claim, ClaimBy)
    checked(sim)


def test_a_held_transaction_is_shown_without_an_ssid_and_lands_after_delta():
    sim = Simulation(SimConfig(scheduler="reorder:3"))
    sim.add_party(ALICE)
    sim.add_party(BOB)
    assert sim.transaction(ALICE, BOB, 5) is HELD
    assert [entry[2:] for entry in sim._held] == [(ALICE, None, None, 0)]
    assert f"0\t@chain\theld\t{ALICE}\ttransaction\t-\t3" in sim.trace
    sim.tick(2)
    assert sim.ledger.transactions == [] and len(sim._held) == 1
    sim.tick(1)
    assert [(t.payer, t.payee, t.amount) for t in sim.ledger.transactions] == [
        (ALICE, BOB, 5)]
    assert not sim._held
    checked(sim)


def test_held_messages_land_in_submission_order():
    sim = Simulation(SimConfig(scheduler="reorder:3"))
    sim.add_party(ALICE)
    sim.add_party(BOB)
    sim.transaction(ALICE, BOB, 5)
    sim.transaction(BOB, ALICE, 7)
    sim.tick(3)
    assert [(t.payer, t.amount) for t in sim.ledger.transactions] == [
        (ALICE, 5), (BOB, 7)]
    checked(sim)


def test_scheduler_strings():
    assert SimConfig(scheduler="fifo").delta() == 0
    assert SimConfig(scheduler="reorder:7").delta() == 7
    with pytest.raises(ParseError):
        SimConfig(scheduler="reorder:x").delta()
    for count in ("\u00b2", "\u0663"):  # str.isdigit() accepts both
        with pytest.raises(ParseError):
            SimConfig(scheduler=f"reorder:{count}").delta()
    with pytest.raises(ParseError):
        Simulation(SimConfig(scheduler="junk"))
    # past int()'s 4 300-digit limit: a ParseError, not a ValueError
    with pytest.raises(ParseError, match="integer out of range"):
        SimConfig(scheduler="reorder:" + "9" * 5000)


@pytest.mark.parametrize("bad", [
    {"n": 0}, {"n": 257}, {"d0": -1}, {"t_tr": -1}, {"scheduler": "junk"},
    {"variant": "junk"}])
def test_a_bad_configuration_is_refused_when_built(bad):
    with pytest.raises(ParseError):
        SimConfig(**bad)


def test_the_default_scan_interval_is_clamped_to_one():
    assert Simulation(SimConfig(t_tr=1)).scan_interval == 1
    assert Simulation(SimConfig(t_tr=0)).scan_interval == 1


def test_ticking_runs_due_watchdog_scans():
    sim = Simulation(SimConfig(t_tr=12))
    sim.add_party(ALICE)
    sim.add_party(MALLORY)
    sim.corrupt(MALLORY)
    ssid = sim.mint(ALICE, 20)
    sim.file_claim(MALLORY, ssid)
    sim.tick(11)  # scan interval is t_tr - 1
    assert any("watchdog" in line and f"{ssid}:challenge" in line
               for line in sim.trace)
    assert sim.ledger.retrieve_contract(ssid)[1].claim == NO_CLAIM
    assert sim.wallets[ALICE].holds(ssid)
    assert sim.value.max_net == 0
    checked(sim)


# -- scenario scripts ------------------------------------------------------

def test_unknown_directive_reports_its_line():
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), "AddParty alice:50\nNONSENSE x\n")
    assert exc.value.line_no == 2


def test_bad_hex_reports_its_line():
    text = "AddParty alice:50\n\n# comment\nTrigger alice:50 1 0 RecoverCoins zz\n"
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), text)
    assert exc.value.line_no == 4


@pytest.mark.parametrize("line", ["AddParty alice:\u0663", "TICK \u0663"])
def test_script_numbers_take_ascii_digits_only(line):
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), f"AddParty bob:50\n{line}\n")
    assert exc.value.line_no == 2


def test_wrong_witness_arity_reports_its_line():
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(),
                     "AddParty alice:50\nTrigger alice:50 1 0 BanknoteLost ff\n")
    assert exc.value.line_no == 2


def _arity(op):
    fewest, most, _ = _DIRECTIVES[op]
    return fewest if fewest == most else f"{fewest} to {most}"


ARITY_CASES = [(op, n) for op, (fewest, most, _) in _DIRECTIVES.items()
               for n in (fewest - 1, most + 1) if n >= 0]


@pytest.mark.parametrize("op,n", ARITY_CASES,
                         ids=[f"{op}-{n}" for op, n in ARITY_CASES])
def test_every_directive_refuses_a_wrong_argument_count(op, n):
    text = "AddParty alice:50\n" + " ".join([op] + ["1"] * n) + "\n"
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), text)
    assert exc.value.line_no == 2
    assert f"{op} takes {_arity(op)} arguments, got {n}" in str(exc.value)


@pytest.mark.parametrize("op", sorted(_DIRECTIVES))
def test_every_directive_handler_accepts_the_counts_its_row_allows(op):
    fewest, most, parse = _DIRECTIVES[op]
    for n in range(fewest, most + 1):
        inspect.signature(parse).bind(set(), *["1"] * n)


def test_pay_takes_only_reject_as_its_fourth_argument():
    text = ("AddParty alice:50\nAddParty bob:50\nMINT alice:50 5\n"
            "PAY alice:50 bob:50 1 junk\n")
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), text)
    assert exc.value.line_no == 4
    sim = run_scenario(SimConfig(), text.replace("junk", "reject"))
    assert sim.wallets[ALICE].holds(1)


def test_bad_integer_reports_its_line():
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), "TICK soon\n")
    assert exc.value.line_no == 1


# -- the parse phase: a whole script parses before any line runs -------------

def spy_on_inits():
    """A patch of Simulation.__init__, and the list of the configs every
    Simulation built under it is given."""
    seen, build = [], Simulation.__init__

    def spy(self, config):
        seen.append(config)
        build(self, config)

    return mock.patch.object(Simulation, "__init__", spy), seen


@pytest.fixture
def inits():
    patch, seen = spy_on_inits()
    with patch:
        yield seen


def boltpay_run(tmp_path, capsys, text):
    """`boltpay run` on text, in process: (exit code, stdout, stderr); an
    exception escaping main, a traceback from the command, fails the test."""
    path = tmp_path / "script.bolt"
    path.write_text(text)
    code = cli.main(["run", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_a_script_whose_last_line_is_malformed_builds_no_simulation(
        inits, tmp_path, capsys):
    text = scenario_text("honest-payment") + "PAY\talice:50\n"
    last = len(text.splitlines())
    code, out, err = boltpay_run(tmp_path, capsys, text)
    assert (code, out, inits) == (2, "", [])
    assert err == f"error: line {last}: PAY takes 3 to 4 arguments, got 1\n"


DIGITS_5000 = "9" * 5000
# lines whose tokens Python's own int() or bytes.fromhex() refuses with a
# ValueError, and integers of 2**63 or more: each is refused as bad input
UNCONVERTIBLE = {
    "double-minus": ("TICK --5", "expected integer, got '--5'"),
    "5000-digit-value": (f"MINT alice:50 {DIGITS_5000}", "integer out of range"),
    "5000-digit-coins": (f"AddParty bob:{DIGITS_5000}", "integer out of range"),
    "bad-contract-hex": ("AddSmartContract alice:50 alice:50 alice:50=3 base zz",
                         "bad hex in st0hex"),
    "coins-past-2**63": ("AddParty bob:99999999999999999999999",
                         "integer out of range"),
}


@pytest.mark.parametrize("case", sorted(UNCONVERTIBLE))
def test_a_token_python_cannot_convert_exits_two_before_any_line_runs(
        case, inits, tmp_path, capsys):
    line, reason = UNCONVERTIBLE[case]
    code, out, err = boltpay_run(
        tmp_path, capsys, f"AddParty alice:50\nMINT alice:50 25\n{line}\n")
    assert (code, out, inits) == (2, "", [])
    assert err.startswith(f"error: line 3: {line.split()[0]}: {reason}")
    assert len(err) < 200   # a long token is cut short


def test_a_tick_past_the_integer_bound_is_refused_not_run(inits, tmp_path,
                                                          capsys):
    # in range, TICK k costs a due scan every scan_interval ticks; this k
    # would not finish
    code, out, err = boltpay_run(
        tmp_path, capsys,
        "AddParty alice:50\nMINT alice:50 25\nTICK 99999999999999999999\n")
    assert (code, out, inits) == (2, "", [])
    assert err.startswith("error: line 3: TICK: integer out of range")


@pytest.mark.parametrize("k,value", [
    (str(2**63 - 1), 2**63 - 1), (str(-(2**63 - 1)), -(2**63 - 1)),
    ("0" * 5000 + "7", 7), ("-0", 0), (str(2**63), None), (str(-(2**63)), None),
    (str(2**64), None)])
def test_script_integers_lie_strictly_between_minus_and_plus_2_to_the_63(
        k, value):
    text = f"AddParty alice:50\nRetrieveTransaction alice:50 {k}\n"
    if value is None:
        with pytest.raises(ScriptError, match="^line 2: RetrieveTransaction: "
                           "integer out of range"):
            run_scenario(SimConfig(), text)
        return
    sim = run_scenario(SimConfig(), text)
    assert sim.trace[-1] == f"0\talice:50\tretrieve-transaction\t{value}\tnone"


def test_zero_padded_coins_run_as_the_count_they_spell():
    # int() counts leading zeros toward its 4 300-digit limit; a script
    # reads them as the ledger does
    pid = "bob:" + "0" * 5000 + "7"
    sim = run_scenario(SimConfig(), f"AddParty {pid}\nMINT {pid} 3\n")
    assert sim.ledger.parties[pid].coins == 4
    assert sim.trace[2] == f"0\t{pid}\tadd-party\t7"


def test_a_negative_value_in_range_still_runs_and_is_refused_by_the_wallet():
    sim = run_scenario(SimConfig(), "AddParty alice:50\nMINT alice:50 -5\n")
    assert "0\talice:50\tmint\trejected\t-5" in sim.trace


def test_a_negative_tick_count_is_refused_while_parsing(inits):
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), "AddParty alice:50\nTICK -1\n")
    assert str(exc.value) == "line 2: TICK: tick count must not be negative, got -1"
    assert inits == []
    # a library caller meets the same check, as a precondition of tick
    with pytest.raises(ParseError, match="must not be negative, got -1"):
        Simulation(SimConfig()).tick(-1)


GHOST = "ghost:1"
# every argument a wallet directive or AddTransaction's payer names must
# have joined by an earlier AddParty
PARTY_CHECKED = [
    f"CORRUPT {GHOST}", f"UNCORRUPT {GHOST}", f"MINT {GHOST} 5",
    f"PAY {GHOST} {ALICE} 1", f"PAY {ALICE} {GHOST} 1", f"REDEEM {GHOST} 1",
    f"FILECLAIM {GHOST} 1", f"SETTLE {GHOST} 1", f"COMMITCLAIM {GHOST} 1",
    f"REVEALCLAIM {GHOST} 1", f"WATCHDOG {GHOST}", f"CLONE {GHOST} 1",
    f"MOVENOTE 1 {GHOST}", f"LOSE {GHOST} 1", f"AddTransaction {GHOST} {ALICE} 1"]
# a raw ledger sender, or AddTransaction's payee, the ledger itself refuses
LEDGER_CHECKED = {
    f"AddTransaction {ALICE} {GHOST} 1": "transaction\tghost:1\t1\trejected",
    f"RetrieveParty {GHOST} {ALICE}": "retrieve-party\talice:50\t50",
    f"RetrieveTransaction {GHOST} 1": "retrieve-transaction\t1\tnone",
    f"RetrieveContract {GHOST} 1": "retrieve-contract\t1\tnone",
    f"InitializeWithCoins {GHOST} 1": "init-contract\t1\trejected",
    f"Trigger {GHOST} 1 0 RecoverCoins {'00' * 16}":
        "trigger\t1\tRecoverCoins\t0\trejected",
    f"AddSmartContract {GHOST} {GHOST} {GHOST}=1 base 00": "add-contract\tignored",
}


@pytest.mark.parametrize("line", PARTY_CHECKED)
def test_an_unknown_party_is_refused_before_any_line_runs(line, inits):
    # the party joins, but only after the line that names it
    text = f"AddParty {ALICE}\n{line}\nAddParty {GHOST}\n"
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), text)
    assert str(exc.value) == f"line 2: {line.split()[0]}: unknown party '{GHOST}'"
    assert inits == []


@pytest.mark.parametrize("line", sorted(LEDGER_CHECKED))
def test_an_unknown_raw_sender_is_left_to_the_ledger(line):
    sim = run_scenario(SimConfig(), f"AddParty {ALICE}\n{line}\n")
    assert [ln for ln in sim.trace if "@value" not in ln][-1] == (
        f"0\t{line.split()[1]}\t{LEDGER_CHECKED[line]}")


def test_a_two_member_raw_contract_is_posted_and_funded():
    st0 = "ab" * 32
    sim = run_scenario(SimConfig(d0=7), f"AddParty {ALICE}\nAddParty {BOB}\n"
                       f"AddSmartContract {ALICE} {ALICE},{BOB} {ALICE}=3,{BOB}=4"
                       f" sig-gated {st0}\n")
    writes = sim.ledger.write_count
    assert writes == 3   # two parties and the contract
    params = sim.ledger.contracts[0].params
    assert params.members == (ALICE, BOB)
    assert params.deposits == ((ALICE, 3), (BOB, 4))
    assert params.circuit == replace(sim.phi, variant="sig-gated")
    assert params.initial_state.serial == bytes.fromhex(st0)
    assert sim.raw_initialize(ALICE, 1) == "pending"
    assert sim.raw_initialize(BOB, 1) == "ok"
    assert sim.ledger.write_count == writes + 2
    assert [sim.ledger.parties[p].coins for p in (ALICE, BOB)] == [47, 46]
    assert sim.ledger.retrieve_contract(1)[2] == 7
    assert sim.audit() == []
    # the same through script lines, from before the contract is posted
    lines = sim.trace[2:]
    sim = run_scenario(SimConfig(d0=7), f"AddParty {ALICE}\nAddParty {BOB}\n"
                       f"AddSmartContract {ALICE} {ALICE},{BOB} {ALICE}=3,{BOB}=4"
                       f" sig-gated {st0}\nInitializeWithCoins {ALICE} 1\n"
                       f"InitializeWithCoins {BOB} 1\n")
    assert sim.trace[2:] == lines
    assert sim.ledger.write_count == writes + 2


def test_a_member_the_deposits_leave_out_joins_a_raw_contract_for_nothing():
    sim = run_scenario(SimConfig(), f"AddParty {ALICE}\nAddParty {BOB}\n"
                       f"AddSmartContract {ALICE} {ALICE},{BOB} {ALICE}=3"
                       f" base {'ab' * 32}\nInitializeWithCoins {ALICE} 1\n"
                       f"InitializeWithCoins {BOB} 1\n")
    assert sim.trace[-4::2] == [f"0\t{ALICE}\tinit-contract\t1\tpending",
                                f"0\t{BOB}\tinit-contract\t1\tok"]
    assert [sim.ledger.parties[p].coins for p in (ALICE, BOB)] == [47, 50]
    assert sim.ledger.retrieve_contract(1)[2] == 3
    assert sim.audit() == []


def test_a_raw_contract_from_a_library_caller_is_posted_as_given():
    sim = Simulation(SimConfig())
    sim.add_party(ALICE)
    params = ContractParams((ALICE,), ((ALICE, 3),), PhiParams("base", d0=1),
                            BanknoteState(b"\xab" * 32, NO_CLAIM))
    assert sim.raw_add_contract(ALICE, params) == 1
    assert sim.ledger.contracts[0].params is params


@pytest.mark.parametrize("fields,reason", [
    (f"{ALICE} {ALICE}=3 base zz", "bad hex in st0hex"),
    (f"{ALICE} {ALICE}=-3 base 00", f"deposit of {ALICE} must not be negative"),
    (f"{ALICE} {ALICE}=3 gold 00", "unknown variant 'gold'"),
    (f"{ALICE} {ALICE}:3 base 00", f"bad deposit '{ALICE}:3'"),
], ids=["hex", "negative-deposit", "variant", "deposit-without-equals"])
def test_a_bad_raw_contract_is_refused_while_parsing(fields, reason, inits):
    with pytest.raises(ScriptError) as exc:
        run_scenario(SimConfig(), f"AddParty {ALICE}\nMINT {ALICE} 5\n"
                     f"AddSmartContract {ALICE} {fields}\n")
    assert str(exc.value).startswith(f"line 3: AddSmartContract: {reason}")
    assert inits == []


def test_a_package_error_a_step_raises_names_its_line(monkeypatch):
    def pay(*args, **kwargs):
        raise NotOwner("planted")

    monkeypatch.setattr(Simulation, "pay", pay)
    with pytest.raises(ScriptError, match="^line 4: PAY: planted$"):
        run_scenario(SimConfig(), f"AddParty {ALICE}\nAddParty {BOB}\n"
                     f"MINT {ALICE} 5\nPAY {ALICE} {BOB} 1\nMINT {BOB} 5\n")


def test_an_engine_key_error_is_not_called_bad_input(monkeypatch):
    def pay(*args, **kwargs):
        raise KeyError("planted")

    monkeypatch.setattr(Simulation, "pay", pay)
    with pytest.raises(KeyError, match="planted"):
        run_scenario(SimConfig(), scenario_text("honest-payment"))
    # as a process: a traceback and exit 1, not exit 2 with `line N:`
    plant = ("import sys\nfrom boltpay import cli, harness\n"
             "def pay(*args, **kwargs):\n    raise KeyError('planted')\n"
             "harness.Simulation.pay = pay\nsys.exit(cli.main(sys.argv[1:]))\n")
    r = subprocess.run([sys.executable, "-c", plant, "run",
                        str(SCENARIO_DIR / "honest-payment.bolt")],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert "Traceback" in r.stderr and "KeyError: 'planted'" in r.stderr
    assert "error:" not in r.stderr and "ScriptError" not in r.stderr


# one well-formed line of each directive, the first ssids being the
# opening notes
TEMPLATES = {
    "AddParty": ["dan:9"], "RetrieveParty": [ALICE, BOB],
    "AddTransaction": [ALICE, BOB, "3"], "RetrieveTransaction": [ALICE, "1"],
    "AddSmartContract": [ALICE, f"{ALICE},{BOB}", f"{ALICE}=3,{BOB}=4",
                         "sig-gated", "ab" * 32],
    "InitializeWithCoins": [BOB, "7"], "RetrieveContract": [ALICE, "1"],
    "Trigger": [THIEF, "1", "0", "RecoverCoins", "00" * 16],
    "Tick": [], "TICK": ["3"], "CORRUPT": [BOB], "UNCORRUPT": [THIEF],
    "MINT": [ALICE, "3"], "PAY": [ALICE, BOB, "1", "reject"],
    "REDEEM": [ALICE, "1"], "FILECLAIM": [THIEF, "1"], "SETTLE": [THIEF, "1"],
    "COMMITCLAIM": [THIEF, "1"], "REVEALCLAIM": [THIEF, "1"],
    "WATCHDOG": [ALICE], "CLONE": [THIEF, "1"], "MOVENOTE": ["1", BOB],
    "LOSE": [ALICE, "1"], "REPLAY": [THIEF, "1"],
}
assert sorted(TEMPLATES) == sorted(_DIRECTIVES)
# valid and broken tokens
token = st.sampled_from((
    *PARTIES, "0", "1", "3", "-5", "reject", "base", "RecoverCoins",
    "BanknoteLost", "00" * 16, f"{ALICE}=3", f"{ALICE},{BOB}",
    "--5", "\u0663", DIGITS_5000, str(2**63), "zz", GHOST, "alice:", "junk",
    "0" * 5000 + "7", f"dan:{DIGITS_5000}", f"dan:{'0' * 5000}7"))


@st.composite
def fuzzed_line(draw):
    """A directive's well-formed line, maybe one token swapped for a pool
    token, with its argument count kept, one short or one over."""
    op = draw(st.sampled_from(sorted(TEMPLATES)))
    args = list(TEMPLATES[op])
    if args and draw(st.booleans()):
        args[draw(st.integers(0, len(args) - 1))] = draw(token)
    change = draw(st.sampled_from([0, 0, 0, -1, 1]))
    return [op, *(args[:change] if change < 0 else args + [draw(token)] * change)]


# 500 examples in tier-1, the soak profile's count under that profile
TOKEN_EXAMPLES = (settings().max_examples
                  if settings.get_current_profile_name() == "soak" else 500)
# every party joins, the thief is corrupted, and the first two notes minted
OPENING = [f"AddParty {pid}" for pid in PARTIES] + [
    f"CORRUPT {THIEF}", f"MINT {ALICE} 5", f"MINT {BOB} 5"]


@settings(max_examples=TOKEN_EXAMPLES)
@given(lines=st.lists(fuzzed_line(), min_size=1, max_size=4))
def test_a_token_script_is_refused_whole_or_run_to_its_end(lines):
    text = "\n".join(OPENING + [" ".join(tokens) for tokens in lines]) + "\n"
    config = SimConfig(n=2, d0=5, t_tr=12, t0=3, t1=3)
    patch, seen = spy_on_inits()
    with patch:
        try:
            sim = run_scenario(config, text)
        except ScriptError:   # refused by the parse phase alone
            assert seen == []
            return
    assert seen == [config]
    assert sim.ledger.time == sum(int(t[1]) if t[0] == "TICK" else t[0] == "Tick"
                                  for t in lines)


def test_coins_moved_outside_the_ledger_messages_break_conservation():
    sim = Simulation(SimConfig())
    sim.add_party(ALICE)
    sim.mint(ALICE, 5)
    assert sim.audit() == []
    sim.ledger.parties[ALICE].coins += 1
    assert sim.audit() == [
        "conservation broken: 51 coins on ledger, 50 registered"]


def test_scenarios_replay_deterministically():
    text = scenario_text("honest-payment")
    a = run_scenario(SimConfig(), text)
    b = run_scenario(SimConfig(), text)
    assert a.trace == b.trace
    assert a.ledger.digest() == b.ledger.digest()


@pytest.mark.parametrize("name", SOUND_SCENARIOS)
def test_scenario_accounting_replays_and_stays_nonpositive(name):
    sim = run_scenario(SimConfig(), scenario_text(name))
    replay = checked(sim)
    assert replay.value_lines > 0
    assert sim.value.max_net <= 0
    assert sim.audit() == []
    assert sim.honest_bookkeeping_violations() == []


@pytest.mark.parametrize("variant", ["base", "sig-gated", "commit-reveal"])
def test_bookkeeping_leaves_a_foreign_claim_deposit_out_of_the_backing(variant):
    sim = Simulation(SimConfig(variant=variant, t_tr=12))
    sim.add_party(ALICE)
    sim.add_party(MALLORY)
    sim.corrupt(MALLORY)
    ssid = sim.mint(ALICE, 25)
    if variant == "commit-reveal":
        sim.commit_claim(MALLORY, ssid)
        sim.commit_claim(MALLORY, ssid)
        assert sim.ledger.retrieve_contract(ssid)[2] == 45
    else:
        sim.file_claim(MALLORY, ssid)
        assert sim.ledger.retrieve_contract(ssid)[2] == 35
    assert sim.honest_bookkeeping_violations() == []
    sim.wallets[ALICE].banknote_value += 1
    assert sim.honest_bookkeeping_violations() == [
        f"{ALICE}: banknote_value 26, backing 25"]


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_note_under_a_held_challenge_counts_as_backed_until_it_lands(variant):
    sim = Simulation(SimConfig(variant=variant, t_tr=10, scheduler="reorder:3"))
    sim.add_party(ALICE)
    sim.add_party(MALLORY)
    sim.corrupt(MALLORY)
    ssid = sim.mint(ALICE, 5)
    sim.tick(9)
    sim.file_claim(MALLORY, ssid)
    sim.tick(9)   # alice's scan at 18 challenges; the challenge lands at 21
    assert ssid in sim.wallets[ALICE].pending_challenges
    sim.tick(2)
    # the claim has matured: mallory settles while the challenge is held,
    # and the contract no longer carries the serial of alice's note
    assert sim.settle(MALLORY, ssid) == 10
    assert sim.wallets[ALICE].banknote_value == 5
    assert sim.honest_bookkeeping_violations() == []
    sim.tick(1)
    assert f"21\t{ALICE}\ttrigger\t{ssid}" in "\n".join(sim.trace)
    assert not sim.wallets[ALICE].pending_challenges
    assert sim.wallets[ALICE].banknote_value == 0
    assert sim.honest_bookkeeping_violations() == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: corrupt() leaves the "
                   "party's in-flight honest redeem out of received")
def test_a_redeem_in_flight_when_its_sender_is_corrupted_nets_zero():
    sim = run_scenario(SimConfig(scheduler="reorder:3"), "AddParty m:40\n"
                       "MINT m:40 25\nREDEEM m:40 1\nCORRUPT m:40\nTICK 3\n")
    assert sim.value.max_net <= 0


def test_double_spend_only_pays_without_the_no_cloning_guarantee():
    sim = run_scenario(SimConfig(sound=False),
                       scenario_text("double-spend-attempt"))
    replay = checked(sim)
    assert sim.value.max_net > 0
    assert sim.audit() != []


# -- attack traces through the replay oracle ------------------------------

@pytest.mark.parametrize("runner,variant", [
    (run_attack_i, "base"),
    (run_attack_i, "sig-gated"),
    (run_attack_ii, "base"),
    (run_attack_ii, "sig-gated"),
    (run_attack_iii, "base"),
])
def test_attack_traces_replay_cleanly(runner, variant):
    outcome = runner(variant)
    replay = replay_trace(outcome.trace)
    assert replay.max_net == outcome.max_net
    assert outcome.succeeded == (outcome.max_net > 0)


# -- REPLAY: the adversary's mempool power as a script line -----------------

def replay_sim(variant="base", scheduler="reorder:3", corrupt=True):
    """alice, bob and mallory, mallory corrupt unless told not to, and one
    note of alice's, worth 25."""
    sim = Simulation(SimConfig(variant=variant, d0=10, t_tr=12, n=8,
                               scheduler=scheduler))
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
    if corrupt:
        sim.corrupt(MALLORY)
    assert sim.mint(ALICE, 25) == 1
    return sim


def test_a_replay_with_nothing_held_logs_none():
    sim = replay_sim(scheduler="fifo")   # under fifo nothing is ever held
    sim.file_claim(MALLORY, 1)
    assert sim.watchdog(ALICE) == [(1, "challenge")]
    writes = sim.ledger.write_count
    assert sim.replay(MALLORY, 1) is None
    assert sim.trace[-1] == f"0\t{MALLORY}\treplay\t1\tnone"
    assert sim.ledger.write_count == writes and not sim._held


def test_a_held_transaction_is_never_copied():
    sim = replay_sim()
    assert sim.transaction(ALICE, BOB, 5) is HELD
    assert sim.replay(MALLORY, 1) is None
    assert sim.trace[-1] == f"0\t{MALLORY}\treplay\t1\tnone"
    assert len(sim._held) == 1
    sim.tick(3)
    assert [(t.payer, t.payee) for t in sim.ledger.transactions] == [(ALICE, BOB)]


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_proof_theft_by_an_honest_thief_does_not_replay_itself(variant):
    # an honest thief's REPLAY is held like any honest message, and it
    # never copies a message the thief itself has held
    sim = replay_sim(variant, corrupt=False)
    assert sim.file_claim(MALLORY, 1) is HELD
    assert sim.replay(MALLORY, 1) is None   # its own claim is all that is held
    assert sim.trace[-1] == f"0\t{MALLORY}\treplay\t1\tnone"
    sim.tick(3)
    assert sim.watchdog(ALICE) == [(1, "challenge")]
    assert sim.replay(MALLORY, 1) is HELD
    assert sim.replay(MALLORY, 1) is HELD   # alice's again, not its own copy
    assert [entry[2] for entry in sim._held] == [ALICE, MALLORY, MALLORY]
    sim.tick(3)
    # alice's challenge lands first; the copies held behind it find no claim
    replays = [ln for ln in sim.trace
               if ln.split("\t")[1:3] == [MALLORY, "trigger"]]
    assert len(replays) == 3
    assert all(ln.endswith("\trejected") for ln in replays[1:])
    assert sim.wallets[ALICE].holds(1) and not sim.wallets[MALLORY].holds(1)
    assert sim.ledger.parties[MALLORY].coins == 30   # its deposit went to alice
    assert sim.honest_bookkeeping_violations() == [] and sim.audit() == []
    checked(sim)


def test_claim_front_running_by_an_honest_thief_does_not_answer_itself():
    sim = replay_sim(corrupt=False)
    sim.lose(ALICE, 1)
    assert sim.file_claim(ALICE, 1) is HELD
    assert sim.replay(MALLORY, 1) is HELD   # a copy of alice's lost claim
    assert sim.replay(MALLORY, 1) is HELD   # alice's again, not its copy
    sim.tick(sim.config.t_tr + 3)
    claims = [ln for ln in sim.trace if "\tBanknoteLost\t" in ln]
    assert [ln.split("\t")[1] for ln in claims] == [ALICE, MALLORY, MALLORY]
    assert all(ln.endswith("\trejected") for ln in claims[1:])
    assert sim.settle(ALICE, 1) is HELD
    sim.tick(3)
    assert sim.wallets[ALICE].holds(1)
    assert sim.ledger.parties[MALLORY].coins == 40
    assert sim.honest_bookkeeping_violations() == [] and sim.audit() == []
    checked(sim)


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_replayed_challenge_takes_the_note_on_base_only(variant):
    sim = replay_sim(variant)
    sim.file_claim(MALLORY, 1)
    sim.tick(1)
    assert sim.watchdog(ALICE) == [(1, "challenge")]
    paid = sim.replay(MALLORY, 1)
    sim.tick(3)
    thief = sim.wallets[MALLORY]
    if variant == "base":
        assert paid == 10 and sim.trace[-2:] == [
            f"4\t{ALICE}\ttrigger\t1\tChallengeClaim\t0\trejected",
            "4\t@value\tcounters\t40\t40\t0\t0"]
        assert thief.holds(1) and not sim.wallets[ALICE].holds(1)
        note = thief.notes[1][0]
        assert note.value == 25 and note.bundle.count == 1
        assert sim.ledger.retrieve_contract(1)[1].serial == note.serial
        assert sim.pay(MALLORY, BOB, 1)   # and spends it
        assert sim.value.max_net == 25
    else:   # the proof names alice, so it does not verify as mallory's
        assert paid is None
        assert f"1\t{MALLORY}\treplay\t1\trejected" in sim.trace
        assert not thief.holds(1) and sim.wallets[ALICE].holds(1)
        assert sim.value.max_net == 0
    assert sim.audit() == []
    checked(sim)


def test_a_replayed_lost_claim_carries_its_deposit():
    sim = replay_sim()
    sim.lose(ALICE, 1)
    assert sim.file_claim(ALICE, 1) is HELD
    assert sim.replay(MALLORY, 1) == 0
    assert sim.trace[-3:] == [
        f"0\t{MALLORY}\ttrigger\t1\tBanknoteLost\t10\t0",
        "0\t@value\tcounters\t40\t30\t-10\t0",
        f"0\t{MALLORY}\treplay\t1\t0"]
    assert sim.ledger.parties[MALLORY].coins == 30
    assert sim.ledger.retrieve_contract(1)[1].claim == ClaimBy(MALLORY, 0)
    checked(sim)


# -- witness codec ---------------------------------------------------------

WITNESS_SHAPES = (
    (BanknoteLost, 0),
    (ChallengeClaim, 2),
    (ClaimUnchallenged, 1),
    (RecoverCoins, 1),
    (ChallengeClaimSig, 2),
    (RecoverCoinsSig, 1),
    (CommitLost, 1),
    (RevealLost, 1),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(WITNESS_SHAPES) - 1),
       st.lists(st.binary(max_size=48), min_size=2, max_size=2))
def test_witness_codec_roundtrip(i, blobs):
    cls, arity = WITNESS_SHAPES[i]
    blobs = blobs[:arity]
    assert witness_from_fields(cls.__name__, [b.hex() for b in blobs]) == cls(*blobs)


def test_witness_codec_rejects_malformed_input():
    with pytest.raises(ParseError):
        witness_from_fields("NoSuchWitness", [])
    with pytest.raises(ParseError):
        witness_from_fields("RecoverCoins", [])
    with pytest.raises(ParseError):
        witness_from_fields("RecoverCoins", ["zz"])


def test_trace_headers_name_the_configuration():
    sim = Simulation(SimConfig(seed=3, scheduler="reorder:2"))
    assert sim.trace[0].startswith("#")
    assert "seed=3" in sim.trace[1] and "scheduler=reorder:2" in sim.trace[1]


# -- the trace is rendered when it is read -----------------------------------

class EagerSimulation(Simulation):
    """The reference: each record is rendered the moment it is logged."""

    def log(self, actor, action, *fields):
        super().log(actor, action, *fields)
        self.trace


def mint_pay_redeem(sim):
    """Mints, payments and a redeem, with the adversary's counters moving
    after the first counters lines are logged."""
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
    sim.corrupt(MALLORY)
    first, second = sim.mint(ALICE, 5), sim.mint(ALICE, 7)
    assert sim.pay(ALICE, MALLORY, first)
    assert sim.pay(ALICE, BOB, second)
    assert sim.redeem(BOB, second) == 7
    sim.mint(BOB, 3)


def test_a_trace_nobody_reads_does_no_trace_work(monkeypatch):
    hashed = []
    fingerprint = harness.fingerprint
    monkeypatch.setattr(harness, "fingerprint",
                        lambda data: hashed.append(data) or fingerprint(data))
    sim = Simulation(SimConfig())
    mint_pay_redeem(sim)
    assert hashed == []
    trace = list(sim.trace)
    mints = [line.split("\t")[-1] for line in trace if "\tmint\t" in line]
    assert len(mints) == 3 and [fingerprint(s) for s in hashed] == mints
    assert sim.trace == trace and len(hashed) == 3   # a second read renders nothing
    # each counters line keeps the numbers of its own account() call
    counters = [line.split("\t")[3:] for line in trace
                if "\t@value\tcounters\t" in line]
    assert counters[0] == ["40", "40", "0", "0"]
    assert counters[-1] == ["45", "40", "-5", "0"]
    eager = EagerSimulation(SimConfig())
    mint_pay_redeem(eager)
    assert "\n".join(trace).encode() == "\n".join(eager.trace).encode()


def test_an_unread_mint_record_holds_the_serial_the_env_keeps():
    # the environment keeps every bundle for the whole run, so the serial a
    # mint record holds until the trace is read is one more reference to
    # bytes that stay alive anyway, even once the note is redeemed
    sim = Simulation(SimConfig(n=256))
    sim.add_party(ALICE)
    ssid = sim.mint(ALICE, 5)
    assert sim.redeem(ALICE, ssid) == 5
    mint = next(r for r in sim._trace[sim._rendered:] if r[2] == "mint")
    serial = mint[-1]
    assert type(serial) is bytes and len(serial) == 2 * 256 * 32
    assert sim.env.holders(serial) == [ALICE]
    assert [rec.serial for rec in sim.env._by_serial[serial]] == [serial]
    assert sim.env._by_serial[serial][0].serial is serial
