"""Acceptance checks for the package as a whole.

Each test covers one headline property, prints exactly one verdict line
(visible under ``pytest -s`` and in captured output), and fails loudly if
the property does not hold.  Tolerances are exact integer comparisons and
wall-clock bounds; nothing here is statistical beyond fixed seed sets.
"""

import hashlib
import itertools
import random
import time
from pathlib import Path

from phi_oracle import run_agreement

from boltpay import cli
from boltpay.bridge import (
    BridgeNote,
    LamportScheme,
    MerklePath,
    publish_bridge_message,
    split_denominations,
    verify_bridge_note,
)
from boltpay.games import run_all_games
from boltpay.harness import SimConfig, Simulation, run_scenario
from boltpay.ledger import Ledger
from boltpay.lightning import ql_setup
from boltpay.qlds import (
    QldsParams,
    gen_sig,
    message_bits,
    qlds_gen,
    qlds_ver,
    verify_sig,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

ADVERSARIAL = (
    "double-spend-attempt",
    "spend-then-redeem",
    "malicious-lost-claim",
    "claim-then-spend",
    "challenge-theft-attempt",
    "corrupt-uncorrupt-churn",
)


def report(num: int, label: str, problems: list):
    verdict = "PASS" if not problems else "FAIL"
    tail = "" if not problems else " - " + "; ".join(str(p) for p in problems)
    print(f"acceptance {num} ({label}): {verdict}{tail}")
    assert not problems, f"acceptance {num}: {tail}"


def make_draw(seed: bytes):
    counter = itertools.count()
    def draw(k):
        block = hashlib.sha256(seed + next(counter).to_bytes(4, "big")).digest()
        while len(block) < k:
            block += hashlib.sha256(block).digest()
        return block[:k]
    return draw


def value_points(sim):
    """(net, max_net) at every accounting line of the trace."""
    pts = []
    for line in sim.trace:
        parts = line.split("\t")
        if len(parts) >= 7 and parts[1] == "@value":
            pts.append((int(parts[5]), int(parts[6])))
    return pts


def test_1_a_payment_chain_writes_nothing_between_mint_and_redeem():
    problems = []
    lines = [f"AddParty\tp{i}:50" for i in range(101)]
    lines.append("MINT\tp0:50\t25")
    lines += [f"PAY\tp{i}:50\tp{i + 1}:50\t1" for i in range(100)]
    lines.append("REDEEM\tp100:50\t1")
    started = time.monotonic()
    sim = run_scenario(SimConfig(seed=0), "\n".join(lines))
    elapsed = time.monotonic() - started
    # 101 registrations, then exactly mint + redeem touch the ledger state
    if sim.ledger.write_count != 103:
        problems.append(f"write count {sim.ledger.write_count}, want 103")
    if sim.ledger.write_count - 101 != 2:
        problems.append("payment flow cost more than mint + redeem")
    final = sim.ledger.parties["p100:50"].coins
    if final != 75:
        problems.append(f"final holder has {final} coins, want 75")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.2f}s, bound is 5s")
    report(1, "zero-write payment chain", problems)


def test_2_adversarial_scenarios_never_show_positive_net_value():
    problems = []
    unsound_peaks = {}
    for name in ADVERSARIAL:
        text = (SCENARIOS / f"{name}.bolt").read_text()
        sim = run_scenario(SimConfig(seed=0), text)
        pts = value_points(sim)
        if not pts:
            problems.append(f"{name}: no accounting lines")
        if any(net > 0 for net, _ in pts):
            problems.append(f"{name}: positive net at a trace point")
        if sim.value.max_net > 0:
            problems.append(f"{name}: final max_net {sim.value.max_net} > 0")
        loose = run_scenario(SimConfig(seed=0, sound=False), text)
        unsound_peaks[name] = loose.value.max_net
    # sensitivity: with cloning allowed the suite must register a theft
    if unsound_peaks["double-spend-attempt"] <= 0:
        problems.append("double spend with cloning did not register")
    if max(unsound_peaks.values()) <= 0:
        problems.append("no scenario shows positive net when unsound")
    report(2, "adversarial suite max_net <= 0, sensitive when unsound",
           problems)


def test_3_security_games_never_lose():
    problems = []
    started = time.monotonic()
    results = run_all_games(seed=0, trials=1000, n=8, sound=True)
    elapsed = time.monotonic() - started
    if len(results) != 6:
        problems.append(f"{len(results)} games, want 6")
    for r in results:
        if r.trials != 1000:
            problems.append(f"{r.name}: ran {r.trials} trials")
        if r.wins != 0:
            problems.append(f"{r.name}: {r.wins}/1000 wins")
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, bound is 30s")
    report(3, "six security games 0/1000 wins", problems)


def test_4_transition_circuit_matches_the_independent_oracle():
    problems = []
    checked, mismatches = run_agreement()
    if checked != 85536:
        problems.append(f"enumerated {checked} cases, want 85536")
    problems.extend(mismatches[:5])
    report(4, f"transition oracle agreement on {checked} cases", problems)


def test_5_one_time_signatures_hold_at_both_key_sizes():
    problems = []
    for n in (8, 16):
        env = ql_setup(128, n.to_bytes(32, "big"))
        params = QldsParams(n)
        rng = random.Random(500 + n)
        accepted = stale = 0
        for _ in range(500):
            key = qlds_gen(env, params, "signer")
            msg = rng.randbytes(24)
            sig = gen_sig(env, key, key.serial, msg)
            accepted += verify_sig(key.serial, msg, sig)
            stale += not qlds_ver(env, key, key.serial)
        if accepted != 500:
            problems.append(f"n={n}: honest accepts {accepted}/500")
        if stale != 500:
            problems.append(f"n={n}: key survived signing {500 - stale} times")
        rejected = 0
        for _ in range(500):
            key = qlds_gen(env, params, "signer")
            first = rng.randbytes(24)
            other = rng.randbytes(24)
            while message_bits(other, n) == message_bits(first, n):
                other = rng.randbytes(24)
            sig = gen_sig(env, key, key.serial, first)
            rejected += not verify_sig(key.serial, other, sig)
        if rejected != 500:
            problems.append(f"n={n}: replay rejected {rejected}/500")
    report(5, "one-time signatures at n=8 and n=16", problems)


def test_6_watchdogs_block_every_malicious_claim():
    problems = []
    settlements = 0
    challenges = 0
    for seed in range(100):
        sim = Simulation(SimConfig(seed=seed, t_tr=9))
        sim.add_party("alice:50")
        sim.add_party("mallory:40")
        sim.corrupt("mallory:40")
        ssid = sim.mint("alice:50", 20)
        rng = random.Random(7919 * seed + 1)
        sim.tick(rng.randrange(0, 15))
        sim.file_claim("mallory:40", ssid)
        for _ in range(sim.config.t_tr + 3):
            sim.tick()
            if sim.settle("mallory:40", ssid) is not None:
                settlements += 1
        challenges += any(
            "\tChallengeClaim\t" in line and line.split("\t")[1] == "alice:50"
            for line in sim.trace)
        if sim.value.max_net > 0:
            problems.append(f"seed {seed}: max_net {sim.value.max_net}")
    if settlements:
        problems.append(f"{settlements} malicious settlements went through")
    if challenges != 100:
        problems.append(f"watchdog only challenged in {challenges}/100 runs")
    report(6, "watchdog blocks malicious claims in 100 seeded runs", problems)


def test_7_proof_theft_works_on_base_and_dies_on_sig_gated():
    def peak(name, variant, seed):
        script = cli.ATTACKS[name][3]
        return run_scenario(cli.attack_config(seed, variant), script).value.max_net

    problems = []
    for name in ("attack-i", "attack-ii"):
        base = peak(name, "base", 0)
        if base <= 0:
            problems.append(f"{name} base: expected success, got {base}")
        beaten = sum(peak(name, "sig-gated", s) <= 0 for s in range(100))
        if beaten != 100:
            problems.append(f"{name} sig-gated: stopped {beaten}/100")
    if peak("attack-iii", "base", 0) <= 0:
        problems.append("attack-iii demonstration did not land")
    label = cli.ATTACKS["attack-iii"][2]
    if label != "unmitigated-by-design":
        problems.append(f"attack-iii label {label!r}")
    report(7, "attack matrix: i/ii base yes, sig-gated 0/100, iii labeled",
           problems)


def test_8_denomination_splits_cost_one_write_at_every_depth():
    problems = []
    env = ql_setup(128, bytes([8]) * 32)
    scheme = LamportScheme()
    led = Ledger()
    led.add_party("mint:2")
    rng = random.Random(8)
    for n in range(1, 11):
        sk, pk = scheme.key_gen(make_draw(b"acc8-%d" % n))
        msg, notes = split_denominations(env, scheme, sk, 1024, n, "mint")
        before = led.write_count
        publish_bridge_message(led, "mint:2", msg)
        if led.write_count - before != 1:
            problems.append(f"n={n}: publish cost {led.write_count - before}")
        if len(notes) != 1 << n:
            problems.append(f"n={n}: {len(notes)} notes")
        if not all(verify_bridge_note(env, msg, note) for note in notes):
            problems.append(f"n={n}: a genuine path failed")
        note = notes[rng.randrange(len(notes))]
        for i in range(len(note.serial)):
            bent = bytes(b ^ 1 if j == i else b
                         for j, b in enumerate(note.serial))
            fake = BridgeNote(note.bolt, bent, note.value, note.index,
                              note.path)
            if verify_bridge_note(env, msg, fake):
                problems.append(f"n={n}: leaf tamper byte {i} accepted")
                break
        for level, (side, sib) in enumerate(note.path.siblings):
            i = rng.randrange(len(sib))
            bent = bytes(b ^ 1 if j == i else b for j, b in enumerate(sib))
            siblings = (note.path.siblings[:level] + ((side, bent),)
                        + note.path.siblings[level + 1:])
            crooked = BridgeNote(note.bolt, note.serial, note.value,
                                 note.index, MerklePath(note.index, siblings))
            if verify_bridge_note(env, msg, crooked):
                problems.append(f"n={n}: sibling tamper level {level} accepted")
                break
    report(8, "splits for n=1..10 publish once and resist tampering", problems)


def test_9_identical_runs_produce_identical_bytes(tmp_path):
    problems = []
    scenario = str(SCENARIOS / "malicious-lost-claim.bolt")
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    for out in (a, b):
        code = cli.main(["run", scenario, "--seed", "3", "--out", str(out)])
        if code != 0:
            problems.append(f"exit code {code}")
    if a.read_bytes() != b.read_bytes():
        problems.append("traces differ between identical runs")
    if not a.read_bytes():
        problems.append("trace file is empty")
    report(9, "byte-identical reruns", problems)
