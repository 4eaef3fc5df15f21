"""Simulation harness: accounting rules, schedulers, scripts, trace replay."""

import inspect
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltpay import harness
from boltpay.attacks import (
    ClaimFrontRunStrategy,
    ProofTheftStrategy,
    run_attack_i,
    run_attack_ii,
    run_attack_iii,
)
from boltpay.contract import (
    BanknoteLost,
    ChallengeClaim,
    ChallengeClaimSig,
    ClaimBy,
    ClaimUnchallenged,
    CommitLost,
    NO_CLAIM,
    RecoverCoins,
    RecoverCoinsSig,
    RevealLost,
)
from boltpay.errors import BoltPayError, ParseError, ScriptError
from boltpay.harness import (
    _DIRECTIVES,
    PendingMessage,
    SimConfig,
    Simulation,
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
            _DIRECTIVES[op][2](sim, *args)
        except (BoltPayError, ValueError, KeyError, IndexError):
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

class RecordingAdversary:
    def __init__(self):
        self.seen = []

    def on_pending(self, sim, pending):
        self.seen.append(pending)


def test_honest_messages_wait_exactly_delta_ticks():
    sim = Simulation(SimConfig(scheduler="reorder:5", t_tr=12))
    adv = RecordingAdversary()
    sim.adversary = adv
    sim.add_party(ALICE)
    ssid = sim.mint(ALICE, 20)  # minting is direct, never scheduled
    assert sim.file_claim(ALICE, ssid) is HELD
    assert len(sim._held) == 1 and [p.kind for p in adv.seen] == ["trigger"]
    assert adv.seen[0].ssid == ssid and adv.seen[0].witness == BanknoteLost()
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
    adv = RecordingAdversary()
    sim.adversary = adv
    sim.add_party(ALICE)
    sim.add_party(BOB)
    assert sim.transaction(ALICE, BOB, 5) is HELD
    assert adv.seen == [PendingMessage(ALICE, "transaction", None, None)]
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
    fewest, most, handler = _DIRECTIVES[op]
    for n in range(fewest, most + 1):
        inspect.signature(handler).bind(None, *["1"] * n)


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


def honest_thief_sim(variant, strategy_cls):
    """The attack set-up with mallory's strategy on but mallory honest, so
    the strategy's own messages wait in the mempool it watches."""
    sim = Simulation(SimConfig(variant=variant, d0=10, t_tr=12, n=8,
                               scheduler="reorder:3"))
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
    sim.adversary = strategy_cls(MALLORY)
    return sim


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_proof_theft_by_an_honest_thief_does_not_replay_itself(variant):
    sim = honest_thief_sim(variant, ProofTheftStrategy)
    ssid = sim.mint(ALICE, 25)
    sim.file_claim(MALLORY, ssid)
    sim.tick(4)
    assert sim.watchdog(ALICE) == [(ssid, "challenge")]
    sim.tick(4)
    # alice's challenge lands first, the replay held behind it finds no claim
    replays = [ln for ln in sim.trace
               if ln.split("\t")[1:3] == [MALLORY, "trigger"]]
    assert len(replays) == 2 and replays[1].endswith("\trejected")
    assert sim.wallets[ALICE].holds(ssid) and not sim.wallets[MALLORY].holds(ssid)
    assert sim.redeem(ALICE, ssid) is HELD
    sim.tick(4)
    assert sim.ledger.parties[ALICE].coins == 60
    assert sim.ledger.parties[MALLORY].coins == 30
    assert sim.honest_bookkeeping_violations() == [] and sim.audit() == []


def test_claim_front_running_by_an_honest_thief_does_not_answer_itself():
    sim = honest_thief_sim("base", ClaimFrontRunStrategy)
    ssid = sim.mint(ALICE, 25)
    sim.lose(ALICE, ssid)
    sim.file_claim(ALICE, ssid)
    sim.tick(sim.config.t_tr + 4)
    claims = [ln for ln in sim.trace if "\tBanknoteLost\t" in ln]
    assert [ln.split("\t")[1] for ln in claims] == [ALICE, MALLORY]
    assert claims[1].endswith("\trejected")
    assert sim.settle(ALICE, ssid) is HELD
    sim.tick(4)
    assert sim.wallets[ALICE].holds(ssid)
    assert sim.ledger.parties[MALLORY].coins == 40
    assert sim.honest_bookkeeping_violations() == [] and sim.audit() == []


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
