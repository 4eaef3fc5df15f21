"""Wallet protocols: minting, hand-to-hand payment, redemption, the watchdog."""

from collections import Counter
from dataclasses import dataclass, replace

import pytest

from boltpay.contract import (
    BanknoteState,
    ChallengeClaimSig,
    ClaimBy,
    CommitEntry,
    LostClaimCommits,
    NO_CLAIM,
    challenge_message,
)
from boltpay.errors import MintFailed, NotOwner
from boltpay.harness import SimConfig, Simulation
from boltpay.lightning import QuantumEnv
from boltpay.qlds import verify_sig
from boltpay.wallet import HELD, LOST_OWNER, Banknote

ALICE = "alice:50"
BOB = "bob:50"
MALLORY = "mallory:40"


class SpyChain:
    """Records every trigger a wallet submits, then hands it to the
    simulation's own mempool, which delivers it at once under fifo."""

    def __init__(self, sim):
        self.sim = sim
        self.submissions = []

    def submit_trigger(self, sender, ssid, witness, deposit, on_result=None):
        self.submissions.append((sender, ssid, witness, deposit))
        return self.sim.submit_trigger(sender, ssid, witness, deposit, on_result)


def setup(variant="base", n=2, chain_for=()):
    sim = Simulation(SimConfig(variant=variant, d0=10, t_tr=12, t0=10, t1=10,
                               n=n))
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
        if pid in chain_for:
            sim.wallets[pid].chain = SpyChain(sim)
    return sim.env, sim.ledger, sim.wallets


def test_mint_moves_the_face_value_into_a_backing_contract():
    env, led, w = setup()
    note = w[ALICE].mint(40)
    assert led.retrieve_party(ALICE) == 10
    params, state, pot = led.retrieve_contract(note.ssid)
    assert pot == 40
    assert state == BanknoteState(note.serial, NO_CLAIM)
    assert w[ALICE].banknote_value == 40


def test_mint_key_shape_tracks_the_bit_parameter():
    env, led, w = setup(n=8)
    note = w[ALICE].mint(5)
    assert note.bundle.count == 16
    assert len(note.serial) == 16 * 32


def test_mint_needs_strictly_more_coins_than_the_value():
    env, led, w = setup()
    with pytest.raises(MintFailed):
        w[ALICE].mint(50)
    assert led.retrieve_party(ALICE) == 50
    assert led.contracts == []
    with pytest.raises(MintFailed):
        w[ALICE].mint(-1)


def test_payment_chain_costs_no_ledger_writes():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    writes = led.write_count
    assert w[ALICE].pay(w[BOB], note.ssid)
    assert w[BOB].pay(w[MALLORY], note.ssid)
    assert led.write_count == writes
    assert w[MALLORY].holds(note.ssid)
    assert not w[ALICE].holds(note.ssid)
    assert (w[ALICE].banknote_value, w[BOB].banknote_value,
            w[MALLORY].banknote_value) == (0, 0, 25)


def test_payment_without_the_note_reports_false():
    env, led, w = setup()
    assert not w[ALICE].pay(w[BOB], 1)


def test_rejected_payment_restores_the_note():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    assert not w[ALICE].pay(w[BOB], note.ssid, payee_rejects=True)
    assert w[ALICE].holds(note.ssid) and not w[BOB].holds(note.ssid)
    assert w[ALICE].banknote_value == 25
    # the bolts came back too: a follow-up payment succeeds
    assert w[ALICE].pay(w[BOB], note.ssid)


def test_payee_rejects_a_note_under_claim():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    assert w[MALLORY].file_lost_claim(note.ssid) == 0
    assert not w[ALICE].pay(w[BOB], note.ssid)
    assert w[ALICE].holds(note.ssid)


def test_payee_rejects_a_note_with_a_dead_bolt():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    env.measure_bolts(note.bundle, (0,))
    assert not w[ALICE].pay(w[BOB], note.ssid)
    assert w[ALICE].holds(note.ssid)
    # the last bolt of a full-size key counts as much as the first
    env, led, w = setup(n=256)
    note = w[ALICE].mint(25)
    assert note.bundle.count == 512
    env.measure_bolts(note.bundle, (511,))
    assert not w[ALICE].pay(w[BOB], note.ssid)
    assert w[ALICE].holds(note.ssid)


def test_payee_rejects_a_note_whose_contract_does_not_exist():
    env, led, w = setup()
    stray = Banknote(99, env.gen_bundle(ALICE, 4), 25)   # no contract 99
    w[ALICE]._add_note(stray)
    assert not w[ALICE].pay(w[BOB], 99)
    assert w[ALICE].notes[99] == [stray] and not w[BOB].notes


def test_held_reads_as_its_name():
    # assertion messages and trace debugging show it
    assert repr(HELD) == "HELD"


@pytest.mark.parametrize("variant", ["base", "sig-gated"])
def test_a_note_with_dead_bolts_can_neither_redeem_nor_answer(variant):
    sim = Simulation(SimConfig(variant=variant, d0=10, t_tr=12, n=2))
    for pid in (ALICE, BOB, MALLORY):
        sim.add_party(pid)
    sim.corrupt(MALLORY)
    first, second = sim.mint(ALICE, 5), sim.mint(ALICE, 5)
    for ssid in (first, second):
        # both bolts of bit 0, so no signature can be made whatever the
        # message, and no full measurement on base
        sim.env.measure_bolts(sim.wallets[ALICE].notes[ssid][0].bundle, (0, 1))
    assert sim.redeem(ALICE, first) is None
    assert sim.trace[-1] == f"0\t{ALICE}\tredeem\t{first}\trejected"
    assert sim.ledger.retrieve_contract(first)[2] == 5   # nothing was sent
    sim.file_claim(MALLORY, second)
    sim.tick(11)   # alice's due scan
    assert sim.trace[-1] == f"11\t{ALICE}\twatchdog\t1\t{second}:no-proof"
    assert sim.ledger.retrieve_contract(second)[1].claim.pid == MALLORY


@dataclass(frozen=True)
class LookAlikeState:
    """Not a BanknoteState, with a BanknoteState's fields."""

    serial: bytes | None
    claim: object


def _circuit(**changes):
    """The contract with its circuit replaced by a changed copy."""
    return lambda params, state, coins, other: (
        replace(params, circuit=replace(params.circuit, **changes)), state, coins)


def _state(make):
    """The contract with its state replaced by make(state, other serial)."""
    return lambda params, state, coins, other: (params, make(state, other), coins)


# (what the backing contract of the paid note carries, whether the payee
# accepts, how it is made from the minted note's contract)
PAYEE_VERDICTS = [
    ("the-networks-own-phi", True, lambda p, s, c, o: (p, s, c)),
    ("an-equal-copy-of-phi", True, _circuit()),
    ("a-foreign-d0", False, _circuit(d0=11)),
    ("a-foreign-t_tr", False, _circuit(t_tr=13)),
    ("a-foreign-variant", False, _circuit(variant="base")),
    ("coins-above-face-value", False, lambda p, s, c, o: (p, s, c + 1)),
    ("coins-below-face-value", False, lambda p, s, c, o: (p, s, c - 1)),
    ("a-ClaimBy-claim", False,
     _state(lambda s, o: BanknoteState(s.serial, ClaimBy(MALLORY, 0)))),
    ("a-LostClaimCommits-claim", False, _state(lambda s, o: BanknoteState(
        s.serial, LostClaimCommits((CommitEntry(MALLORY, bytes(32), 0),))))),
    ("a-redeemed-state", False, _state(lambda s, o: BanknoteState(None, None))),
    ("another-serial", False, _state(lambda s, o: BanknoteState(o, NO_CLAIM))),
    ("a-look-alike-state-class", False,
     _state(lambda s, o: LookAlikeState(s.serial, s.claim))),
]


@pytest.mark.parametrize("accepted,tamper", [v[1:] for v in PAYEE_VERDICTS],
                         ids=[v[0] for v in PAYEE_VERDICTS])
def test_the_payee_accepts_exactly_an_unclaimed_note_on_the_networks_terms(
        accepted, tamper):
    env, led, w = setup(variant="sig-gated")
    note = w[ALICE].mint(25)
    other = w[ALICE].mint(5)
    rec = led._contract(note.ssid)
    assert rec.params.circuit is w[BOB].phi
    params, state, coins = tamper(rec.params, rec.state, rec.coins, other.serial)
    rec.params, rec.coins = params, coins
    led._set_state(rec, state)
    assert w[ALICE].pay(w[BOB], note.ssid) is accepted
    assert w[BOB].holds(note.ssid) is accepted
    assert w[ALICE].holds(note.ssid) is not accepted


def _env_calls_during_one_payment(n: int, monkeypatch) -> Counter:
    env, led, w = setup(n=n)
    note = w[ALICE].mint(25)
    calls = Counter()
    for name in ("verify_bolt", "transfer_bundle", "verify_bundle", "_bundle"):
        original = getattr(QuantumEnv, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(QuantumEnv, name, counted)
    assert w[ALICE].pay(w[BOB], note.ssid)
    monkeypatch.undo()
    return calls


def test_payment_env_calls_do_not_grow_with_the_key_size(monkeypatch):
    small = _env_calls_during_one_payment(8, monkeypatch)
    large = _env_calls_during_one_payment(256, monkeypatch)
    assert small == large
    assert small["verify_bolt"] == 0
    assert small["transfer_bundle"] == small["verify_bundle"] == 1


def test_redeem_returns_the_backing_coins_and_terminates():
    env, led, w = setup()
    note = w[ALICE].mint(40)
    assert w[ALICE].redeem(note.ssid) == 40
    assert led.retrieve_party(ALICE) == 50
    assert led.contracts[0].terminated
    assert w[ALICE].banknote_value == 0
    assert w[ALICE].redeem(note.ssid) is None  # nothing left to redeem


def test_redeem_after_paying_consumes_nothing():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    w[ALICE].pay(w[BOB], note.ssid)
    assert w[ALICE].redeem(note.ssid) is None
    assert w[BOB].holds(note.ssid)
    assert w[BOB].redeem(note.ssid) == 25


def test_redeem_under_a_foreign_claim_burns_the_proof():
    # the measurement is destructive: a refused redeem still spends the note.
    # Nothing scans for claims before cashing in, and under reordering a claim
    # can land first anyway; the claimant then takes the note: see the strict
    # xfail test_an_honest_redeem_under_a_claim_nets_the_claimant_nothing in
    # test_harness.py
    env, led, w = setup()
    note = w[ALICE].mint(40)
    w[MALLORY].file_lost_claim(note.ssid)
    assert w[ALICE].redeem(note.ssid) is None
    assert not w[ALICE].holds(note.ssid)
    assert w[ALICE].banknote_value == 0
    assert led.retrieve_party(ALICE) == 10


def test_watchdog_answers_a_foreign_claim_and_keeps_the_deposit():
    env, led, w = setup()
    note = w[ALICE].mint(40)
    w[MALLORY].file_lost_claim(note.ssid)
    actions = w[ALICE].watchdog_scan()
    assert actions == [(note.ssid, "challenge")]
    # claimant's deposit goes to alice, the rebound note keeps its value
    assert led.retrieve_party(ALICE) == 20
    assert led.retrieve_party(MALLORY) == 30
    params, state, pot = led.retrieve_contract(note.ssid)
    assert pot == 40 and state.claim == NO_CLAIM
    assert state.serial != note.serial
    rebound = w[ALICE].notes[note.ssid][0]
    assert rebound.serial == state.serial
    assert w[ALICE].pay(w[BOB], note.ssid)


def test_watchdog_is_quiet_without_claims():
    env, led, w = setup()
    w[ALICE].mint(40)
    assert w[ALICE].watchdog_scan() == []


def test_watchdog_ignores_the_wallets_own_claim():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    w[ALICE].file_lost_claim(note.ssid)
    assert w[ALICE].watchdog_scan() == []


def test_sig_gated_watchdog_submits_a_signature_naming_itself():
    env, led, w = setup(variant="sig-gated", chain_for=(ALICE,))
    note = w[ALICE].mint(25)
    w[MALLORY].file_lost_claim(note.ssid)
    assert w[ALICE].watchdog_scan() == [(note.ssid, "challenge")]
    sender, ssid, witness, deposit = w[ALICE].chain.submissions[-1]
    assert isinstance(witness, ChallengeClaimSig) and deposit == 0
    assert verify_sig(note.serial, challenge_message(ALICE), witness.signature)
    assert led.retrieve_contract(ssid)[1].claim == NO_CLAIM


def test_lost_bolts_belong_to_nobody():
    env, led, w = setup()
    note = w[ALICE].mint(25)
    w[ALICE].lose_note(note.ssid)
    assert not w[ALICE].holds(note.ssid)
    assert w[ALICE].banknote_value == 0
    assert env.owner_of(note.bundle) == LOST_OWNER
    for payer, payee in ((ALICE, BOB), (BOB, MALLORY), (MALLORY, ALICE)):
        assert not w[payer].pay(w[payee], note.ssid)
    # a wallet handed the lost note itself still cannot move its bolts
    w[BOB]._add_note(note)
    with pytest.raises(NotOwner):
        w[BOB].pay(w[MALLORY], note.ssid)


def test_settle_unchallenged_rebinds_a_matured_claim():
    # mint 30 of 50 so the claim deposit clears the strict balance check
    env, led, w = setup()
    note = w[ALICE].mint(30)
    w[ALICE].lose_note(note.ssid)
    assert w[ALICE].file_lost_claim(note.ssid) == 0
    assert led.retrieve_party(ALICE) == 10
    for _ in range(13):
        led.tick()
    assert w[ALICE].settle_unchallenged(note.ssid) == 10
    assert led.retrieve_party(ALICE) == 20
    rebound = w[ALICE].notes[note.ssid][0]
    assert rebound.value == 30
    assert w[ALICE].redeem(note.ssid) == 30
    assert led.retrieve_party(ALICE) == 50


def test_claim_deposit_needs_strictly_more_coins():
    env, led, w = setup()
    note = w[ALICE].mint(40)  # leaves exactly the deposit
    w[ALICE].lose_note(note.ssid)
    assert w[ALICE].file_lost_claim(note.ssid) is None
    assert led.retrieve_party(ALICE) == 10


def test_settle_before_maturity_changes_nothing():
    env, led, w = setup()
    note = w[ALICE].mint(30)
    w[ALICE].lose_note(note.ssid)
    w[ALICE].file_lost_claim(note.ssid)
    for _ in range(12):
        led.tick()
    assert w[ALICE].settle_unchallenged(note.ssid) is None
    assert not w[ALICE].holds(note.ssid)
    assert led.retrieve_party(ALICE) == 10


def test_commit_reveal_claim_plays_out_in_stages():
    env, led, w = setup(variant="commit-reveal")
    note = w[ALICE].mint(30)
    w[ALICE].lose_note(note.ssid)
    results = [w[ALICE].commit_lost_claim(note.ssid)]
    led.tick()
    results.append(w[ALICE].reveal_lost_claim(note.ssid))
    led.tick(w[ALICE].phi.t1 + 1)
    results.append(w[ALICE].settle_unchallenged(note.ssid))
    assert results == [0, 0, 10]
    assert led.retrieve_party(ALICE) == 20
    rebound = w[ALICE].notes[note.ssid][0]
    assert rebound.value == 30
    assert w[ALICE].redeem(note.ssid) == 30
    assert led.retrieve_party(ALICE) == 50
