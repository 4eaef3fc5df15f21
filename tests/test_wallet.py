"""Wallet protocols: minting, hand-to-hand payment, redemption, the watchdog."""

from collections import Counter

import pytest

from boltpay.contract import (
    BanknoteState,
    ChallengeClaimSig,
    NO_CLAIM,
    challenge_message,
)
from boltpay.errors import MintFailed, NotOwner
from boltpay.harness import ReorderChain, SimConfig, Simulation
from boltpay.lightning import QuantumEnv
from boltpay.qlds import verify_sig
from boltpay.wallet import LOST_OWNER

ALICE = "alice:50"
BOB = "bob:50"
MALLORY = "mallory:40"


class SpyChain(ReorderChain):
    """The delta-0 chain, recording every submission for inspection."""

    def __init__(self, sim):
        super().__init__(sim, 0)
        self.submissions = []

    def submit_trigger(self, sender, ssid, witness, deposit, on_result=None):
        self.submissions.append((sender, ssid, witness, deposit))
        return super().submit_trigger(sender, ssid, witness, deposit, on_result)


def setup(variant="base", n=2, minimal=False, chain_for=()):
    sim = Simulation(SimConfig(variant=variant, d0=10, t_tr=12, t0=10, t1=10,
                               n=n, minimal=minimal))
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
    assert len(note.bolts) == 16
    assert len(note.serial) == 16 * 32


def test_mint_needs_strictly_more_coins_than_the_value():
    env, led, w = setup()
    with pytest.raises(MintFailed):
        w[ALICE].mint(50)
    assert led.retrieve_party(ALICE) == 50
    assert led.contracts == []
    with pytest.raises(MintFailed):
        w[ALICE].mint(-1)


def test_minimal_wallet_mints_single_bolt_notes():
    env, led, w = setup(minimal=True)
    note = w[ALICE].mint(10)
    assert len(note.bolts) == 1 and len(note.serial) == 32


def test_minimal_wallet_refuses_signature_variants():
    with pytest.raises(MintFailed):
        setup(variant="sig-gated", minimal=True)


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
    env.gen_certificate(note.bolts[0], note.bolts[0].serial)
    assert not w[ALICE].pay(w[BOB], note.ssid)
    assert w[ALICE].holds(note.ssid)
    # the last bolt of a full-size key counts as much as the first
    env, led, w = setup(n=256)
    note = w[ALICE].mint(25)
    assert len(note.bolts) == 512
    env.gen_certificate(note.bolts[-1], note.bolts[-1].serial)
    assert not w[ALICE].pay(w[BOB], note.ssid)
    assert w[ALICE].holds(note.ssid)


def _env_calls_during_one_payment(n: int, monkeypatch) -> Counter:
    env, led, w = setup(n=n)
    note = w[ALICE].mint(25)
    calls = Counter()
    for name in ("verify_bolt", "_record", "transfer_bundle", "verify_bundle", "_bundle"):
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
    assert small["verify_bolt"] == small["_record"] == 0
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
    # the measurement is destructive: a refused redeem still spends the note,
    # which is why the honest flow scans for claims before cashing in
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
    assert all(env.owner_of(b) == LOST_OWNER for b in note.bolts)
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
    results = []
    for wait, action in w[ALICE].commit_reveal_claim(note.ssid):
        for _ in range(wait):
            led.tick()
        results.append(action())
    assert results == [0, 0, 10]
    assert led.retrieve_party(ALICE) == 20
    rebound = w[ALICE].notes[note.ssid][0]
    assert rebound.value == 30
    assert w[ALICE].redeem(note.ssid) == 30
    assert led.retrieve_party(ALICE) == 50
