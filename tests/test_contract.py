"""Banknote circuit transitions, pinned case by case, plus the oracle sweep."""

import hashlib

import pytest

import phi_oracle as po
from boltpay.contract import (
    BanknoteLost,
    BanknoteState,
    ChallengeClaim,
    ClaimBy,
    ClaimUnchallenged,
    CommitLost,
    NO_CLAIM,
    PhiParams,
    RecoverCoins,
    RecoverCoinsSig,
    RevealLost,
    banknote_params,
    commitment_hash,
    is_banknote_contract,
    phi_money,
)
from boltpay.errors import ParseError
from boltpay.ledger import ALL_COINS

NET = po.network("base")
NET_SIG = po.network("sig-gated")
NET_CR = po.network("commit-reveal")

UNCLAIMED = BanknoteState(po.SERIAL, NO_CLAIM)


def test_lost_report_opens_a_claim_stamped_with_the_current_tick():
    got = phi_money(NET, po.ME, BanknoteLost(), 7, UNCLAIMED, 10)
    assert got == (BanknoteState(po.SERIAL, ClaimBy(po.ME, 7)), 0)


def test_lost_report_requires_the_exact_deposit():
    assert phi_money(NET, po.ME, BanknoteLost(), 7, UNCLAIMED, 9) is None
    assert phi_money(NET, po.ME, BanknoteLost(), 7, UNCLAIMED, 11) is None


def test_recover_with_valid_preimages_takes_everything():
    got = phi_money(NET, po.ME, RecoverCoins(po.CERT), 3, UNCLAIMED, 0)
    assert got == (BanknoteState(None, None), ALL_COINS)


def test_recover_with_bad_preimages_is_refused():
    assert phi_money(NET, po.ME, RecoverCoins(po.BAD_CERT), 3, UNCLAIMED, 0) is None
    assert phi_money(NET, po.ME, RecoverCoins(b""), 3, UNCLAIMED, 0) is None


def test_challenge_rebinds_to_the_fresh_serial_and_pays_the_deposit():
    claimed = BanknoteState(po.SERIAL, ClaimBy(po.OTHER, 50))
    got = phi_money(NET, po.ME, ChallengeClaim(po.CERT, po.FRESH), 55, claimed, 0)
    assert got == (BanknoteState(po.FRESH, NO_CLAIM), NET.d0)


def test_settle_needs_strictly_more_than_the_maturity_window():
    claimed = BanknoteState(po.SERIAL, ClaimBy(po.ME, 50))
    w = ClaimUnchallenged(po.FRESH)
    assert phi_money(NET, po.ME, w, 50 + NET.t_tr, claimed, 0) is None
    got = phi_money(NET, po.ME, w, 50 + NET.t_tr + 1, claimed, 0)
    assert got == (BanknoteState(po.FRESH, NO_CLAIM), NET.d0)


def test_settle_is_only_for_the_claimant():
    claimed = BanknoteState(po.SERIAL, ClaimBy(po.OTHER, 50))
    assert phi_money(NET, po.ME, ClaimUnchallenged(po.FRESH), 99, claimed, 0) is None


def test_redeemed_contract_refuses_every_witness():
    gone = BanknoteState(None, None)
    for w in po.WITNESSES:
        for net in (NET, NET_SIG, NET_CR):
            assert phi_money(net, po.ME, w, 70, gone, 10) is None


def test_sig_gated_recover_names_the_sender():
    got = phi_money(NET_SIG, po.ME, RecoverCoinsSig(po.SIG_REC_ME), 3, UNCLAIMED, 0)
    assert got == (BanknoteState(None, None), ALL_COINS)
    # the same signature is dead weight in anyone else's message
    assert phi_money(NET_SIG, po.OTHER, RecoverCoinsSig(po.SIG_REC_ME),
                    3, UNCLAIMED, 0) is None


def test_sig_gated_variant_refuses_raw_preimage_witnesses():
    assert phi_money(NET_SIG, po.ME, RecoverCoins(po.CERT), 3, UNCLAIMED, 0) is None
    claimed = BanknoteState(po.SERIAL, ClaimBy(po.OTHER, 50))
    assert phi_money(NET_SIG, po.ME, ChallengeClaim(po.CERT, po.FRESH),
                    55, claimed, 0) is None


def test_reveal_window_is_inclusive_at_the_deadline():
    committed = phi_money(NET_CR, po.ME, CommitLost(po.COMMIT_ME), 5, UNCLAIMED, 10)
    assert committed is not None and committed[1] == 0
    st = committed[0]
    assert phi_money(NET_CR, po.ME, RevealLost(po.NONCE_ME),
                    5 + NET_CR.t0, st, 0) is not None
    assert phi_money(NET_CR, po.ME, RevealLost(po.NONCE_ME),
                    5 + NET_CR.t0 + 1, st, 0) is None


def test_earliest_committer_wins_the_settle_race():
    st = UNCLAIMED
    st = phi_money(NET_CR, po.ME, CommitLost(po.COMMIT_ME), 3, st, 10)[0]
    st = phi_money(NET_CR, po.OTHER, CommitLost(po.COMMIT_OTHER), 4, st, 10)[0]
    st = phi_money(NET_CR, po.OTHER, RevealLost(po.NONCE_OTHER), 5, st, 0)[0]
    st = phi_money(NET_CR, po.ME, RevealLost(po.NONCE_ME), 6, st, 0)[0]
    late = 6 + NET_CR.t1 + 1
    assert phi_money(NET_CR, po.OTHER, ClaimUnchallenged(po.FRESH),
                    late, st, 0) is None
    got = phi_money(NET_CR, po.ME, ClaimUnchallenged(po.FRESH), late, st, 0)
    assert got == (BanknoteState(po.FRESH, NO_CLAIM), NET_CR.d0)


def test_commit_reveal_variant_has_no_direct_lost_claim():
    assert phi_money(NET_CR, po.ME, BanknoteLost(), 7, UNCLAIMED, 10) is None


def test_commitment_hash_is_the_tagged_sha256():
    got = commitment_hash(po.ME, po.SERIAL, po.NONCE_ME)
    want = hashlib.sha256(
        b"QLCOMMIT" + po.ME.encode() + po.SERIAL + po.NONCE_ME).digest()
    assert got == want


def test_note_shape_check():
    honest = banknote_params(po.ME, 25, NET, po.SERIAL)
    assert is_banknote_contract(honest, NET)
    # a second member, a mismatched deposit, or foreign constants all fail
    two = honest.__class__(members=(po.ME, po.OTHER), deposits=honest.deposits,
                           circuit=NET, initial_state=honest.initial_state)
    assert not is_banknote_contract(two, NET)
    wrong_d = banknote_params(po.ME, 25, NET,
                              po.SERIAL).__class__(
        members=(po.ME,), deposits=((po.OTHER, 25),),
        circuit=NET, initial_state=honest.initial_state)
    assert not is_banknote_contract(wrong_d, NET)
    assert not is_banknote_contract(honest, po.network("sig-gated"))


def test_unknown_variant_is_rejected_at_construction():
    with pytest.raises(ValueError):
        PhiParams(variant="turbo")


@pytest.mark.parametrize("name", ["d0", "t_tr", "t0", "t1"])
def test_negative_windows_and_deposits_are_refused(name):
    with pytest.raises(ParseError):
        PhiParams(**{name: -1})


def test_circuit_agrees_with_the_reference_rules_everywhere():
    checked, mismatches = po.run_agreement()
    assert checked == 85536
    assert mismatches == []
