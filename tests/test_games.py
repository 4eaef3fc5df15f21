"""Planted-fault controls: each security game must see the break it guards.

In sound mode every game reports 0 wins (acceptance gate 3), but so would
a game whose win check can never come out true.  Each test here plays the
same trials twice: once as shipped, where the adversary wins none, and
once with the one fault its game looks for planted, where the adversary
must win them all.
"""

from collections import Counter

import pytest

from boltpay import games
from boltpay.lightning import QuantumEnv
from boltpay.qlds import message_bits

SEED, TRIALS = 3, 20


@pytest.mark.parametrize("play,check,answer", [
    (games.game_forge_signature, "verify_sig", True),
    (games.game_sabotage_signature, "verify_sig", False),
    (games.game_forge_certificate, "verify_certificate", True),
    (games.game_sabotage_certificate, "verify_certificate", False),
], ids=["forge-signature", "sabotage-signature", "forge-certificate",
        "sabotage-certificate"])
def test_a_check_that_always_gives_one_answer_loses_every_trial(
        monkeypatch, play, check, answer):
    assert play(SEED, TRIALS).wins == 0
    monkeypatch.setattr(games, check, lambda *args: answer)
    assert play(SEED, TRIALS).wins == TRIALS


def test_a_bundle_that_stops_verifying_loses_every_sabotage_money_trial(
        monkeypatch):
    assert games.game_sabotage_money(SEED, TRIALS).wins == 0
    # per trial: the adversary's own check, then the game's first and
    # second; only the second is made to fail
    calls = Counter()
    verify = QuantumEnv.verify_bundle

    def fails_from_the_third_call(env, handle, serial):
        calls[env.env_id] += 1
        return calls[env.env_id] < 3 and verify(env, handle, serial)

    monkeypatch.setattr(QuantumEnv, "verify_bundle", fails_from_the_third_call)
    assert games.game_sabotage_money(SEED, TRIALS).wins == TRIALS
    assert list(calls.values()) == [3] * TRIALS


def test_an_unsound_environment_loses_every_counterfeit_trial():
    assert games.game_counterfeit(SEED, TRIALS).wins == 0
    assert games.game_counterfeit(SEED, TRIALS, sound=False).wins == TRIALS


def test_the_forge_game_replays_on_a_message_whose_hash_differs_at_every_size(
        monkeypatch):
    signed, replayed = [], []
    gen_sig, verify_sig = games.gen_sig, games.verify_sig
    monkeypatch.setattr(games, "gen_sig", lambda env, key, serial, message: (
        signed.append(message) or gen_sig(env, key, serial, message)))
    monkeypatch.setattr(games, "verify_sig", lambda serial, message, sig: (
        replayed.append(message) or verify_sig(serial, message, sig)))
    for n in range(1, 257):
        assert games.game_forge_signature(SEED, 1, n).wins == 0
        assert message_bits(replayed[-1], n) != message_bits(signed[-1], n)
    assert len(signed) == len(replayed) == 256
    for n in (1, 8, 256):
        assert games.game_forge_signature(SEED, TRIALS, n).wins == 0
