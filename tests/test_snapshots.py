"""Pinned environment digests: the registry a run leaves behind, byte for byte.

``QuantumEnv.snapshot()`` hashes every bolt's id, secret, serial, liveness
and owner.  The digests below were taken from the code before per-bolt
ownership was retired in favour of bundles, so they pin that every mint,
move, measurement and clone still draws, numbers and hands over bolts
exactly as before: in each security game (sound, plus the unsound
counterfeit control), in a 2^3 Merkle split, and in the shipped
challenge-theft scenario under every variant and scheduler.
"""

from pathlib import Path

import pytest

from boltpay import games
from boltpay.bridge import LamportScheme, split_denominations
from boltpay.harness import SimConfig, run_scenario
from boltpay.lightning import ql_setup

SCENARIO = (Path(__file__).resolve().parent.parent / "scenarios"
            / "challenge-theft-attempt.bolt")

GAME_DIGESTS = {
    "counterfeit":
        "70ddf53e65782c3f8fcc98ab7ab6edd9a0638c1e573d96c2de56c5afdb0d5936",
    "forge-certificate":
        "586437c7325837fb6e7f8f6d36f46793a45b57c335f989559f51c1cff1dd0161",
    "forge-signature":
        "db53743374fa93589bb39e2151038f4d8b64b2235724f059c26a231915743441",
    "sabotage-money":
        "c727ebf12ff9c832d36d2a1462be0103e3cc62245048789bc78c8a3fc0f40a2f",
    "sabotage-certificate":
        "45644b13156accebe93853f2cd1bb236e251f86791eacc41838896f386ed321b",
    "sabotage-signature":
        "91412b926110feddffc89b39129bd39695df876a809dd5a6f2170a45bf257db7",
}
UNSOUND_COUNTERFEIT_DIGEST = (
    "abcbca6ab5255c118f9b3720d636a4e76bc01e9e31b06c391fb9482aeb48ecf2")
SPLIT_DIGEST = (
    "0f6cea3b71fbfd200afdfe548d67236c91ebd45c9f8f33bbf6d885123d0976b6")
SCENARIO_DIGESTS = {
    ("base", "fifo"):
        "5e446a31101cb4955af2587eea01e1b5f0e5547dcab579bb7c9b3dd1d7731b18",
    ("base", "reorder:3"):
        "5e446a31101cb4955af2587eea01e1b5f0e5547dcab579bb7c9b3dd1d7731b18",
    ("sig-gated", "fifo"):
        "05888bedc58ca7da6c5e86cf8be1009721e4181aaca8536578d71be3c70df899",
    ("sig-gated", "reorder:3"):
        "05888bedc58ca7da6c5e86cf8be1009721e4181aaca8536578d71be3c70df899",
    ("commit-reveal", "fifo"):
        "0b6292ee48f8cf50289b44bbf58293e3221d9febedcc78cb06ccf0ad8bc2ea2a",
    ("commit-reveal", "reorder:3"):
        "0b6292ee48f8cf50289b44bbf58293e3221d9febedcc78cb06ccf0ad8bc2ea2a",
}


def _game_envs(monkeypatch, sound: bool) -> dict:
    """Run every game for one trial; the env each trial left, by game."""
    envs = {}
    make = games._trial_env

    def recording(seed, game, k, sound):
        envs[game] = make(seed, game, k, sound)
        return envs[game]

    monkeypatch.setattr(games, "_trial_env", recording)
    results = games.run_all_games(seed=0, trials=1, sound=sound)
    assert [r.name for r in results] == [
        "counterfeit", "forge-certificate", "forge-signature",
        "sabotage-money", "sabotage-certificate", "sabotage-signature"]
    return envs


def test_each_game_trial_leaves_the_pinned_registry(monkeypatch):
    envs = _game_envs(monkeypatch, sound=True)
    assert {g: env.snapshot().hex() for g, env in envs.items()} == GAME_DIGESTS


def test_the_unsound_clone_leaves_the_pinned_registry(monkeypatch):
    envs = _game_envs(monkeypatch, sound=False)
    assert envs["counterfeit"].snapshot().hex() == UNSOUND_COUNTERFEIT_DIGEST


def test_a_merkle_split_leaves_the_pinned_registry():
    env = ql_setup(128, bytes(32))
    scheme = LamportScheme()
    sk, _ = scheme.key_gen(env.draw_bytes)
    _, notes = split_denominations(env, scheme, sk, 1024, 3, "mint")
    assert len(notes) == 8
    assert env.snapshot().hex() == SPLIT_DIGEST


@pytest.mark.parametrize("variant,scheduler", list(SCENARIO_DIGESTS))
def test_the_challenge_theft_scenario_leaves_the_pinned_registry(variant,
                                                                 scheduler):
    config = SimConfig(variant=variant, scheduler=scheduler)
    sim = run_scenario(config, SCENARIO.read_text())
    assert sim.env.snapshot().hex() == SCENARIO_DIGESTS[variant, scheduler]
