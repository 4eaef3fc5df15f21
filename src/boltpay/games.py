"""Security games: forging and sabotage, all played by one trial loop.

Each game runs many independent trials.  A trial gets its own environment,
deterministically seeded from (base seed, game name, trial index), and the
game's scripted adversary, written inside it, moves there using only the
public module API.  In sound mode every adversary must win zero trials; the
counterfeiter's clone against an unsound environment is the negative
control that proves the games can detect a break at all.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import count

from .lightning import BundleHandle, QuantumEnv, ql_setup, verify_certificate
from .qlds import QldsParams, gen_sig, message_bits, qlds_gen, qlds_ver, verify_sig


@dataclass(frozen=True)
class GameResult:
    name: str
    wins: int
    trials: int

    def line(self) -> str:
        return f"{self.name}\t{self.wins}/{self.trials}"


def _trial_env(seed: int, game: str, k: int, sound: bool) -> QuantumEnv:
    material = hashlib.sha256(f"boltpay-game:{game}:{seed}:{k}".encode()).digest()
    return ql_setup(128, material, sound_mode=sound)


def _play(game: str, seed: int, trials: int, sound: bool, won) -> GameResult:
    """Run ``won`` on a fresh environment per trial; count the trials it wins."""
    wins = 0
    for k in range(trials):
        wins += bool(won(_trial_env(seed, game, k, sound)))
    return GameResult(game, wins, trials)


def _shuffled_bolt(env: QuantumEnv) -> BundleHandle:
    """Exercise legal operations, then hand over the 1-bolt bundle."""
    b = env.gen_bundle("adversary", 1)
    env.transfer_bundle(b, "adversary", "mule")
    env.transfer_bundle(b, "mule", "adversary")
    env.verify_bundle(b, b.serial)
    return b


def game_counterfeit(seed: int, trials: int, sound: bool = True) -> GameResult:
    """Produce two registers that both verify against one serial: copy a
    1-bolt bundle or, with no copy to be had, hand in the same one twice."""
    def won(env):
        b = env.gen_bundle("adversary", 1)
        copy = env.clone_bundle(b) or b
        return (copy.bundle_id != b.bundle_id and env.verify_bundle(b, b.serial)
                and env.verify_bundle(copy, b.serial))
    return _play("counterfeit", seed, trials, sound, won)


def game_forge_certificate(seed: int, trials: int, sound: bool = True) -> GameResult:
    """Produce a valid certificate while the bolt still verifies, by a guess."""
    def won(env):
        b = env.gen_bundle("adversary", 1)
        return (verify_certificate(b.serial, env.draw_bytes(16))
                and env.verify_bundle(b, b.serial))
    return _play("forge-certificate", seed, trials, sound, won)


@functools.cache
def _unlike(alpha: bytes, n: int) -> bytes:
    """The first b"pay 10 coins to eve #i" whose n-bit hash is not alpha's."""
    return next(m for m in (b"pay 10 coins to eve #%d" % i for i in count())
                if message_bits(m, n) != message_bits(alpha, n))


def game_forge_signature(seed: int, trials: int, n: int = 8,
                         sound: bool = True) -> GameResult:
    """One signature given; win by signing any second, differing message:
    replay the signature on a message whose n-bit hash differs."""
    params, alpha = QldsParams(n), b"pay 10 coins to bob"
    alpha2 = _unlike(alpha, n)

    def won(env):
        key = qlds_gen(env, params, "adversary")
        sigma = gen_sig(env, key, key.serial, alpha)
        return alpha2 != alpha and verify_sig(key.serial, alpha2, sigma)
    return _play("forge-signature", seed, trials, sound, won)


def game_sabotage_money(seed: int, trials: int, sound: bool = True) -> GameResult:
    """Hand over a bundle that verifies once and then stops verifying."""
    def won(env):
        b = _shuffled_bolt(env)
        return [env.verify_bundle(b, b.serial) for _ in range(2)] == [True, False]
    return _play("sabotage-money", seed, trials, sound, won)


def game_sabotage_certificate(seed: int, trials: int,
                              sound: bool = True) -> GameResult:
    """Hand over a 1-bolt bundle that verifies but then cannot be measured."""
    def won(env):
        b = _shuffled_bolt(env)
        return (env.verify_bundle(b, b.serial)
                and not verify_certificate(b.serial, env.measure_bolts(b, (0,))))
    return _play("sabotage-certificate", seed, trials, sound, won)


def game_sabotage_signature(seed: int, trials: int, n: int = 8,
                            sound: bool = True) -> GameResult:
    """Hand over a key that verifies whole but then cannot sign."""
    def won(env):
        key, alpha = qlds_gen(env, QldsParams(n), "adversary"), b"settle invoice 7"
        return (qlds_ver(env, key, key.serial) and not verify_sig(
            key.serial, alpha, gen_sig(env, key, key.serial, alpha)))
    return _play("sabotage-signature", seed, trials, sound, won)


def run_all_games(seed: int = 0, trials: int = 1000, n: int = 8,
                  sound: bool = True) -> list[GameResult]:
    """The whole suite, each game with its own adversary."""
    return [
        game_counterfeit(seed, trials, sound),
        game_forge_certificate(seed, trials, sound),
        game_forge_signature(seed, trials, n, sound),
        game_sabotage_money(seed, trials, sound),
        game_sabotage_certificate(seed, trials, sound),
        game_sabotage_signature(seed, trials, n, sound),
    ]
