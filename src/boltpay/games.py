"""Security games: forging and sabotage, each as challenger vs strategy.

Each game runs many independent trials.  A trial gets its own environment,
deterministically seeded from (base seed, game name, trial index), and a
scripted adversary strategy that only uses the public module API.  In
sound mode every strategy here must win zero trials; the cloning strategy
run against an unsound environment is the negative control that proves the
games can detect a break at all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .lightning import QuantumEnv, ql_setup, verify_certificate
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


# -- strategies -----------------------------------------------------------

def clone_strategy(env: QuantumEnv):
    """Mint a 1-bolt bundle, try to copy it, submit the pair."""
    b = env.gen_bundle("adversary", 1)
    copy = env.clone_bundle(b)
    if copy is None:
        # no copy to be had; hand in the same register twice and hope
        return b, b, b.serial
    return b, copy, b.serial


def guess_certificate_strategy(env: QuantumEnv):
    """Keep the bolt alive and guess its preimage."""
    b = env.gen_bundle("adversary", 1)
    return env.draw_bytes(16), b, b.serial


class ReplaySigStrategy:
    """Ask for one signature, replay it on a message with a different hash."""

    def prepare(self, env: QuantumEnv, n: int):
        self.key = qlds_gen(env, QldsParams(n), "adversary")
        self.alpha = b"pay 10 coins to bob"
        self.n = n
        return self.key, self.key.serial, self.alpha

    def respond(self, sigma: bytes):
        want_not = message_bits(self.alpha, self.n)
        i = 0
        while True:
            alpha2 = b"pay 10 coins to eve #%d" % i
            if message_bits(alpha2, self.n) != want_not:
                return alpha2, sigma
            i += 1


def shuffle_and_submit_strategy(env: QuantumEnv):
    """Exercise legal operations, then hand over the 1-bolt bundle."""
    b = env.gen_bundle("adversary", 1)
    env.transfer_bundle(b, "adversary", "mule")
    env.transfer_bundle(b, "mule", "adversary")
    env.verify_bundle(b, b.serial)
    return b, b.serial


# -- games ----------------------------------------------------------------

def game_counterfeit(seed: int, trials: int, sound: bool = True) -> GameResult:
    """Produce two registers that both verify against one serial."""
    wins = 0
    for k in range(trials):
        env = _trial_env(seed, "counterfeit", k, sound)
        h1, h2, serial = clone_strategy(env)
        if (h1.bundle_id != h2.bundle_id
                and env.verify_bundle(h1, serial) and env.verify_bundle(h2, serial)):
            wins += 1
    return GameResult("counterfeit", wins, trials)


def game_forge_certificate(seed: int, trials: int, sound: bool = True) -> GameResult:
    """Produce a valid certificate while the bolt still verifies."""
    wins = 0
    for k in range(trials):
        env = _trial_env(seed, "forge-certificate", k, sound)
        cert, h, serial = guess_certificate_strategy(env)
        if verify_certificate(serial, cert) and env.verify_bundle(h, serial):
            wins += 1
    return GameResult("forge-certificate", wins, trials)


def game_forge_signature(seed: int, trials: int, n: int = 8,
                         sound: bool = True) -> GameResult:
    """One signature given; win by signing any second, differing message."""
    wins = 0
    for k in range(trials):
        env = _trial_env(seed, "forge-signature", k, sound)
        strategy = ReplaySigStrategy()
        key, serial, alpha = strategy.prepare(env, n)
        sigma = gen_sig(env, key, serial, alpha)
        alpha2, sigma2 = strategy.respond(sigma)
        if alpha2 != alpha and verify_sig(serial, alpha2, sigma2):
            wins += 1
    return GameResult("forge-signature", wins, trials)


def game_sabotage_money(seed: int, trials: int, sound: bool = True) -> GameResult:
    """Hand over a bundle that verifies once and then stops verifying."""
    wins = 0
    for k in range(trials):
        env = _trial_env(seed, "sabotage-money", k, sound)
        h, serial = shuffle_and_submit_strategy(env)
        first = env.verify_bundle(h, serial)
        second = env.verify_bundle(h, serial)
        if first and not second:
            wins += 1
    return GameResult("sabotage-money", wins, trials)


def game_sabotage_certificate(seed: int, trials: int,
                              sound: bool = True) -> GameResult:
    """Hand over a 1-bolt bundle that verifies but then cannot be measured."""
    wins = 0
    for k in range(trials):
        env = _trial_env(seed, "sabotage-certificate", k, sound)
        h, serial = shuffle_and_submit_strategy(env)
        if not env.verify_bundle(h, serial):
            continue
        cert = env.measure_bolts(h, (0,))
        if not verify_certificate(serial, cert):
            wins += 1
    return GameResult("sabotage-certificate", wins, trials)


def game_sabotage_signature(seed: int, trials: int, n: int = 8,
                            sound: bool = True) -> GameResult:
    """Hand over a key that verifies whole but then cannot sign."""
    wins = 0
    for k in range(trials):
        env = _trial_env(seed, "sabotage-signature", k, sound)
        key = qlds_gen(env, QldsParams(n), "adversary")
        alpha = b"settle invoice 7"
        if not qlds_ver(env, key, key.serial):
            continue
        sigma = gen_sig(env, key, key.serial, alpha)
        if not verify_sig(key.serial, alpha, sigma):
            wins += 1
    return GameResult("sabotage-signature", wins, trials)


def run_all_games(seed: int = 0, trials: int = 1000, n: int = 8,
                  sound: bool = True) -> list[GameResult]:
    """The whole suite with each game's canonical strategy."""
    return [
        game_counterfeit(seed, trials, sound),
        game_forge_certificate(seed, trials, sound),
        game_forge_signature(seed, trials, n, sound),
        game_sabotage_money(seed, trials, sound),
        game_sabotage_certificate(seed, trials, sound),
        game_sabotage_signature(seed, trials, n, sound),
    ]
