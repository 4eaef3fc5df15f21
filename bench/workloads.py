"""The four seeded workloads: set-up, timed batches and correctness checks.

Each workload builds a fresh starting state per round (timed as set-up),
then runs a fixed number of batches.  A batch is a run of primary
operations plus the workload's secondary operation(s); the runner measures
the reference loop after every batch.  Only the calls into the program are
timed; choosing inputs and checking outputs happen outside the timers.
Inputs come from ``random.Random`` seeded with the benchmark seed and the
round index, so one seed always gives the same inputs.  Every check
compares the program with a computation made here, apart from it, or with
a property the operation must have.
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import scriptgen
from timing import Recorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

# Program functions are called through their modules, so that the traced
# run's wrappers (installed on the modules) see the calls made from here.
from boltpay import bridge, cli, games, lightning  # noqa: E402
from boltpay.contract import NO_CLAIM  # noqa: E402
from boltpay.harness import SimConfig, Simulation  # noqa: E402
from trace_oracle import TraceMismatch, replay_trace  # noqa: E402

NODE_TAG = b"QLNODE"  # the bridge's Merkle node domain tag, written out here


class Workload:
    """Shape shared by the four workloads.

    ``setup`` returns the round state; ``batch`` runs one batch, appending
    raw primary-op durations to ``rec.pending_op`` and handing secondary
    ops to ``rec.add_side``; ``check`` returns the problems found at the
    end of a round.  Failed operations are counted in ``state.failed`` and
    described in ``state.failures``.  ``trace_batches`` is how many batches
    the traced run records; ``tail_pct`` is the percentile reported as
    ``op_tail_us``, the highest that stayed steady from run to run.
    """

    name = ""
    batches_per_round = 1
    trace_batches = 1
    tail_pct = 99.0

    def setup(self, seed: int, round_idx: int):
        raise NotImplementedError

    def batch(self, state, rec: Recorder, b: int) -> None:
        raise NotImplementedError

    def check(self, state) -> list[str]:
        raise NotImplementedError


@dataclass
class RoundState:
    rng: random.Random
    failed: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)   # failed operations
    problems: list = field(default_factory=list)   # failed checks

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def no_probe() -> float:
    """Stands in for ``Reference.probe`` in untimed warm-up calls."""
    return 1.0


def _timed(fn, *args, **kwargs):
    """Call the program once and time it; the traced run records spans
    only inside these calls, never in the benchmark's own checks."""
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - t0


# -- pay-n256 -------------------------------------------------------------------

@dataclass
class PayState(RoundState):
    sim: Simulation = None
    parties: list = field(default_factory=list)
    notes: list = field(default_factory=list)      # [holder, ssid, value]
    balance: dict = field(default_factory=dict)    # the benchmark's model
    digest: bytes = b""
    registered: int = 0


class PayN256(Workload):
    """Payments between random parties at the paper's key size."""

    name = "pay-n256"
    tail_pct = 90.0

    def __init__(self, quick: bool = False):
        self.parties = 8 if quick else 64
        self.notes_each = 2
        self.n = 256
        self.pays_per_batch = 10 if quick else 60
        self.batches_per_round = 2 if quick else 16
        self.trace_batches = 2 if quick else 4
        self.start_coins = 10_000

    def setup(self, seed, round_idx):
        st = PayState(random.Random(f"pay-n256:{seed}:{round_idx}"))
        st.sim = Simulation(SimConfig(seed=seed * 1000 + round_idx,
                                      variant="sig-gated", n=self.n))
        st.parties = [f"p{i:02d}:{self.start_coins}" for i in range(self.parties)]
        for pid in st.parties:
            st.sim.add_party(pid)
            st.balance[pid] = self.start_coins
            st.registered += self.start_coins
        for pid in st.parties:
            for _ in range(self.notes_each):
                value = st.rng.randint(1, 100)
                ssid = st.sim.mint(pid, value)
                st.balance[pid] -= value
                st.notes.append([pid, ssid, value])
        st.digest = st.sim.ledger.digest()
        # warm-up: one payment and one redeem-and-mint, untimed
        self._pay(st)
        self._redeem_and_mint(st, no_probe)
        st.attempted = 0
        return st

    def _pay(self, st: PayState) -> float:
        entry = st.notes[st.rng.randrange(len(st.notes))]
        payer, ssid, _ = entry
        payee = st.rng.choice(st.parties)
        while payee == payer:
            payee = st.rng.choice(st.parties)
        st.attempted += 1
        ok, dt = _timed(st.sim.pay, payer, payee, ssid)
        if ok:
            entry[0] = payee
        else:
            st.fail(f"payment of note {ssid} {payer} -> {payee} refused")
        return dt

    def _redeem_and_mint(self, st: PayState, probe) -> list:
        if st.sim.ledger.digest() != st.digest:
            st.problems.append("a run of payments changed the ledger digest")
        entry = st.notes[st.rng.randrange(len(st.notes))]
        holder, ssid, value = entry
        st.attempted += 1
        p = probe()
        paid, dt_redeem = _timed(st.sim.redeem, holder, ssid)
        coins = st.sim.ledger.parties[holder].coins
        if paid != value or coins != st.balance[holder] + value:
            st.fail(f"redeem of note {ssid} by {holder}: paid {paid}, balance"
                    f" {coins}, model {st.balance[holder]} + {value}")
            return [(dt_redeem, p)]
        st.balance[holder] += value
        new_ssid, dt_mint = _timed(st.sim.mint, holder, value)
        if new_ssid is None:
            st.fail(f"mint of {value} by {holder} refused")
            return [(dt_redeem + dt_mint, p)]
        st.balance[holder] -= value
        entry[1] = new_ssid
        st.digest = st.sim.ledger.digest()
        return [(dt_redeem + dt_mint, p)]

    def batch(self, st, rec, b):
        for _ in range(self.pays_per_batch):
            rec.pending_op.append(self._pay(st))
        rec.add_side(self._redeem_and_mint(st, rec.reference.probe))

    def check(self, st):
        return check_pay_round(st)


def check_pay_round(st: PayState) -> list[str]:
    sim = st.sim
    out = list(st.problems)
    if sim.ledger.digest() != st.digest:
        out.append("the last run of payments changed the ledger digest")
    for pid, want in st.balance.items():
        got = sim.ledger.parties[pid].coins
        if got != want:
            out.append(f"{pid}: balance {got}, model {want}")
    if sim.ledger.total_coins() != st.registered:
        out.append(f"coins not conserved: {sim.ledger.total_coins()}"
                   f" on the ledger, {st.registered} registered")
    out.extend(sim.audit())
    return out


# -- watch-claims -----------------------------------------------------------------

@dataclass
class WatchState(RoundState):
    sim: Simulation = None
    adversary: str = ""
    notes_by_group: list = field(default_factory=list)  # [(holder, ssid)]
    claims_against: dict = field(default_factory=dict)
    minted: dict = field(default_factory=dict)
    claims: int = 0


class WatchClaims(Workload):
    """Many idle wallets watched by their holders while claims arrive."""

    name = "watch-claims"
    tail_pct = 95.0
    t_tr = 10
    d0 = 10
    start_coins = 1000
    adversary_coins = 10_000_000

    def __init__(self, quick: bool = False):
        self.wallets = 100 if quick else 1000
        self.notes_each = 5
        self.ticks_per_batch = 10 if quick else 25
        self.batches_per_round = 2 if quick else 12
        self.trace_batches = 2 if quick else 4

    @property
    def scan_interval(self) -> int:
        return self.t_tr - 1

    def setup(self, seed, round_idx):
        st = WatchState(random.Random(f"watch-claims:{seed}:{round_idx}"))
        st.notes_by_group = [[] for _ in range(self.scan_interval)]
        st.sim = sim = Simulation(SimConfig(
            seed=seed * 1000 + round_idx, variant="sig-gated", n=8,
            t_tr=self.t_tr, d0=self.d0))
        st.adversary = f"mallory:{self.adversary_coins}"
        sim.add_party(st.adversary)
        sim.corrupt(st.adversary)
        # wallets join in scan_interval groups one tick apart, so each tick
        # scans one group and each group scans every scan_interval ticks
        groups = self.scan_interval
        for i in range(self.wallets):
            group = i * groups // self.wallets
            while sim.ledger.time < group:
                sim.tick(1)
            pid = f"w{i:04d}:{self.start_coins}"
            sim.add_party(pid)
            st.minted[pid] = 0
            st.claims_against[pid] = 0
            for _ in range(self.notes_each):
                value = st.rng.randint(1, 50)
                st.notes_by_group[group].append((pid, sim.mint(pid, value)))
                st.minted[pid] += value
        sim.tick(self.scan_interval)
        self._claim(st, no_probe)       # warm-up, untimed
        sim.tick(1)
        st.attempted = 0
        return st

    def _claim(self, st: WatchState, probe) -> list:
        """File a claim on a note whose holder scans on the coming tick.

        Every tick then answers exactly one claim, so tick times form one
        cluster and the tail percentile cannot fall between two.
        """
        now = st.sim.ledger.time
        group = st.notes_by_group[(now + 1) % self.scan_interval]
        holder, ssid = group[st.rng.randrange(len(group))]
        st.attempted += 1
        p = probe()
        paid, dt = _timed(st.sim.file_claim, st.adversary, ssid)
        if paid != 0:
            st.fail(f"claim on note {ssid} at tick {now}: {paid}")
            return [(dt, p)]
        st.claims_against[holder] += 1
        st.claims += 1
        return [(dt, p)]

    def batch(self, st, rec, b):
        for _ in range(self.ticks_per_batch):
            rec.add_side(self._claim(st, rec.reference.probe))
            st.attempted += 1
            rec.pending_op.append(_timed(st.sim.tick, 1)[1])

    def check(self, st):
        st.sim.tick(self.scan_interval)   # drain: every holder scans once
        return check_watch_round(st, self.start_coins, self.adversary_coins,
                                 self.d0)


def check_watch_round(st: WatchState, start: int, adversary_start: int,
                      d0: int) -> list[str]:
    sim = st.sim
    out = list(st.problems)
    for rec in sim.ledger.contracts:
        if not rec.terminated and rec.state.claim != NO_CLAIM:
            out.append(f"contract {rec.ssid} still holds {rec.state.claim}")
    for pid, minted in st.minted.items():
        want = start - minted + d0 * st.claims_against[pid]
        got = sim.ledger.parties[pid].coins
        if got != want:
            out.append(f"{pid}: balance {got}, model {want}")
    got = sim.ledger.parties[st.adversary].coins
    if got != adversary_start - d0 * st.claims:
        out.append(f"adversary holds {got}, model"
                   f" {adversary_start - d0 * st.claims}")
    if sim.value.max_net > 0:
        out.append(f"adversary peaked at net +{sim.value.max_net}")
    out.extend(sim.audit())
    out.extend(sim.honest_bookkeeping_violations())
    return out


# -- script-run -----------------------------------------------------------------------

SCENARIO_VARIANTS = ("base", "sig-gated", "commit-reveal")
SCENARIO_SCHEDULERS = ("fifo", "reorder:3")


@dataclass
class ScriptState(RoundState):
    seed: int = 0
    scripts: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    repeat_of: tuple = ()


def _cli_run(script: Path, out: Path, seed: int, variant: str,
             scheduler: str, probe) -> tuple[int, float, float]:
    """One in-process `boltpay run`: (exit code, time, probe time).

    Untimed preparation makes each run start like a fresh process writing
    a new file: the previous runs' garbage is collected, and the output
    path is removed first, because ext4 flushes a file that is truncated
    and rewritten on close, which made the write time vary by 10x.
    """
    gc.collect()
    out.unlink(missing_ok=True)
    p = probe()
    rc, dt = _timed(cli.main, ["run", str(script), "--variant", variant,
                               "--scheduler", scheduler, "--seed", str(seed),
                               "--out", str(out)])
    return rc, dt, p


class ScriptRun(Workload):
    """The path users run: `boltpay run` on long generated scripts."""

    name = "script-run"
    tail_pct = 90.0
    variant = "sig-gated"
    scheduler = "reorder:3"

    def __init__(self, quick: bool = False):
        self.script_lines = 200 if quick else 800
        self.scripts_per_round = 2 if quick else 8
        # one batch per script, then one batch re-running the first script
        self.batches_per_round = self.scripts_per_round + 1
        self.trace_batches = self.batches_per_round

    def setup(self, seed, round_idx):
        st = ScriptState(random.Random(f"script-run:{seed}:{round_idx}"))
        st.seed = seed
        work = OUT_DIR / "scripts"
        work.mkdir(parents=True, exist_ok=True)
        for k in range(self.scripts_per_round):
            path = work / f"seed{seed}-{k}.bolt"   # reused every round
            path.write_text(scriptgen.generate(
                st.rng.randrange(1 << 30), lines=self.script_lines))
            st.scripts.append(path)
        self._run(st, st.scripts[0], work / f"seed{seed}-warmup.trace")
        st.outputs.clear()
        st.attempted = 0
        return st

    def _run(self, st: ScriptState, script: Path, out: Path) -> float:
        st.attempted += 1
        rc, dt, _ = _cli_run(script, out, st.seed, self.variant,
                             self.scheduler, no_probe)
        if rc != 0:
            st.fail(f"{script.name}: exit {rc}")
        st.outputs.append(out)
        return dt

    def _sweep(self, st: ScriptState, probe) -> list:
        parts = []
        out = OUT_DIR / "scripts" / f"seed{st.seed}-sweep.trace"
        for scenario in sorted((ROOT / "scenarios").glob("*.bolt")):
            for variant in SCENARIO_VARIANTS:
                for scheduler in SCENARIO_SCHEDULERS:
                    st.attempted += 1
                    rc, dt, p = _cli_run(scenario, out, st.seed, variant,
                                         scheduler, probe)
                    parts.append((dt, p))
                    if rc != 0:
                        st.fail(f"{scenario.name} {variant} {scheduler}:"
                                f" exit {rc}")
        return parts

    def batch(self, st, rec, b):
        if b < self.scripts_per_round:
            script = st.scripts[b]
            out = script.with_suffix(".trace")
        else:
            script = st.scripts[0]
            out = script.with_suffix(".again.trace")
            st.repeat_of = (st.outputs[0], out)
        rec.pending_op.append(self._run(st, script, out))
        if b == self.batches_per_round - 1:
            rec.add_side(self._sweep(st, rec.reference.probe))

    def check(self, st):
        return check_script_round(st)


def check_script_round(st: ScriptState) -> list[str]:
    out = list(st.problems)
    for path in st.outputs:
        try:
            replay_trace(path.read_text().splitlines())
        except TraceMismatch as e:
            out.append(f"{path.name} does not replay: {e}")
    if st.repeat_of:
        first, again = st.repeat_of
        if first.read_bytes() != again.read_bytes():
            out.append(f"{first.name} and {again.name} differ")
    return out


# -- games-split --------------------------------------------------------------------------

@dataclass
class GamesState(RoundState):
    env: object = None
    scheme: object = None
    game_seed: int = 0
    message_len: int = 0
    splits: list = field(default_factory=list)


class GamesSplit(Workload):
    """Security-game rounds plus Merkle denomination splits."""

    name = "games-split"
    tail_pct = 99.0
    total = 1024
    split_n = 10

    def __init__(self, quick: bool = False):
        self.rounds_per_batch = 10 if quick else 100
        self.batches_per_round = 2 if quick else 10
        self.trace_batches = 2

    def setup(self, seed, round_idx):
        st = GamesState(random.Random(f"games-split:{seed}:{round_idx}"))
        st.env = lightning.ql_setup(128, hashlib.sha256(
            f"games-split:{seed}:{round_idx}".encode()).digest())
        st.scheme = bridge.LamportScheme()
        st.game_seed = (seed * 1000 + round_idx) * 100_000
        # a one-level split fixes the message length every split must match
        sk, _ = st.scheme.key_gen(st.env.draw_bytes)
        msg, _ = bridge.split_denominations(st.env, st.scheme, sk, self.total, 1, "mint")
        st.message_len = len(msg.encode())
        self._game_round(st)   # warm-up, untimed
        self._split(st, no_probe)
        st.splits.clear()
        st.attempted = 0
        return st

    def _game_round(self, st: GamesState) -> float:
        st.attempted += 1
        results, dt = _timed(games.run_all_games, seed=st.game_seed, trials=1)
        wins = sum(r.wins for r in results)
        if wins:
            st.fail(f"game round {st.game_seed}: {wins} wins")
        st.game_seed += 1
        return dt

    def _split(self, st: GamesState, probe) -> list:
        sk, pk = st.scheme.key_gen(st.env.draw_bytes)
        st.attempted += 1
        p = probe()
        (msg, notes, msg_ok, bad), dt = _timed(self._split_and_verify, st, sk, pk)
        if not msg_ok or bad:
            st.fail(f"split: message verifies {msg_ok}, {bad} notes refused")
        st.splits.append((msg, notes))
        return [(dt, p)]

    def _split_and_verify(self, st: GamesState, sk, pk):
        msg, notes = bridge.split_denominations(st.env, st.scheme, sk, self.total,
                                                self.split_n, "mint")
        msg_ok = bridge.verify_bridge_message(st.scheme, pk, msg, self.total + 1)
        bad = sum(1 for note in notes
                  if not bridge.verify_bridge_note(st.env, msg, note))
        return msg, notes, msg_ok, bad

    def batch(self, st, rec, b):
        for _ in range(self.rounds_per_batch):
            rec.pending_op.append(self._game_round(st))
        rec.add_side(self._split(st, rec.reference.probe))

    def check(self, st):
        out = list(st.problems)
        for msg, notes in st.splits:
            out.extend(check_split(st.env, st.rng, msg, notes, st.message_len))
        return out


def merkle_root(serials: list[bytes]) -> bytes:
    row = list(serials)
    while len(row) > 1:
        row = [hashlib.sha256(NODE_TAG + row[i] + row[i + 1]).digest()
               for i in range(0, len(row), 2)]
    return row[0]


def check_split(env, rng: random.Random, msg, notes, message_len: int) -> list[str]:
    out = []
    if merkle_root([n.serial for n in notes]) != msg.payload:
        out.append("Merkle root recomputed from the serials differs from the payload")
    if not all(bridge.verify_bridge_note(env, msg, n) for n in notes):
        out.append("a split note does not verify")
    if len(msg.encode()) != message_len:
        out.append(f"message is {len(msg.encode())} bytes at 2^10 notes,"
                   f" {message_len} at 2 notes")
    note = notes[rng.randrange(len(notes))]
    level = rng.randrange(len(note.path.siblings))
    side, sib = note.path.siblings[level]
    pos = rng.randrange(len(sib))
    bad = sib[:pos] + bytes([sib[pos] ^ 0x01]) + sib[pos + 1:]
    siblings = list(note.path.siblings)
    siblings[level] = (side, bad)
    tampered = type(note)(note.bolt, note.serial, note.value, note.index,
                          bridge.MerklePath(note.path.index, tuple(siblings)))
    if bridge.verify_bridge_note(env, msg, tampered):
        out.append(f"note {note.index} verifies with sibling {level}"
                   f" byte {pos} flipped")
    return out


WORKLOADS = {w.name: w for w in (PayN256, WatchClaims, ScriptRun, GamesSplit)}
