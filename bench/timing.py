"""Host-time normalisation, per-batch recording and summary statistics.

Raw host time on a shared machine drifts by tens of percent between
processes and within one.  A fixed reference loop is therefore timed
after set-up and after every batch of operations, and each primary
operation is reported as

    raw time x REF_NOMINAL_S / mean(reference before, reference after)

A short probe walk of the same loop is timed just before each secondary
operation, which is scaled by PROBE_NOMINAL_S / median(probes of its batch).

The loop does the kind of work the simulator does (SHA-256 of short
strings, dict lookups, attribute reads, pointer chasing over a working set
of a few MB) on data built once at start-up.  It allocates little and runs
with the cyclic garbage collector paused, so a program that grows its heap
cannot slow the reference and make itself look faster.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import time
from array import array
from statistics import median

# Median reference times on the machine the figures in README.md come from.
# They only set the scale of the normalised times.
REF_NOMINAL_S = 0.002
REF_STEPS = 1500
REF_REPEATS = 3
PROBE_NOMINAL_S = 50e-6
PROBE_STEPS = 12
_REF_RECORDS = 1 << 15


class _Cell:
    __slots__ = ("serial", "alive", "nxt")


class Reference:
    """The fixed reference loop and its pre-built working set."""

    def __init__(self):
        rng = random.Random(20200226)
        cells = [_Cell() for _ in range(_REF_RECORDS)]
        order = list(range(_REF_RECORDS))
        rng.shuffle(order)
        for i, cell in enumerate(cells):
            cell.serial = hashlib.sha256(i.to_bytes(8, "big")).digest()
            cell.alive = i % 7 != 0
            cell.nxt = cells[order[i]]
        self._start = cells[0]
        self._table = {c.serial: c for c in cells}

    def _walk(self, steps: int) -> int:
        cell, table, sha = self._start, self._table, hashlib.sha256
        hits = 0
        for _ in range(steps):
            if cell.alive and table.get(sha(cell.serial).digest()) is None:
                hits += 1
            cell = table[cell.serial].nxt
        self._start = cell
        return hits

    def probe(self) -> float:
        """One short timed walk, cyclic GC paused; in seconds.

        Timed just before a secondary operation, it finds the caches in
        the state the operation finds them, which the batch reference
        cannot: small operations that follow a large one slow down much
        more than the batch reference on a busy machine.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._walk(PROBE_STEPS)
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def measure(self) -> float:
        """Median of a few timed walks, cyclic GC paused; in seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REF_REPEATS):
                t0 = time.perf_counter()
                self._walk(REF_STEPS)
                times.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()
        times.sort()
        return times[len(times) // 2]


def batch_factor(before: float, after: float) -> float:
    return REF_NOMINAL_S * 2 / (before + after)


class Recorder:
    """Collects raw times and their references, batch by batch.

    Primary operations append raw durations to ``pending_op``; secondary
    operations go through ``add_side`` with the probe timed just before
    each of their calls.  ``close_batch`` measures the batch reference and
    files the batch.  A batch's primary operations are scaled by the mean
    of the references measured on either side of it, its secondary
    operations by the median of the probes taken in it.
    """

    def __init__(self, reference: Reference):
        self.reference = reference
        self.last_ref = reference.measure()
        # (ref before, ref after, primary times, secondary times, probes)
        self.batches: list[tuple[float, float, array, array, array]] = []
        self.setups: list[tuple[float, float, float]] = []
        self.pending_op = array("d")
        self.pending_side = array("d")
        self.pending_probes = array("d")

    def add_side(self, parts: list[tuple[float, float]]) -> None:
        """One secondary operation made of (raw time, probe time) calls."""
        self.pending_side.append(sum(t for t, _ in parts))
        self.pending_probes.extend(p for _, p in parts)

    def _ref_pair(self) -> tuple[float, float]:
        before, self.last_ref = self.last_ref, self.reference.measure()
        return before, self.last_ref

    def add_setup(self, seconds: float) -> None:
        self.setups.append((*self._ref_pair(), seconds))

    def close_batch(self) -> float:
        """File the pending times; returns the batch's factor."""
        before, after = self._ref_pair()
        self.batches.append((before, after, self.pending_op,
                             self.pending_side, self.pending_probes))
        self.pending_op = array("d")
        self.pending_side = array("d")
        self.pending_probes = array("d")
        return batch_factor(before, after)

    def times(self, raw: bool = False):
        """(primary op times, secondary op times, set-up times, rates) in s.

        A batch's rate is its primary operations over the time spent in the
        program's calls, primary and secondary, so the benchmark's own
        bookkeeping between calls does not count.
        """
        def factor(before, after):
            return 1.0 if raw else batch_factor(before, after)

        setups = [t * factor(b, a) for b, a, t in self.setups]
        op, side, rates = array("d"), array("d"), array("d")
        for before, after, ops, sides, probes in self.batches:
            f = factor(before, after)
            op.extend(t * f for t in ops)
            if sides:
                fs = 1.0 if raw else PROBE_NOMINAL_S / median(probes)
                side.extend(t * fs for t in sides)
            if ops:
                rates.append(len(ops) / ((sum(ops) + sum(sides)) * f))
        return op, side, setups, rates

    def ref_median(self) -> float:
        return median([a for _, a, _, _, _ in self.batches])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
