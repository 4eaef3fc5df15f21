#!/usr/bin/env python3
"""Benchmark command: one seeded workload per process, closed loop, one client.

    python3 bench/run.py --workload pay-n256 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick

With ``--trace 0`` the workload runs rounds (fresh set-up, then a fixed
number of batches, then the correctness checks) until ``--seconds`` have
passed, and the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` one set-up is followed by a fixed
number of traced batches, and the JSON carries the per-layer metrics.
``--quick`` runs all four workloads at small size, timed and traced.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from timing import Recorder, Reference, median, peak_rss_mb, percentile  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

MIN_ROUNDS = 2
REFERENCE_WARMUP = 5


def _summary(wl, times) -> dict[str, float]:
    op, side, setup, rates = times
    return {
        "setup_s": median(setup),
        "ops_per_s": median(rates),
        "op_p50_us": median(op) * 1e6,
        "op_tail_us": percentile(op, wl.tail_pct) * 1e6,
        "side_p50_us": median(side) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us",
         "op_tail_us": "us", "side_p50_us": "us", "peak_rss_mb": "MB"}


def _recorder() -> Recorder:
    reference = Reference()
    for _ in range(REFERENCE_WARMUP):
        reference.measure()
    return Recorder(reference)


def run_timed(wl, seed: int, seconds: float, min_rounds: int = MIN_ROUNDS):
    rec = _recorder()
    attempted = failed = rounds = 0
    failures, problems = [], []
    start = perf_counter()
    while rounds < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        t0 = perf_counter()
        st = wl.setup(seed, rounds)
        rec.add_setup(perf_counter() - t0)
        for b in range(wl.batches_per_round):
            wl.batch(st, rec, b)
            rec.close_batch()
        problems.extend(wl.check(st))
        failures.extend(st.failures)
        attempted += st.attempted
        failed += st.failed
        del st
        rounds += 1
    times = rec.times()
    metrics = {k: {"value": v, "unit": UNITS[k]}
               for k, v in _summary(wl, times).items()}
    detail = {
        "rounds": rounds, "batches": len(rec.batches),
        "op_samples": len(times[0]), "side_samples": len(times[1]),
        "tail_pct": wl.tail_pct,
        "op_pct_us": {q: percentile(times[0], q) * 1e6
                      for q in (90, 95, 98, 99, 99.5)},
        "raw": _summary(wl, rec.times(raw=True)),
        "ref_median_s": rec.ref_median(),
    }
    return metrics, attempted, failed, failures, problems, detail


def run_traced(wl, seed: int):
    from tracer import Tracer

    rec = _recorder()
    tr = Tracer()
    gc.collect()
    st = wl.setup(seed, 0)
    tr.install()
    try:
        for b in range(wl.trace_batches):
            first = tr.mark()
            wl.batch(st, rec, b)
            tr.close_batch(first, rec.close_batch())
    finally:
        tr.uninstall()
    problems = wl.check(st)
    tr.write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv")
    metrics = {}
    for name, value in tr.metrics().items():
        unit = ("ms" if name.endswith("_ms") else "ratio"
                if name.endswith("_ratio") else "bytes"
                if name.endswith("_bytes") else "count")
        metrics[name] = {"value": value, "unit": unit}
    detail = {"spans": tr.mark(),
              "traced_op_p50_us": median(rec.times()[0]) * 1e6}
    return metrics, st.attempted, st.failed, st.failures, problems, detail


def run_one(name: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    wl = WORKLOADS[name](quick=quick)
    if trace:
        metrics, attempted, failed, failures, problems, detail = run_traced(wl, seed)
    else:
        metrics, attempted, failed, failures, problems, detail = run_timed(
            wl, seed, seconds, min_rounds=1 if quick else MIN_ROUNDS)
    for line in failures + problems:
        print(f"{name}: {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(f"{name} seed {seed}: {json.dumps(detail)}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="all four workloads at small size, timed and traced")
    args = p.parse_args(argv)
    if args.quick:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                result = run_one(name, args.seed, 0, trace, quick=True)
                ok = ok and result["correct"] and not result["failed"]
                print(f"{name} trace={int(trace)}: {json.dumps(result)}")
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required unless --quick is given")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
