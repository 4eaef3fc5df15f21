#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, raw and normalised.

    python3 bench/spread.py --workload watch-claims --seeds 1-10 --seconds 20

Runs the benchmark once per seed, one process after another, and prints
for each metric its median over the runs and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  Raw figures are the same runs without the
reference-loop normalisation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="20")
    args = p.parse_args(argv)
    runs = []
    for seed in seed_range(args.seeds):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        detail = json.loads((BENCH_DIR / "out" / f"{args.workload}-seed{seed}"
                             "-trace0.json").read_text())["detail"]
        runs.append((result, detail))
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}", flush=True)
    print(f"{'metric':<14}{'median':>14}{'spread':>9}{'raw median':>14}"
          f"{'raw spread':>11}")
    for name in runs[0][0]["metrics"]:
        norm = [r["metrics"][name]["value"] for r, _ in runs]
        raw = [d["raw"][name] for _, d in runs]
        print(f"{name:<14}{statistics.median(norm):>14.4g}{spread(norm):>9.1%}"
              f"{statistics.median(raw):>14.4g}{spread(raw):>11.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
