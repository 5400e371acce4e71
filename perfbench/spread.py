#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for each end-to-end metric,
the median, the quartiles and the spread (Q3 - Q1) / median, next to the
bound from BENCHMARK.json. Run from the root of a uafkit checkout:

    python3 perfbench/spread.py --workload fit --seeds 10 --seconds 12
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N, one run each")
    parser.add_argument("--seconds", type=int, default=12)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(1, args.seeds + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    shares = sorted({(r["failed"], r["attempted"]) for r in runs})
    print(f"{args.workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
          f"failed/attempted: {shares}")
    print(f"{'metric':36} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>5}  values")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:36} {med:11.6g} {q1:11.6g} {q3:11.6g} {(q3 - q1) / med:7.4f} "
              f"{bounds[name]:>5}  {' '.join(f'{v:.4g}' for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
