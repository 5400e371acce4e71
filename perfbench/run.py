#!/usr/bin/env python3
"""uafkit benchmark: runs one workload of `uafkit` CLI commands in a fresh
process, checks every output against an independent reference, and prints
the metrics. Run from the root of a uafkit checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the run
metadata.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import jobs
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("UAFKIT_SEED", "UAFKIT_BACKEND"):
        env.pop(name, None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Runs the workload in a fresh process; returns its raw results, with
    the gas split under "gas_split" for the train workload."""
    if not (SRC / "uafkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no uafkit sources at {SRC}; run from a uafkit checkout")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        out = Path(work) / "results.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", work, "--out", str(out),
        ]
        # A fit run lasts about --seconds plus the minute of the free sigmoid
        # fit; a traced run repeats the short commands untraced. 164 s at the
        # benchmark's 12 s.
        timeout = 2 * seconds + 140
        try:
            done = subprocess.run(cmd, env=worker_env(), timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: worker still running after {timeout:.0f} s; stopped")
        if done.returncode != 0:
            raise SystemExit(f"perfbench: worker exited with code {done.returncode}")
        results = json.loads(out.read_text())
        if workload == "train":
            with np.load(Path(work) / "gas_split.npz") as split:
                results["gas_split"] = tuple(split[k] for k in ("x_train", "y_train", "x_val", "y_val"))
    if not results["meta"]["uafkit_file"].startswith(str(SRC)):
        raise SystemExit(f"perfbench: uafkit was imported from {results['meta']['uafkit_file']}")
    return results


def job_times(workload: str, results: dict) -> dict[str, float]:
    """Seconds per job in the run. The CPU of a shared machine switches
    between its full speed and one 1.5-1.7x slower, staying in either for
    tenths of a second to minutes. A short job (`fit --builtin`, `report`,
    `table`: 0.3 s or less) mostly runs at one speed, so its time is the
    fastest of its repeats, which moves far less than their median. A long
    one (the free fits, training: 1 s or more) spans many changes, so its
    time is the mean over its repeats."""
    ops = {op.job: op for op in jobs.round_ops(workload, first=True)}
    walls: dict[str, list[float]] = {}
    for r in results["records"]:
        if r["ok"] and not ops[r["job"]].usage_error:
            walls.setdefault(r["job"], []).append(r["wall_s"])
    return {job: min(w) if ops[job].short else statistics.fmean(w) for job, w in walls.items()}


def end_to_end(workload: str, times: dict[str, float], results: dict) -> dict[str, float]:
    """`round_s` weighs each job by its time, `cmd_geomean_ms` weighs every
    job alike: together they see a change to a long job and to the short
    ones."""
    first = [op.job for op in jobs.round_ops(workload, first=True) if not op.usage_error]
    return {
        "setup_s": min(results["setup_s"]),
        "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
        "round_s": sum(times[job] for job in first),
        "cmd_geomean_ms": math.exp(statistics.fmean(math.log(t) for t in times.values())) * 1e3,
    }


def metadata(results: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    loc = 0
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            loc += sum(1 for line in path.read_text().splitlines() if line.strip())
    meta = {"git_sha": sha, "src_loc": loc}
    meta.update(results["meta"])
    meta.pop("uafkit_file")
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description="uafkit benchmark")
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = run_worker(args.workload, args.seed, args.seconds, args.trace)
    problems = verify.check(args.workload, results, results.get("gas_split"))
    times = job_times(args.workload, results)
    values = results["layers"] if args.trace else end_to_end(args.workload, times, results)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(values)} but BENCHMARK.json declares {sorted(declared)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for job, t in sorted(times.items()):
        print(f"job {job!r}: {t:.6g} s")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    print(json.dumps({"meta": metadata(results)}))
    records = results["records"]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {n: {"value": float(v), "unit": declared[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
