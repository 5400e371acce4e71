"""Runs one workload in this fresh process and writes the raw results as JSON.

Started by run.py with a clean environment (BLAS limited to one thread,
UAFKIT_SEED and UAFKIT_BACKEND unset, PYTHONPATH at the checkout's src/).
Every command runs in-process through click's test runner, from this one
thread, with its exit code and standard output captured.

    python3 perfbench/worker.py --workload fit --seed 1 --seconds 15 \
        --trace 0 --work DIR --out results.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import uafkit
from click.testing import CliRunner
from uafkit import datasets
from uafkit.cli import main as uafkit_main

import jobs
import timers

SETUP_REPEATS = 11
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import uafkit.cli; "
    "print(time.perf_counter() - t)"
)


def setup_once(workload: str, seed: int, work: str) -> tuple[float, float]:
    """A fresh-interpreter `import uafkit.cli` plus writing the workload's
    inputs. Returns (wall seconds, import seconds inside the probe)."""
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, timeout=60, check=True,
    )
    jobs.write_inputs(workload, seed, work)
    if workload == "train":
        # The split the reference linear fit is measured on.
        gas = datasets.make_gas_analogue(**jobs.dataset_kwargs(jobs.GAS_DATASET))
        train_idx, val_idx, _ = gas.split_indices()
        np.savez(
            os.path.join(work, "gas_split.npz"),
            x_train=gas.inputs[train_idx], y_train=gas.targets[train_idx],
            x_val=gas.inputs[val_idx], y_val=gas.targets[val_idx],
        )
    return time.perf_counter() - start, float(probe.stdout)


def canonical(op: jobs.Op, text: str) -> str:
    """The part of a command's output that must repeat bitwise."""
    if op.args[0] == "train":
        report = json.loads(text)
        report.pop("wall_time")
        return json.dumps(report, sort_keys=True)
    return text


class Runner:
    """Runs operations, keeps the first output of each job and notes every
    repeat whose output differs from it."""

    def __init__(self, work: str) -> None:
        self.cli = CliRunner()
        self.work = work
        self.outputs: dict[str, str] = {}
        self.mismatches: list[str] = []

    def run(self, op: jobs.Op, tracer: timers.Tracer | None = None) -> dict:
        args = [a.replace("{work}", self.work) for a in op.args]
        top = tracer.top if tracer else 0.0
        calls = tracer.calls("analysis.approx_error", "analysis.approx_error_batch") if tracer else 0
        start = time.perf_counter()
        result = self.cli.invoke(uafkit_main, args, catch_exceptions=True)
        wall = time.perf_counter() - start
        traceback = result.exception is not None and not isinstance(result.exception, SystemExit)
        expected = 2 if op.usage_error else 0
        record = {"job": op.job, "heavy": op.heavy, "wall_s": wall,
                  "exit_code": result.exit_code, "traceback": traceback,
                  "ok": result.exit_code == expected and not traceback}
        if tracer:
            record["lib_s"] = tracer.top - top
            record["error_calls"] = tracer.calls(
                "analysis.approx_error", "analysis.approx_error_batch") - calls
        if record["ok"] and not op.usage_error:
            text = canonical(op, result.stdout)
            first = self.outputs.setdefault(op.job, text)
            if first != text:
                self.mismatches.append(op.job)
            if tracer and op.args[0] == "fit":
                record["iterations"] = json.loads(result.stdout)["iterations"]
        return record


def measure(workload: str, seed: int, seconds: float, run_op, set_up):
    """Whole rounds, in seeded order, until `seconds` have passed outside the
    heavy commands and the set-ups. run_op(op) runs one operation and returns
    its record. The SETUP_REPEATS set-ups are spread evenly over the measured
    time, between operations: the machine's speed changes over seconds, and
    set-ups done back to back can all land in one slow stretch. Returns the
    records and the set-ups' (wall seconds, import seconds)."""
    order = random.Random(f"order-{seed}")
    records: list[dict] = []
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()

    def measured_s():
        return (time.perf_counter() - start - sum(s for s, _ in setups)
                - sum(r["wall_s"] for r in records if r["heavy"]))

    while True:
        ops = jobs.round_ops(workload, first=not records)
        order.shuffle(ops)
        for op in ops:
            while (len(setups) < SETUP_REPEATS
                   and measured_s() >= len(setups) * seconds / SETUP_REPEATS):
                setups.append(set_up())
            records.append(run_op(op))
        if measured_s() >= seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up())
    return records, setups


def traced_op(runner: Runner, tracer: timers.Tracer, untraced_s: list[float]):
    """run_op for a traced run: every operation runs traced, and all but the
    heavy ones also run once untraced, alternately before and after the
    traced run, for the tracing overhead (their times go to untraced_s)."""

    def run_op(op: jobs.Op) -> dict:
        after = len(untraced_s) % 2 == 1
        if not op.heavy and not after:
            untraced_s.append(runner.run(op)["wall_s"])
        with tracer.installed():
            record = runner.run(op, tracer)
        if not op.heavy and after:
            untraced_s.append(runner.run(op)["wall_s"])
        return record

    return run_op


def traced_layers(workload: str, traced: list[dict], untraced_s: list[float]) -> dict[str, float]:
    """The per-layer metrics that the workload's own traced commands give."""
    rounds = len(traced) // len(jobs.round_ops(workload))
    compared = sum(r["wall_s"] for r in traced if not r["heavy"])
    return {
        "cli.self_ms": sum(r["wall_s"] - r["lib_s"] for r in traced) / rounds * 1e3,
        "trace.overhead_pct": (compared - sum(untraced_s)) / sum(untraced_s) * 100.0,
    }


def probe_layers(runner: Runner, seed: int) -> dict[str, float]:
    """The per-layer metrics that come from spans: one traced run of each of
    jobs.probe_ops(), the same on every workload."""
    for workload in ("fit", "train"):
        jobs.write_inputs(workload, seed, runner.work)
    tracer = timers.Tracer()
    records = {}
    for op in jobs.probe_ops():
        with tracer.installed():
            records[op.job] = runner.run(op, tracer)
    failed = [job for job, r in records.items() if not r["ok"]]
    if failed:
        raise RuntimeError(f"layer probe commands failed: {failed}")
    out = {}
    for name, recs in (
        ("family", [records[f"fit {f}"] for f in jobs.FAMILIES]),
        ("free", [records["fit free softplus"]]),
    ):
        iterations = sum(r["iterations"] for r in recs)
        out[f"fitting.iterations.{name}"] = iterations
        out[f"fitting.iter_us.{name}"] = sum(r["lib_s"] for r in recs) / iterations * 1e6
    spans = tracer.durations
    out["analysis.critical_points_ms"] = statistics.median(spans["analysis.critical_points"]) * 1e3
    out["analysis.interval_rmse_ms"] = statistics.median(spans["analysis.interval_rmse"]) * 1e3
    out["analysis.error_calls"] = records["table"]["error_calls"]
    out["datasets.make_ms"] = statistics.median(
        spans["datasets.make_gas_analogue"] + spans["datasets.make_blobs"]) * 1e3
    # Spans keep only the gas net's steps with the trainable UAF and a full
    # batch of 32 (timers.SPANNED).
    out["network.forward_us"] = statistics.median(spans["network.Network.forward"]) * 1e6
    out["network.update_us"] = statistics.median(spans["network.Network.apply_gradients"]) * 1e6
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    runner = Runner(args.work)
    tracer = timers.Tracer()
    untraced_s: list[float] = []
    run_op = traced_op(runner, tracer, untraced_s) if args.trace else runner.run
    records, setups = measure(
        args.workload, args.seed, args.seconds, run_op,
        lambda: setup_once(args.workload, args.seed, args.work),
    )
    results = {"setup_s": [s for s, _ in setups]}
    if args.trace:
        layers = traced_layers(args.workload, records, untraced_s)
        layers["cli.import_ms"] = min(i for _, i in setups) * 1e3
        layers.update(probe_layers(runner, args.seed))
        layers.update(timers.direct_layers(args.seed))
        results["layers"] = layers
    results.update(
        records=records,
        outputs=runner.outputs,
        mismatches=runner.mismatches,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        meta={
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "uafkit_backend": uafkit.backend_name(),
            "uafkit_file": uafkit.__file__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    )
    with open(args.out, "w") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
