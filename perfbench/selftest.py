#!/usr/bin/env python3
"""Shows that every output check rejects a deliberately perturbed result.

Runs one round of each workload, confirms that its real outputs pass, then
perturbs them one way at a time and confirms that the checks object. Exits 1
if a perturbation goes unnoticed. Run from the root of a uafkit checkout
(the fit round takes about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys

import jobs
import reference as ref
import run
import verify


def _edit(job: str, change):
    """A perturbation that rewrites one job's JSON output."""

    def apply(results):
        data = json.loads(results["outputs"][job])
        change(data)
        results["outputs"][job] = json.dumps(data)

    return apply


def _move_location(data):
    data["max_error_locations"][-1] += 1e-3


def _table_cell(results):
    lines = results["outputs"]["table"].splitlines()
    row = lines[5].split(",")  # sigmoid
    row[1] = f"{float(row[1]) + 1e-5:.5f}"
    lines[5] = ",".join(row)
    results["outputs"]["table"] = "\n".join(lines) + "\n"


def _swap_metric(results):
    gas = json.loads(results["outputs"]["train gas fixed"])
    blobs = json.loads(results["outputs"]["train blobs fixed"])
    gas["metric_trace"][-1], blobs["metric_trace"][-1] = blobs["metric_trace"][-1], gas["metric_trace"][-1]
    results["outputs"]["train gas fixed"] = json.dumps(gas)
    results["outputs"]["train blobs fixed"] = json.dumps(blobs)


def _gaussian_consistent(results):
    """Moves C by 1e-3 and rewrites rmse and its trace to match the moved C,
    so that only the paper-constant check can notice."""
    data = json.loads(results["outputs"]["fit gaussian-family"])
    data["params"]["C"] += 1e-3
    data["rmse"] = ref.rmse(tuple(data["params"][k] for k in "ABCDE"), "gaussian")
    data["rmse_trace"] = [max(v, data["rmse"]) for v in data["rmse_trace"]]
    data["rmse_trace"][-1] = data["rmse"]
    results["outputs"]["fit gaussian-family"] = json.dumps(data)


def _last(key, scale):
    def change(data):
        data[key][-1] *= scale
    return change


PERTURBATIONS = {
    "fit": {
        "sigmoid-family A moved by 1e-3": _edit(
            "fit sigmoid-family", lambda d: d["params"].update(A=d["params"]["A"] + 1e-3)),
        "gaussian-family C moved by 1e-3, rmse kept consistent": _gaussian_consistent,
        "free softplus rmse_trace reordered": _edit(
            "fit free softplus", lambda d: d["rmse_trace"].reverse()),
        "tanh-family rmse_trace one entry short": _edit(
            "fit tanh-family", lambda d: d["rmse_trace"].pop(0)),
        "relu-family rmse off by 1e-6 relative": _edit(
            "fit relu-family", lambda d: d.update(rmse=d["rmse"] * (1 + 1e-6))),
        "free sigmoid params reset to identity": _edit(
            "fit free sigmoid", lambda d: d["params"].update(A=1.0, B=0.0, C=0.0, D=-1.0, E=0.0)),
    },
    "analysis": {
        "sigmoid extremum location moved by 1e-3": _edit("report sigmoid", _move_location),
        "tanh max |error| scaled by 1.001": _edit(
            "report tanh", lambda d: d.update(max_abs_error=d["max_abs_error"] * 1.001)),
        "relu extremum dropped": _edit(
            "report relu", lambda d: d.update(max_error_locations=d["max_error_locations"][:1])),
        "gaussian critical-point error off by 1e-9": _edit(
            "report gaussian", lambda d: d["critical_points"][0].update(
                error=d["critical_points"][0]["error"] + 1e-9)),
        "table sigmoid rmse off by one in the last digit": _table_cell,
    },
    "train": {
        "validation metrics swapped between gas and blobs": _swap_metric,
        "gas trainable RMSE 20% worse": _edit("train gas uaf", _last("metric_trace", 1.2)),
        "blobs trainable accuracy 10 points lower": _edit(
            "train blobs uaf", lambda d: d["metric_trace"].__setitem__(-1, d["metric_trace"][-1] - 0.1)),
        "gas fixed trace one epoch short": _edit(
            "train gas fixed", lambda d: (d["loss_trace"].pop(), d["metric_trace"].pop())),
        "blobs fixed marked diverged": _edit(
            "train blobs fixed", lambda d: d.update(diverged=True, diverged_epoch=20)),
        "a repeat printed a different result": lambda r: r["mismatches"].append("train gas uaf"),
    },
}


def main() -> int:
    missed = 0
    for workload in jobs.WORKLOADS:
        results = run.run_worker(workload, seed=1, seconds=0, trace=0)
        split = results.get("gas_split")
        clean = verify.check(workload, results, split)
        print(f"{workload}: real outputs -> {'pass' if not clean else clean}")
        missed += bool(clean)
        for name, perturb in PERTURBATIONS[workload].items():
            bad = copy.deepcopy({k: results[k] for k in ("outputs", "mismatches")})
            perturb(bad)
            problems = verify.check(workload, bad, split)
            verdict = f"rejected: {problems[0]}" if problems else "NOT REJECTED"
            print(f"  {name}: {verdict}")
            missed += not problems
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
