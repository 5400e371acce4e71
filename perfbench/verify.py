"""Output checks. Each check compares a command's output with the
independent reference in reference.py, or with a property the method must
have, and returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import jobs
import reference as ref

RMSE_RTOL, RMSE_ATOL = 1e-9, 1e-14
PAPER_CONSTANTS = {
    "sigmoid-family": ("A", ref.A_SIGMOID),
    "tanh-family": ("A", ref.A_TANH),
    "gaussian-family": ("C", ref.C_GAUSSIAN),
}
FAMILY_TARGETS = {
    "sigmoid-family": "sigmoid", "tanh-family": "tanh",
    "gaussian-family": "gaussian", "relu-family": "relu",
}
# Published error extrema on [-10, 10]: (|location|, max |error|). The
# leaky_relu location is the root of its characteristic equation.
PUBLISHED = {
    "step": (0.0, 0.5),
    "relu": (0.0181, 0.00395),
    "leaky_relu": (3.1207, 0.505),
    "sigmoid": (0.8665, 0.000616),
    "tanh": (0.4355, 0.004719),
    "gaussian": (0.8821, 0.0129),
}
BAND_LOCATION, BAND_VALUE = 1e-3, 0.02
EXACT = ("identity", "softplus")
EXACT_TOL = 1e-12
# The fixed-identity gas net is affine at inference, so its validation RMSE
# is bounded below by about the least-squares fit's, and after 60 epochs of
# Adam it sits at about 2.2x that fit.
LSTSQ_BAND = (0.9, 3.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RMSE_RTOL * abs(b) + RMSE_ATOL


def _params(d: dict) -> tuple[float, ...]:
    return tuple(d[k] for k in "ABCDE")


def _check_fit_result(job: str, res: dict, target: str) -> list[str]:
    problems = []
    p = _params(res["params"])
    want = ref.rmse(p, target)
    if not _close(res["rmse"], want):
        problems.append(f"{job}: rmse {res['rmse']!r} but the reference gives {want!r}")
    trace = res["rmse_trace"]
    if len(trace) != res["iterations"] + 1:
        problems.append(f"{job}: rmse_trace has {len(trace)} entries for {res['iterations']} iterations")
    if any(b > a for a, b in zip(trace, trace[1:])):
        problems.append(f"{job}: rmse_trace increases")
    if trace and trace[-1] != res["rmse"]:
        problems.append(f"{job}: rmse_trace ends at {trace[-1]!r}, not at the rmse")
    return problems


def check_fit(outputs: dict[str, str]) -> list[str]:
    problems = []
    for family, target in FAMILY_TARGETS.items():
        res = json.loads(outputs[f"fit {family}"])
        problems += _check_fit_result(f"fit {family}", res, target)
        if family in PAPER_CONSTANTS:
            name, want = PAPER_CONSTANTS[family]
            got = res["params"][name]
            if abs(got - want) > 1e-4:
                problems.append(f"fit {family}: {name} = {got!r}, paper gives {want}")
        if family == "relu-family":
            start = ref.rmse(ref.preset("relu"), "relu")
            if res["rmse"] > start:
                problems.append(f"fit relu-family: rmse {res['rmse']!r} above its start {start!r}")
    for target in ("softplus", "sigmoid"):
        job = f"fit free {target}"
        res = json.loads(outputs[job])
        problems += _check_fit_result(job, res, target)
        start = ref.rmse(ref.preset("identity"), target)
        if not _close(res["rmse_trace"][0], start):
            problems.append(f"{job}: trace starts at {res['rmse_trace'][0]!r}, identity gives {start!r}")
    softplus = json.loads(outputs["fit free softplus"])["rmse"]
    if not softplus < 1e-6:
        problems.append(f"fit free softplus: rmse {softplus!r} not below 1e-6")
    sigmoid = json.loads(outputs["fit free sigmoid"])["rmse"]
    preset_rmse = ref.rmse(ref.preset("sigmoid"), "sigmoid")
    if sigmoid > preset_rmse:
        problems.append(f"fit free sigmoid: rmse {sigmoid!r} above the preset's {preset_rmse!r}")
    return problems


def _check_report(name: str, rep: dict) -> list[str]:
    job = f"report {name}"
    alpha = jobs.LEAKY_ALPHA if name == "leaky_relu" else None
    p = ref.preset(name, alpha)
    problems = []
    if not np.allclose(_params(rep["params"]), p, rtol=1e-15, atol=0.0):
        problems.append(f"{job}: params {rep['params']} are not the preset {p}")
    if tuple(rep["interval"]) != jobs.INTERVAL:
        problems.append(f"{job}: interval {rep['interval']}")
    want_rmse = ref.rmse(p, name, jobs.INTERVAL, 2001, alpha)
    if not _close(rep["rmse"], want_rmse):
        problems.append(f"{job}: rmse {rep['rmse']!r} but the reference gives {want_rmse!r}")
    xs = [cp["x"] for cp in rep["critical_points"]]
    if xs != sorted(xs) or any(not jobs.INTERVAL[0] <= x <= jobs.INTERVAL[1] for x in xs):
        problems.append(f"{job}: critical points unsorted or outside the interval")
    for cp in rep["critical_points"]:
        want = float(ref.error(p, name, cp["x"], alpha))
        if abs(cp["error"] - want) > 1e-12:
            problems.append(f"{job}: error {cp['error']!r} at x={cp['x']!r}, reference {want!r}")
    got_max, got_locs = rep["max_abs_error"], rep["max_error_locations"]
    if name in EXACT:
        if not got_max <= EXACT_TOL:
            problems.append(f"{job}: max |error| {got_max!r} for an exact preset")
        return problems
    want_max, want_locs = ref.max_error(p, name, jobs.INTERVAL, alpha)
    if abs(got_max - want_max) > 1e-9 * want_max:
        problems.append(f"{job}: max |error| {got_max!r}, reference {want_max!r}")
    if len(got_locs) != len(want_locs) or any(
        abs(a - b) > 1e-6 for a, b in zip(got_locs, want_locs)
    ):
        problems.append(f"{job}: max |error| at {got_locs}, reference {want_locs}")
    band_loc, band_val = PUBLISHED[name]
    far = max(abs(x) for x in got_locs)
    if abs(far - band_loc) > BAND_LOCATION or abs(got_max - band_val) > BAND_VALUE * band_val:
        problems.append(f"{job}: {got_max!r} at ±{far!r} outside the published {band_val} at ±{band_loc}")
    return problems


def check_analysis(outputs: dict[str, str]) -> list[str]:
    problems = []
    reports = {}
    for name in jobs.PRESETS:
        reports[name] = json.loads(outputs[f"report {name}"])
        problems += _check_report(name, reports[name])
    rows = list(csv.reader(io.StringIO(outputs["table"])))
    if rows[0] != ["kind", "rmse", "max_error", "locations"] or len(rows) != len(jobs.PRESETS) + 1:
        return problems + [f"table: unexpected layout {rows[:1]}, {len(rows)} rows"]
    for name, row in zip(jobs.PRESETS, rows[1:]):
        rep = reports[name]
        label = f"leaky_relu({jobs.LEAKY_ALPHA:g})" if name == "leaky_relu" else name
        want = [
            label, f"{rep['rmse']:.5f}", f"{rep['max_abs_error']:.5f}",
            ";".join(f"{x:.6g}" for x in rep["max_error_locations"]),
        ]
        if row != want:
            problems.append(f"table: row {row} disagrees with report {name} {want}")
    return problems


def _check_train_run(job: str, rep: dict, epochs: int, trainable: bool) -> list[str]:
    problems = []
    if rep["diverged"] or rep["diverged_epoch"] is not None:
        problems.append(f"{job}: diverged at epoch {rep['diverged_epoch']}")
    for key in ("loss_trace", "metric_trace"):
        trace = rep[key]
        if len(trace) != epochs or not all(math.isfinite(v) for v in trace):
            problems.append(f"{job}: {key} has {len(trace)} entries for {epochs} epochs, or a non-finite one")
    trajectory = rep["uaf_trajectory"]
    if trainable and (trajectory is None or len(trajectory) != epochs + 1):
        problems.append(f"{job}: UAF trajectory does not cover epochs 0..{epochs}")
    if not trainable and trajectory is not None:
        problems.append(f"{job}: fixed activation reports a UAF trajectory")
    return problems


def check_train(outputs: dict[str, str], gas_split) -> list[str]:
    problems = []
    reps = {}
    for data, epochs in (("gas", jobs.GAS_EPOCHS), ("blobs", jobs.BLOBS_EPOCHS)):
        for act in ("uaf", "fixed"):
            job = f"train {data} {act}"
            reps[job] = json.loads(outputs[job])
            problems += _check_train_run(job, reps[job], epochs, act == "uaf")
    if problems:
        return problems
    gas_uaf = reps["train gas uaf"]["metric_trace"][-1]
    gas_fixed = reps["train gas fixed"]["metric_trace"][-1]
    if abs(gas_uaf - gas_fixed) > 0.10 * gas_fixed:
        problems.append(f"train gas: trainable RMSE {gas_uaf!r} not within 10% of fixed identity {gas_fixed!r}")
    acc_uaf = reps["train blobs uaf"]["metric_trace"][-1]
    acc_fixed = reps["train blobs fixed"]["metric_trace"][-1]
    if acc_uaf < acc_fixed - 0.05:
        problems.append(f"train blobs: trainable accuracy {acc_uaf!r} below fixed sigmoid {acc_fixed!r} - 0.05")
    n_val = 300  # int(0.15 * 2000) validation rows
    for job in ("train blobs uaf", "train blobs fixed"):
        for acc in reps[job]["metric_trace"]:
            if not (0.0 <= acc <= 1.0 and abs(acc * n_val - round(acc * n_val)) < 1e-9):
                problems.append(f"{job}: accuracy {acc!r} is not a count of {n_val} rows")
                break
    x_train, y_train, x_val, y_val = gas_split
    ones = np.ones((len(x_train), 1))
    coef, *_ = np.linalg.lstsq(np.hstack([x_train, ones]), y_train, rcond=None)
    pred = np.hstack([x_val, np.ones((len(x_val), 1))]) @ coef
    linear = float(np.sqrt(np.mean((pred - y_val) ** 2)))
    lo, hi = LSTSQ_BAND
    if not lo * linear <= gas_fixed <= hi * linear:
        problems.append(
            f"train gas fixed: RMSE {gas_fixed!r} not within [{lo}, {hi}] x the least-squares {linear!r}"
        )
    return problems


def check(workload: str, results: dict, gas_split=None) -> list[str]:
    """Every problem with a run's outputs."""
    problems = [f"{job}: a repeat printed a different result" for job in sorted(set(results["mismatches"]))]
    wanted = {op.job for op in jobs.round_ops(workload, first=True) if not op.usage_error}
    missing = sorted(wanted - set(results["outputs"]))
    if missing:
        return problems + [f"{job}: never succeeded" for job in missing]
    outputs = results["outputs"]
    if workload == "fit":
        return problems + check_fit(outputs)
    if workload == "analysis":
        return problems + check_analysis(outputs)
    return problems + check_train(outputs, gas_split)
