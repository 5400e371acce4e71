"""Acceptance gate: the eight headline criteria, one test and one printed
PASS/FAIL line each.

Every expected number below is a fixed reference figure for its function
family; tolerances are the stated acceptance bands.
"""

import math
import time

import numpy as np
import pytest

import uafkit as uk
from uafkit.network import (
    AdamConfig,
    FixedActivation,
    Network,
    NetworkConfig,
    TrainableUaf,
    train,
)

INTERVAL = (-10.0, 10.0)


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1 ------------------------------------------------------------------------


def test_acceptance_1_exact_presets(capsys):
    rmses = {
        kind.label(): uk.interval_rmse(uk.preset(kind), uk.target(kind), INTERVAL, 2001)
        for kind in (uk.IDENTITY, uk.SOFTPLUS)
    }
    ok = all(v < 1e-12 for v in rmses.values())
    detail = ", ".join(f"{k} rmse={v:.2e}" for k, v in rmses.items()) + " (< 1e-12)"
    _verdict(capsys, 1, "exact presets", ok, detail)


# -- 2 ------------------------------------------------------------------------


def test_acceptance_2_rmse_table(capsys):
    bands = {
        uk.RELU: (0.00021, 0.20),
        uk.SIGMOID: (0.00029, 0.20),
        uk.TANH: (0.00160, 0.20),
        uk.GAUSSIAN: (0.00468, 0.20),
        uk.leaky_relu(0.1): (0.41316, 0.10),
        uk.STEP: (0.01664, 0.50),
    }
    table = {rep.target: rep.rmse for rep in uk.rmse_table(2001)}
    failures = []
    parts = []
    for kind, (center, tol) in bands.items():
        got = table[kind]
        ok = abs(got - center) <= tol * center
        parts.append(f"{kind.label()}={got:.5f} (want {center}±{int(tol*100)}%)")
        if not ok:
            failures.append(kind.label())
    _verdict(capsys, 2, "rmse table", not failures, "; ".join(parts))


# -- 3 ------------------------------------------------------------------------


def test_acceptance_3_error_extrema(capsys):
    # Expected values are the printed reference figures. The leaky_relu
    # location is the exception: the printed +/-3.106 does not satisfy the
    # family's own characteristic equation (its residual there is -0.023,
    # versus ~1e-9 at 3.120712), and the printed error value 0.505 is what the
    # function actually attains at +/-3.120712. The location below is the
    # certified root; the value band stays centered on the printed 0.505.
    expected = {
        uk.SIGMOID: (0.866499, 0.000616),
        uk.TANH: (0.435499, 0.004719),
        uk.RELU: (0.0181, 0.00395),
        uk.leaky_relu(0.1): (3.120712, 0.505),
        uk.GAUSSIAN: (0.8821, 0.0129),
    }
    failures = []
    parts = []
    for kind, (want_loc, want_val) in expected.items():
        rep = uk.error_report(uk.preset(kind), uk.target(kind), INTERVAL)
        locs = rep.max_error_locations
        got_loc = max(abs(x) for x in locs)
        got_val = rep.max_abs_error
        sym = len(locs) == 2 and locs[0] == pytest.approx(-locs[1], abs=1e-6)
        loc_ok = abs(got_loc - want_loc) <= 1e-3
        val_ok = abs(got_val - want_val) <= 0.10 * want_val
        parts.append(
            f"{kind.label()}: |e|={got_val:.6f}@±{got_loc:.6f} "
            f"(want {want_val}@±{want_loc})"
        )
        if not (loc_ok and val_ok and sym):
            failures.append(kind.label())
    _verdict(capsys, 3, "error extrema", not failures, "; ".join(parts))


# -- 4 ------------------------------------------------------------------------


def test_acceptance_4_fitted_constants(capsys):
    cases = [
        ("sigmoid-family", "A", 1.01605291),
        ("tanh-family", "A", 2.12616013),
        ("gaussian-family", "C", -0.61341425),
    ]
    failures = []
    parts = []
    for name, attr, want in cases:
        start = time.perf_counter()
        res = uk.fit(uk.builtin_spec(name))
        elapsed = time.perf_counter() - start
        got = getattr(res.params, attr)
        ok = abs(got - want) <= 1e-4 and elapsed < 10.0
        parts.append(f"{name} {attr}={got:.8f} (want {want}±1e-4, {elapsed:.2f}s)")
        if not ok:
            failures.append(name)
    _verdict(capsys, 4, "fitted constants", not failures, "; ".join(parts))


# -- 5 ------------------------------------------------------------------------


def _rel_err(analytic, fd):
    scale = max(abs(analytic), abs(fd))
    if scale < 1e-3:
        return abs(analytic - fd) / 1e-3
    return abs(analytic - fd) / scale


def test_acceptance_5_gradient_suites(capsys):
    # (a) the activation's own partials vs central differences, 1000 cases
    rng = np.random.default_rng(2024)
    worst_a = 0.0
    h = 1e-6
    for _ in range(1000):
        p = uk.UafParams(*rng.uniform(-3, 3, size=5))
        x = float(rng.uniform(-8, 8))
        g = uk.grad(p, x)
        analytic = [g.d_x, g.d_A, g.d_B, g.d_C, g.d_D, g.d_E]
        fds = []
        fds.append((uk.eval_stable(p, x + h) - uk.eval_stable(p, x - h)) / (2 * h))
        for name in ("A", "B", "C", "D", "E"):
            kw_up, kw_dn = p.to_dict(), p.to_dict()
            kw_up[name] += h
            kw_dn[name] -= h
            fds.append(
                (uk.eval_stable(uk.UafParams(**kw_up), x)
                 - uk.eval_stable(uk.UafParams(**kw_dn), x)) / (2 * h)
            )
        worst_a = max(worst_a, max(_rel_err(a, f) for a, f in zip(analytic, fds)))
    ok_a = worst_a < 1e-5

    # (b) every parameter of a 4-3-2 network, including the five shared ones
    cfg = NetworkConfig(
        layer_sizes=(4, 3, 2),
        activation=TrainableUaf(uk.UafParams(1.05, 0.1, -0.02, 0.9, 0.05)),
        use_batch_norm=True,
        seed=10,
    )
    net = Network(cfg)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(8, 2))
    grads = net.backward(x, y)
    tensors = net.weights + net.biases + [net.uaf]
    grad_tensors = grads.weights + grads.biases + [grads.uaf]

    def loss():
        _, out, _ = net.forward(x, training=True)
        val, _ = net._loss_and_grad(out, y)
        return val

    worst_b = 0.0
    for tensor, grad in zip(tensors, grad_tensors):
        flat = tensor.ravel()
        gflat = np.asarray(grad).ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            an = gflat[i]
            if max(abs(fd), abs(an)) <= 1e-6:
                continue  # identically-zero gradients (batch-norm-cancelled)
            worst_b = max(worst_b, abs(fd - an) / max(abs(fd), abs(an)))
    ok_b = worst_b < 1e-4

    detail = (f"uaf partials worst rel err {worst_a:.2e} (< 1e-5, 1000 cases); "
              f"4-3-2 network worst rel err {worst_b:.2e} (< 1e-4)")
    _verdict(capsys, 5, "gradient suites", ok_a and ok_b, detail)


# -- 6 ------------------------------------------------------------------------


def test_acceptance_6_stability(capsys):
    rng = np.random.default_rng(77)
    finite_ok = True
    for _ in range(2000):
        p = uk.UafParams(*rng.uniform(-200, 200, size=5))
        x = float(rng.uniform(-100, 100))
        if not math.isfinite(uk.eval_stable(p, x)):
            finite_ok = False
            break
    for sa in (-200.0, 200.0):
        for sd in (-200.0, 200.0):
            p = uk.UafParams(sa, 200.0, sa, sd, -200.0)
            for x in (-100.0, 0.0, 100.0):
                if not math.isfinite(uk.eval_stable(p, x)):
                    finite_ok = False

    worst = 0.0
    checked = 0
    for _ in range(3000):
        p = uk.UafParams(*rng.uniform(-3, 3, size=5))
        x = float(rng.uniform(-500, 500))
        try:
            naive = uk.eval_naive(p, x)
        except uk.UafOverflowError:
            continue
        checked += 1
        worst = max(worst, abs(naive - uk.eval_stable(p, x)))
    ok = finite_ok and worst < 1e-9 and checked > 1000
    detail = (f"finite at |x|<=100 with |params|<=200: {finite_ok}; "
              f"naive-vs-stable worst |diff|={worst:.2e} over {checked} "
              f"representable points in [-500, 500] (< 1e-9)")
    _verdict(capsys, 6, "stable evaluation", ok, detail)


# -- 7 ------------------------------------------------------------------------


def test_acceptance_7_tail_bounds(capsys):
    cases = []
    for kind, bound, radius_of in (
        (uk.SIGMOID, 6e-6, lambda p: 10.0 / p.A),
        (uk.TANH, 6e-5, lambda p: 10.0 / p.A),
        (uk.RELU, 7e-6, lambda p: 10.0 / p.A),
        (uk.GAUSSIAN, 5e-10, lambda p: 4.0 / abs(p.C)),
        (uk.leaky_relu(0.1), 0.00677, lambda p: 50.0),
    ):
        p, t = uk.preset(kind), uk.target(kind)
        radius = radius_of(p)
        xs = np.linspace(radius * (1 + 1e-12), radius + 30.0, 6001)
        worst = max(
            float(np.max(np.abs(uk.approx_error_batch(p, t, xs)))),
            float(np.max(np.abs(uk.approx_error_batch(p, t, -xs)))),
        )
        cases.append((kind.label(), worst, bound, radius))
    ok = all(worst < bound for _, worst, bound, _ in cases)
    detail = "; ".join(
        f"{label}: max|e|={worst:.2e} < {bound} beyond |x|={radius:.4g}"
        for label, worst, bound, radius in cases
    )
    _verdict(capsys, 7, "tail bounds", ok, detail)


# -- 8 ------------------------------------------------------------------------


def test_acceptance_8_training_demos(capsys):
    start = time.perf_counter()

    # (a) gas-analogue regression: trainable activation starting at identity
    # vs the same network with the exact identity activation. The shared
    # activation's step size is damped via the exposed uaf_learning_rate knob;
    # at the weight learning rate it wanders along loss-flat directions the
    # following affine layer absorbs (slope/offset), leaving the identity band.
    gas = uk.make_gas_analogue(seed=7, snr_db=30.0)
    common = dict(
        layer_sizes=(64, 32, 9),
        use_batch_norm=True,
        seed=0,
        optimizer=AdamConfig(learning_rate=0.001),
        batch_size=32,
        epochs=60,
    )
    rep_uaf = train(
        NetworkConfig(activation=TrainableUaf(uk.preset(uk.IDENTITY)),
                      uaf_learning_rate=1e-4, **common),
        gas,
    )
    rep_fix = train(
        NetworkConfig(activation=FixedActivation(uk.IDENTITY, exact=True), **common),
        gas,
    )
    rmse_uaf = rep_uaf.metric_trace[-1]
    rmse_fix = rep_fix.metric_trace[-1]
    gap = abs(rmse_uaf - rmse_fix) / rmse_fix
    final_params = rep_uaf.uaf_trajectory[-1][1]
    to_identity = uk.interval_rmse(
        final_params, uk.target(uk.IDENTITY), INTERVAL, 2001
    )
    ok_a = gap <= 0.10 and to_identity < 0.5

    # (b) blobs classification: trainable activation vs fixed sigmoid,
    # identical seed
    blobs = uk.make_blobs(seed=11, spread=3.0)
    common_b = dict(
        layer_sizes=(16, 24, 4),
        use_batch_norm=True,
        seed=3,
        optimizer=AdamConfig(learning_rate=0.001),
        batch_size=32,
        epochs=20,
    )
    acc_uaf = train(
        NetworkConfig(activation=TrainableUaf(uk.preset(uk.IDENTITY)), **common_b),
        blobs,
    ).metric_trace[-1]
    acc_sig = train(
        NetworkConfig(activation=FixedActivation(uk.SIGMOID, exact=True), **common_b),
        blobs,
    ).metric_trace[-1]
    ok_b = acc_uaf >= acc_sig - 0.05

    # (c) bitwise determinism of a repeated run
    again = train(
        NetworkConfig(activation=TrainableUaf(uk.preset(uk.IDENTITY)),
                      uaf_learning_rate=1e-4, **common),
        gas,
    )
    ok_c = (
        again.loss_trace == rep_uaf.loss_trace
        and again.metric_trace == rep_uaf.metric_trace
        and again.uaf_trajectory == rep_uaf.uaf_trajectory
    )

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and elapsed < 300.0
    detail = (
        f"(a) gas val rmse {rmse_uaf:.4f} vs fixed {rmse_fix:.4f} "
        f"(gap {gap * 100:.1f}% <= 10%), final-UAF-to-identity rmse "
        f"{to_identity:.3f} < 0.5; "
        f"(b) blobs accuracy {acc_uaf:.4f} >= sigmoid {acc_sig:.4f} - 0.05; "
        f"(c) repeat run bitwise identical: {ok_c}; total {elapsed:.1f}s < 300s"
    )
    _verdict(capsys, 8, "training demonstrations", ok, detail)
