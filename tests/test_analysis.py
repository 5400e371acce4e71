"""Unit tests for critical-point scanning, RMSE summaries, and the
characteristic-equation residuals."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uafkit as uk


INTERVAL = (-10.0, 10.0)


def _points(kind):
    return uk.critical_points(uk.preset(kind), uk.target(kind), INTERVAL)


# --- critical points -----------------------------------------------------------


def test_smooth_exact_families_have_no_critical_points():
    for kind in (uk.IDENTITY, uk.SOFTPLUS, uk.STEP):
        assert _points(kind) == []


def test_relu_critical_points():
    pts = _points(uk.RELU)
    assert [round(x, 6) for x, _ in pts] == [-0.018135, 0.018135]
    for _, err in pts:
        assert err == pytest.approx(-0.003950, abs=1e-6)


def test_leaky_relu_critical_points():
    pts = _points(uk.leaky_relu(0.1))
    assert [round(x, 6) for x, _ in pts] == [-3.120712, 3.120712]
    for _, err in pts:
        assert err == pytest.approx(-0.506056, abs=1e-6)


def test_sigmoid_critical_points():
    pts = _points(uk.SIGMOID)
    assert [round(x, 6) for x, _ in pts] == [
        -3.266838, -0.866516, 0.866516, 3.266838,
    ]
    errs = {round(x, 6): e for x, e in pts}
    assert errs[0.866516] == pytest.approx(-0.000617, abs=2e-6)
    assert errs[-0.866516] == pytest.approx(0.000617, abs=2e-6)
    assert errs[3.266838] == pytest.approx(0.000495, abs=2e-6)


def test_tanh_critical_points():
    pts = _points(uk.TANH)
    assert [round(x, 6) for x, _ in pts] == [
        -1.622037, -0.435458, 0.435458, 1.622037,
    ]
    errs = {round(x, 6): e for x, e in pts}
    assert errs[0.435458] == pytest.approx(-0.004719, abs=1e-6)
    assert errs[1.622037] == pytest.approx(0.003833, abs=1e-6)


def test_gaussian_critical_points():
    pts = _points(uk.GAUSSIAN)
    assert [round(x, 6) for x, _ in pts] == [
        -2.118966, -0.882151, 0.0, 0.882151, 2.118966,
    ]
    errs = {round(x, 6): e for x, e in pts}
    assert errs[0.0] == pytest.approx(0.0, abs=1e-12)
    assert errs[0.882151] == pytest.approx(0.012963, abs=1e-6)
    assert errs[2.118966] == pytest.approx(-0.011709, abs=1e-6)


def test_critical_points_sorted_and_inside_interval():
    for kind in (uk.SIGMOID, uk.TANH, uk.RELU, uk.GAUSSIAN, uk.leaky_relu(0.1)):
        pts = _points(kind)
        xs = [x for x, _ in pts]
        assert xs == sorted(xs)
        assert all(INTERVAL[0] < x < INTERVAL[1] for x in xs)


def test_critical_point_errors_match_direct_evaluation():
    for kind in (uk.SIGMOID, uk.TANH, uk.GAUSSIAN):
        p, t = uk.preset(kind), uk.target(kind)
        for x, err in uk.critical_points(p, t, INTERVAL):
            assert err == pytest.approx(uk.approx_error(p, t, x), abs=1e-12)


def test_kink_at_interval_end_is_not_a_critical_point():
    p, t = uk.preset(uk.RELU), uk.target(uk.RELU)
    below = uk.critical_points(p, t, (-5.0, 0.0))
    assert [round(x, 7) for x, _ in below] == [-0.0181347]
    above = uk.critical_points(p, t, (0.0, 5.0))
    assert [round(x, 7) for x, _ in above] == [0.0181347]
    # 0 is not a grid node here: the cell around it is skipped all the same.
    both = uk.critical_points(p, t, (-10.0, 10.0005))
    assert [round(x, 7) for x, _ in both] == [-0.0181347, 0.0181347]


def test_bisection_ends_where_floats_are_coarser_than_its_tolerance():
    # Near x = 4.5e6 adjacent floats are 9.3e-10 apart, wider than the 1e-10
    # tolerance; the root of f'(x) = 2Cx * s(Cx^2) = 1 is still found.
    p = uk.UafParams(0.0, 0.0, 1.104e-7, 0.0, 0.0)
    r = 0.5 / p.C
    pts = uk.critical_points(p, uk.target(uk.IDENTITY), (r - 1.0, r + 1.0))
    assert len(pts) == 1
    assert abs(pts[0][0] - r) <= 4 * np.spacing(r)


# --- exact roots ------------------------------------------------------------------


def _assert_slope_changes_sign_at_points(p, t, interval):
    """Each critical point lies within 1e-9 of a sign change of the exact
    error slope dE/dx = f'(x) - t'(x)."""
    for x, _ in uk.critical_points(p, t, interval):
        xs = np.array([x - 1e-9, x + 1e-9])
        left, right = uk.grad_batch(p, xs)[:, 0] - t.derivative(xs)
        assert left * right < 0, (t.kind.label(), p, x, left, right)


CERTIFIED_KINDS = (uk.SIGMOID, uk.TANH, uk.RELU, uk.leaky_relu(0.1), uk.GAUSSIAN)


def test_critical_points_are_exact_slope_roots():
    for kind in CERTIFIED_KINDS:
        _assert_slope_changes_sign_at_points(uk.preset(kind), uk.target(kind), INTERVAL)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(CERTIFIED_KINDS),
    scales=st.lists(st.floats(-0.05, 0.05), min_size=5, max_size=5),
)
def test_perturbed_preset_critical_points_are_exact_slope_roots(kind, scales):
    base = uk.preset(kind).as_tuple()
    p = uk.UafParams(*(v * (1.0 + s) for v, s in zip(base, scales)))
    _assert_slope_changes_sign_at_points(p, uk.target(kind), INTERVAL)


# --- interval RMSE ---------------------------------------------------------------


def test_interval_rmse_values():
    expected = {
        uk.STEP: 0.012899,
        uk.RELU: 0.000212,
        uk.leaky_relu(0.1): 0.413120,
        uk.SIGMOID: 0.000295,
        uk.TANH: 0.001595,
        uk.GAUSSIAN: 0.004674,
    }
    for kind, want in expected.items():
        got = uk.interval_rmse(uk.preset(kind), uk.target(kind), INTERVAL, 2001)
        assert got == pytest.approx(want, abs=5e-6), kind.label()
    for kind in (uk.IDENTITY, uk.SOFTPLUS):
        assert uk.interval_rmse(uk.preset(kind), uk.target(kind), INTERVAL, 2001) < 1e-12


def test_interval_rmse_grid_stability():
    for kind in (uk.RELU, uk.leaky_relu(0.1), uk.SIGMOID, uk.TANH, uk.GAUSSIAN):
        p, t = uk.preset(kind), uk.target(kind)
        coarse = uk.interval_rmse(p, t, INTERVAL, 2001)
        fine = uk.interval_rmse(p, t, INTERVAL, 20001)
        assert abs(coarse - fine) <= 0.05 * fine, kind.label()


def test_interval_rmse_validation():
    p, t = uk.preset(uk.TANH), uk.target(uk.TANH)
    with pytest.raises(ValueError):
        uk.interval_rmse(p, t, (5.0, -5.0), 101)
    with pytest.raises(ValueError):
        uk.interval_rmse(p, t, INTERVAL, 1)


# --- error reports ---------------------------------------------------------------


def test_tanh_error_report():
    rep = uk.error_report(uk.preset(uk.TANH), uk.target(uk.TANH), INTERVAL)
    assert rep.max_abs_error == pytest.approx(0.004719, abs=1e-6)
    assert [round(x, 6) for x in rep.max_error_locations] == [-0.435458, 0.435458]
    assert rep.rmse == pytest.approx(0.001595, abs=5e-6)
    assert rep.interval == INTERVAL
    assert rep.target == uk.TANH


def test_step_report_jump_supremum():
    # The step's discontinuity at 0 dominates: the function passes through 1/2
    # there, half a unit away from both one-sided limits.
    rep = uk.error_report(uk.preset(uk.STEP), uk.target(uk.STEP), INTERVAL)
    assert rep.max_abs_error == pytest.approx(0.5, abs=1e-9)
    assert rep.max_error_locations == (0.0,)


def test_step_report_jump_supremum_at_interval_end():
    # With 0 at either end, the one-sided limit inside the interval is the
    # supremum: half a unit, approached at 0.
    p, t = uk.preset(uk.STEP), uk.target(uk.STEP)
    for interval in ((-1.0, 0.0), (0.0, 1.0)):
        rep = uk.error_report(p, t, interval)
        assert rep.max_abs_error == pytest.approx(0.5, abs=1e-9)
        assert rep.max_error_locations == (0.0,)


def test_report_max_dominates_critical_points():
    for kind in (uk.SIGMOID, uk.GAUSSIAN, uk.RELU, uk.leaky_relu(0.1)):
        rep = uk.error_report(uk.preset(kind), uk.target(kind), INTERVAL)
        for _, err in rep.critical_points:
            assert rep.max_abs_error >= abs(err) - 1e-12
        p, t = uk.preset(kind), uk.target(kind)
        for x in rep.max_error_locations:
            assert abs(uk.approx_error(p, t, x)) == pytest.approx(
                rep.max_abs_error, rel=1e-6
            )


def test_report_serializes_to_json():
    rep = uk.error_report(uk.preset(uk.GAUSSIAN), uk.target(uk.GAUSSIAN), INTERVAL)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["max_abs_error"] == rep.max_abs_error
    assert data["params"]["C"] == -0.61341425


# --- summary table ----------------------------------------------------------------


def test_rmse_table_rows_and_order():
    table = uk.rmse_table(2001)
    labels = [row.kind.label() for row in table.rows]
    assert labels == [
        "identity", "step", "relu", "leaky_relu(0.1)",
        "sigmoid", "tanh", "softplus", "gaussian",
    ]
    by_label = {row.kind.label(): row for row in table.rows}
    assert by_label["identity"].rmse < 1e-12
    assert by_label["softplus"].rmse < 1e-12
    assert by_label["leaky_relu(0.1)"].rmse == pytest.approx(0.413120, abs=5e-6)
    assert by_label["tanh"].max_error == pytest.approx(0.004719, abs=1e-6)
    json.dumps(table.to_dict())


# --- characteristic equations -------------------------------------------------------


CERTIFIED_ROOTS = {
    "sigmoid": (uk.SIGMOID, (0.866516, 3.266838)),
    "tanh": (uk.TANH, (0.435458, 1.622037)),
    "relu": (uk.RELU, (0.018135,)),
    "leaky_relu": (uk.leaky_relu(0.1), (3.120712,)),
    "gaussian": (uk.GAUSSIAN, (0.882151, 2.118966)),
}


def test_scaled_residual_vanishes_at_extrema():
    for kind, roots in CERTIFIED_ROOTS.values():
        p = uk.preset(kind)
        for x in roots:
            r = uk.characteristic_residual_scaled(kind, p, x)
            assert abs(r) < 1e-4, (kind.label(), x, r)


def test_scaled_residual_nonzero_off_root():
    for kind, roots in CERTIFIED_ROOTS.values():
        p = uk.preset(kind)
        x = roots[0] + 0.05
        assert abs(uk.characteristic_residual_scaled(kind, p, x)) > 1e-4


def test_every_scanned_extremum_satisfies_its_equation():
    for kind, _ in CERTIFIED_ROOTS.values():
        p, t = uk.preset(kind), uk.target(kind)
        for x, _err in uk.critical_points(p, t, INTERVAL):
            if kind.name == "gaussian" and x == 0.0:
                continue  # the equation is trivially 0 = 0 at x = 0
            assert abs(uk.characteristic_residual_scaled(kind, p, x)) < 1e-4


def test_residual_rejects_families_without_equations():
    for kind in (uk.IDENTITY, uk.STEP, uk.SOFTPLUS):
        with pytest.raises(ValueError):
            uk.characteristic_residual(kind, uk.preset(kind), 1.0)
        with pytest.raises(ValueError):
            uk.characteristic_residual_scaled(kind, uk.preset(kind), 1.0)


def test_raw_and_scaled_residuals_share_sign():
    kind = uk.TANH
    p = uk.preset(kind)
    for x in (0.2, 0.44, 1.0, 2.0):
        raw = uk.characteristic_residual(kind, p, x)
        scaled = uk.characteristic_residual_scaled(kind, p, x)
        assert math.copysign(1.0, raw) == math.copysign(1.0, scaled) or raw == scaled == 0.0
        assert abs(scaled) <= abs(raw) + 1e-15


# --- tail behaviour -----------------------------------------------------------------


def test_gaussian_tail_spot_check():
    p, t = uk.preset(uk.GAUSSIAN), uk.target(uk.GAUSSIAN)
    radius = 4.0 / abs(p.C)
    xs = np.linspace(radius + 1e-9, radius + 20.0, 4001)
    errs = np.abs(uk.approx_error_batch(p, t, xs))
    assert np.max(errs) < 5e-10
    assert np.max(np.abs(uk.approx_error_batch(p, t, -xs))) < 5e-10
