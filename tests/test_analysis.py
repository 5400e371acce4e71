"""Unit tests for critical-point scanning, RMSE summaries, and the
characteristic-equation residuals."""

import json
import math
import sys

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


@pytest.mark.parametrize("C", [-1e-100, -1e-150, -1e-160, -1e-170, -1e-300])
def test_a_tiny_slope_keeps_its_root(C):
    # f'(x) = s(z1) * 2C(x + 5), and relu's slope is 0 on x < 0: the one root
    # is -5. From C = -1e-160 on, two neighbouring slopes multiply to 0, so
    # the scan must compare their signs, not their product.
    p = uk.UafParams(10.0 * C, 0.0, C, 0.0, 0.0)
    assert [x for x, _ in uk.critical_points(p, uk.RELU, (-10.0, -1.0))] == [-5.0]


def test_a_huge_slope_does_not_overflow_the_sign_test():
    # f'(x) = 1e160 * s(1e160 x) is 1e160 on (0.5, 1.5): no sign change, and
    # no product of two slopes to overflow (filterwarnings makes one fail).
    assert uk.critical_points(uk.UafParams(1e160, 0.0, 0.0, 0.0, 0.0), uk.IDENTITY,
                              (0.5, 1.5)) == []


# --- block scan -------------------------------------------------------------------


ALL_KINDS = (uk.IDENTITY, uk.STEP, uk.RELU, uk.leaky_relu(0.1), uk.SIGMOID, uk.TANH,
             uk.SOFTPLUS, uk.GAUSSIAN)


def _bits(xs):
    return np.asarray(xs, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("lo, hi, n", [
    (-10.0, 10.0, 20001), (-3.3, 7.1, 10401), (1e6, 1e6 + 3.0, 3001), (-0.0021, 0.002, 5),
    # the step underflows to 0, which linspace computes in another order
    (0.0, 5e-324, 3), (0.0, 2.5e-323, 11),
    (-5e-324, 5e-324, 3), (-1e300, 1e300, 7),
])
def test_block_grid_is_the_linspace_grid(lo, hi, n):
    whole = np.linspace(lo, hi, n)
    for i0, i1 in ((0, n), (0, 2), (1, n - 1), (n // 3, n // 2 + 1), (n - 2, n)):
        assert np.array_equal(_bits(uk.core.grid(lo, hi, n, i0, i1)), _bits(whole[i0:i1]))


# Subnormal ends give widths whose step underflows to 0 (see above).
_ENDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-320, 1e-320))


@st.composite
def _grid_blocks(draw):
    """Any finite lo < hi of finite width, n in [2, 3000] and i0 <= i1 <= n."""
    lo, hi = sorted(draw(st.tuples(_ENDS, _ENDS).filter(
        lambda b: b[0] != b[1] and math.isfinite(b[1] - b[0]))))
    n = draw(st.integers(2, 3000))
    i0, i1 = sorted(draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    return lo, hi, n, i0, i1


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_grid_blocks())
def test_any_block_grid_is_the_linspace_grid(block):
    lo, hi, n, i0, i1 = block
    # Near the float64 range, (n - 1) * step can overflow in both before the
    # last node is set to hi.
    with np.errstate(over="ignore"):
        assert np.array_equal(_bits(uk.core.grid(lo, hi, n, i0, i1)),
                              _bits(np.linspace(lo, hi, n)[i0:i1]))
        # The fitter's |x| bound is the larger end. A nonzero subnormal step
        # is rounded by up to half its size, and a node can pass hi by a few
        # 5e-324; the bound then only picks the kernel's path (uaf_terms).
        if not 0.0 < (hi - lo) / (n - 1) < sys.float_info.min:
            assert np.abs(uk.core.grid(lo, hi, n, 0, n)).max() == max(abs(lo), abs(hi))


def _scan_bits(monkeypatch, block, kind, interval):
    monkeypatch.setattr(uk.analysis, "_SCAN_BLOCK", block)
    pts = uk.critical_points(uk.preset(kind), uk.target(kind), interval)
    return _bits([v for pt in pts for v in pt])


@pytest.mark.parametrize("block", [7, 64])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label())
def test_block_scan_matches_one_block(monkeypatch, block, kind):
    # 20001 nodes: the last block is a partial one for either size
    one = _scan_bits(monkeypatch, 10**9, kind, INTERVAL)
    assert np.array_equal(_scan_bits(monkeypatch, block, kind, INTERVAL), one)


@pytest.mark.parametrize("block", [7, 64])
def test_exact_zero_node_on_a_block_boundary(monkeypatch, block):
    # Blocks start every block - 2 nodes and share two nodes. On (-h, h) with
    # h = m * 1e-3, x = 0 is node m; these put it on each of the shared nodes.
    for m in (block - 2, block - 1):
        interval = (-m * 1e-3, m * 1e-3)
        assert np.linspace(*interval, 2 * m + 1)[m] == 0.0
        pts = _scan_bits(monkeypatch, block, uk.GAUSSIAN, interval)
        assert np.array_equal(pts, _scan_bits(monkeypatch, 10**9, uk.GAUSSIAN, interval))
        assert _bits([0.0])[0] in pts[::2]


def _full_mask_scan(p, t, xs, first_cell, xmax):
    """analysis._scan with the rounding-bound passes taken on every block: the
    reference that the skip of blocks without events must match."""
    g, dt = uk.analysis._slope(p, t, xs, xmax)
    floor = 16.0 * uk.analysis._EPS * (np.abs(p.A + 2.0 * p.C * xs) + abs(p.D) + np.abs(dt))
    keep = np.ones(xs.size - 1, dtype=bool)
    if uk.core.KINDS[t.name].at_zero:
        keep = (xs[1:] < 0.0) | (xs[:-1] > 0.0)
    bound = np.maximum(floor[:-1], floor[1:])
    bracket = keep & (g[:-1] * g[1:] < 0) & (np.maximum(np.abs(g[:-1]), np.abs(g[1:])) > bound)
    bracket[:first_cell] = False
    node = keep[:-1] & keep[1:] & (g[1:-1] == 0.0) & (g[:-2] * g[2:] < 0)
    node &= np.maximum(np.abs(g[:-2]), np.abs(g[2:])) > bound[1:]
    i = np.flatnonzero(bracket)
    return xs[i], xs[i + 1], g[i] > 0, xs[1:-1][node]


def _check_scan_blocks(p, t, interval):
    """Runs critical_points with every block of analysis._scan compared, bit
    for bit and dtype for dtype, to _full_mask_scan; returns the kinds of
    block seen: "quiet" (no raw event), "zero node" (an exact-zero node is
    the only raw event), "flat" (slope 0.0 on every node) and "noise" (raw
    events that the rounding bound rejects)."""
    scan, seen = uk.analysis._scan, set()

    def compare(p, t, xs, first_cell, xmax):
        got = scan(p, t, xs, first_cell, xmax)
        want = _full_mask_scan(p, t, xs, first_cell, xmax)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))
        g = uk.analysis._slope(p, t, xs, xmax)[0]
        cells = (g[:-1] * g[1:] < 0)[first_cell:].any()
        zeros = ((g[1:-1] == 0.0) & (g[:-2] * g[2:] < 0)).any()
        seen.add("quiet" if not (cells or zeros) else "zero node" if not cells else
                 "noise" if not any(part.size for part in want) else "events")
        if not g.any():
            seen.add("flat")
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uk.analysis, "_scan", compare)
        uk.critical_points(p, t, interval)
    return seen


SCAN_INTERVALS = ((-10.0, 10.0), (-1000.0, 1000.0), (-1e-3, 2e-3), (-3.0, 7.5),
                  (0.0, 1.0), (-1.0, 0.0), (-5.0, 0.0), (0.0, 5.0))


def test_blocks_without_events_skip_the_bounds_and_change_nothing():
    seen = {}
    for kind in ALL_KINDS:
        for interval in SCAN_INTERVALS:
            seen[kind.label(), interval] = _check_scan_blocks(
                uk.preset(kind), uk.target(kind), interval)
    # the kinds of block the skip must get right, each seen
    assert seen["gaussian", (-1e-3, 2e-3)] == {"zero node"}
    assert {"flat", "quiet"} <= seen["softplus", (-10.0, 10.0)]
    assert "flat" in seen["step", (-1000.0, 1000.0)]
    assert "noise" in seen["identity", (-10.0, 10.0)]
    assert "events" in seen["tanh", (-10.0, 10.0)]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    interval=st.sampled_from(SCAN_INTERVALS),
    scales=st.lists(st.floats(-0.05, 0.05), min_size=5, max_size=5),
)
def test_perturbed_blocks_without_events_change_nothing(kind, interval, scales):
    base = uk.preset(kind).as_tuple()
    p = uk.UafParams(*(v * (1.0 + s) for v, s in zip(base, scales)))
    _check_scan_blocks(p, uk.target(kind), interval)


def test_the_bound_on_x_changes_no_report(monkeypatch):
    from uafkit import analysis
    from uafkit._kernels import _EXP_ZERO

    underflows = []
    terms = analysis._k_terms

    def spy(*args, **kwargs):
        out = terms(*args, **kwargs)
        underflows.append(bool(np.any(-np.abs(out[1]) < _EXP_ZERO)))
        return out

    monkeypatch.setattr(analysis, "_k_terms", spy)
    kinds = (uk.STEP, uk.RELU, uk.TANH)
    wide = (-1000.0, 1000.0)
    bounded = [uk.error_report(uk.preset(k), uk.target(k), wide).to_dict() for k in kinds]
    assert any(underflows)  # the masked exp was taken
    monkeypatch.setattr(analysis, "_k_terms",
                        lambda *args, xmax=None, **kwargs: terms(*args, **kwargs))
    unbounded = [uk.error_report(uk.preset(k), uk.target(k), wide).to_dict() for k in kinds]
    assert json.dumps(unbounded) == json.dumps(bounded)


def _sequential_bisect(p, t, a, b, up, halvings):
    """The reference for the midpoint tree: one halving at a time."""
    for _ in range(halvings):
        mid = 0.5 * (a + b)
        same = ((uk.grad_batch(p, mid)[:, 0] - t.derivative(mid)) > 0) == up
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    return 0.5 * (a + b)


@pytest.mark.parametrize("halvings", [0, 1, 8, 13, 24, 30])
def test_tree_bisection_matches_sequential_halving(monkeypatch, halvings):
    monkeypatch.setattr(uk.analysis, "_SCAN_BLOCK", 600)  # brackets in groups of 2
    rng = np.random.default_rng(halvings)
    for kind in (uk.SIGMOID, uk.TANH, uk.GAUSSIAN, uk.RELU):
        p, t = uk.preset(kind), uk.target(kind)
        xs = np.linspace(-4.0, 4.0, 201)
        g = uk.grad_batch(p, xs)[:, 0] - t.derivative(xs)
        # every cell, bracket or not, and a few wide random ones
        a = np.concatenate([xs[:-1], rng.uniform(-4.0, 0.0, 5)])
        b = np.concatenate([xs[1:], rng.uniform(0.0, 4.0, 5)])
        up = np.concatenate([g[:-1] > 0, rng.random(5) < 0.5])
        got = uk.analysis._bisect(p, t, a, b, up, halvings)
        assert np.array_equal(_bits(got), _bits(_sequential_bisect(p, t, a, b, up, halvings)))


def test_scan_memory_does_not_grow_with_the_interval(peak_growth_mb):
    # 2,000,001 and 10,000,001 (the cap) scan points
    statements = ["uk.error_report(p, t, (-1000.0, 1000.0), 2001)",
                  "uk.error_report(p, t, (-5000.0, 5000.0), 2001)"]
    for grown_mb in peak_growth_mb(statements):
        assert grown_mb < 100.0


def test_rmse_memory_does_not_grow_with_the_sample_count(peak_growth_mb):
    # 2,000,001 samples took 108 MB when they were evaluated at once
    for grown_mb in peak_growth_mb(["uk.error_report(p, t, (-10.0, 10.0), 2_000_001)"]):
        assert grown_mb < 20.0


# --- exact roots ------------------------------------------------------------------


def _assert_slope_changes_sign_at_points(p, t, interval):
    """Each critical point lies within 1e-9 of a sign change of the exact
    error slope dE/dx = f'(x) - t'(x)."""
    for x, _ in uk.critical_points(p, t, interval):
        xs = np.array([x - 1e-9, x + 1e-9])
        left, right = uk.grad_batch(p, xs)[:, 0] - t.derivative(xs)
        assert left * right < 0, (t.label(), p, x, left, right)


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


def _one_sum_rmse(p, t, interval, n):
    """The RMSE from one array of all n squared errors."""
    e = uk.approx_error_batch(p, t, np.linspace(*interval, n))
    return float(np.sqrt(np.mean(e * e)))


@pytest.mark.parametrize("block", [128, 1000, 4096])
def test_block_rmse_is_the_one_sum_rmse(monkeypatch, block):
    monkeypatch.setattr(uk.analysis, "_SCAN_BLOCK", block)
    sizes = (2, 3, 128, 129, 1000, 1001, 2001, 4096, 4097, 8193, 20001)
    for kind in ALL_KINDS:
        p, t = uk.preset(kind), uk.target(kind)
        for interval in (INTERVAL, (-3.3, 7.1)):
            for n in sizes:
                got = uk.interval_rmse(p, t, interval, n)
                want = _one_sum_rmse(p, t, interval, n)
                assert np.array_equal(_bits([got]), _bits([want])), (kind.label(), interval, n)


def test_block_rmse_is_the_one_sum_rmse_at_two_million_points():
    p, t = uk.preset(uk.TANH), uk.target(uk.TANH)
    for n in (1_234_567, 2_000_001):
        got = uk.interval_rmse(p, t, (-1000.0, 1000.0), n)
        want = _one_sum_rmse(p, t, (-1000.0, 1000.0), n)
        assert np.array_equal(_bits([got]), _bits([want])), n


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


def test_bad_sample_count_fails_before_the_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the scan ran before n_samples was read")

    monkeypatch.setattr(uk.analysis, "critical_points", no_scan)
    p, t = uk.preset(uk.TANH), uk.target(uk.TANH)
    for call in (lambda: uk.rmse_table(2.5), lambda: uk.rmse_table(1),
                 lambda: uk.error_report(p, t, INTERVAL, n_samples=2.5),
                 lambda: uk.error_report(p, t, INTERVAL, n_samples=10**15)):
        with pytest.raises(ValueError, match="n_samples"):
            call()


def test_scan_above_the_point_cap_is_refused():
    p, t = uk.preset(uk.TANH), uk.target(uk.TANH)
    # (-1e308, 0): the width is finite, the point count overflows to inf
    for interval in ((-1e308, 0.0), (-5000.0, 5000.001)):
        with pytest.raises(ValueError, match=f"cap of {uk.core.MAX_POINTS}"):
            uk.critical_points(p, t, interval)
        with pytest.raises(ValueError, match="cap"):
            uk.error_report(p, t, interval)


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


def test_step_report_is_the_larger_reached_limit():
    # The limits f(0) - 1 from the right and f(0) - 0 from the left count
    # only on the sides of 0 that the interval reaches.
    p = uk.preset(uk.STEP)
    f0 = uk.eval_stable(p, 0.0)
    for interval, limits in (((-1.0, 1.0), (f0 - 1.0, f0)), ((0.0, 1.0), (f0 - 1.0,)),
                             ((-1.0, 0.0), (f0,))):
        rep = uk.error_report(p, uk.STEP, interval)
        assert rep.max_abs_error == max(abs(e) for e in limits)


def test_relu_kink_is_the_maximum_where_the_slope_has_no_root():
    # softplus against relu: the error log(1 + e^{-|x|}) falls on both sides
    # of the kink, so its maximum is ln 2 at 0, a candidate only when the
    # interval holds 0; else it is the end nearer 0.
    p = uk.UafParams(1.0, 0.0, 0.0, 0.0, uk.LN2)
    for interval in ((-1.0, 1.0), (0.0, 1.0), (-1.0, 0.0)):
        rep = uk.error_report(p, uk.RELU, interval)
        assert rep.critical_points == ()
        assert rep.max_error_locations == (0.0,)
        assert rep.max_abs_error == abs(uk.approx_error(p, uk.RELU, 0.0))
    for interval, nearer in (((0.5, 1.0), 0.5), ((-1.0, -0.5), -0.5)):
        rep = uk.error_report(p, uk.RELU, interval)
        assert rep.max_error_locations == (nearer,)
        assert rep.max_abs_error == abs(uk.approx_error(p, uk.RELU, nearer))


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


def test_report_endpoints_are_the_scalar_errors():
    batch, calls = uk.analysis.approx_error_batch, []

    def spy(p, t, xs):
        out = batch(p, t, xs)
        calls.append((np.asarray(xs, dtype=np.float64), out))
        return out

    for kind in ALL_KINDS:
        p, t = uk.preset(kind), uk.target(kind)
        for lo, hi in SCAN_INTERVALS:
            calls.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(uk.analysis, "approx_error_batch", spy)
                uk.error_report(p, t, (lo, hi))
            ends = [out for xs, out in calls if np.array_equal(_bits(xs), _bits([lo, hi]))]
            assert len(ends) == 1
            assert np.array_equal(_bits(ends[0]),
                                  _bits([uk.approx_error(p, t, lo), uk.approx_error(p, t, hi)]))


def test_report_serializes_to_json():
    rep = uk.error_report(uk.preset(uk.GAUSSIAN), uk.target(uk.GAUSSIAN), INTERVAL)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["max_abs_error"] == rep.max_abs_error
    assert data["params"]["C"] == -0.61341425


# --- summary table ----------------------------------------------------------------


def test_rmse_table_rows_and_order():
    table = uk.rmse_table(2001)
    labels = [rep.target.label() for rep in table]
    assert labels == [
        "identity", "step", "relu", "leaky_relu(0.1)",
        "sigmoid", "tanh", "softplus", "gaussian",
    ]
    # each row is the preset's own report on the table interval
    for rep in table:
        assert rep == uk.error_report(uk.preset(rep.target), rep.target, (-10.0, 10.0), 2001)
    by_label = {rep.target.label(): rep for rep in table}
    assert by_label["identity"].rmse < 1e-12
    assert by_label["softplus"].rmse < 1e-12
    assert by_label["leaky_relu(0.1)"].rmse == pytest.approx(0.413120, abs=5e-6)
    assert by_label["tanh"].max_abs_error == pytest.approx(0.004719, abs=1e-6)
    json.dumps([rep.to_dict() for rep in table])


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
    # the gaussian's equation is 0 = 0 at x = 0: every term is 0, and the
    # scaled residual is 0.0, not 0/0
    p = uk.preset(uk.GAUSSIAN)
    assert not any(uk.analysis._char_terms(uk.GAUSSIAN, p, 0.0))
    assert uk.characteristic_residual_scaled(uk.GAUSSIAN, p, 0.0) == 0.0


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


def test_scaled_residual_is_finite_on_the_default_grid():
    # At relu's A = 70.9992, e^{Ax} overflows from x = 9.938, so its positive
    # branch must hold no such term.
    xs = np.linspace(*INTERVAL, 20001)
    for kind, _ in CERTIFIED_ROOTS.values():
        p = uk.preset(kind)
        assert all(math.isfinite(uk.characteristic_residual_scaled(kind, p, float(x)))
                   for x in xs), kind.label()


def test_residual_rejects_families_without_equations():
    for kind in (uk.IDENTITY, uk.STEP, uk.SOFTPLUS):
        with pytest.raises(ValueError):
            uk.characteristic_residual_scaled(kind, uk.preset(kind), 1.0)


# --- tail behaviour -----------------------------------------------------------------


def test_gaussian_tail_spot_check():
    p, t = uk.preset(uk.GAUSSIAN), uk.target(uk.GAUSSIAN)
    radius = 4.0 / abs(p.C)
    xs = np.linspace(radius + 1e-9, radius + 20.0, 4001)
    errs = np.abs(uk.approx_error_batch(p, t, xs))
    assert np.max(errs) < 5e-10
    assert np.max(np.abs(uk.approx_error_batch(p, t, -xs))) < 5e-10
