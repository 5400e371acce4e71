"""Unit tests for the core parameter types, presets, and evaluators."""

import array
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uafkit as uk
from uafkit.core import PARAM_NAMES, coerce


ALL_KINDS = [
    uk.IDENTITY,
    uk.STEP,
    uk.SIGMOID,
    uk.TANH,
    uk.RELU,
    uk.leaky_relu(0.1),
    uk.SOFTPLUS,
    uk.GAUSSIAN,
]


# --- parameter and kind types -----------------------------------------------


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        uk.UafParams(math.nan, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        uk.UafParams(1, 0, 0, math.inf, 0)


def test_params_accept_real_numbers_only():
    # "1" and True used to read as 1.0; NumPy scalars are the numbers they hold
    for bad in ("1", True, np.bool_(True), None):
        with pytest.raises(ValueError):
            uk.UafParams(bad, 0, 0, -1, 0)
    with pytest.raises(ValueError, match="^A is too large for a float$"):
        uk.UafParams(10**400, 0, 0, -1, 0)
    p = uk.UafParams(np.int64(1), np.float32(0.5), 0, -1, 0)
    assert p.as_tuple() == (1.0, 0.5, 0.0, -1.0, 0.0)
    assert all(type(v) is float for v in p.as_tuple())


def test_coerce_numpy_scalars():
    assert coerce("n", np.int64(3), int) == 3
    assert coerce("n", np.float64(3.0), int) == 3
    assert coerce("flag", np.bool_(True), bool) is True
    for kind in (int, float):
        with pytest.raises(ValueError):
            coerce("n", np.bool_(False), kind)
    with pytest.raises(ValueError, match="n must be >= 2"):
        coerce("n", np.int64(1), int, minimum=2)


_P, _T = uk.preset(uk.TANH), uk.target(uk.TANH)
_SPEC = uk.builtin_spec("sigmoid-family")
_CFG = uk.NetworkConfig((2, 4, 4), uk.TrainableUaf(_P))


# Each call used to cast its argument with float() or int() and return a
# result; the last column names the argument the ValueError must name, or is
# None for an input that must still be accepted.
@pytest.mark.parametrize("call, name", [
    (lambda: uk.eval_stable(_P, "0.5"), "x"),
    (lambda: uk.eval_naive(_P, "0.5"), "x"),
    (lambda: uk.grad(_P, True), "x"),
    (lambda: uk.error_report(_P, _T, ("-1", "1")), "interval"),
    (lambda: uk.critical_points(_P, _T, (False, True)), "interval"),
    (lambda: uk.error_report(_P, _T, (-1, 1, 5)), "interval"),
    (lambda: uk.interval_rmse(_P, _T, (-1, 1), 2.9), "n_samples"),
    (lambda: uk.rmse_table(2.5), "n_samples"),
    # an infinite width used to print overflow warnings before failing
    (lambda: uk.interval_rmse(_P, _T, (-1e308, 1e308), 11), "interval"),
    (lambda: uk.interval_rmse(_P, _T, (-1, 1), 10**15), "n_samples"),
    (lambda: uk.FitSpec(_T, ("A",), _P, n_samples=1e15), "n_samples"),
    (lambda: uk.make_blobs(0, n_samples=10**15), "n_samples"),
    (lambda: uk.make_gas_analogue(0, n_channels=2**63), "n_channels"),
    (lambda: uk.NetworkConfig((16, 10**15, 4), uk.TrainableUaf(_P)), "layer_sizes"),
    (lambda: uk.target("tanh"), "kind"),
    # a target given by name used to fail with AttributeError or TypeError
    (lambda: uk.error_report(_P, "tanh", (-1, 1)), "t"),
    (lambda: uk.critical_points(_P, "tanh", (-1, 1)), "t"),
    (lambda: uk.interval_rmse(_P, "tanh", (-1, 1), 11), "t"),
    (lambda: uk.approx_error(_P, "tanh", 0.5), "t"),
    (lambda: uk.approx_error_batch(_P, "tanh", [0.5]), "t"),
    (lambda: uk.target_eval_batch("tanh", [0.5]), "t"),
    (lambda: uk.target_derivative_batch("tanh", [0.5]), "t"),
    # parameters given as a tuple or dict, and a kind given by name, used to
    # fail with AttributeError; a characteristic x was cast with float()
    (lambda: uk.eval_stable(_P.as_tuple(), 0.5), "p"),
    (lambda: uk.eval_naive(_P.as_tuple(), 0.5), "p"),
    (lambda: uk.grad(_P.as_tuple(), 0.5), "p"),
    (lambda: uk.eval_batch(_P.as_tuple(), [0.5]), "p"),
    (lambda: uk.grad_batch(_P.to_dict(), [0.5]), "p"),
    (lambda: uk.approx_error(_P.as_tuple(), _T, 0.5), "p"),
    (lambda: uk.approx_error_batch(_P.as_tuple(), _T, [0.5]), "p"),
    (lambda: uk.critical_points(_P.as_tuple(), _T, (-1, 1)), "p"),
    (lambda: uk.interval_rmse(_P.as_tuple(), _T, (-1, 1), 11), "p"),
    (lambda: uk.error_report(_P.as_tuple(), _T, (-1, 1)), "p"),
    (lambda: uk.characteristic_residual_scaled(_T, _P.as_tuple(), 1.0), "p"),
    (lambda: uk.preset("tanh"), "kind"),
    (lambda: uk.characteristic_residual_scaled("tanh", _P, 1.0), "kind"),
    (lambda: uk.characteristic_residual_scaled(_T, _P, "1.0"), "x"),
    (lambda: uk.characteristic_residual_scaled(_T, _P, True), "x"),
    (lambda: uk.characteristic_residual_scaled(_T, _P, math.nan), "x"),
    # a spec, config or dataset given as its name or dict used to fail with
    # AttributeError, and a list name with TypeError
    (lambda: uk.fit("sigmoid-family"), "spec"),
    (lambda: uk.fit(_SPEC.to_dict()), "spec"),
    (lambda: uk.train(_CFG.to_dict(), uk.make_blobs(0, n_samples=20, n_features=2)), "config"),
    (lambda: uk.train(_CFG, {"kind": "blobs", "seed": 0}), "dataset"),
    (lambda: uk.Network(_CFG.to_dict()), "config"),
    (lambda: uk.builtin_spec(["x"]), "builtin fit spec"),
    (lambda: uk.eval_stable(_P, np.float32(0.5)), None),
    (lambda: uk.grad(_P, np.int64(1)), None),
    (lambda: uk.critical_points(_P, _T, np.array([-1.0, 1.0])), None),
    (lambda: uk.interval_rmse(_P, _T, (np.float64(-1), np.int64(1)), np.int64(11)), None),
    (lambda: uk.FitSpec(_T, ("A",), _P, interval=np.array([-2.0, 2.0])), None),
], ids=[
    "string_x", "string_naive_x", "bool_x", "string_bounds", "bool_bounds", "three_bounds",
    "fractional_n_samples", "fractional_table_n_samples", "infinite_width",
    "n_samples_above_cap", "fit_n_samples_above_cap", "blobs_above_cap", "gas_above_cap",
    "layer_sizes_above_cap", "string_target_kind",
    "report_string_target", "critical_points_string_target", "rmse_string_target",
    "error_string_target", "error_batch_string_target",
    "target_eval_batch_string_target", "target_derivative_string_target",
    "tuple_p", "tuple_naive_p", "tuple_grad_p", "tuple_batch_p", "dict_grad_batch_p",
    "tuple_error_p", "tuple_error_batch_p", "tuple_critical_points_p", "tuple_rmse_p",
    "tuple_report_p", "tuple_characteristic_p", "string_preset_kind",
    "string_characteristic_kind", "string_characteristic_x", "bool_characteristic_scaled_x",
    "nan_characteristic_x",
    "string_fit_spec", "dict_fit_spec", "dict_train_config", "dict_train_dataset",
    "dict_network_config", "list_builtin_name",
    "numpy_float_x", "numpy_int_x", "numpy_array_interval", "numpy_scalars", "fit_numpy_interval",
])
def test_numeric_api_reads_arguments_strictly(call, name):
    if name is None:
        call()
    else:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call()


# str() refuses an int of over 4,300 digits; such a value is described by
# the power of ten it reaches, and the refusal still names the field and cap.
@pytest.mark.parametrize("call, message", [
    (lambda: uk.make_blobs(seed=1, n_samples=10**4400),
     "n_samples x n_features = at least 10^4401 values, above the cap of 10000001"),
    (lambda: uk.make_blobs(seed=-10**4400), "seed must be >= 0, got at most -10^4400"),
    (lambda: uk.NetworkConfig(layer_sizes=(10**4400, 4, 2), activation=uk.TrainableUaf(_P)),
     "the parameters of layer_sizes = at least 10^4400 values, above the cap of 10000001"),
    (lambda: uk.NetworkConfig(layer_sizes=(10**4400, 4), activation=uk.TrainableUaf(_P)),
     "need at least one hidden layer (>= 3 sizes), got (at least 10^4400, 4)"),
    (lambda: uk.interval_rmse(_P, _T, (-1, 1), 10**4400),
     "n_samples must be <= 10000001, got at least 10^4400"),
], ids=["blobs_n_samples", "blobs_seed", "layer_sizes", "short_layer_sizes",
        "rmse_n_samples"])
def test_refusals_describe_integers_too_long_for_str(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_params_dict_round_trip():
    p = uk.UafParams(1.25, -0.5, 0.125, 2.0, -3.5)
    q = uk.UafParams.from_dict(p.to_dict())
    assert q == p
    assert p.as_tuple() == (1.25, -0.5, 0.125, 2.0, -3.5)


def test_params_from_dict_rejects_bad_keys():
    good = uk.UafParams(1, 0, 0, -1, 0).to_dict()
    missing = dict(good)
    del missing["E"]
    with pytest.raises(ValueError):
        uk.UafParams.from_dict(missing)
    extra = dict(good)
    extra["F"] = 1.0
    with pytest.raises(ValueError):
        uk.UafParams.from_dict(extra)


def test_preset_kind_validation():
    assert uk.leaky_relu(0.05).alpha == 0.05
    for bad in (0.0, -0.1, 0.2, 1.0):
        with pytest.raises(ValueError):
            uk.leaky_relu(bad)
    with pytest.raises(ValueError):
        uk.PresetKind.from_name("swish")
    with pytest.raises(ValueError, match=r"^leaky_relu requires an alpha in \(0, 0\.1\]$"):
        uk.PresetKind("leaky_relu")
    assert uk.PresetKind.from_name("tanh") == uk.TANH
    assert uk.PresetKind.from_name("leaky_relu", 0.05) == uk.leaky_relu(0.05)
    with pytest.raises(ValueError, match="^tanh takes no alpha$"):
        uk.PresetKind.from_name("tanh", 0.3)
    assert uk.PresetKind.from_dict("tanh") == uk.TANH
    assert uk.PresetKind.from_dict({"name": "leaky_relu"}) == uk.leaky_relu(0.1)
    # alpha must be a number, and only leaky_relu takes one
    for bad in ({"name": "leaky_relu", "alpha": "0.1"}, {"name": "tanh", "alpha": 0.5},
                {"name": "tanh", "slope": 1}, {"alpha": 0.1}, ["tanh"]):
        with pytest.raises(ValueError):
            uk.PresetKind.from_dict(bad)
    assert uk.leaky_relu(0.1).label() == "leaky_relu(0.1)"


def test_preset_constants():
    assert uk.preset(uk.IDENTITY) == uk.UafParams(1.0, 0.0, 0.0, -1.0, 0.0)
    step = uk.preset(uk.STEP)
    assert step.A == 70.9992 and step.D == 70.9992
    assert step.B == pytest.approx(0.5 / 70.9992, rel=1e-15)
    sig = uk.preset(uk.SIGMOID)
    assert sig.A == 1.01605291 and sig.D == sig.A
    assert sig.B == pytest.approx(0.5 / sig.A, rel=1e-15)
    tanh = uk.preset(uk.TANH)
    assert tanh.A == 2.12616013 and tanh.D == tanh.A and tanh.E == -1.0
    assert tanh.B == pytest.approx(1.0 / tanh.A, rel=1e-15)
    relu = uk.preset(uk.RELU)
    assert relu.A == 70.9992 and relu.D == relu.A - 1.0
    leaky = uk.preset(uk.leaky_relu(0.1))
    assert leaky == uk.UafParams(1.0, 0.0, 0.0, -0.1, 0.0)
    soft = uk.preset(uk.SOFTPLUS)
    assert soft == uk.UafParams(1.0, 0.0, 0.0, 0.0, math.log(2.0))
    gauss = uk.preset(uk.GAUSSIAN)
    assert gauss.C == -0.61341425 and gauss.A == 0.0 and gauss.D == 0.0
    assert gauss.E == math.log(2.0)


# --- evaluation --------------------------------------------------------------


def test_identity_preset_is_exact():
    p = uk.preset(uk.IDENTITY)
    xs = np.linspace(-30.0, 30.0, 601)
    assert np.max(np.abs(uk.eval_batch(p, xs) - xs)) < 1e-12


def test_softplus_preset_is_exact():
    p = uk.preset(uk.SOFTPLUS)
    xs = np.linspace(-30.0, 30.0, 601)
    want = np.logaddexp(0.0, xs)
    assert np.max(np.abs(uk.eval_batch(p, xs) - want)) < 1e-12


def test_step_preset_half_at_zero():
    # A*B = D*B = 1/2 makes the two softplus halves cancel to exactly 1/2.
    assert uk.eval_stable(uk.preset(uk.STEP), 0.0) == pytest.approx(0.5, abs=1e-12)


def test_tanh_preset_antisymmetric():
    p = uk.preset(uk.TANH)
    xs = np.linspace(0.0, 10.0, 257)
    f_pos = uk.eval_batch(p, xs)
    f_neg = uk.eval_batch(p, -xs)
    assert np.max(np.abs(f_pos + f_neg)) < 1e-6


def test_eval_batch_matches_scalar():
    p = uk.UafParams(1.3, -0.4, 0.02, 0.7, 0.1)
    xs = np.linspace(-5.0, 5.0, 23)
    batch = uk.eval_batch(p, xs)
    for x, fx in zip(xs, batch):
        assert uk.eval_stable(p, float(x)) == fx


def test_eval_batch_rejects_bad_input():
    p = uk.preset(uk.IDENTITY)
    with pytest.raises(ValueError):
        uk.eval_batch(p, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        uk.eval_batch(p, np.array([0.0, math.nan]))


@pytest.mark.parametrize("xs", [
    ["0.5", True], [True, False], np.array(["1.0"]), np.array([None, 1.0]), [1 + 2j],
    [0.5, True], (1, np.False_),
], ids=["string_and_bool", "bools", "string_array", "object_array", "complex",
        "float_and_bool", "int_and_numpy_bool"])
def test_point_arrays_hold_real_numbers_only(xs):
    p = uk.preset(uk.TANH)
    for batch in (uk.eval_batch, uk.grad_batch):
        with pytest.raises(ValueError, match="real numbers"):
            batch(p, xs)
    # integers, narrower floats and other array-likes are numbers
    assert np.array_equal(uk.eval_batch(p, [1, 2]), uk.eval_batch(p, np.float32([1.0, 2.0])))
    assert np.array_equal(uk.eval_batch(p, array.array("d", [1.0, 2.0])), uk.eval_batch(p, [1, 2]))


def test_naive_agrees_with_stable_when_representable():
    rng = np.random.default_rng(42)
    for _ in range(300):
        p = uk.UafParams(*rng.uniform(-3, 3, size=5))
        x = float(rng.uniform(-500, 500))
        try:
            naive = uk.eval_naive(p, x)
        except uk.UafOverflowError:
            continue
        stable = uk.eval_stable(p, x)
        assert abs(naive - stable) <= 1e-9 * max(1.0, abs(stable))


def test_naive_overflow_modes():
    p = uk.UafParams(200.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(uk.UafOverflowError):
        uk.eval_naive(p, 100.0)
    assert issubclass(uk.UafOverflowError, OverflowError)


def test_stable_is_finite_at_extreme_scales():
    # z1 = A(x+B)+Cx^2 reaches about 2e6 here, far past where e^z overflows.
    rng = np.random.default_rng(7)
    for _ in range(500):
        p = uk.UafParams(*rng.uniform(-200, 200, size=5))
        x = float(rng.uniform(-100, 100))
        assert math.isfinite(uk.eval_stable(p, x))
        assert all(math.isfinite(v) for v in uk.grad(p, x).as_tuple())
    # corners
    for a in (-200.0, 200.0):
        p = uk.UafParams(a, 200.0, -200.0, -a, 200.0)
        for x in (100.0, -100.0):
            assert math.isfinite(uk.eval_stable(p, x))
            assert all(math.isfinite(v) for v in uk.grad(p, x).as_tuple())


# --- gradients ----------------------------------------------------------------


def _fd_gradient(p, x, h=1e-6):
    names = ("x",) + PARAM_NAMES
    out = []
    for name in names:
        def value(delta, name=name):
            if name == "x":
                return uk.eval_stable(p, x + delta)
            kw = p.to_dict()
            kw[name] += delta
            return uk.eval_stable(uk.UafParams(**kw), x)
        out.append((value(h) - value(-h)) / (2.0 * h))
    return out


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(123)
    for _ in range(200):
        p = uk.UafParams(*rng.uniform(-3, 3, size=5))
        x = float(rng.uniform(-8, 8))
        g = uk.grad(p, x)
        analytic = [g.d_x, g.d_A, g.d_B, g.d_C, g.d_D, g.d_E]
        for got, want in zip(analytic, _fd_gradient(p, x)):
            if max(abs(got), abs(want)) < 1e-3:
                assert abs(got - want) < 1e-7
            else:
                assert abs(got - want) <= 1e-5 * max(abs(got), abs(want))


def test_grad_d_e_is_one():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = uk.UafParams(*rng.uniform(-5, 5, size=5))
        assert uk.grad(p, float(rng.uniform(-10, 10))).d_E == 1.0


def test_grad_batch_matches_scalar():
    p = uk.UafParams(0.9, 0.2, -0.05, 1.4, -0.3)
    xs = np.linspace(-4.0, 4.0, 17)
    g6 = uk.grad_batch(p, xs)
    assert g6.shape == (17, 6)
    for i, x in enumerate(xs):
        g = uk.grad(p, float(x))
        assert np.array_equal(
            g6[i], [g.d_x, g.d_A, g.d_B, g.d_C, g.d_D, g.d_E]
        )


def test_continuity_near_kink_scale():
    # The evaluator is smooth: small input steps produce small output steps
    # even for the steep step-like preset.
    p = uk.preset(uk.STEP)
    xs = np.linspace(-0.01, 0.01, 2001)
    f = uk.eval_batch(p, xs)
    assert np.max(np.abs(np.diff(f))) < 1e-2


# --- kernel implementation -----------------------------------------------------


def test_slope_kernel_is_the_grad_column():
    from uafkit._kernels import uaf_grad, uaf_slope

    rng = np.random.default_rng(3)
    xs = np.concatenate([np.linspace(-10.0, 10.0, 2001), rng.normal(0.0, 1e3, 500), [0.0, -0.0]])
    for kind in ALL_KINDS:
        p = uk.preset(kind).as_tuple()
        for params in (p, tuple(v * (1.0 + d) for v, d in zip(p, rng.uniform(-0.1, 0.1, 5)))):
            want = uaf_grad(xs, *params)[:, 0]
            assert np.array_equal(uaf_slope(xs, *params[:4]).view(np.int64), want.view(np.int64))


_EPS = np.finfo(np.float64).eps


def _uaf_oracle(x, A, B, C, D, E):
    """f(x), df/dx and the five parameter partials (df/dA, ..., df/dE), with
    the scales of their rounding error, at 60 digits.

    A float evaluation rounds z1 and z2 relative to Z1 = |A|(|x|+|B|) + |C|x^2
    and Z2 = |D|(|x|+|B|), and f and its derivatives carry those errors
    through softplus' slope s and logistic's slope s(1-s). Each scale is the
    sum of the magnitudes rounded along the way. Returns the seven exact
    values and the seven tolerances, each 4 ulp of its scale plus a floor for
    results below the normal range."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        x, A, B, C, D, E = map(mp.mpf, (x, A, B, C, D, E))
        z1, z2 = A * (x + B) + C * x * x, D * (x - B)
        Z1, Z2 = abs(A) * (abs(x) + abs(B)) + abs(C) * x * x, abs(D) * (abs(x) + abs(B))
        sp1, sp2 = mp.log1p(mp.exp(z1)), mp.log1p(mp.exp(z2))
        s1, s2 = 1 / (1 + mp.exp(-z1)), 1 / (1 + mp.exp(-z2))
        # The error scale of s(z1) and s(z2): z's error through s(1-s), and s's own.
        r1, r2 = s1 * (1 - s1) * Z1 + s1, s2 * (1 - s2) * Z2 + s2
        xb, dx = abs(x) + abs(B), abs(A) + 2 * abs(C) * abs(x)
        want = (sp1 - sp2 + E, s1 * (A + 2 * C * x) - s2 * D,
                s1 * (x + B), s1 * A + s2 * D, s1 * x * x, -s2 * (x - B), mp.mpf(1))
        scales = (abs(sp1) + abs(sp2) + abs(E) + s1 * Z1 + s2 * Z2, r1 * dx + r2 * abs(D),
                  r1 * xb, r1 * abs(A) + r2 * abs(D), r1 * x * x, r2 * xb, 0)
        # Results below the normal range round to multiples of 5e-324, times
        # the factor that multiplies s(z1) or s(z2).
        factors = (dx + abs(D), dx + abs(D), xb, abs(A) + abs(D), x * x, xb, 0)
        tols = tuple(4 * _EPS * scale + mp.mpf(5e-324) * (factor + 1)
                     for scale, factor in zip(scales, factors))
        return want, tols


_ORACLE_PARAMS = st.floats(-200.0, 200.0)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(params=st.tuples(*[_ORACLE_PARAMS] * 5),
       xs=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8),
       read=st.tuples(*[st.booleans()] * 5))
def test_kernels_match_a_60_digit_oracle(params, xs, read):
    """uaf_eval, every df/dx (uaf_grad's column 0, uaf_slope with and
    without bounded terms) and every parameter partial (uaf_grad's columns
    1-5, uaf_partials with all columns and the columns that read marks) lie
    within 4 ulp of the scale of their terms. The columns read leaves out
    are +0.0."""
    from uafkit._kernels import uaf_eval, uaf_grad, uaf_partials, uaf_slope, uaf_terms

    A, B, C, D, E = params
    x = np.array(xs)
    value = uaf_eval(x, *params)
    grads = uaf_grad(x, *params)
    bounded = uaf_terms(x, A, B, C, D, xmax=100.0)
    slopes = (grads[:, 0], uaf_slope(x, A, B, C, D), uaf_slope(x, A, B, C, D, terms=bounded))
    masked = uaf_partials(x, A, B, C, D, read=read)
    unread = masked[:, [not r for r in read]]
    assert not unread.any() and not np.signbit(unread).any()
    partials = ((grads[:, 1:], range(5)), (uaf_partials(x, A, B, C, D), range(5)),
                (masked, [k for k in range(5) if read[k]]))
    for i, xi in enumerate(xs):
        want, tol = _uaf_oracle(xi, *params)
        assert abs(value[i] - want[0]) <= tol[0], (xi, params)
        for slope in slopes:
            assert abs(slope[i] - want[1]) <= tol[1], (xi, params)
        for columns, read_columns in partials:
            for k in read_columns:
                assert abs(columns[i, k] - want[2 + k]) <= tol[2 + k], (xi, params, k)


# The two-array kernels that the stacked (2, n) ones replaced, frozen as the
# bitwise reference: each pass takes exp, logistic and softplus once for z1
# and once for z2.


def _two_array_softplus(z, e=None):
    if e is None:
        e = np.exp(-np.abs(z))
    out = np.maximum(z, 0.0)
    out += np.log1p(e)
    return out


def _two_array_logistic(z, e=None):
    if e is None:
        e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = e / d
    np.divide(1.0, d, out=d)
    np.copyto(out, d, where=z >= 0)
    return out


def _two_array_terms(xs, A, B, C, D):
    z1 = A * (xs + B) + C * xs * xs
    z2 = D * (xs - B)
    return z1, z2, np.exp(-np.abs(z1)), np.exp(-np.abs(z2))


def _two_array_eval(xs, A, B, C, D, E):
    z1, z2, e1, e2 = _two_array_terms(xs, A, B, C, D)
    out = _two_array_softplus(z1, e1)
    out -= _two_array_softplus(z2, e2)
    out += E
    return out


def _two_array_grad(xs, A, B, C, D, E):
    z1, z2, e1, e2 = _two_array_terms(xs, A, B, C, D)
    s1 = _two_array_logistic(z1, e1)
    s2 = _two_array_logistic(z2, e2)
    out = np.empty((xs.shape[0], 6), dtype=np.float64)
    # np.multiply where the right operand is a temporary: from 32,768 points
    # NumPy would reuse that temporary for s1 * (...), as (...) *= s1, which
    # swaps the operands and so changes which of two NaNs the product keeps.
    out[:, 0] = np.multiply(s1, A + 2.0 * C * xs) - s2 * D
    out[:, 1] = np.multiply(s1, xs + B)
    out[:, 2] = s1 * A + s2 * D
    out[:, 3] = s1 * xs * xs
    out[:, 4] = -s2 * (xs - B)
    out[:, 5] = 1.0
    return out


def _same_bits(got, want):
    """Equal bit for bit, the sign and payload of every NaN included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


_SPECIAL = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0])


# 65,536 is in_blocks' piece size, past the 32,768 points from which NumPy
# reuses a temporary operand for the result.
@pytest.mark.parametrize("n", [1, 7, 1024, 2001, 4096, 65536])
@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_stacked_kernels_match_the_two_array_kernels_bitwise(n, scale):
    from uafkit import _kernels as k

    rng = np.random.default_rng(n)
    xs = rng.normal(0.0, 10.0, n)
    xs[: min(n, 6)] = _SPECIAL[: min(n, 6)] if n > 1 else 0.5
    z = rng.normal(0.0, 100.0 * scale, n)
    z[: min(n, 6)] = _SPECIAL[: min(n, 6)]
    with np.errstate(all="ignore"):
        for f, ref in ((k.logistic, _two_array_logistic), (k.softplus, _two_array_softplus)):
            assert _same_bits(f(z), ref(z))
            assert _same_bits(f(z, np.exp(-np.abs(z))), ref(z))
        for _ in range(3):
            params = tuple(rng.normal(0.0, scale, 5))
            grad = _two_array_grad(xs, *params)
            terms = k.uaf_terms(xs, *params[:4])
            for t in (None, terms):
                assert _same_bits(k.uaf_eval(xs, *params, terms=t), _two_array_eval(xs, *params))
                assert _same_bits(k.uaf_grad(xs, *params, terms=t), grad)
                assert _same_bits(k.uaf_slope(xs, *params[:4], terms=t), grad[:, 0])
                assert _same_bits(k.uaf_partials(xs, *params[:4], terms=t), grad[:, 1:])


def test_terms_are_stacked_and_left_unchanged_by_their_users():
    from uafkit import _kernels as k

    xs = np.linspace(-3.0, 3.0, 11)
    params = (1.5, 0.25, -0.5, 0.75, 0.1)
    z, e = terms = k.uaf_terms(xs, *params[:4])
    assert z.shape == e.shape == (2, 11)
    z1, z2, e1, e2 = _two_array_terms(xs, *params[:4])
    for got, want in ((z[0], z1), (z[1], z2), (e[0], e1), (e[1], e2)):
        assert _same_bits(got, want)
    before = [a.copy() for a in terms]
    k.uaf_eval(xs, *params, terms=terms)
    k.uaf_grad(xs, *params, terms=terms)
    k.uaf_slope(xs, *params[:4], terms=terms)
    assert all(_same_bits(a, b) for a, b in zip(terms, before))


# Overflowing z (inf - inf is NaN), zero and signed-zero parameters, and
# the relu-family fit's first and last slopes.
_EXTREME_PARAMS = [
    (1e300, 0.5, -1e300, 1e300, 0.0), (-1e300, -1e300, 1e300, -1e300, 1e300),
    (0.0, -0.0, 0.0, -0.0, 0.0), (1e-300, 1e300, -1e-300, 1e-300, -1.0),
    (71.05, 0.0, 0.0, 70.05, 0.0), (1923.0, 0.0, 0.0, 1922.0, 0.0),
]


@pytest.mark.parametrize("params", _EXTREME_PARAMS)
def test_partials_kernel_is_the_grad_columns_at_extreme_parameters(params):
    from uafkit import _kernels as k

    xs = np.concatenate([np.linspace(-1e3, 1e3, 2001), _SPECIAL, [1e200, -1e200]])
    with np.errstate(all="ignore"):
        for t in (None, k.uaf_terms(xs, *params[:4])):
            want = k.uaf_grad(xs, *params, terms=t)[:, 1:]
            assert _same_bits(k.uaf_partials(xs, *params[:4], terms=t), want)


_RANDOM_PARAMS = [tuple(np.random.default_rng(seed).normal(0.0, scale, 5))
                  for seed, scale in enumerate((1e-2, 1.0, 1e2))]


@pytest.mark.parametrize("params", _EXTREME_PARAMS + _RANDOM_PARAMS)
def test_partials_fill_only_the_read_columns(params):
    import itertools

    from uafkit import _kernels as k

    xs = np.concatenate([np.linspace(-1e3, 1e3, 2001), _SPECIAL, [1e200, -1e200]])
    with np.errstate(all="ignore"):
        full = k.uaf_grad(xs, *params)[:, 1:]
        assert _same_bits(k.uaf_partials(xs, *params[:4]), full)
        for t in (None, k.uaf_terms(xs, *params[:4])):
            for read in itertools.product((False, True), repeat=5):
                got = k.uaf_partials(xs, *params[:4], terms=t, read=read)
                cols = np.array(read)
                assert got.shape == full.shape and _same_bits(got[:, cols], full[:, cols])
                assert np.all(got[:, ~cols].view(np.int64) == 0)  # +0.0, never -0.0


def test_exp_gives_zero_below_the_masked_point():
    from uafkit._kernels import _EXP_ZERO

    assert np.exp(np.nextafter(_EXP_ZERO, -np.inf)) == 0.0
    assert np.exp(_EXP_ZERO) == 5e-324


def _straddling_lanes():
    """Every float within 40 ulp of +-_EXP_ZERO, then far beyond it and
    inside it: with A = D = 1 and B = C = 0, z1 = z2 = x on these lanes."""
    from uafkit._kernels import _EXP_ZERO

    near = np.full(81, _EXP_ZERO)
    for i in range(1, 41):
        near[40 - i] = np.nextafter(near[41 - i], -np.inf)
        near[40 + i] = np.nextafter(near[39 + i], np.inf)
    return np.concatenate([near, -near, [-800.0, 800.0, -1e4, 1e4, 0.0, -0.0, 1.5, -700.0]])


@pytest.mark.parametrize("params", [
    (1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0),
    (-300.0, 0.5, -20.0, -150.0),  # z1's vertex -A/2C = -7.5 lies inside
    (3.0, -2.0, 40.0, -60.0), (71.05, 0.0, 0.0, 70.05), (1923.0, 0.0, 0.0, 1922.0),
])
@pytest.mark.parametrize("sort", [True, False])
def test_terms_are_bitwise_the_same_for_any_bound(params, sort):
    from uafkit import _kernels as k

    xs = np.concatenate([np.linspace(-10.0, 10.0, 2001), _straddling_lanes()])
    if sort:
        xs.sort()
    else:
        np.random.default_rng(5).shuffle(xs)
    honest = float(np.max(np.abs(xs)))
    plain = k.uaf_terms(xs, *params)
    a = -np.abs(plain[0])
    below = a < k._EXP_ZERO
    assert below.any() and (~below).any()
    assert np.array_equal(plain[1] > 0.0, ~below)
    if params[:2] == (1.0, 0.0):
        assert np.any(plain[1] == 5e-324)  # the subnormal lanes just above the point
    for xmax in (None, 0.0, honest, np.inf):
        terms = k.uaf_terms(xs, *params, xmax=xmax)
        assert all(_same_bits(got, want) for got, want in zip(terms, plain))
        # masked lanes are +0.0, not -0.0 and not the argument left behind
        assert np.all(terms[1].view(np.int64)[below] == 0)
        assert _same_bits(k.uaf_slope(xs, *params, terms=terms), k.uaf_slope(xs, *params))


def test_a_nan_lane_goes_through_exp_with_the_bound():
    from uafkit import _kernels as k

    # A(x + B) and Cx^2 overflow to opposite infinities: z1 is NaN from finite inputs.
    xs = np.array([-10.0, -1.0, 0.0, 1.0, 10.0])
    params = (1e308, 0.0, -1e308, 1.0)
    with np.errstate(all="ignore"):
        plain = k.uaf_terms(xs, *params)
        assert np.isnan(plain[0]).any()
        bounded = k.uaf_terms(xs, *params, xmax=10.0)
        assert all(_same_bits(got, want) for got, want in zip(bounded, plain))
        assert _same_bits(k.uaf_slope(xs, *params, terms=bounded), k.uaf_slope(xs, *params))


@pytest.mark.parametrize("C", [0.0, -0.0])
@pytest.mark.parametrize("A, B, D", [
    (-1.0, 3.0, 2.0),  # A(x + B) = -0.0 at x = -B
    (0.0, 1.0, -1.0),  # A(x + B) = -0.0 wherever x + B < 0
    (-0.0, -0.0, 0.0), (1.5, -0.25, 0.75), (1923.0, 0.0, 1922.0),
    (1e300, -1e300, -1e300),  # overflowing lanes, NaN where inf - inf
])
def test_a_zero_c_with_the_bound_keeps_every_bit(A, B, C, D):
    from uafkit import _kernels as k

    xs = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -B, -3.0, 3.0],
                         np.linspace(-10.0, 10.0, 201)])
    with np.errstate(all="ignore"):
        if A <= 0.0:
            zero = A * (xs + B)
            assert np.any(np.signbit(zero) & (zero == 0.0))
        plain = k.uaf_terms(xs, A, B, C, D)
        for xmax in (1e300, 10.0):
            bounded = k.uaf_terms(xs, A, B, C, D, xmax=xmax)
            assert all(_same_bits(got, want) for got, want in zip(bounded, plain))
        slope = k.uaf_slope(xs, A, B, C, D, terms=k.uaf_terms(xs, A, B, C, D, xmax=1e300))
        assert _same_bits(slope, k.uaf_slope(xs, A, B, C, D))
        # so it is also uaf_grad's column 0, formed from the full z1
        assert _same_bits(slope, k.uaf_grad(xs, A, B, C, D, 0.0)[:, 0])
        # without the bound, x = +-inf makes (Cx)x and 2Cx 0 * inf = NaN, and so the slope
        inf = np.array([np.inf, -np.inf])
        want = k.uaf_grad(inf, A, B, C, D, 0.0)[:, 0]
        assert np.isnan(want).all()
        assert _same_bits(k.uaf_slope(inf, A, B, C, D), want)


def _check_batch_functions_match_one_kernel_call(k, n):
    p, t = uk.preset(uk.GAUSSIAN), uk.target(uk.GAUSSIAN)
    xs = np.linspace(-10.0, 10.0, n)
    assert _same_bits(uk.eval_batch(p, xs), k.uaf_eval(xs, *p.as_tuple()))
    assert _same_bits(uk.grad_batch(p, xs), k.uaf_grad(xs, *p.as_tuple()))
    want = k.uaf_eval(xs, *p.as_tuple()) - t(xs)
    assert _same_bits(uk.approx_error_batch(p, t, xs), want)
    assert _same_bits(uk.target_eval_batch(t, xs), t(xs))
    assert _same_bits(uk.target_derivative_batch(t, xs), t.derivative(xs))


# The batch functions take their points in pieces of BATCH_BLOCK; any n and
# any piece size must give bitwise what one kernel call gives. Here each n
# sits at and around the pieces' edges.
@pytest.mark.parametrize("block", [7, 1000])
def test_batch_functions_in_blocks_match_one_kernel_call(monkeypatch, block):
    from uafkit import _kernels as k

    monkeypatch.setattr(k, "BATCH_BLOCK", block)
    for n in (1, 6, 7, 8, 999, 1000, 1001, 2001, 7001):
        _check_batch_functions_match_one_kernel_call(k, n)


# The same over drawn n and piece sizes. Hypothesis refuses the
# function-scoped monkeypatch, so the block is patched here.
@settings(derandomize=True, database=None, deadline=None)
@given(n=st.integers(0, 300), block=st.integers(1, 64))
def test_batch_functions_in_any_blocks_match_one_kernel_call(n, block):
    from uafkit import _kernels as k

    with mock.patch.object(k, "BATCH_BLOCK", block):
        _check_batch_functions_match_one_kernel_call(k, n)


@pytest.mark.parametrize("call, output_mb", [
    ("uk.eval_batch(p, xs)", 15.3), ("uk.approx_error_batch(p, t, xs)", 15.3),
    ("uk.grad_batch(p, xs)", 91.6),
], ids=["eval_batch", "approx_error_batch", "grad_batch"])
def test_batch_memory_stays_near_the_output(peak_growth_mb, call, output_mb):
    # 2,000,001 points: in pieces the temporaries take under 10 MB; in one
    # kernel call the peak grew by 92, 92 and 186 MB with the two-array
    # kernels and by 138, 138 and 230 MB with the stacked ones
    made_xs, called = peak_growth_mb(["xs = np.linspace(-10.0, 10.0, 2_000_001)", "out = " + call])
    assert called - made_xs < output_mb + 16.0


def test_package_exports_every_public_name_of_its_modules():
    modules = (uk.core, uk.targets, uk.analysis, uk.fitting, uk.datasets, uk.network)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(uk.__all__) == sorted(["__version__", "backend_name", *names])
    for module in modules:
        for name in module.__all__:
            assert getattr(uk, name) is getattr(module, name), name


def test_backend_name_is_known():
    assert uk.backend_name() == "numpy"
