"""Unit tests for the core parameter types, presets, and evaluators."""

import math

import numpy as np
import pytest

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
    (lambda: uk.Dataset(np.zeros((20, 2)), np.zeros((20, 1)), split=("0.7", "0.15", "0.15")),
     "split"),
    (lambda: uk.TargetActivation("tanh"), "kind"),
    (lambda: uk.eval_stable(_P, np.float32(0.5)), None),
    (lambda: uk.grad(_P, np.int64(1)), None),
    (lambda: uk.critical_points(_P, _T, np.array([-1.0, 1.0])), None),
    (lambda: uk.interval_rmse(_P, _T, (np.float64(-1), np.int64(1)), np.int64(11)), None),
    (lambda: uk.FitSpec(_T, ("A",), _P, interval=np.array([-2.0, 2.0])), None),
], ids=[
    "string_x", "string_naive_x", "bool_x", "string_bounds", "bool_bounds", "three_bounds",
    "fractional_n_samples", "fractional_table_n_samples", "infinite_width",
    "n_samples_above_cap", "fit_n_samples_above_cap", "blobs_above_cap", "gas_above_cap",
    "layer_sizes_above_cap", "string_split", "string_target_kind",
    "numpy_float_x", "numpy_int_x", "numpy_array_interval", "numpy_scalars", "fit_numpy_interval",
])
def test_numeric_api_reads_arguments_strictly(call, name):
    if name is None:
        call()
    else:
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call()


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
    assert uk.PresetKind.from_name("tanh") == uk.TANH
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
], ids=["string_and_bool", "bools", "string_array", "object_array", "complex"])
def test_point_arrays_hold_real_numbers_only(xs):
    p = uk.preset(uk.TANH)
    for batch in (uk.eval_batch, uk.grad_batch):
        with pytest.raises(ValueError, match="real numbers"):
            batch(p, xs)
    # integers and narrower floats are numbers
    assert np.array_equal(uk.eval_batch(p, [1, 2]), uk.eval_batch(p, np.float32([1.0, 2.0])))


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
    assert math.isinf(uk.eval_naive(p, 100.0, on_overflow="inf"))
    with pytest.raises(ValueError):
        uk.eval_naive(p, 100.0, on_overflow="clamp")
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


def test_backend_name_is_known():
    assert uk.backend_name() == "numpy"
