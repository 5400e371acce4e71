"""Unit tests for the exact target activations and the error helper."""

import math
import tracemalloc

import numpy as np
import pytest

import uafkit as uk
from uafkit import targets
from uafkit._kernels import BATCH_BLOCK


def test_identity_and_relu_values():
    ident = uk.target(uk.IDENTITY)
    relu = uk.target(uk.RELU)
    xs = np.linspace(-5, 5, 41)
    assert np.array_equal(ident(xs), xs)
    assert np.array_equal(relu(xs), np.maximum(xs, 0.0))


def test_step_values():
    step = uk.target(uk.STEP)
    assert step(-1e-12) == 0.0
    assert step(0.0) == 0.5
    assert step(1e-12) == 1.0
    np.testing.assert_array_equal(step(np.array([-2.0, 0.0, 3.0])), [0.0, 0.5, 1.0])


def test_sigmoid_tanh_softplus_closed_forms():
    xs = np.linspace(-20, 20, 81)
    np.testing.assert_allclose(
        uk.target(uk.SIGMOID)(xs), 1.0 / (1.0 + np.exp(-xs)), rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(uk.target(uk.TANH)(xs), np.tanh(xs), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        uk.target(uk.SOFTPLUS)(xs), np.logaddexp(0.0, xs), rtol=0, atol=1e-15
    )


def test_leaky_relu_values():
    leaky = uk.target(uk.leaky_relu(0.1))
    assert leaky(2.0) == 2.0
    assert leaky(-2.0) == pytest.approx(-0.2, abs=1e-15)
    assert leaky(0.0) == 0.0


def test_gaussian_values():
    gauss = uk.target(uk.GAUSSIAN)
    assert gauss(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert gauss(2.0) == pytest.approx(math.log(2.0) * math.exp(-2.0), rel=1e-15)
    assert gauss(50.0) < 1e-300  # far tail underflows to ~0
    assert gauss(-3.0) == gauss(3.0)


def test_scalar_and_batch_agree():
    for kind in (uk.SIGMOID, uk.TANH, uk.GAUSSIAN, uk.leaky_relu(0.05)):
        t = uk.target(kind)
        xs = np.linspace(-3, 3, 13)
        batch = t(xs)
        for x, v in zip(xs, batch):
            assert t(float(x)) == v
        assert np.array_equal(uk.targets.target_eval_batch(t, xs), batch)
        assert uk.target_eval(t, 0.5) == t(0.5)


def test_derivatives():
    sig = uk.target(uk.SIGMOID)
    s = 1.0 / (1.0 + math.exp(-0.7))
    assert sig.derivative(0.7) == pytest.approx(s * (1 - s), rel=1e-12)
    assert uk.target(uk.TANH).derivative(0.3) == pytest.approx(
        1.0 - math.tanh(0.3) ** 2, rel=1e-12
    )
    # kinks use the right-hand slope; the step has zero slope everywhere
    assert uk.target(uk.RELU).derivative(0.0) == 1.0
    assert uk.target(uk.leaky_relu(0.1)).derivative(0.0) == 1.0
    assert uk.target(uk.leaky_relu(0.1)).derivative(-1.0) == pytest.approx(0.1)
    assert uk.target(uk.STEP).derivative(0.0) == 0.0
    assert uk.target(uk.STEP).derivative(2.0) == 0.0
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(
        uk.target(uk.SOFTPLUS).derivative(xs), 1.0 / (1.0 + np.exp(-xs)), rtol=1e-12
    )


def test_approx_error_sign_convention():
    # error = uaf value minus target value
    p = uk.preset(uk.TANH)
    t = uk.target(uk.TANH)
    x = 0.435458
    e = uk.approx_error(p, t, x)
    assert e == pytest.approx(uk.eval_stable(p, x) - math.tanh(x), abs=1e-15)
    assert e == pytest.approx(-0.004719, abs=1e-5)


def test_tanh_error_antisymmetry():
    p = uk.preset(uk.TANH)
    t = uk.target(uk.TANH)
    xs = np.linspace(0.0, 10.0, 501)
    e_pos = uk.approx_error_batch(p, t, xs)
    e_neg = uk.approx_error_batch(p, t, -xs)
    assert np.max(np.abs(e_pos + e_neg)) < 1e-9


def test_leaky_relu_error_magnitude():
    p = uk.preset(uk.leaky_relu(0.1))
    t = uk.target(uk.leaky_relu(0.1))
    assert abs(uk.approx_error(p, t, 3.120712)) == pytest.approx(0.506056, abs=1e-5)


def test_sigmoid_error_at_primary_extremum():
    p = uk.preset(uk.SIGMOID)
    t = uk.target(uk.SIGMOID)
    assert abs(uk.approx_error(p, t, 0.866516)) == pytest.approx(0.000616, abs=2e-6)


@pytest.mark.parametrize("xs", [["0.5"], [True, False], [0.0, math.inf], [math.nan], [[0.0]]],
                         ids=["string", "bools", "inf", "nan", "two_dimensional"])
def test_batch_evaluators_check_their_points(xs):
    p, t = uk.preset(uk.TANH), uk.target(uk.TANH)
    for call in (lambda: uk.targets.target_eval_batch(t, xs),
                 lambda: uk.targets.target_derivative_batch(t, xs),
                 lambda: uk.approx_error_batch(p, t, xs)):
        with pytest.raises(ValueError, match="xs"):
            call()


def test_activation_call_stays_unchecked():
    # the network's activation: a non-finite value there is divergence, which
    # the training loop reports, not bad input
    t = uk.target(uk.TANH)
    assert np.array_equal(t(np.array([math.inf, -math.inf])), [1.0, -1.0])
    assert np.isnan(t.derivative(np.array([math.nan]))[0])


_KINDS = [uk.PresetKind.from_name(name) for name in uk.core.PRESET_NAMES] + [uk.leaky_relu(0.05)]


def _peak_mb(call) -> float:
    """tracemalloc's peak, in MB, over one call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_batch_functions_keep_the_kernels_memory_bound():
    # 1,000,000 points: taken at once, a target's temporaries grew with n,
    # to a peak of 22.9 MB against eval_batch's 10.6 MB
    xs = np.linspace(-10.0, 10.0, 1_000_000)
    bound = _peak_mb(lambda: uk.eval_batch(uk.preset(uk.TANH), xs))
    for kind in _KINDS:
        t = uk.target(kind)
        assert _peak_mb(lambda: targets.target_eval_batch(t, xs)) <= bound, kind
        assert _peak_mb(lambda: targets.target_derivative_batch(t, xs)) <= bound, kind


def test_batch_functions_in_blocks_match_one_call():
    xs = np.linspace(-60.0, 60.0, 2 * BATCH_BLOCK + 3)
    for kind in _KINDS:
        t = uk.target(kind)
        for got, want in ((targets.target_eval_batch(t, xs), t(xs)),
                          (targets.target_derivative_batch(t, xs), t.derivative(xs))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), kind
