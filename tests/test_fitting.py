"""Unit tests for the constrained fitter, ties, and builtin fit specs."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uafkit as uk
from uafkit._kernels import logistic, uaf_terms
from uafkit.fitting import FitSpec, Tie, _Objective


# --- ties ---------------------------------------------------------------------


def test_tie_resolve_and_slope():
    const = Tie("E", "const", None, 0.25)
    assert const.resolve(123.0) == 0.25
    assert const.d_source(123.0) == 0.0

    same = Tie("D", "same", "A")
    assert same.resolve(2.5) == 2.5
    assert same.d_source(2.5) == 1.0

    recip = Tie("B", "recip", "A", 0.5)  # B = 0.5 / A
    assert recip.resolve(2.0) == 0.25
    assert recip.d_source(2.0) == pytest.approx(-0.5 / 4.0)
    # a square that underflows to 0 is an infinite slope, not ZeroDivisionError
    assert recip.d_source(1e-170) == -math.inf
    assert Tie("B", "recip", "A", 0.0).d_source(1e-170) == 0.0

    offset = Tie("D", "offset", "A", -1.0)  # D = A - 1
    assert offset.resolve(3.0) == 2.0
    assert offset.d_source(3.0) == 1.0


def test_tie_validation_and_round_trip():
    with pytest.raises(ValueError):
        Tie("D", "product", "A")
    with pytest.raises(ValueError):
        Tie("Q", "same", "A")
    with pytest.raises(ValueError, match="^const tie takes no source parameter$"):
        Tie("B", "const", "A")
    with pytest.raises(ValueError, match=r"^tie cannot reference itself \(A\)$"):
        Tie("A", "same", "A")
    # a same tie's value would be ignored: B = A + 5 is an offset tie
    with pytest.raises(ValueError, match="^same tie takes no value, got 5.0; use an offset tie$"):
        Tie.from_dict({"param": "B", "kind": "same", "source": "A", "value": 5})
    for zero in (0, 0.0, -0.0):
        assert Tie.from_dict(Tie("B", "same", "A", zero).to_dict()).resolve(2.0) == 2.0
    t = Tie("B", "recip", "A", 0.5)
    assert Tie.from_dict(t.to_dict()) == t
    with pytest.raises(ValueError):
        Tie.from_dict({"param": "B", "kind": "recip"})
    for value in ("0.5", True, math.inf):
        with pytest.raises(ValueError):
            Tie("B", "recip", "A", value)


# --- fit specs -------------------------------------------------------------------


def _spec(**overrides):
    base = dict(
        target=uk.SIGMOID,
        free=("A",),
        ties=(Tie("B", "recip", "A", 0.5), Tie("D", "same", "A")),
        init=uk.UafParams(1.0, 0.5, 0.0, 1.0, 0.0),
    )
    base.update(overrides)
    return FitSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(free=("A", "A"))
    with pytest.raises(ValueError):
        _spec(free=("Q",))
    with pytest.raises(ValueError):
        _spec(ties=(Tie("A", "const", None, 1.0),))  # A is also free
    with pytest.raises(ValueError):
        _spec(ties=(Tie("B", "same", "C"),))  # source C is not free
    with pytest.raises(ValueError, match=r"^parameter tied more than once: \['B', 'B'\]$"):
        _spec(ties=(Tie("B", "recip", "A", 0.5), Tie("B", "same", "A")))
    with pytest.raises(ValueError):
        _spec(interval=(3.0, -3.0))
    with pytest.raises(ValueError):
        _spec(n_samples=1)
    # fractional counts, bools and strings used to be cast or raise TypeError
    for bad in (dict(n_samples=2000.7), dict(max_iters=True), dict(tolerance="0.1"),
                dict(tolerance=None), dict(free="A"), dict(ties=[{"param": "B"}]),
                dict(init={"A": 1.0}), dict(target="sigmoid")):
        with pytest.raises(ValueError):
            _spec(**bad)
    # a width that overflows float64 has no finite sample grid
    for interval in ((-1e308, 1e308), (0.0, 1.0, 2.0), (0.0, math.inf)):
        with pytest.raises(ValueError):
            _spec(interval=interval)


def test_spec_refuses_a_jacobian_above_the_point_cap():
    # The fit builds an (n_samples, 5) array of parameter partials; only the
    # spec is built here, never the fit.
    with pytest.raises(ValueError, match=r"^n_samples x the five parameter partials = 10000005 "):
        _spec(n_samples=2_000_001)
    assert _spec(n_samples=2_000_000).n_samples == 2_000_000


def test_spec_json_round_trip():
    spec = _spec()
    again = FitSpec.from_dict(spec.to_dict())
    assert again.free == spec.free
    assert again.ties == spec.ties
    assert again.init == spec.init
    assert again.target == spec.target
    with pytest.raises(ValueError):
        FitSpec.from_dict({**spec.to_dict(), "bogus": 1})


def test_spec_refuses_the_damping_as_an_unknown_field():
    # Every fit starts its damping at 0.1; a spec cannot set it.
    with pytest.raises(ValueError, match="^fit spec contains unknown field\\(s\\): learning_rate$"):
        FitSpec.from_dict({**_spec().to_dict(), "learning_rate": 0.1})


# --- the fitter -------------------------------------------------------------------


def test_fit_identity_converges_immediately():
    res = uk.fit(FitSpec(uk.IDENTITY, uk.PARAM_NAMES, uk.preset(uk.IDENTITY)))
    assert res.iterations == 0
    assert res.converged
    assert res.stop_reason == "tolerance"
    assert res.rmse < 1e-12
    assert len(res.rmse_trace) == 1


def test_fit_free_softplus_from_identity():
    # softplus is an exact preset, so the fit can drive the error to rounding.
    res = uk.fit(FitSpec(uk.SOFTPLUS, uk.PARAM_NAMES, uk.preset(uk.IDENTITY)))
    assert res.rmse < 1e-12


def test_fit_trace_is_monotone_and_consistent():
    res = uk.fit(uk.builtin_spec("tanh-family"))
    trace = res.rmse_trace
    assert len(trace) == res.iterations + 1
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == res.rmse


def test_fit_respects_ties_exactly():
    res = uk.fit(uk.builtin_spec("sigmoid-family"))
    p = res.params
    assert p.D == p.A
    assert p.B == 0.5 / p.A
    assert p.C == 0.0 and p.E == 0.0


def test_fit_is_deterministic():
    a = uk.fit(uk.builtin_spec("gaussian-family"))
    b = uk.fit(uk.builtin_spec("gaussian-family"))
    assert a.params == b.params
    assert a.rmse_trace == b.rmse_trace
    assert a.iterations == b.iterations


def _reuse_specs():
    """The four builtin families and the free softplus fit from identity."""
    free = FitSpec(target=uk.SOFTPLUS, free=uk.core.PARAM_NAMES,
                   init=uk.preset(uk.IDENTITY))
    return [uk.builtin_spec(name) for name in uk.BUILTIN_SPEC_NAMES] + [free]


def test_jacobian_from_the_residual_terms_equals_a_fresh_one():
    for spec in _reuse_specs():
        obj = _Objective(spec)
        theta = 1.1 * np.array([getattr(spec.init, name) for name in spec.free]) + 0.01
        params = obj.assemble(theta)
        _, _, s = obj.residual(params)
        fresh = obj.jacobian(params, logistic(*uaf_terms(obj.grid, *params[:4])))
        assert np.array_equal(obj.jacobian(params, s).view(np.int64),
                              fresh.view(np.int64))


def _chain_at(spec, theta):
    """The tie matrix d(A..E)/d(theta), built from Tie.d_source at theta."""
    row = uk.core.PARAM_NAMES.index
    chain = np.zeros((5, len(spec.free)))
    for i, name in enumerate(spec.free):
        chain[row(name), i] = 1.0
        for tie in spec.ties:
            if tie.source == name:
                chain[row(tie.param), i] = tie.d_source(float(theta[i]))
    return chain


@pytest.mark.parametrize("spec, thetas", [
    (_spec(ties=(Tie("D", "same", "A"),)), [[1.0], [-2.5]]),
    (_spec(ties=(Tie("D", "offset", "A", -0.5),)), [[1.0], [0.25]]),
    (_spec(ties=(Tie("E", "const", None, 0.125),)), [[1.0], [3.0]]),
    # the recip slope is -0.5 / A^2: -inf at A = +-0.0 and where A^2 underflows
    (_spec(), [[1.0], [-0.3], [0.0], [-0.0], [1e-170]]),
    (_spec(ties=(Tie("B", "recip", "A", -0.5), Tie("D", "same", "A"))), [[0.0], [-0.0]]),
    (_spec(ties=(Tie("B", "recip", "A", 0.0),)), [[2.0], [0.0]]),
    (_spec(free=("A", "C"), ties=(Tie("B", "recip", "A", 0.5), Tie("D", "offset", "C", 1.0)),
           init=uk.UafParams(1.0, 0.5, 0.0, 1.0, 0.0)), [[1.0, 0.0], [0.5, -0.25], [0.0, 2.0]]),
], ids=["same", "offset", "const", "recip", "recip-negative", "recip-zero-value", "k2"])
def test_the_tie_matrix_template_is_chain_at_theta(spec, thetas):
    from uafkit._kernels import uaf_partials

    obj = _Objective(spec)
    row = uk.core.PARAM_NAMES.index
    template = obj.chain.copy()
    with np.errstate(all="ignore"):
        for theta in thetas:
            # The point by hand, since assemble refuses a recip source of
            # +-0.0: the free rows at theta, the other ties resolved, and a
            # recip row left at its init value.
            values = list(spec.init.as_tuple())
            for name, value in zip(spec.free, theta):
                values[row(name)] = value
            for tie in spec.ties:
                if tie.kind == "const":
                    values[row(tie.param)] = tie.value
                elif tie.kind != "recip":
                    values[row(tie.param)] = tie.resolve(values[row(tie.source)])
            A, B, C, D = values[:4]
            s = logistic(*uaf_terms(obj.grid, A, B, C, D))
            want = uaf_partials(obj.grid, A, B, C, D, s, read=obj.read) @ _chain_at(spec, theta)
            jac = obj.jacobian(tuple(values), logistic(*uaf_terms(obj.grid, A, B, C, D)))
            assert np.array_equal(jac.view(np.int64), want.view(np.int64))
    assert np.array_equal(obj.chain.view(np.int64), template.view(np.int64))


def test_fit_with_reused_terms_matches_fresh_jacobians(monkeypatch):
    specs = _reuse_specs()
    reused = [json.dumps(uk.fit(spec).to_dict()) for spec in specs]
    fresh_jacobian = _Objective.jacobian
    monkeypatch.setattr(_Objective, "jacobian",
                        lambda self, params, s: fresh_jacobian(
                            self, params, logistic(*uaf_terms(self.grid, *params[:4]))))
    assert [json.dumps(uk.fit(spec).to_dict()) for spec in specs] == reused


def test_the_bound_on_x_changes_no_fit_result(monkeypatch):
    from uafkit import fitting
    from uafkit._kernels import _EXP_ZERO

    specs = _reuse_specs() + [
        FitSpec.from_dict({**uk.builtin_spec(name).to_dict(), "interval": [-1000.0, 1000.0]})
        for name in uk.BUILTIN_SPEC_NAMES
    ]
    underflows = []
    terms = fitting._k_terms

    def spy(*args, **kwargs):
        out = terms(*args, **kwargs)
        underflows.append(bool(np.any(-np.abs(out[0]) < _EXP_ZERO)))
        return out

    monkeypatch.setattr(fitting, "_k_terms", spy)
    bounded = [json.dumps(uk.fit(spec).to_dict()) for spec in specs]
    assert any(underflows)  # the masked exp was taken
    monkeypatch.setattr(fitting, "_k_terms",
                        lambda *args, xmax=None, **kwargs: terms(*args, **kwargs))
    assert [json.dumps(uk.fit(spec).to_dict()) for spec in specs] == bounded


def _outcome(call):
    """The bits of call()'s result, or the type of the exception it raised."""
    try:
        return np.ascontiguousarray(call()).view(np.int64).tolist()
    except np.linalg.LinAlgError as exc:
        return type(exc)


def _lstsq_step(jtj, jtr, lam):
    return np.linalg.lstsq(jtj + lam * np.diag(np.diag(jtj)), jtr, rcond=None)[0]


def test_the_damped_step_is_lstsq_bitwise():
    from uafkit.fitting import _damped_step

    rng = np.random.default_rng(13)
    # dgelsd, which lstsq calls, rescales a system whose largest magnitude
    # lies outside [2^-970, 2^970] (its SMLNUM and BIGNUM).
    lo, hi = 2.0**-970, 2.0**970
    edges = [np.nextafter(lo, 0.0), lo, np.nextafter(lo, 1.0),
             np.nextafter(hi, 0.0), hi, np.nextafter(hi, np.inf)]
    cases = [(10.0 ** rng.uniform(-200, 200), 10.0 ** rng.uniform(-12, 12),
              rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-200, 200)) for _ in range(5000)]
    # lam = 1e-30 leaves m = j, so m sits on each edge exactly
    cases += [(m, 1e-30, b) for m in edges for b in (1.0, -3.0, lo, -hi)]
    cases += [(1.0, 0.1, b) for b in edges + [5e-324, -5e-324, 1.7976931348623157e308]]
    cases += [(0.0, 0.1, 1.0), (0.0, 1e6, -2.5)]  # m = 0
    with np.errstate(all="ignore"):
        for j, lam, b in cases:
            jtj, jtr = np.array([[j]]), np.array([b])
            want = _outcome(lambda: _lstsq_step(jtj, jtr, lam))
            assert _outcome(lambda: _damped_step(jtj, jtr, lam)) == want, (j, lam, b)
        jtj, jtr = np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, -2.0])
        assert _outcome(lambda: _damped_step(jtj, jtr, 0.1)) == _outcome(
            lambda: _lstsq_step(jtj, jtr, 0.1))
        # lam * jtj overflows: no step, where lstsq raises LinAlgError
        for j, lam, b in [(1e300, 1e10, 1.0), (1e200, 1e200, -1.0)]:
            assert _damped_step(np.array([[j]]), np.array([b]), lam) is None, (j, lam, b)
        assert _damped_step(np.array([[1e300, 1.0], [1.0, 3.0]]), jtr, 1e10) is None
        assert _damped_step(np.array([[0.0, 0.0], [0.0, 3.0]]), jtr, np.inf) is None  # inf * 0
        # A subnormal m, whose reciprocal overflows, goes to lstsq, which
        # rescales it (the relu fit of the next test).
        jtj, jtr = np.array([[1e-310]]), np.array([1e-310])
        assert _lstsq_step(jtj, jtr, 1e-30).tolist() == [1.0]
        assert _damped_step(jtj, jtr, 1e-30) == [1.0]


def _lams(monkeypatch):
    """The lam of every _damped_step call in the fits that follow, and the
    m = jtj + lam jtj of each 1 x 1 system."""
    from uafkit import fitting

    damped_step, lams, ms = fitting._damped_step, [], []

    def step(jtj, jtr, lam):
        assert len(lams) < 5000, "a run of rejections that does not end"
        lams.append(lam)
        ms.append(jtj.item() + lam * jtj.item() if jtj.size == 1 else None)
        return damped_step(jtj, jtr, lam)

    monkeypatch.setattr(fitting, "_damped_step", step)
    return lams, ms


def test_a_subnormal_damped_system_goes_to_lstsq_and_lam_holds_its_floor(monkeypatch):
    # B runs into relu's flat side, where dB = s(z1) underflows: lam shrinks
    # to its floor over 307 accepted steps, and J^T J then turns subnormal
    # (from the 360th call), where 1 / m overflows. lstsq rescales those
    # systems, so every step is accepted until J^T r is exactly 0; a lam of
    # 0.0 would not have grown again after a rejection.
    lams, ms = _lams(monkeypatch)
    spec = FitSpec(target=uk.RELU, free=("B",), init=uk.preset(uk.IDENTITY),
                   interval=(-22.1112233568401, -18.197504407714963), n_samples=41,
                   tolerance=0.0)
    res = uk.fit(spec)
    assert (res.stop_reason, res.iterations, res.rmse) == ("zero_gradient", 375, 0.0)
    assert len(lams) == 375  # no trial was rejected
    at_floor = [i for i, lam in enumerate(lams) if lam == sys.float_info.min]
    assert at_floor == list(range(307, 375))
    assert 0.0 not in lams
    assert sum(not math.isfinite(1.0 / m) for m in ms) == 16


def test_a_rejection_at_the_floor_grows_lam_tenfold(monkeypatch):
    # The identity preset fits the identity target to rounding noise. With
    # tolerance 0 every MSE-equal trial is accepted and shrinks lam, which
    # reaches its floor at the 308th call; the 661st trial, which rounding
    # makes worse, is rejected there, and lam grows 10x from the floor.
    lams, _ = _lams(monkeypatch)
    spec = FitSpec(target=uk.IDENTITY, free=("C",), init=uk.preset(uk.IDENTITY),
                   interval=(-4.0, 8.0), n_samples=41, max_iters=700, tolerance=0.0)
    uk.fit(spec)
    floor = sys.float_info.min
    assert lams.index(floor) == 307
    rejected = [i for i in range(len(lams) - 1) if lams[i] == floor and lams[i + 1] != floor]
    assert rejected == [660]
    assert lams[661] == 10.0 * floor
    assert 0.0 not in lams


def test_an_overflowing_damped_system_stalls_the_fit(capfd, overflowing_damping):
    family = uk.builtin_spec("sigmoid-family")
    free = FitSpec(target=uk.SIGMOID, free=uk.core.PARAM_NAMES, init=uk.preset(uk.IDENTITY))
    for spec in (family, free):
        res = uk.fit(spec)
        assert (res.stop_reason, res.iterations) == ("stalled", 0)
        assert res.rmse_trace == (res.rmse,)
    assert capfd.readouterr() == ("", "")  # LAPACK prints nothing


@st.composite
def _fit_specs(draw):
    """A builtin family or a free fit from a preset, on a random interval."""
    name = draw(st.sampled_from(uk.BUILTIN_SPEC_NAMES + ("free",)))
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.floats(1e-3, 2e3))
    data = {
        "interval": [lo, lo + width],
        "n_samples": draw(st.integers(2, 2001)),
        "max_iters": draw(st.integers(0, 40)),
    }
    if name == "free":
        preset = uk.preset(draw(st.sampled_from([uk.IDENTITY, uk.SIGMOID, uk.TANH, uk.RELU,
                                                 uk.SOFTPLUS, uk.GAUSSIAN])))
        target = draw(st.sampled_from(["sigmoid", "tanh", "softplus", "gaussian", "relu"]))
        data.update(target={"name": target}, free=list(uk.core.PARAM_NAMES),
                    init=preset.to_dict())
        return FitSpec.from_dict(data)
    return FitSpec.from_dict({**uk.builtin_spec(name).to_dict(), **data})


@settings(max_examples=800, derandomize=True, database=None, deadline=None)
@given(_fit_specs())
def test_any_fit_is_monotone_and_repeats_bitwise(spec):
    with np.errstate(all="ignore"):
        try:
            res = uk.fit(spec)
        except ValueError as exc:
            assert "initial parameters" in str(exc)
            return
        again = uk.fit(spec)
    trace = res.rmse_trace
    assert len(trace) == res.iterations + 1 and trace[-1] == res.rmse
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    assert json.dumps(again.to_dict()) == json.dumps(res.to_dict())
    assert np.array_equal(np.array(again.params.as_tuple()).view(np.int64),
                          np.array(res.params.as_tuple()).view(np.int64))


def _masked_fit_specs():
    """The builtins on three intervals at three grid sizes, tie kinds that
    leave chain rows zero, k = 2, and a free fit."""
    specs = [
        FitSpec.from_dict({**uk.builtin_spec(name).to_dict(), "interval": list(interval),
                           "n_samples": n})
        for name in uk.BUILTIN_SPEC_NAMES
        for interval in ((-10.0, 10.0), (-1000.0, 1000.0), (-1e-3, 2e-3))
        for n in (2001, 101, 2)
    ]
    sigmoid = uk.SIGMOID
    specs += [
        _spec(ties=(Tie("D", "same", "A"), Tie("E", "const", None, 0.125)),
              init=uk.UafParams(1.0, 0.5, 0.0, 1.0, 0.125)),
        _spec(ties=(Tie("B", "recip", "A", 0.0), Tie("D", "same", "A"))),  # a zero chain row
        _spec(ties=(Tie("D", "offset", "A", -0.5),), init=uk.UafParams(1.0, 0.5, 0.0, 0.5, 0.0)),
        _spec(free=("A", "C"), ties=(Tie("B", "recip", "A", 0.5), Tie("D", "same", "A"))),
        FitSpec(target=uk.SOFTPLUS, free=uk.core.PARAM_NAMES,
                init=uk.preset(uk.IDENTITY)),
        FitSpec(target=sigmoid, free=("B", "E"), init=uk.preset(uk.SIGMOID)),
    ]
    return specs


# Each start has one unread partial that is inf or NaN somewhere:
# dB = s1 A + s2 D = inf where x > 0; dA = s1 (x + B) = 0 * inf where x + B
# overflows; dD = -s2 (x - B) = -0 * inf likewise; dC = 0.5 x^2 = inf.
_ZERO_TIMES_INF = [
    FitSpec(target=uk.IDENTITY, free=("A",),
            init=uk.UafParams(1e308, 0.0, 0.0, 1e308, 0.0), interval=(-1e-160, 1e-160)),
    FitSpec(target=uk.SIGMOID, free=("E",),
            init=uk.UafParams(-1.0, 1e308, 0.0, 0.0, 0.0), interval=(-1e300, 8e307)),
    FitSpec(target=uk.SIGMOID, free=("E",),
            init=uk.UafParams(0.0, -1e308, -1.0, -1.0, 0.0), interval=(-1e300, 8e307)),
    FitSpec(target=uk.SIGMOID, free=("E",),
            init=uk.UafParams(0.0, 0.0, 0.0, 0.0, 0.0), interval=(-1e200, 1e200)),
]


def test_an_unread_partial_does_not_stall_the_fit():
    # The Jacobian holds +0.0 for a partial that no free parameter reads, so
    # its inf or NaN never reaches J^T J, and the fit goes on.
    with np.errstate(all="ignore"):
        results = [uk.fit(spec) for spec in _ZERO_TIMES_INF]
    assert [res.stop_reason for res in results] == ["tolerance"] * 4
    for res, start, end in zip(results[1:], (1.693, 0.99975, 0.7070), (0.0223, 0.0223, 0.4999)):
        assert res.iterations >= 3
        assert res.rmse_trace[0] == pytest.approx(start, abs=5e-4)
        assert res.rmse == pytest.approx(end, abs=5e-4)


def test_reading_fewer_columns_and_the_k1_step_change_no_fit_result(monkeypatch):
    from uafkit import fitting

    specs = _masked_fit_specs()
    assert sum(not all(_Objective(spec).read) for spec in specs) >= 36
    with np.errstate(all="ignore"):
        masked = [uk.fit(spec) for spec in specs]
    init = _Objective.__init__

    def all_columns(self, spec):
        init(self, spec)
        self.read = (True,) * 5

    monkeypatch.setattr(_Objective, "__init__", all_columns)
    monkeypatch.setattr(fitting, "_damped_step", _lstsq_step)
    with np.errstate(all="ignore"):
        full = [uk.fit(spec) for spec in specs]
    assert [json.dumps(r.to_dict()) for r in full] == [json.dumps(r.to_dict()) for r in masked]


def test_a_run_of_rejections_ends_without_a_cap():
    # Near x = -79.5 the k = 2 step on C and D is rejected 36 times in a row
    # before lam, at 1e35, is large enough for one to lower the error.
    spec = FitSpec.from_dict({
        "target": "identity", "free": ["C", "D"],
        "init": {"A": 1.01605291, "B": 0.49210035725403317, "C": 0.0, "D": 1.01605291, "E": 0.0},
        "interval": [-79.60511956521692, -79.4726890053797],
    })
    res = uk.fit(spec)
    assert (res.stop_reason, res.iterations) == ("tolerance", 1)
    assert res.rmse_trace[0] == pytest.approx(79.539, abs=1e-3)
    assert res.rmse == pytest.approx(3.0486, abs=1e-4)


def test_builtin_constants():
    sig = uk.fit(uk.builtin_spec("sigmoid-family"))
    assert sig.converged
    assert abs(sig.params.A - 1.01605291) < 1e-6

    tanh = uk.fit(uk.builtin_spec("tanh-family"))
    assert tanh.converged
    assert abs(tanh.params.A - 2.12616013) < 1e-6

    gauss = uk.fit(uk.builtin_spec("gaussian-family"))
    assert gauss.converged
    assert abs(gauss.params.C - (-0.61341425)) < 1e-6


def test_relu_family_runs_out_the_flat_direction():
    # This family has no finite optimum (error keeps shrinking as the slope
    # grows), so the fit ends on the improvement tolerance with a very small
    # residual and a slope far above its starting point.
    res = uk.fit(uk.builtin_spec("relu-family"))
    assert res.stop_reason == "tolerance"
    assert res.rmse < 1e-6
    assert res.params.A > uk.preset(uk.RELU).A
    assert res.params.D == res.params.A - 1.0


def test_free_fit_dominates_constrained():
    constrained = uk.fit(uk.builtin_spec("sigmoid-family"))
    free = uk.fit(FitSpec(uk.SIGMOID, uk.PARAM_NAMES, constrained.params, max_iters=1500))
    assert free.rmse <= constrained.rmse


def test_fit_free_sigmoid_from_identity():
    res = uk.fit(FitSpec(uk.SIGMOID, uk.PARAM_NAMES, uk.preset(uk.IDENTITY)))
    preset_rmse = uk.interval_rmse(
        uk.preset(uk.SIGMOID), uk.SIGMOID, (-10.0, 10.0), 2001
    )
    assert res.iterations <= 100
    assert res.rmse <= preset_rmse


def test_fit_stop_reasons():
    sigmoid = uk.SIGMOID
    # out of iterations: the only stop that is not converged
    res = uk.fit(FitSpec(sigmoid, uk.PARAM_NAMES, uk.preset(uk.IDENTITY), max_iters=3))
    assert (res.stop_reason, res.iterations, res.converged) == ("max_iters", 3, False)
    # with A = D = 0 the residual does not depend on B at all
    res = uk.fit(FitSpec(target=sigmoid, free=("B",), ties=(),
                         init=uk.UafParams(0.0, 0.0, 0.0, 0.0, 0.0)))
    assert (res.stop_reason, res.iterations, res.converged) == ("zero_gradient", 0, True)
    # normal equations that overflow float64 leave no finite step to take:
    # at A = 1e-160 the slope of the tie B = 0.5/A is -5e319
    with np.errstate(over="ignore", invalid="ignore"):
        res = uk.fit(_spec(init=uk.UafParams(1e-160, 0.5, 0.0, 1e-160, 0.0)))
    assert (res.stop_reason, res.iterations) == ("stalled", 0)
    assert res.rmse_trace == (res.rmse,)
    # an error that overflows float64 at the start has no step to measure
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        uk.fit(FitSpec(sigmoid, uk.PARAM_NAMES, uk.UafParams(1e306, 0.0, 0.0, -1.0, 0.0)))


_STOP_PATH_SPECS = {
    "k1": uk.builtin_spec("sigmoid-family"),
    "k2": _spec(free=("A", "C")),
    "k5": FitSpec(target=uk.SOFTPLUS, free=uk.PARAM_NAMES, init=uk.preset(uk.IDENTITY)),
}


# A Jacobian that is all zeros has J^T r = 0; one row of inf or NaN makes
# J^T J and J^T r non-finite, and a row of 1e200 makes J^T J overflow. The
# fit stops on its tests of the normal equations, before any step is solved.
@pytest.mark.parametrize("row, stop_reason", [
    (0.0, "zero_gradient"), (math.inf, "stalled"), (math.nan, "stalled"), (1e200, "stalled"),
], ids=["zero", "inf", "nan", "overflow"])
@pytest.mark.parametrize("spec", _STOP_PATH_SPECS.values(), ids=_STOP_PATH_SPECS.keys())
def test_the_normal_equation_tests_stop_the_fit_for_every_k(monkeypatch, spec, row, stop_reason):
    from uafkit import fitting

    def jacobian(self, values, s):
        jac = np.zeros((self.grid.size, len(spec.free)))
        jac[len(jac) // 3] = row
        return jac

    def no_step(jtj, jtr, lam):
        raise AssertionError("a step was solved")

    monkeypatch.setattr(_Objective, "jacobian", jacobian)
    monkeypatch.setattr(fitting, "_damped_step", no_step)
    res = uk.fit(spec)
    assert (res.stop_reason, res.iterations) == (stop_reason, 0)
    assert res.rmse_trace == (res.rmse,)
    assert res.params == spec.init


def test_builtin_names():
    assert uk.BUILTIN_SPEC_NAMES == (
        "gaussian-family", "relu-family", "sigmoid-family", "tanh-family",
    )
    with pytest.raises(ValueError, match="unknown builtin fit spec 'swish-family'; available: "
                       "gaussian-family, relu-family, sigmoid-family, tanh-family"):
        uk.builtin_spec("swish-family")


# The four families with every value written out: each field of each
# builtin_spec, and each bit of its fit, must stay the same.
_FAMILY_SPECS = {
    "sigmoid-family": FitSpec(
        target=uk.SIGMOID, free=("A",),
        ties=(Tie("B", "recip", "A", 0.5), Tie("D", "same", "A")),
        init=uk.UafParams(1.0, 0.5, 0.0, 1.0, 0.0),
    ),
    "tanh-family": FitSpec(
        target=uk.TANH, free=("A",),
        ties=(Tie("B", "recip", "A", 1.0), Tie("D", "same", "A")),
        init=uk.UafParams(2.0, 0.5, 0.0, 2.0, -1.0),
    ),
    "gaussian-family": FitSpec(
        target=uk.GAUSSIAN, free=("C",), ties=(),
        init=uk.UafParams(0.0, 0.0, -0.5, 0.0, 0.6931471805599453),
    ),
    "relu-family": FitSpec(
        target=uk.RELU, free=("A",),
        ties=(Tie("D", "offset", "A", -1.0),),
        init=uk.UafParams(70.9992, 0.0, 0.0, 69.9992, 0.0),
    ),
}


@pytest.mark.parametrize("name", uk.BUILTIN_SPEC_NAMES)
def test_builtin_specs_are_the_families_as_written(name):
    spec, want = uk.builtin_spec(name), _FAMILY_SPECS[name]
    for field in dataclasses.fields(FitSpec):
        assert getattr(spec, field.name) == getattr(want, field.name), field.name
    # builtin_spec hands out one spec per name; a fit leaves it as it was
    fits = [json.dumps(uk.fit(s).to_dict()) for s in (spec, uk.builtin_spec(name), want)]
    assert fits[0] == fits[1] == fits[2]


def test_result_serialization():
    res = uk.fit(uk.builtin_spec("gaussian-family"))
    data = res.to_dict()
    assert set(data) == {
        "params", "rmse", "iterations", "converged", "stop_reason", "rmse_trace",
    }
    assert data["stop_reason"] == res.stop_reason
    assert data["params"]["C"] == res.params.C
    assert data["rmse_trace"][-1] == res.rmse


def test_fit_handles_degenerate_tie_start():
    # B = 1/A explodes if a step ever drives A to 0; the fitter must reject
    # such trial points instead of crashing.
    spec = FitSpec(
        target=uk.SIGMOID,
        free=("A",),
        ties=(Tie("B", "recip", "A", 0.5), Tie("D", "same", "A")),
        init=uk.UafParams(0.05, 10.0, 0.0, 0.05, 0.0),
        max_iters=200,
    )
    res = uk.fit(spec)
    assert math.isfinite(res.rmse)
    assert res.rmse <= res.rmse_trace[0]
    family = uk.fit(uk.builtin_spec("sigmoid-family"))
    assert abs(res.params.A - family.params.A) < 1e-6
