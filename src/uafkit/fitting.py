"""Constrained Levenberg-Marquardt fitting of UAF parameters to a target
activation.

A fit minimizes the RMSE of the approximation error over a uniform sample
grid. Parameters are partitioned into free (fitted), tied (closed-form
functions of a free parameter), and constant (frozen at their initial value).
The solver works on the residual f - target: a damped Gauss-Newton step on
the k x k normal equations of the free parameters, whose Jacobian comes from
the analytic parameter partials chained through the ties. A trial step is
kept only when the mean squared error does not increase, so the reported
RMSE trace is monotone; there is no randomness, so fits are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import uaf_eval as _k_eval
from ._kernels import uaf_grad as _k_grad
from .core import (
    LN2, PARAM_NAMES, A_RELU, PresetKind, UafParams, coerce_field, coerce_list, from_json,
)
from .targets import TargetActivation, target_eval_batch

__all__ = [
    "Tie",
    "FitSpec",
    "FitResult",
    "fit",
    "fit_free",
    "builtin_spec",
    "BUILTIN_SPEC_NAMES",
]

_TIE_KINDS = ("const", "same", "recip", "offset")


@dataclass(frozen=True)
class Tie:
    """Closed-form constraint pinning one parameter.

    kinds: const  -> param = value       (no source)
           same   -> param = source
           recip  -> param = value / source
           offset -> param = source + value
    """

    param: str
    kind: str
    source: str | None = None
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.param not in PARAM_NAMES:
            raise ValueError(f"tie parameter must be one of {PARAM_NAMES}, got {self.param!r}")
        if self.kind not in _TIE_KINDS:
            raise ValueError(f"tie kind must be one of {_TIE_KINDS}, got {self.kind!r}")
        if self.kind == "const":
            if self.source is not None:
                raise ValueError("const tie takes no source parameter")
        else:
            if self.source not in PARAM_NAMES:
                raise ValueError(
                    f"tie source must be one of {PARAM_NAMES}, got {self.source!r}"
                )
            if self.source == self.param:
                raise ValueError(f"tie cannot reference itself ({self.param})")
        coerce_field(self, "value", float)

    def resolve(self, source_value: float) -> float:
        if self.kind == "const":
            return self.value
        if self.kind == "same":
            return source_value
        if self.kind == "recip":
            return self.value / source_value
        return source_value + self.value

    def d_source(self, source_value: float) -> float:
        """Derivative of the tied parameter w.r.t. its source."""
        if self.kind == "const":
            return 0.0
        if self.kind == "same" or self.kind == "offset":
            return 1.0
        square = source_value * source_value
        if square == 0.0:
            # |source| < 1.5e-162: the slope is beyond the float64 range.
            return -math.copysign(math.inf, self.value) if self.value else 0.0
        return -self.value / square

    def to_dict(self) -> dict:
        out: dict = {"param": self.param, "kind": self.kind}
        if self.source is not None:
            out["source"] = self.source
        if self.kind != "same":
            out["value"] = self.value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Tie":
        return from_json(cls, data, "tie")


@dataclass(frozen=True)
class FitSpec:
    """A constrained fitting problem: which parameters move, how the rest are
    pinned, and the sample grid / solver settings."""

    target: TargetActivation
    free: tuple[str, ...]
    init: UafParams
    ties: tuple[Tie, ...] = ()
    interval: tuple[float, float] = (-10.0, 10.0)
    n_samples: int = 2001
    max_iters: int = 100000
    # The initial Levenberg-Marquardt damping lambda (see fit); the name
    # predates the solver and is kept so existing spec files still parse.
    learning_rate: float = 0.1
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        coerce_field(self, "target", TargetActivation)
        coerce_field(self, "init", UafParams)
        names = coerce_list("free", self.free, str)
        for name in names:
            if name not in PARAM_NAMES:
                raise ValueError(f"free parameter must be one of {PARAM_NAMES}, got {name!r}")
        free = tuple(name for name in PARAM_NAMES if name in names)
        if len(free) != len(names):
            raise ValueError(f"duplicate names in free set: {self.free}")
        object.__setattr__(self, "free", free)
        ties = coerce_list("ties", self.ties, Tie)
        tied_names = [t.param for t in ties]
        if len(set(tied_names)) != len(tied_names):
            raise ValueError(f"parameter tied more than once: {tied_names}")
        overlap = set(tied_names) & set(free)
        if overlap:
            raise ValueError(f"parameter(s) both free and tied: {', '.join(sorted(overlap))}")
        for t in ties:
            if t.kind != "const" and t.source not in free:
                raise ValueError(
                    f"tie source {t.source!r} for {t.param!r} must be a free parameter"
                )
        object.__setattr__(self, "ties", ties)
        interval = coerce_list("interval", self.interval, float)
        # An infinite width would put non-finite points on the sample grid.
        if not (len(interval) == 2 and interval[0] < interval[1]
                and math.isfinite(interval[1] - interval[0])):
            raise ValueError(
                f"interval must be [lo, hi] with lo < hi and a finite width, got {self.interval!r}"
            )
        object.__setattr__(self, "interval", interval)
        coerce_field(self, "n_samples", int, minimum=2)
        coerce_field(self, "max_iters", int, minimum=0)
        if coerce_field(self, "learning_rate", float) <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        coerce_field(self, "tolerance", float, minimum=0.0)

    def to_dict(self) -> dict:
        return {
            "target": {"name": self.target.kind.name, "alpha": self.target.kind.alpha},
            "free": list(self.free),
            "ties": [t.to_dict() for t in self.ties],
            "init": self.init.to_dict(),
            "interval": list(self.interval),
            "n_samples": self.n_samples,
            "max_iters": self.max_iters,
            "learning_rate": self.learning_rate,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FitSpec":
        return from_json(
            cls,
            data,
            "fit spec",
            target=lambda kind: TargetActivation(PresetKind.from_dict(kind)),
            init=UafParams.from_dict,
            ties=lambda ties: tuple(map(Tie.from_dict, coerce_list("ties", ties, dict))),
        )


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, their RMSE, why the fit stopped (see fit), and
    the monotone per-step trace."""

    params: UafParams
    rmse: float
    iterations: int
    stop_reason: str
    rmse_trace: tuple[float, ...] = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "rmse": self.rmse,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "rmse_trace": list(self.rmse_trace),
        }


class _Objective:
    """Residual r = f - target over the sample grid, and its Jacobian with
    respect to the free parameters, chained through the ties."""

    def __init__(self, spec: FitSpec):
        self.spec = spec
        self.grid = np.linspace(spec.interval[0], spec.interval[1], spec.n_samples)
        self.tvals = target_eval_batch(spec.target, self.grid)
        self.const = {
            name: getattr(spec.init, name)
            for name in PARAM_NAMES
            if name not in spec.free and name not in {t.param for t in spec.ties}
        }

    def assemble(self, theta: np.ndarray) -> UafParams | None:
        """Full parameter vector for the given free values; None when a tie
        or a non-finite free value makes the result invalid."""
        vals = dict(self.const)
        vals.update(zip(self.spec.free, theta.tolist()))
        try:
            for tie in self.spec.ties:
                src = 0.0 if tie.source is None else vals[tie.source]
                vals[tie.param] = tie.resolve(src)
            return UafParams(**vals)
        except (ValueError, ZeroDivisionError):
            return None

    def residual(self, params: UafParams) -> tuple[np.ndarray, float]:
        """r = f - target on the grid, and its mean square."""
        r = _k_eval(self.grid, *params.as_tuple()) - self.tvals
        return r, float(np.mean(r * r))

    def jacobian(self, params: UafParams, theta: np.ndarray) -> np.ndarray:
        """(n, k) matrix d r / d theta: the kernel's parameter partials times
        d(A..E)/d(theta), which is 1 on each free parameter's own row and the
        tie slope on the row of every parameter tied to it."""
        chain = np.zeros((len(PARAM_NAMES), len(theta)))
        for i, name in enumerate(self.spec.free):
            chain[PARAM_NAMES.index(name), i] = 1.0
            for tie in self.spec.ties:
                if tie.source == name:
                    chain[PARAM_NAMES.index(tie.param), i] = tie.d_source(float(theta[i]))
        return _k_grad(self.grid, *params.as_tuple())[:, 1:] @ chain


# Consecutive rejected trials before the fit stops as stalled: the damping has
# grown 1e30-fold, so the step is far below the resolution of the parameters.
_MAX_REJECTIONS = 30


# A trial that overflows is rejected, and a non-finite start raises, so
# NumPy's overflow warnings along the way are noise.
@np.errstate(over="ignore", invalid="ignore")
def fit(spec: FitSpec) -> FitResult:
    """Levenberg-Marquardt on the free parameters.

    Each accepted step builds the residual r and its Jacobian J once and
    solves the k x k damped normal equations (J^T J + lam diag(J^T J)) delta =
    J^T r, starting from lam = spec.learning_rate. The trial theta - delta is
    accepted when its ties assemble to finite parameters and its MSE does not
    increase, so the RMSE trace is non-increasing; lam then shrinks 10x. A
    rejected trial grows lam 10x and is retried from the same point.

    stop_reason is "tolerance" when an accepted trial improves the RMSE by
    less than spec.tolerance (the trial is not recorded); "stalled" after
    _MAX_REJECTIONS rejected trials in a row, or when the normal equations
    overflow; "zero_gradient" when J^T r is exactly zero; and "max_iters"
    after spec.max_iters accepted steps, the only stop not counted converged.

    Raises ValueError when spec.init breaks the ties or gives a non-finite
    error, since no step can be measured from there.
    """
    obj = _Objective(spec)
    theta = np.array([getattr(spec.init, name) for name in spec.free], dtype=np.float64)
    params = obj.assemble(theta)
    if params is None:
        raise ValueError("initial parameters violate the ties (non-finite result)")

    r, cur_mse = obj.residual(params)
    if not math.isfinite(cur_mse):
        raise ValueError("initial parameters give a non-finite mean squared error")
    trace = [math.sqrt(cur_mse)]
    lam = spec.learning_rate
    stop_reason = "max_iters"

    for _ in range(spec.max_iters):
        jac = obj.jacobian(params, theta)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        if not (np.isfinite(jtj).all() and np.isfinite(jtr).all()):
            stop_reason = "stalled"
            break
        if not np.any(jtr):
            stop_reason = "zero_gradient"
            break
        for _trial in range(_MAX_REJECTIONS):
            # lstsq, not solve: a parameter with no effect on the residual
            # leaves a zero row and column, and gets a zero step.
            delta = np.linalg.lstsq(jtj + lam * np.diag(np.diag(jtj)), jtr, rcond=None)[0]
            trial_theta = theta - delta
            trial_params = obj.assemble(trial_theta)
            if trial_params is not None:
                trial_r, trial_mse = obj.residual(trial_params)
                if math.isfinite(trial_mse) and trial_mse <= cur_mse:
                    lam /= 10.0
                    break
            lam *= 10.0
        else:
            stop_reason = "stalled"
            break
        if math.sqrt(cur_mse) - math.sqrt(trial_mse) < spec.tolerance:
            stop_reason = "tolerance"
            break
        theta, params, r, cur_mse = trial_theta, trial_params, trial_r, trial_mse
        trace.append(math.sqrt(cur_mse))

    return FitResult(
        params=params,
        rmse=math.sqrt(cur_mse),
        iterations=len(trace) - 1,
        stop_reason=stop_reason,
        rmse_trace=tuple(trace),
    )


def fit_free(
    target: TargetActivation,
    init: UafParams,
    interval: tuple[float, float] = (-10.0, 10.0),
    **kwargs,
) -> FitResult:
    """Unconstrained fit: all five parameters free; same contract as fit."""
    spec = FitSpec(
        target=target,
        free=PARAM_NAMES,
        ties=(),
        init=init,
        interval=interval,
        **kwargs,
    )
    return fit(spec)


def _sigmoid_family() -> FitSpec:
    return FitSpec(
        target=TargetActivation(PresetKind("sigmoid")),
        free=("A",),
        ties=(Tie("B", "recip", "A", 0.5), Tie("D", "same", "A")),
        init=UafParams(1.0, 0.5, 0.0, 1.0, 0.0),
    )


def _tanh_family() -> FitSpec:
    return FitSpec(
        target=TargetActivation(PresetKind("tanh")),
        free=("A",),
        ties=(Tie("B", "recip", "A", 1.0), Tie("D", "same", "A")),
        init=UafParams(2.0, 0.5, 0.0, 2.0, -1.0),
    )


def _gaussian_family() -> FitSpec:
    return FitSpec(
        target=TargetActivation(PresetKind("gaussian")),
        free=("C",),
        ties=(),
        init=UafParams(0.0, 0.0, -0.5, 0.0, LN2),
    )


def _relu_family() -> FitSpec:
    # The relu RMSE decreases monotonically as A grows, so there is no finite
    # optimum; starting at the preset slope, A keeps growing until the RMSE
    # improvement per step drops below the tolerance.
    return FitSpec(
        target=TargetActivation(PresetKind("relu")),
        free=("A",),
        ties=(Tie("D", "offset", "A", -1.0),),
        init=UafParams(A_RELU, 0.0, 0.0, A_RELU - 1.0, 0.0),
    )


_BUILTIN_SPECS = {
    "sigmoid-family": _sigmoid_family,
    "tanh-family": _tanh_family,
    "gaussian-family": _gaussian_family,
    "relu-family": _relu_family,
}

BUILTIN_SPEC_NAMES = tuple(sorted(_BUILTIN_SPECS))


def builtin_spec(name: str) -> FitSpec:
    """Named fit family: one of sigmoid-family, tanh-family, gaussian-family,
    relu-family (each fits the single slope/shape constant with the other
    parameters tied or frozen as in the corresponding preset)."""
    try:
        factory = _BUILTIN_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin fit spec {name!r}; available: {', '.join(BUILTIN_SPEC_NAMES)}"
        ) from None
    return factory()
