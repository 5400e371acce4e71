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

An iteration does only the work whose result is read. Each residual keeps,
of the kernel terms its value consumes, only their logistic pair s (see
_kernels), from which the Jacobian at an accepted point is formed; a
rejected trial pays that one logistic pass for nothing. The kernel fills the
partial columns of the free parameters and of those tied to one, and leaves
the rest +0.0 for the tie matrix's zero rows: a partial that no free
parameter reads adds nothing, even where it would be inf or NaN. The 1 x 1
system of a one-parameter fit is solved as b * (1 / m), without the SVD
that lstsq runs; lstsq computes the same bits, bar a system it rescales
first (near the ends of the float64 range). A zero m, or one so small that
its reciprocal overflows, goes to lstsq instead.

What does not change between iterations is built once per fit: the tie
matrix without its tie slopes, which each Jacobian writes into a copy at its
point, and the parameters pinned by spec.init or a const tie. What is
parameter-sized travels as Python floats: the five parameters as a tuple,
each step as a list, and the normal equations, for the finiteness and
zero-gradient tests, as one list. NumPy forms the n-point residual and
Jacobian and the normal equations, and solves the k x k system.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._kernels import logistic
from ._kernels import uaf_eval as _k_eval
from ._kernels import uaf_partials as _k_partials
from ._kernels import uaf_terms as _k_terms
from .core import (
    GAUSSIAN, LN2, PARAM_NAMES, A_RELU, RELU, SIGMOID, TANH, JsonConfig, PresetKind,
    UafParams, check_size, coerce, coerce_field, coerce_interval, coerce_list, from_json, grid,
)
from .targets import target_eval_batch

__all__ = [
    "Tie",
    "FitSpec",
    "FitResult",
    "fit",
    "builtin_spec",
    "BUILTIN_SPEC_NAMES",
]

_TIE_KINDS = ("const", "same", "recip", "offset")


@dataclass(frozen=True)
class Tie(JsonConfig):
    """Closed-form constraint pinning one parameter.

    kinds: const  -> param = value       (no source)
           same   -> param = source      (value 0)
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
        if coerce_field(self, "value", float) and self.kind == "same":
            raise ValueError(f"same tie takes no value, got {self.value}; use an offset tie")

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

    @classmethod
    def from_dict(cls, data: dict) -> "Tie":
        return from_json(cls, data, "tie")


@dataclass(frozen=True)
class FitSpec(JsonConfig):
    """A constrained fitting problem: which parameters move, how the rest are
    pinned, the sample grid, and when the fit stops (max_iters, tolerance).
    The damping is not a setting: every fit starts it at 0.1 (see fit)."""

    target: PresetKind
    free: tuple[str, ...]
    init: UafParams
    ties: tuple[Tie, ...] = ()
    interval: tuple[float, float] = (-10.0, 10.0)
    n_samples: int = 2001
    max_iters: int = 100000
    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        coerce_field(self, "target", PresetKind)
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
        object.__setattr__(self, "interval", coerce_interval("interval", self.interval))
        coerce_field(self, "n_samples", int, minimum=2)
        check_size("n_samples x the five parameter partials", self.n_samples, 5)
        coerce_field(self, "max_iters", int, minimum=0)
        coerce_field(self, "tolerance", float, minimum=0.0)

    @classmethod
    def from_dict(cls, data: dict) -> "FitSpec":
        return from_json(cls, data, "fit spec")


@dataclass(frozen=True)
class FitResult:
    """Best parameters found, why the fit stopped (see fit), and the
    monotone RMSE trace: the start, then one entry per accepted step."""

    params: UafParams
    stop_reason: str
    rmse_trace: tuple[float, ...] = field(repr=False)

    @property
    def rmse(self) -> float:
        return self.rmse_trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.rmse_trace) - 1

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
    respect to the free parameters, chained through the ties. Parameters
    travel as 5-tuples of floats in PARAM_NAMES order (see assemble)."""

    def __init__(self, spec: FitSpec):
        lo, hi = spec.interval
        self.grid = grid(lo, hi, spec.n_samples, 0, spec.n_samples)
        # The rows of chain (see jacobian) that can be nonzero: the free
        # parameters and those tied to one. Only their partials are read.
        tied = {t.param for t in spec.ties if t.kind != "const"}
        self.read = tuple(name in spec.free or name in tied for name in PARAM_NAMES)
        # The largest |x| on the grid, at an end (bar a subnormal step, where a
        # node can pass hi by a few 5e-324, which changes no bit): the bound that
        # lets the kernel skip exp's underflow lanes.
        self.grid_max = max(abs(lo), abs(hi))
        self.tvals = target_eval_batch(spec.target, self.grid)
        # What assemble starts from: spec.init with the const ties applied.
        # The i-th free value goes to row self.free_rows[i]; every other tie
        # sets its row from its source's, which is a free row.
        row = PARAM_NAMES.index
        self.free_rows = tuple(map(row, spec.free))
        values = list(spec.init.as_tuple())
        self.ties = []
        for tie in spec.ties:
            if tie.kind == "const":
                values[row(tie.param)] = tie.value
            else:
                self.ties.append((row(tie.param), row(tie.source), tie))
        self.fixed = values
        # The tie matrix d(A..E)/d(free values) without its tie slopes: column i
        # is the unit vector of row self.free_rows[i]. jacobian writes the slope
        # of every parameter tied to a free one into a copy, at the point.
        self.chain = np.eye(len(PARAM_NAMES))[:, self.free_rows]

    def assemble(self, free: list[float]) -> tuple[float, ...] | None:
        """The five parameters as floats for the given free values; None
        when a tie divides by zero or any of them is not finite."""
        values = self.fixed.copy()
        for r, value in zip(self.free_rows, free):
            values[r] = value
        try:
            for r, source, tie in self.ties:
                values[r] = tie.resolve(values[source])
        except ZeroDivisionError:
            return None
        return tuple(values) if all(map(math.isfinite, values)) else None

    def residual(self, values: tuple) -> tuple[np.ndarray, float, np.ndarray]:
        """r = f - target on the grid, its mean square, and the logistic pair
        s of the kernel terms it was computed from (see _kernels), taken
        before the value consumes them, for the Jacobian at values."""
        terms = _k_terms(self.grid, *values[:4], xmax=self.grid_max)
        s = logistic(*terms)
        r = _k_eval(self.grid, *values, terms=terms)
        r -= self.tvals
        return r, float((r * r).sum() / r.size), s

    def jacobian(self, values: tuple, s: np.ndarray) -> np.ndarray:
        """(n, k) matrix of d r / d(free values): the kernel's parameter
        partials times the tie matrix, which is self.chain with each tie's
        slope d_source(values[source]) on the tied row, in its source's
        column. s is the logistic pair that residual(values) returned.

        Only the partials of self.read are computed; the others are +0.0, so
        that their zero rows of chain add nothing, even where the partial
        itself would be inf or NaN."""
        # The slopes go into a copy in C order, the one layout the product
        # is handed: the template, a column pick, is in F order.
        chain = self.chain.copy()
        for r, source, tie in self.ties:
            chain[r, self.free_rows.index(source)] = tie.d_source(values[source])
        return _k_partials(self.grid, *values[:4], s, read=self.read) @ chain


def _damped_step(jtj: np.ndarray, jtr: np.ndarray, lam: float) -> list[float] | None:
    """delta solving (jtj + lam diag(jtj)) delta = jtr, as a list of floats,
    or None when that damped matrix is not finite (jtj and jtr are). For
    k = 1 with m = jtj + lam jtj and b = jtr, delta is b * (1 / m) wherever
    m and its reciprocal are finite and m is not 0. Any other system goes to
    lstsq: a larger one, and an m that is 0 (delta 0.0) or so small that its
    reciprocal overflows, which lstsq rescales (m = b = 1e-310 gives 1.0,
    where the reciprocal gives inf)."""
    if jtr.shape[0] == 1:
        j, b = jtj.item(), jtr.item()
        m = j + lam * j
        if math.isfinite(m) and m and math.isfinite(1.0 / m):
            return [b * (1.0 / m)]
    damped = jtj + lam * np.diag(np.diag(jtj))
    if not np.isfinite(damped).all():
        return None
    # lstsq, not solve: a parameter with no effect on the residual leaves a
    # zero row and column, and gets a zero step.
    return np.linalg.lstsq(damped, jtr, rcond=None)[0].tolist()


# A trial that overflows is rejected, and a non-finite start raises, so
# NumPy's overflow warnings along the way are noise.
@np.errstate(over="ignore", invalid="ignore")
def fit(spec: FitSpec) -> FitResult:
    """Levenberg-Marquardt on the free parameters.

    Each accepted step builds the residual r and its Jacobian J once, from
    the same logistic pair s, and solves the k x k damped normal equations
    (J^T J + lam diag(J^T J)) delta = J^T r, starting from lam = 0.1. J fills
    only the partial columns that its tie matrix reads (see
    _Objective.jacobian), and a 1 x 1 system is solved by one multiply with
    the reciprocal (see _damped_step). The trial takes delta from the free
    values read out of the current parameters, and is accepted when its ties
    assemble to finite parameters (see _Objective.assemble) and its MSE does
    not increase, so the RMSE trace is non-increasing; lam then shrinks 10x,
    to no lower than the smallest normal float. A rejected trial grows lam 10x and is retried from the same point. A run
    of rejections needs no cap: as lam grows, either delta rounds to no
    change, whose equal MSE is accepted, or lam diag(J^T J) overflows. For
    any number of free parameters, the five parameters are the only point
    carried from one step to the next, delta is a list of floats, and J^T J
    and J^T r are read as one list of floats once per step for the
    finiteness and zero-gradient tests.

    stop_reason is "tolerance" when an accepted trial improves the RMSE by
    less than spec.tolerance (the trial is not recorded); "stalled" when the
    normal equations overflow, or when the damped matrix does (lam *
    diag(J^T J) is not finite: lam only grows from there, so no step can
    follow); "zero_gradient" when J^T r is exactly zero; and "max_iters"
    after spec.max_iters accepted steps, the only stop not counted
    converged.

    Raises ValueError when spec.init breaks the ties or gives a non-finite
    error, since no step can be measured from there.
    """
    spec = coerce("spec", spec, FitSpec)
    obj = _Objective(spec)
    values = obj.assemble([getattr(spec.init, name) for name in spec.free])
    if values is None:
        raise ValueError("initial parameters violate the ties (non-finite result)")

    r, cur_mse, s = obj.residual(values)
    if not math.isfinite(cur_mse):
        raise ValueError("initial parameters give a non-finite mean squared error")
    trace = [math.sqrt(cur_mse)]
    lam = 0.1
    stop_reason = "max_iters"

    for _ in range(spec.max_iters):
        jac = obj.jacobian(values, s)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        gradient = jtr.tolist()
        if not all(map(math.isfinite, jtj.ravel().tolist() + gradient)):
            stop_reason = "stalled"
            break
        if not any(gradient):
            stop_reason = "zero_gradient"
            break
        while True:
            delta = _damped_step(jtj, jtr, lam)
            if delta is None:
                # lam only grows from here, so the damped matrix stays non-finite.
                break
            trial_values = obj.assemble([values[r] - d for r, d in zip(obj.free_rows, delta)])
            if trial_values is not None:
                trial_r, trial_mse, trial_s = obj.residual(trial_values)
                if math.isfinite(trial_mse) and trial_mse <= cur_mse:
                    # No lower than the smallest normal float, where it has
                    # long ceased to change the damped matrix: a lam of 0.0
                    # would not grow, and a rejection would repeat forever.
                    lam = max(lam / 10.0, sys.float_info.min)
                    break
            lam *= 10.0
        if delta is None:
            stop_reason = "stalled"
            break
        if math.sqrt(cur_mse) - math.sqrt(trial_mse) < spec.tolerance:
            stop_reason = "tolerance"
            break
        values, r, cur_mse, s = trial_values, trial_r, trial_mse, trial_s
        trace.append(math.sqrt(cur_mse))

    return FitResult(
        params=UafParams(*values),
        stop_reason=stop_reason,
        rmse_trace=tuple(trace),
    )


_BUILTIN_SPECS = {
    "sigmoid-family": FitSpec(
        target=SIGMOID,
        free=("A",),
        ties=(Tie("B", "recip", "A", 0.5), Tie("D", "same", "A")),
        init=UafParams(1.0, 0.5, 0.0, 1.0, 0.0),
    ),
    "tanh-family": FitSpec(
        target=TANH,
        free=("A",),
        ties=(Tie("B", "recip", "A", 1.0), Tie("D", "same", "A")),
        init=UafParams(2.0, 0.5, 0.0, 2.0, -1.0),
    ),
    "gaussian-family": FitSpec(
        target=GAUSSIAN,
        free=("C",),
        ties=(),
        init=UafParams(0.0, 0.0, -0.5, 0.0, LN2),
    ),
    # The relu RMSE decreases monotonically as A grows, so there is no finite
    # optimum; starting at the preset slope, A keeps growing until the RMSE
    # improvement per step drops below the tolerance.
    "relu-family": FitSpec(
        target=RELU,
        free=("A",),
        ties=(Tie("D", "offset", "A", -1.0),),
        init=UafParams(A_RELU, 0.0, 0.0, A_RELU - 1.0, 0.0),
    ),
}

BUILTIN_SPEC_NAMES = tuple(sorted(_BUILTIN_SPECS))


def builtin_spec(name: str) -> FitSpec:
    """Named fit family: one of sigmoid-family, tanh-family, gaussian-family,
    relu-family (each fits the single slope/shape constant with the other
    parameters tied or frozen as in the corresponding preset)."""
    try:
        return _BUILTIN_SPECS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(
            f"unknown builtin fit spec {name!r}; available: {', '.join(BUILTIN_SPEC_NAMES)}"
        ) from None
