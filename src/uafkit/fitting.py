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
the rest +0.0 for the tie matrix's zero rows (unless a column may hold inf,
whose product with 0.0 is NaN). The 1 x 1 system of a one-parameter fit is
solved as b * (1 / m), which is what LAPACK's lstsq computes for it. Both
keep every result bitwise what all five columns and lstsq give.

What does not change between iterations is built once per fit: the tie
matrix, of which only the recip slopes are refilled at each theta, and the
parameters pinned by spec.init or a const tie. What is parameter-sized
travels as Python floats: theta and each step as lists, the five parameters
as a tuple, and the normal equations, for the finiteness and zero-gradient
tests, as one list. NumPy forms the n-point residual and Jacobian and the
normal equations, and solves the k x k system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import logistic
from ._kernels import uaf_eval as _k_eval
from ._kernels import uaf_partials as _k_partials
from ._kernels import uaf_terms as _k_terms
from .core import (
    GAUSSIAN, LN2, MAX_POINTS, PARAM_NAMES, A_RELU, RELU, SIGMOID, TANH, JsonConfig, PresetKind,
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
    pinned, and the sample grid / solver settings."""

    target: PresetKind
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
        coerce_field(self, "n_samples", int, minimum=2, maximum=MAX_POINTS)
        check_size("n_samples x the five parameter partials", self.n_samples, 5)
        coerce_field(self, "max_iters", int, minimum=0)
        if coerce_field(self, "learning_rate", float) <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
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
        # lets the kernel skip exp's underflow lanes, and jacobian's bounds on
        # the unread partials.
        self.grid_max = max(abs(lo), abs(hi))
        self.tvals = target_eval_batch(spec.target, self.grid)
        # What assemble starts from: spec.init with the const ties applied.
        # theta[i] goes to row self.free_rows[i]; every other tie sets its row
        # from its source's, which is a free row.
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
        # The tie matrix d(A..E)/d(theta): 1 on each free parameter's own row
        # and the tie slope on the row of every parameter tied to it. Only a
        # recip slope depends on theta; jacobian fills those (row, column).
        column = {r: i for i, r in enumerate(self.free_rows)}
        self.chain = np.zeros((len(PARAM_NAMES), len(spec.free)))
        for r, i in column.items():
            self.chain[r, i] = 1.0
        self.recip = []
        for r, source, tie in self.ties:
            if tie.kind == "recip":
                self.recip.append((r, column[source], tie))
            else:
                self.chain[r, column[source]] = tie.d_source(0.0)

    def assemble(self, theta: list[float]) -> tuple[float, ...] | None:
        """The five parameters as floats for the given free values; None
        when a tie divides by zero or any of them is not finite."""
        values = self.fixed.copy()
        for r, value in zip(self.free_rows, theta):
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

    def jacobian(self, values: tuple, theta: list[float], s: np.ndarray) -> np.ndarray:
        """(n, k) matrix d r / d theta: the kernel's parameter partials times
        the tie matrix self.chain, whose recip slopes are taken at theta.
        s is the logistic pair that residual(values) returned.

        Only the partials of self.read are computed; the others are +0.0, so
        that 0.0 times their zero row of chain adds nothing, as a finite
        partial does. A partial is computed anyway where its bound is not
        finite, since inf times 0.0 is NaN. With s = logistic in [0, 1]
        (finite where the mean square is), the bounds are grid_max + |B| for
        dA and dD, |A| + |D| for dB and grid_max^2 for dC; dE is 1."""
        A, B, C, D = values[:4]
        read = self.read
        if not all(read):
            shift = self.grid_max + abs(B)
            bounds = (shift, abs(A) + abs(D), self.grid_max * self.grid_max, shift, 1.0)
            # The bounds are >= 0, so a finite sum means all are finite.
            if not math.isfinite(sum(bounds)):
                read = tuple(r or not math.isfinite(b) for r, b in zip(read, bounds))
        chain = self.chain
        if self.recip:
            chain = chain.copy()
            for r, i, tie in self.recip:
                chain[r, i] = tie.d_source(theta[i])
        return _k_partials(self.grid, A, B, C, D, s, read=read) @ chain


# dgelsd, which lstsq calls, scales a matrix or right-hand side whose largest
# magnitude lies outside [2^-970, 2^970] (its SMLNUM and BIGNUM); a 1 x 1
# system inside that range it solves as b * (1 / m).
_UNSCALED = (2.0**-970, 2.0**970)


def _damped_step(jtj: np.ndarray, jtr: np.ndarray, lam: float) -> list[float] | None:
    """delta solving (jtj + lam diag(jtj)) delta = jtr, as a list of floats
    bitwise as lstsq gives it, or None when that damped matrix is not finite
    (jtj and jtr are). For k = 1 with m = jtj + lam jtj and b = jtr both in
    _UNSCALED, delta is b * (1 / m) without the SVD; any other system goes
    to lstsq."""
    if jtr.shape[0] == 1:
        j, b = jtj.item(), jtr.item()
        m = j + lam * j
        lo, hi = _UNSCALED
        if lo <= abs(m) <= hi and lo <= abs(b) <= hi:
            return [b * (1.0 / m)]
        if not math.isfinite(m):
            return None
        damped = np.array([[m]])
    else:
        damped = jtj + lam * np.diag(np.diag(jtj))
        if not np.isfinite(damped).all():
            return None
    # lstsq, not solve: a parameter with no effect on the residual leaves a
    # zero row and column, and gets a zero step.
    return np.linalg.lstsq(damped, jtr, rcond=None)[0].tolist()


# Consecutive rejected trials before the fit stops as stalled: the damping has
# grown 1e30-fold, so the step is far below the resolution of the parameters.
_MAX_REJECTIONS = 30


# A trial that overflows is rejected, and a non-finite start raises, so
# NumPy's overflow warnings along the way are noise.
@np.errstate(over="ignore", invalid="ignore")
def fit(spec: FitSpec) -> FitResult:
    """Levenberg-Marquardt on the free parameters.

    Each accepted step builds the residual r and its Jacobian J once, from
    the same logistic pair s, and solves the k x k damped normal equations
    (J^T J + lam diag(J^T J)) delta = J^T r, starting from
    lam = spec.learning_rate. J fills only the partial columns that its tie
    matrix reads (see _Objective.jacobian), and a 1 x 1 system is solved by
    one multiply with the reciprocal, bitwise as lstsq solves it (see
    _damped_step). The trial theta - delta is accepted when its ties
    assemble to finite parameters (see _Objective.assemble) and its MSE does
    not increase, so the RMSE trace is non-increasing; lam then shrinks 10x.
    A rejected trial grows lam 10x and is retried from the same point. For
    any number of free parameters, theta and delta are lists of floats, and
    J^T J and J^T r are read as one list of floats once per step for the
    finiteness and zero-gradient tests.

    stop_reason is "tolerance" when an accepted trial improves the RMSE by
    less than spec.tolerance (the trial is not recorded); "stalled" after
    _MAX_REJECTIONS rejected trials in a row, when the normal equations
    overflow, or when the damped matrix does (lam * diag(J^T J) is not
    finite: lam only grows from there, so no step can follow);
    "zero_gradient" when J^T r is exactly zero; and "max_iters" after
    spec.max_iters accepted steps, the only stop not counted converged.

    Raises ValueError when spec.init breaks the ties or gives a non-finite
    error, since no step can be measured from there.
    """
    spec = coerce("spec", spec, FitSpec)
    obj = _Objective(spec)
    theta = [getattr(spec.init, name) for name in spec.free]
    values = obj.assemble(theta)
    if values is None:
        raise ValueError("initial parameters violate the ties (non-finite result)")

    r, cur_mse, s = obj.residual(values)
    if not math.isfinite(cur_mse):
        raise ValueError("initial parameters give a non-finite mean squared error")
    trace = [math.sqrt(cur_mse)]
    lam = spec.learning_rate
    stop_reason = "max_iters"

    for _ in range(spec.max_iters):
        jac = obj.jacobian(values, theta, s)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        gradient = jtr.tolist()
        if not all(map(math.isfinite, jtj.ravel().tolist() + gradient)):
            stop_reason = "stalled"
            break
        if not any(gradient):
            stop_reason = "zero_gradient"
            break
        for _trial in range(_MAX_REJECTIONS):
            delta = _damped_step(jtj, jtr, lam)
            if delta is None:
                # lam only grows from here, so the damped matrix stays non-finite.
                break
            trial_theta = [t - d for t, d in zip(theta, delta)]
            trial_values = obj.assemble(trial_theta)
            if trial_values is not None:
                trial_r, trial_mse, trial_s = obj.residual(trial_values)
                if math.isfinite(trial_mse) and trial_mse <= cur_mse:
                    lam /= 10.0
                    break
            lam *= 10.0
        else:
            delta = None
        if delta is None:
            stop_reason = "stalled"
            break
        if math.sqrt(cur_mse) - math.sqrt(trial_mse) < spec.tolerance:
            stop_reason = "tolerance"
            break
        theta, values, r, cur_mse, s = trial_theta, trial_values, trial_r, trial_mse, trial_s
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
