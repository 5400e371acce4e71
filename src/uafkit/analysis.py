"""Approximation-error analysis: critical points of E(x) = f_uaf - f_target,
interval RMSE, the eight-row RMSE summary table, and the per-family
characteristic equations whose roots certify error extrema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import logistic
from .core import PresetKind, UafParams, grad_batch, preset
from .targets import TargetActivation, approx_error, approx_error_batch

__all__ = [
    "ErrorReport",
    "RmseRow",
    "RmseTable",
    "critical_points",
    "interval_rmse",
    "rmse_table",
    "error_report",
    "characteristic_residual",
    "characteristic_residual_scaled",
]

# Scan resolution and bisection tolerance for the error-slope roots.
_SCAN_STEP = 1e-3
_BISECT_XTOL = 1e-10
# Most grid points a scan may take: an interval of width 1e4, such as
# [-5000, 5000]. The scan's memory grows linearly with the point count, so
# wider intervals are refused instead of being allowed to exhaust memory.
MAX_SCAN_POINTS = 10_000_001
# Kinds whose target is non-smooth at 0: the scan skips the grid cells that
# touch 0, and the point itself is examined as a candidate extremum, not as a
# slope root.
_NONSMOOTH_AT_ZERO = ("step", "relu", "leaky_relu")
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class ErrorReport:
    """Error extrema and RMSE for one (params, target) pair on an interval."""

    target: PresetKind
    params: UafParams
    critical_points: tuple[tuple[float, float], ...]
    max_abs_error: float
    max_error_locations: tuple[float, ...]
    rmse: float
    interval: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "target": {"name": self.target.name, "alpha": self.target.alpha},
            "params": self.params.to_dict(),
            "critical_points": [{"x": x, "error": e} for x, e in self.critical_points],
            "max_abs_error": self.max_abs_error,
            "max_error_locations": list(self.max_error_locations),
            "rmse": self.rmse,
            "interval": list(self.interval),
        }


@dataclass(frozen=True)
class RmseRow:
    kind: PresetKind
    rmse: float
    max_error: float
    locations: tuple[float, ...]


@dataclass(frozen=True)
class RmseTable:
    rows: tuple[RmseRow, ...]

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "kind": {"name": r.kind.name, "alpha": r.kind.alpha},
                    "rmse": r.rmse,
                    "max_error": r.max_error,
                    "locations": list(r.locations),
                }
                for r in self.rows
            ]
        }


def _check_interval(interval) -> tuple[float, float]:
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval bounds must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    return lo, hi


def _slope(p: UafParams, t: TargetActivation, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact error slope dE/dx = f'(x) - t'(x) on xs, and its rounding bound.

    f'(x) = s(z1)(A + 2Cx) - s(z2)D, so the slope sums three terms bounded by
    |A + 2Cx|, |D| and |t'(x)|; a slope below a few ulp of their total cannot
    be told from rounding noise.
    """
    dt = t.derivative(xs)
    slope = grad_batch(p, xs)[:, 0] - dt
    floor = 16.0 * _EPS * (np.abs(p.A + 2.0 * p.C * xs) + abs(p.D) + np.abs(dt))
    return slope, floor


def critical_points(
    p: UafParams, t: TargetActivation, interval
) -> list[tuple[float, float]]:
    """All x in the interval where the exact error slope changes sign, each
    paired with the error value there.

    The slope is scanned on a grid of step _SCAN_STEP, and all brackets are
    bisected together to 1e-10. Raises ValueError when the grid would take
    more than MAX_SCAN_POINTS points. A grid node where the slope is exactly 0
    between neighbours of opposite sign (gaussian's x = 0) is a root as it
    stands. For targets that are non-smooth at 0 (step, relu, leaky_relu) the
    cells touching 0 are skipped; the point itself is treated as a candidate
    extremum by error_report, not returned here.
    """
    lo, hi = _check_interval(interval)
    steps = (hi - lo) / _SCAN_STEP  # inf when the quotient overflows
    if not steps <= MAX_SCAN_POINTS - 1:
        raise ValueError(
            f"interval ({lo}, {hi}) needs {steps + 1:.6g} scan points at step {_SCAN_STEP}, "
            f"above the cap of {MAX_SCAN_POINTS}"
        )
    n = max(3, int(round(steps)) + 1)
    xs = np.linspace(lo, hi, n)
    g, floor = _slope(p, t, xs)
    keep = np.ones(n - 1, dtype=bool)
    if t.kind.name in _NONSMOOTH_AT_ZERO:
        keep = (xs[1:] < 0.0) | (xs[:-1] > 0.0)
    # Cell i is [xs[i], xs[i+1]]: a sign change counts when the larger end
    # value clears the rounding bound of both ends.
    bound = np.maximum(floor[:-1], floor[1:])
    bracket = keep & (g[:-1] * g[1:] < 0) & (np.maximum(np.abs(g[:-1]), np.abs(g[1:])) > bound)
    # Exact zero on an interior node between neighbours of opposite sign.
    node = keep[:-1] & keep[1:] & (g[1:-1] == 0.0) & (g[:-2] * g[2:] < 0)
    node &= np.maximum(np.abs(g[:-2]), np.abs(g[2:])) > bound[1:]
    i = np.flatnonzero(bracket)
    a, b, up = xs[i], xs[i + 1], g[i] > 0
    # A fixed count of halvings brings every bracket to _BISECT_XTOL, or to
    # adjacent floats where their spacing is wider (|x| > ~1e6), and ends.
    width = np.max(b - a, initial=_BISECT_XTOL)
    for _ in range(math.ceil(math.log2(width / _BISECT_XTOL))):
        mid = 0.5 * (a + b)
        same = (_slope(p, t, mid)[0] > 0) == up
        a = np.where(same, mid, a)
        b = np.where(same, b, mid)
    roots = np.sort(np.concatenate([0.5 * (a + b), xs[1:-1][node]]))
    return [(float(x), float(e)) for x, e in zip(roots, approx_error_batch(p, t, roots))]


def interval_rmse(p: UafParams, t: TargetActivation, interval, n_samples: int) -> float:
    """Root-mean-square error over n_samples uniform points incl. endpoints."""
    lo, hi = _check_interval(interval)
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    xs = np.linspace(lo, hi, n_samples)
    e = approx_error_batch(p, t, xs)
    return float(np.sqrt(np.mean(e * e)))


def _jump_candidates(
    p: UafParams, t: TargetActivation, lo: float, hi: float
) -> list[tuple[float, float]]:
    """Candidate extrema at target discontinuities/kinks in the interval.

    The step target jumps at 0, so the one-sided error limits there
    (f(0) - 1 from the right, f(0) - 0 from the left) are the approached
    suprema on each side of 0 that the interval reaches; relu/leaky_relu are
    continuous with a kink, so the error value at 0 itself is the candidate.
    """
    if t.kind.name not in _NONSMOOTH_AT_ZERO or not lo <= 0.0 <= hi:
        return []
    from .core import eval_stable

    if t.kind.name == "step":
        f0 = eval_stable(p, 0.0)
        limits = []
        if hi > 0.0:
            limits.append((0.0, f0 - 1.0))
        if lo < 0.0:
            limits.append((0.0, f0 - 0.0))
        return limits
    return [(0.0, approx_error(p, t, 0.0))]


def error_report(
    p: UafParams, t: TargetActivation, interval, n_samples: int = 2001
) -> ErrorReport:
    """Full extremum/RMSE report: critical points plus the interval endpoints
    and any discontinuity candidates, with the max taken over all of them."""
    lo, hi = _check_interval(interval)
    cps = critical_points(p, t, (lo, hi))
    candidates = list(cps)
    candidates.append((lo, approx_error(p, t, lo)))
    candidates.append((hi, approx_error(p, t, hi)))
    candidates.extend(_jump_candidates(p, t, lo, hi))
    max_abs = max(abs(e) for _, e in candidates)
    tol = max(1e-12, 1e-9 * max_abs)
    locations = sorted({x for x, e in candidates if abs(e) >= max_abs - tol})
    return ErrorReport(
        target=t.kind,
        params=p,
        critical_points=tuple(cps),
        max_abs_error=max_abs,
        max_error_locations=tuple(locations),
        rmse=interval_rmse(p, t, (lo, hi), n_samples),
        interval=(lo, hi),
    )


_TABLE_INTERVAL = (-10.0, 10.0)
_TABLE_ORDER = (
    PresetKind("identity"),
    PresetKind("step"),
    PresetKind("relu"),
    PresetKind("leaky_relu", 0.1),
    PresetKind("sigmoid"),
    PresetKind("tanh"),
    PresetKind("softplus"),
    PresetKind("gaussian"),
)


def rmse_table(n_samples: int = 2001) -> RmseTable:
    """One row per preset on [-10, 10]: RMSE, max |error|, and its locations.

    leaky_relu uses alpha = 0.1.
    """
    rows = []
    for kind in _TABLE_ORDER:
        rep = error_report(preset(kind), TargetActivation(kind), _TABLE_INTERVAL, n_samples)
        rows.append(
            RmseRow(
                kind=kind,
                rmse=rep.rmse,
                max_error=rep.max_abs_error,
                locations=rep.max_error_locations,
            )
        )
    return RmseTable(rows=tuple(rows))


def _char_terms(kind: PresetKind, p: UafParams, x: float) -> list[float]:
    """Additive terms of the family's characteristic equation at x.

    The equations locate error extrema: each is the cleared-denominator form
    of dE/dx = 0 for that family. relu and leaky_relu have distinct positive-
    and negative-branch equations; x >= 0 selects the positive branch.
    """
    x = float(x)
    with np.errstate(over="ignore"):
        if kind.name == "sigmoid":
            A = p.A
            e = np.float64(math.e)
            t1 = (e - 1.0) * A * (np.exp(x) + 1.0) ** 2 * np.exp(A * x - 0.5)
            t2 = np.exp(x) * (np.exp(A * x - 0.5) + 1.0) * (-np.exp(A * x + 0.5) - 1.0)
            return [float(t1), float(t2)]
        if kind.name == "tanh":
            A = p.A
            ex = np.exp
            return [
                float(-A * ex(A * x - 1)),
                float(A * ex(A * x + 1)),
                float(-2 * A * ex(A * x + 2 * x - 1)),
                float(2 * A * ex(A * x + 2 * x + 1)),
                float(-A * ex(A * x + 4 * x - 1)),
                float(A * ex(A * x + 4 * x + 1)),
                float(-4 * ex(A * x + 2 * x - 1)),
                float(-4 * ex(A * x + 2 * x + 1)),
                float(-4 * ex(2 * A * x + 2 * x)),
                float(-4 * ex(2 * x)),
            ]
        if kind.name == "relu":
            A = p.A
            if x >= 0:
                return [
                    float((A - 1.0) * np.exp(A * x)),
                    float(-A * np.exp((A - 1.0) * x)),
                    -1.0,
                ]
            return [
                float(A * np.exp(x)),
                float(np.exp(A * x)),
                1.0,
                -A,
            ]
        if kind.name == "leaky_relu":
            a = kind.alpha
            if x >= 0:
                return [
                    float((a - 1.0) * np.exp(-a * x)),
                    float(a * np.exp(x - a * x)),
                    -1.0,
                ]
            return [
                float(-a * np.exp(x)),
                -a,
                float(np.exp(x - a * x)),
                float(np.exp(x)),
            ]
        if kind.name == "gaussian":
            C = p.C
            z = C * x * x
            # 2Cx e^z / (1 + e^z) = 2Cx * logistic(z), computed overflow-safe.
            t1 = 2.0 * C * x * float(logistic(np.array([z]))[0])
            t2 = x * math.log(2.0) * math.exp(-0.5 * x * x)
            return [t1, t2]
    raise ValueError(
        f"no characteristic equation for target kind {kind.name!r}; "
        "available: sigmoid, tanh, relu, leaky_relu, gaussian"
    )


def characteristic_residual(kind: PresetKind, p: UafParams, x: float) -> float:
    """Left-hand side of the family's characteristic equation at (p, x).

    A root certifies a critical point of the approximation error. Only
    sigmoid, tanh, relu, leaky_relu, and gaussian have such equations; other
    kinds are rejected. Terms grow exponentially with |x|, so the raw value
    can overflow to +/-inf far from the roots of interest; see
    characteristic_residual_scaled for a bounded variant.
    """
    return float(sum(_char_terms(kind, p, x)))


def characteristic_residual_scaled(kind: PresetKind, p: UafParams, x: float) -> float:
    """Characteristic residual divided by its largest additive term.

    Near a root the raw terms cancel; scaling by the dominant magnitude gives
    a dimensionless residual comparable across x (0 when all terms vanish).
    """
    terms = _char_terms(kind, p, x)
    top = max(abs(v) for v in terms)
    if top == 0.0:
        return 0.0
    return float(sum(terms) / top)
