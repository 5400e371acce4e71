"""Approximation-error analysis: critical points of E(x) = f_uaf - f_target,
interval RMSE, the eight-row RMSE summary table, and the per-family
characteristic equations whose roots certify error extrema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import logistic
from .core import PresetKind, UafParams, preset
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

# Finite-difference step for the error derivative, and the scan resolution.
_FD_H = 1e-5
_SCAN_STEP = 1e-3
_BISECT_XTOL = 1e-10
# Kinds whose target is non-smooth at 0: the scan splits there and the point
# itself is examined as a candidate extremum, not as a derivative root.
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


def _fd_derivative(p: UafParams, t: TargetActivation, xs: np.ndarray) -> np.ndarray:
    """Central finite difference of the approximation error."""
    return (
        approx_error_batch(p, t, xs + _FD_H) - approx_error_batch(p, t, xs - _FD_H)
    ) / (2.0 * _FD_H)


def _noise_floor(p: UafParams, xs: np.ndarray) -> np.ndarray:
    """Smallest finite-difference value distinguishable from rounding noise.

    The error is computed from softplus terms of magnitude ~|z1|, |z2|; their
    rounding residue (a few ulp of that magnitude) divided by 2h bounds the
    spurious derivative signal.
    """
    z1 = np.abs(p.A * (xs + p.B) + p.C * xs * xs)
    z2 = np.abs(p.D * (xs - p.B))
    mag = np.maximum.reduce([np.ones_like(xs), z1, z2, np.abs(xs)])
    return 32.0 * _EPS * mag / (2.0 * _FD_H)


def _bisect(p: UafParams, t: TargetActivation, a: float, b: float, ga: float) -> float:
    """Bisection on the FD error derivative; (a, b) brackets a sign change."""
    sa = ga > 0
    while (b - a) > _BISECT_XTOL:
        mid = 0.5 * (a + b)
        gm = float(_fd_derivative(p, t, np.array([mid]))[0])
        if gm == 0.0:
            return mid
        if (gm > 0) == sa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _scan_range(
    p: UafParams, t: TargetActivation, lo: float, hi: float
) -> list[float]:
    """Sign-change scan of the FD error derivative on [lo, hi] + bisection."""
    if hi - lo < 4.0 * _FD_H:
        return []
    n = max(3, int(round((hi - lo) / _SCAN_STEP)) + 1)
    xs = np.linspace(lo, hi, n)
    gv = _fd_derivative(p, t, xs)
    floor = _noise_floor(p, xs)
    roots: list[float] = []
    for i in range(n - 1):
        a, b = gv[i], gv[i + 1]
        fl = max(floor[i], floor[i + 1])
        if a == 0.0:
            # Exact zero on a grid node (e.g. symmetric error at x = 0):
            # count it when the neighbors genuinely change sign across it.
            if 0 < i < n - 1 and gv[i - 1] * gv[i + 1] < 0 and max(
                abs(gv[i - 1]), abs(gv[i + 1])
            ) > fl:
                roots.append(float(xs[i]))
        elif a * b < 0 and max(abs(a), abs(b)) > fl:
            roots.append(_bisect(p, t, float(xs[i]), float(xs[i + 1]), float(a)))
    return roots


def critical_points(
    p: UafParams, t: TargetActivation, interval
) -> list[tuple[float, float]]:
    """All x in the interval where the error derivative changes sign, refined
    by bisection to 1e-10, each paired with the error value there.

    For targets that are non-smooth at 0 (step, relu, leaky_relu) the scan
    splits at 0 and the point itself is treated as a candidate extremum by
    error_report, not returned here (it is not a derivative zero-crossing).
    """
    lo, hi = _check_interval(interval)
    if t.kind.name in _NONSMOOTH_AT_ZERO and lo < 0.0 < hi:
        margin = 2.0 * _FD_H
        roots = _scan_range(p, t, lo, -margin) + _scan_range(p, t, margin, hi)
    else:
        roots = _scan_range(p, t, lo, hi)
    roots.sort()
    return [(x, approx_error(p, t, x)) for x in roots]


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
    """Candidate extrema at target discontinuities/kinks inside the interval.

    The step target jumps at 0, so the one-sided error limits there
    (f(0) - 1 and f(0) - 0) are the approached suprema; relu/leaky_relu are
    continuous with a kink, so the error value at 0 itself is the candidate.
    """
    if t.kind.name not in _NONSMOOTH_AT_ZERO or not lo < 0.0 < hi:
        return []
    from .core import eval_stable

    if t.kind.name == "step":
        f0 = eval_stable(p, 0.0)
        return [(0.0, f0 - 1.0), (0.0, f0 - 0.0)]
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
