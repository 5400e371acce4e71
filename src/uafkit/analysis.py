"""Approximation-error analysis: critical points of E(x) = f_uaf - f_target,
interval RMSE, the eight-row RMSE summary table, and the per-family
characteristic equations whose roots certify error extrema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import logistic
from ._kernels import uaf_slope as _k_slope
from ._kernels import uaf_terms as _k_terms
from .core import KINDS, MAX_POINTS, PresetKind, UafParams, coerce, coerce_interval, eval_stable, grid, preset
from .targets import approx_error, approx_error_batch

__all__ = [
    "ErrorReport",
    "critical_points",
    "interval_rmse",
    "rmse_table",
    "error_report",
    "characteristic_residual_scaled",
]

# Scan resolution and bisection tolerance for the error-slope roots.
_SCAN_STEP = 1e-3
_BISECT_XTOL = 1e-10
# Nodes per scan block: the block's arrays stay small enough for the
# allocator to reuse their memory instead of mapping fresh pages each call.
# interval_rmse sums its blocks where NumPy's pairwise summation splits, so
# a block must be at least NumPy's 128-value pairwise leaf.
_SCAN_BLOCK = 4096
# Halvings per bisection pass: 2**8 - 1 midpoints per bracket, one kernel call.
_TREE_LEVELS = 8
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
            "target": self.target.to_dict(),
            "params": self.params.to_dict(),
            "critical_points": [{"x": x, "error": e} for x, e in self.critical_points],
            "max_abs_error": self.max_abs_error,
            "max_error_locations": list(self.max_error_locations),
            "rmse": self.rmse,
            "interval": list(self.interval),
        }


def _slope(
    p: UafParams, t: PresetKind, xs: np.ndarray, xmax: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact error slope dE/dx = f'(x) - t'(x) on xs, and t'(x); every
    |x| <= xmax (see _kernels.uaf_terms)."""
    dt = t.derivative(xs)
    s = logistic(*_k_terms(xs, p.A, p.B, p.C, p.D, xmax=xmax))
    return _k_slope(xs, p.A, p.B, p.C, p.D, s) - dt, dt


def _scan(p: UafParams, t: PresetKind, xs: np.ndarray, first_cell: int, xmax: float):
    """Brackets and exact-zero nodes of the slope on the grid nodes xs.

    Cells before first_cell and the two end nodes belong to the neighbouring
    blocks. Returns (a, b, up, nodes): the cells [a, b] where the slope
    changes sign, whether it is positive at a, and the interior nodes where
    it is exactly 0 between neighbours of opposite sign.
    """
    g, dt = _slope(p, t, xs, xmax)
    # Cell i is [xs[i], xs[i+1]]: the cells where the slope changes sign, and
    # the interior nodes where it is exactly 0 between neighbours of opposite
    # sign. A block with neither has nothing for the bounds below to accept.
    # The signs are compared, not multiplied: the product of two slopes can
    # underflow to 0 or overflow.
    pos, neg = g > 0.0, g < 0.0
    cells = (pos[:-1] & neg[1:]) | (neg[:-1] & pos[1:])
    cells[:first_cell] = False
    zeros = (g[1:-1] == 0.0) & ((pos[:-2] & neg[2:]) | (neg[:-2] & pos[2:]))
    if not (cells.any() or zeros.any()):
        return xs[:0], xs[:0], cells[:0], xs[:0]
    # f'(x) = s(z1)(A + 2Cx) - s(z2)D, so the slope sums three terms bounded
    # by |A + 2Cx|, |D| and |t'(x)|; a slope below a few ulp of their total
    # cannot be told from rounding noise.
    floor = 16.0 * _EPS * (np.abs(p.A + 2.0 * p.C * xs) + abs(p.D) + np.abs(dt))
    keep = np.ones(xs.size - 1, dtype=bool)
    # A target with a jump or kink at 0: the cells that touch 0 are skipped,
    # and the point itself is a candidate of error_report, not a root.
    if KINDS[t.name].at_zero is not None:
        keep = (xs[1:] < 0.0) | (xs[:-1] > 0.0)
    # An event counts when the larger neighbouring value clears the rounding
    # bound of both ends of its cell.
    bound = np.maximum(floor[:-1], floor[1:])
    bracket = keep & cells & (np.maximum(np.abs(g[:-1]), np.abs(g[1:])) > bound)
    node = keep[:-1] & keep[1:] & zeros
    node &= np.maximum(np.abs(g[:-2]), np.abs(g[2:])) > bound[1:]
    i = np.flatnonzero(bracket)
    return xs[i], xs[i + 1], pos[i], xs[1:-1][node]


def _bisect(p: UafParams, t: PresetKind, a, b, up, halvings: int, xmax: float) -> np.ndarray:
    """Midpoints of the brackets [a, b] after a fixed count of halvings; up
    says whether the slope is positive at a, and xmax bounds |a| and |b|.

    Each pass takes _TREE_LEVELS halvings at once. It forms every point those
    levels could reach, level by level, with the same 0.5 * (a + b) of the
    same ends that one halving at a time would take, evaluates the slope at
    all of them in one call, and then walks the sign decisions. Brackets go
    in groups that keep each call within one scan block.
    """
    group = max(1, _SCAN_BLOCK >> _TREE_LEVELS)
    roots = [np.empty(0)]
    for k in range(0, a.size, group):
        a_k, b_k, up_k = a[k : k + group], b[k : k + group], up[k : k + group, None]
        for done in range(0, halvings, _TREE_LEVELS):
            levels = min(halvings - done, _TREE_LEVELS)
            width = 1 << levels
            pts = np.empty((a_k.size, width + 1))
            pts[:, 0], pts[:, -1] = a_k, b_k
            for step in (width >> level for level in range(levels)):
                pts[:, step // 2 :: step] = 0.5 * (pts[:, :-1:step] + pts[:, step::step])
            pts = pts.ravel()
            same = ((_slope(p, t, pts, xmax)[0] > 0).reshape(a_k.size, -1) == up_k).ravel()
            at = np.arange(a_k.size) * (width + 1)  # each bracket's left end
            for level in range(1, levels + 1):
                half = width >> level
                at += half * same[at + half]
            a_k, b_k = pts[at], pts[at + 1]
        roots.append(0.5 * (a_k + b_k))
    return np.concatenate(roots)


def critical_points(
    p: UafParams, t: PresetKind, interval
) -> list[tuple[float, float]]:
    """All x in the interval where the exact error slope changes sign, each
    paired with the error value there.

    The slope is scanned on a grid of step _SCAN_STEP, in blocks of
    _SCAN_BLOCK nodes so that memory does not grow with the interval, and
    all brackets are bisected together to 1e-10. Raises ValueError when the
    grid would take more than core.MAX_POINTS points. A grid node where the
    slope is exactly 0 between neighbours of opposite sign (gaussian's x = 0)
    is a root as it stands. For targets that are non-smooth at 0 (step, relu,
    leaky_relu) the cells touching 0 are skipped; the point itself is treated
    as a candidate extremum by error_report, not returned here.
    """
    p, t = coerce("p", p, UafParams), coerce("t", t, PresetKind)
    lo, hi = coerce_interval("interval", interval)
    steps = (hi - lo) / _SCAN_STEP  # inf when the quotient overflows
    if not steps <= MAX_POINTS - 1:
        raise ValueError(
            f"interval ({lo}, {hi}) needs {steps + 1:.6g} scan points at step {_SCAN_STEP}, "
            f"above the cap of {MAX_POINTS}"
        )
    n = max(3, int(round(steps)) + 1)
    # Every scan node and bisection point lies in [lo, hi].
    xmax = max(abs(lo), abs(hi))
    # Consecutive blocks share two nodes, so that every cell and every
    # interior node is judged once, with both of its neighbours in view.
    found = [
        _scan(p, t, grid(lo, hi, n, i0, min(i0 + _SCAN_BLOCK, n)), 1 if i0 else 0, xmax)
        for i0 in range(0, n - 2, _SCAN_BLOCK - 2)
    ]
    a, b, up, nodes = (np.concatenate(parts) for parts in zip(*found))
    # A fixed count of halvings brings every bracket to _BISECT_XTOL, or to
    # adjacent floats where their spacing is wider (|x| > ~1e6), and ends.
    width = np.max(b - a, initial=_BISECT_XTOL)
    halvings = math.ceil(math.log2(width / _BISECT_XTOL))
    roots = np.sort(np.concatenate([_bisect(p, t, a, b, up, halvings, xmax), nodes]))
    return [(float(x), float(e)) for x, e in zip(roots, approx_error_batch(p, t, roots))]


def interval_rmse(p: UafParams, t: PresetKind, interval, n_samples: int) -> float:
    """Root-mean-square error over n_samples uniform points incl. endpoints.

    The points are taken in blocks of at most _SCAN_BLOCK, so that memory
    does not grow with n_samples. The blocks split the sum of squared errors
    where NumPy's pairwise summation splits one array of all of them (half
    the range, rounded down to a multiple of 8), so the result is bitwise
    that of summing them at once.
    """
    p, t = coerce("p", p, UafParams), coerce("t", t, PresetKind)
    lo, hi = coerce_interval("interval", interval)
    n = coerce("n_samples", n_samples, int, minimum=2, maximum=MAX_POINTS)

    def total(i0: int, i1: int) -> float:
        if i1 - i0 <= _SCAN_BLOCK:
            e = approx_error_batch(p, t, grid(lo, hi, n, i0, i1))
            return (e * e).sum()
        half = (i1 - i0) // 2
        mid = i0 + half - half % 8
        return total(i0, mid) + total(mid, i1)

    return float(np.sqrt(total(0, n) / n))


def error_report(
    p: UafParams, t: PresetKind, interval, n_samples: int = 2001
) -> ErrorReport:
    """Full extremum/RMSE report: the max error over the candidates, with the
    interval RMSE.

    The candidates are the roots of the error slope, the two ends and, when
    the interval holds 0, the error at a kink (relu, leaky_relu) or the
    one-sided limits of a jump (step) that the interval reaches.
    """
    p, t = coerce("p", p, UafParams), coerce("t", t, PresetKind)
    lo, hi = coerce_interval("interval", interval)
    # read before the scan, so that a bad count fails at once
    n_samples = coerce("n_samples", n_samples, int, minimum=2, maximum=MAX_POINTS)
    cps = critical_points(p, t, (lo, hi))
    e_lo, e_hi = approx_error_batch(p, t, [lo, hi])
    candidates = [*cps, (lo, float(e_lo)), (hi, float(e_hi))]
    if lo <= 0.0 <= hi:
        at_zero = KINDS[t.name].at_zero
        if at_zero == "kink":
            # the target is continuous there: the error at 0 itself
            candidates.append((0.0, approx_error(p, t, 0.0)))
        elif at_zero == "jump":
            # step jumps from 0 to 1: the error's limits from the right and
            # from the left are suprema that no point attains
            f0 = eval_stable(p, 0.0)
            if hi > 0.0:
                candidates.append((0.0, f0 - 1.0))
            if lo < 0.0:
                candidates.append((0.0, f0 - 0.0))
    max_abs = max(abs(e) for _, e in candidates)
    tol = max(1e-12, 1e-9 * max_abs)
    locations = sorted({x for x, e in candidates if abs(e) >= max_abs - tol})
    return ErrorReport(
        target=t,
        params=p,
        critical_points=tuple(cps),
        max_abs_error=max_abs,
        max_error_locations=tuple(locations),
        rmse=interval_rmse(p, t, (lo, hi), n_samples),
        interval=(lo, hi),
    )


_TABLE_INTERVAL = (-10.0, 10.0)
_TABLE_ORDER = tuple(map(PresetKind.from_name, (
    "identity", "step", "relu", "leaky_relu", "sigmoid", "tanh", "softplus", "gaussian",
)))


def rmse_table(n_samples: int = 2001) -> tuple[ErrorReport, ...]:
    """The eight presets' ErrorReports on [-10, 10], in table order: each
    preset against its own target. leaky_relu uses alpha = 0.1.
    """
    return tuple(
        error_report(preset(kind), kind, _TABLE_INTERVAL, n_samples) for kind in _TABLE_ORDER
    )


def _char_terms(kind: PresetKind, p: UafParams, x: float) -> list[float]:
    """Additive terms of the family's characteristic equation at x.

    The equations locate error extrema: each is the cleared-denominator form
    of dE/dx = 0 for that family. relu and leaky_relu have distinct positive-
    and negative-branch equations; x >= 0 selects the positive branch.
    """
    kind, p = coerce("kind", kind, PresetKind), coerce("p", p, UafParams)
    x = coerce("x", x, float)
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
                # divided by e^{Ax}, so that no term overflows
                return [A - 1.0, float(-A * np.exp(-x)), float(-np.exp(-A * x))]
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


def characteristic_residual_scaled(kind: PresetKind, p: UafParams, x: float) -> float:
    """Left-hand side of the family's characteristic equation at (p, x),
    divided by its largest additive term.

    A root certifies a critical point of the approximation error. Only
    sigmoid, tanh, relu, leaky_relu, and gaussian have such equations; other
    kinds are rejected. Near a root the terms cancel; scaling by the dominant
    magnitude gives a dimensionless residual comparable across x (0 when all
    terms vanish).
    At the presets it is finite on [-10, 10] for all five families. Beyond,
    it is NaN where a term overflows (sigmoid x >= 234.5, tanh x >= 113.5,
    leaky_relu x >= 789), and an exact 0.0 that is not a root where every
    term underflows (sigmoid x <= -745.5, tanh x <= -373, gaussian
    |x| >= 39).
    """
    terms = _char_terms(kind, p, x)
    top = max(abs(v) for v in terms)
    if top == 0.0:
        return 0.0
    return float(sum(terms) / top)
