"""The elementwise kernels every layer reaches the UAF through: evaluation
(``uaf_eval``), its six first derivatives (``uaf_grad``), the five parameter
partials alone (``uaf_partials``), the x-derivative alone (``uaf_slope``),
the terms they are built from (``uaf_terms``), and the overflow-safe
``softplus`` and ``logistic``, which ``core.KINDS`` also uses.

The terms of n points are the pair (z, e): z one stacked (2, n) buffer
holding z1 = A(x+B)+Cx^2 in row 0 and z2 = D(x-B) in row 1, and
e = e^{-|z|} stacked alike. They hold only what the exponentials need; the
points themselves always come from the caller, and the partials that read
x+B or x-B form it again, one add each. The terms are single-use: uaf_eval
forms the value in place over them. Every derivative reads instead the
logistic pair s = logistic(*terms), stacked alike (s(z1) in row 0, s(z2) in
row 1), which a caller that needs the value and the derivatives at the same
points (the fitter's residual and Jacobian, the network's activation
forward and backward) takes from the terms before uaf_eval consumes them.
Each pass takes exp, softplus and logistic once over all 2n elements.

uaf_partials and uaf_slope are columns 1-5 and column 0 of uaf_grad by
construction: uaf_grad has uaf_partials write its columns 1-5 (``out=``)
and stores uaf_slope's array in column 0. Each derivative is formed as one
contiguous array that is then stored into its column. NumPy may pick
another loop for a strided output than for a contiguous one, and where both
operands are NaN the two loops need not return the same NaN; forming every
derivative contiguously keeps the columns the same bits as the slope under
every dispatch target.

``uaf_partials(..., read=)`` fills only the partial columns its caller
reads and leaves the others +0.0: the fitter's tie matrix multiplies most
of the five by zero rows.

A caller that knows its points are finite and bounded in |x| passes that
bound to uaf_terms, the only kernel that takes it. When the parameters let
some |z| pass -_EXP_ZERO, e is then taken with a masked exp that leaves 0.0
on the lanes where exp underflows, skipping NumPy's slow path for them
(about 8x slower than a normal lane). Those lanes would have been 0.0
anyway. With the bound given and C = +-0.0, z1 also skips the Cx^2 pass:
for finite x, (Cx)x is C's own signed zero, so z1 = A(x+B) + C. For finite
points, then, the bound picks a path and never changes a bit; without it
the unmasked exp, faster where nothing underflows, and the full z1 are
always taken.

Everything here takes its points as a contiguous 1-d float64 array, which
every caller already holds, and returns freshly allocated arrays. Two
inputs are written to: uaf_eval's terms, and uaf_slope's s(z2), which it
scales by D. At n ~ 1e4 each live temporary array costs page faults on
every call, so a kernel drops the terms it computed itself once those are
used, and a caller holds s, not the terms, past the value. Every product
keeps the operand order of its formula (s(z1) * (A + 2Cx), not
(A + 2Cx) * s(z1)): where both operands are NaN, the first one's sign bit is
the result's. Two rules keep that order and the memory peak:

1. A product whose right operand is a temporary is written
   np.multiply(s1, xs + B), not s1 * (xs + B). From 32,768 points NumPy
   reuses a temporary operand for the result, and takes s1 * (xs + B) as
   (xs + B) *= s1, which swaps the operands. df/dx writes its product into
   that temporary itself, np.multiply(s1, t, out=t): one fresh array fewer,
   at the sizes where each one costs page faults.
2. No product outlives the column it is formed for: the dB column takes
   s(z2)D in its own expression, and df/dx scales s[1] by D in place. So
   the partials go in any order at the same peak, and a caller that needs
   both calls uaf_partials before uaf_slope, which leaves s[1] scaled.

The public batch functions take up to core.MAX_POINTS points and go through
``in_blocks`` (core's eval_batch and grad_batch, and targets'
target_eval_batch, target_derivative_batch and approx_error_batch), so that
the temporaries of one call stay under 10 MB at any n.
"""

from __future__ import annotations

import numpy as np

# Most points in_blocks hands one kernel call: a piece's arrays are 512 KB
# each (the stacked ones 1 MB), under 10 MB of temporaries in all. Each
# split costs a copy of the result and another call's overhead (7% at
# 20,001 points split at 16,384), so moderate sizes stay whole.
BATCH_BLOCK = 65536

# ln 2^-1075: np.exp gives the subnormal 5e-324 here and 0.0 for every
# argument below it.
_EXP_ZERO = -745.1332191019411

# uaf_partials' default read mask: all five columns, (dA, dB, dC, dD, dE).
ALL_PARTIALS = (True,) * 5


def in_blocks(fn, xs: np.ndarray, *args) -> np.ndarray:
    """fn(xs, *args) for an fn that works point by point (row i of its result
    depends on xs[i] alone), taken in pieces of at most BATCH_BLOCK points
    written into one result: bitwise equal to a single call, with fn's
    temporaries bounded by the piece instead of growing with len(xs)."""
    n = xs.shape[0]
    if n <= BATCH_BLOCK:
        return fn(xs, *args)
    first = fn(xs[:BATCH_BLOCK], *args)
    out = np.empty((n,) + first.shape[1:], dtype=first.dtype)
    out[:BATCH_BLOCK] = first
    for i in range(BATCH_BLOCK, n, BATCH_BLOCK):
        out[i : i + BATCH_BLOCK] = fn(xs[i : i + BATCH_BLOCK], *args)
    return out


def softplus(z: np.ndarray) -> np.ndarray:
    """Overflow-safe softplus: max(z, 0) + log1p(e^{-|z|})."""
    out = np.maximum(z, 0.0)
    out += np.log1p(np.exp(-np.abs(z)))
    return out


def logistic(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic sigma(z) = 1 / (1 + e^{-z}), from e = e^{-|z|}
    (computed when not given): 1 / (1 + e) for z >= 0 and e / (1 + e) below.
    Neither input is written to, so logistic(*terms) leaves the terms for
    uaf_eval."""
    if e is None:
        e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def uaf_terms(
    xs: np.ndarray, A: float, B: float, C: float, D: float, xmax: float | None = None
) -> tuple:
    """(z, e) as laid out in the module docstring: what uaf_eval consumes
    and logistic turns into the s that uaf_grad, uaf_partials and uaf_slope
    read, so that a caller needing the value and a derivative at the same
    points computes the terms once. xs is not kept.

    xmax is the caller's promise that every x is finite and |x| <= xmax.
    From it and the parameters alone, |z1| <= |A|(xmax + |B|) + |C|xmax^2
    and |z2| <= |D|(xmax + |B|); when either bound passes -_EXP_ZERO, the
    lanes where -|z| < _EXP_ZERO get e = +0.0 without going through exp.
    When C == 0.0, z1 adds C in place of Cx^2, which finite x makes the
    same signed zero. For finite xs the result is bitwise the same for any
    xmax, None included: a wrong bound only picks the slower path. A
    non-finite x needs xmax=None."""
    z = np.empty((2,) + xs.shape)
    np.add(xs, B, out=z[0])
    np.multiply(A, z[0], out=z[0])
    if xmax is not None and C == 0.0:
        z[0] += C  # for finite x, (Cx)x is C's own signed zero
    else:
        np.multiply(C, xs, out=z[1])  # Cx^2, in the row z2 fills next
        z[1] *= xs
        z[0] += z[1]
    np.subtract(xs, B, out=z[1])
    np.multiply(D, z[1], out=z[1])
    a = np.abs(z)
    np.negative(a, out=a)
    if xmax is not None and max(
        abs(A) * (xmax + abs(B)) + abs(C) * xmax * xmax, abs(D) * (xmax + abs(B))
    ) > -_EXP_ZERO:
        # Not "a >= _EXP_ZERO": a NaN lane goes through exp as before.
        lanes = np.less(a, _EXP_ZERO)
        np.logical_not(lanes, out=lanes)
        e = np.zeros_like(a)
        np.exp(a, out=e, where=lanes)
    else:
        e = np.exp(a, out=a)
    return z, e


def uaf_eval(
    xs: np.ndarray, A: float, B: float, C: float, D: float, E: float, terms: tuple | None = None
) -> np.ndarray:
    """Stable elementwise f(x) = softplus(A(x+B)+Cx^2) - softplus(D(x-B)) + E.
    terms, from uaf_terms on the same xs and parameters, saves computing
    them, and are consumed: softplus is formed in place over z and e."""
    z, e = uaf_terms(xs, A, B, C, D) if terms is None else terms
    sp = np.maximum(z, 0.0, out=z)
    sp += np.log1p(e, out=e)
    out = sp[0] - sp[1]
    out += E
    return out


def uaf_grad(xs: np.ndarray, A: float, B: float, C: float, D: float, E: float) -> np.ndarray:
    """Elementwise first derivatives of the UAF.

    Returns an (n, 6) array with columns (df/dx, df/dA, df/dB, df/dC, df/dD,
    df/dE), where with z1 = A(x+B)+Cx^2, z2 = D(x-B), s = logistic:

        df/dx = s(z1)(A + 2Cx) - s(z2)D
        df/dA = s(z1)(x + B)
        df/dB = s(z1)A + s(z2)D
        df/dC = s(z1)x^2
        df/dD = -s(z2)(x - B)
        df/dE = 1
    """
    s = logistic(*uaf_terms(xs, A, B, C, D))
    out = np.empty((xs.shape[0], 6), dtype=np.float64)
    uaf_partials(xs, A, B, C, D, s, out=out[:, 1:])
    out[:, 0] = uaf_slope(xs, A, B, C, D, s)
    return out


def uaf_partials(
    xs: np.ndarray, A: float, B: float, C: float, D: float, s: np.ndarray,
    read: tuple[bool, ...] = ALL_PARTIALS, out: np.ndarray | None = None,
) -> np.ndarray:
    """The (n, 5) parameter partials (df/dA, ..., df/dE) of uaf_grad's
    docstring alone, bitwise equal to its columns 1-5: the fitter's Jacobian
    needs no df/dx. s is logistic(*terms) at the same xs and parameters, left
    unchanged. The columns follow the module docstring's two rules.

    read marks, in that order, the columns the caller reads. Those are
    bitwise the columns of uaf_grad; every other column is +0.0, even where
    the partial itself would be inf or NaN. out, an (n, 5) array, takes the
    read columns in place of a new array and keeps the others as they are;
    uaf_grad passes its columns 1-5."""
    if out is None:
        out = (np.empty if all(read) else np.zeros)((xs.shape[0], 5), dtype=np.float64)
    s1, s2 = s
    read_a, read_b, read_c, read_d, read_e = read
    if read_a:
        out[:, 0] = np.multiply(s1, xs + B)
    if read_b:
        out[:, 1] = s1 * A + s2 * D
    if read_c:
        out[:, 2] = s1 * xs * xs
    if read_d:
        out[:, 3] = -s2 * (xs - B)
    if read_e:
        out[:, 4] = 1.0
    return out


def uaf_slope(xs: np.ndarray, A: float, B: float, C: float, D: float, s: np.ndarray) -> np.ndarray:
    """df/dx = s(z1)(A + 2Cx) - s(z2)D alone, as a new array: the error scan
    and the network's backward need no (n, 6) array. It is column 0 of
    uaf_grad by construction. s is logistic(*terms) at the same xs and
    parameters; its s(z2) row is scaled by D in place, so a caller that
    also needs the partials takes them first."""
    s1, s2 = s
    t = 2.0 * C * xs
    np.add(A, t, out=t)
    np.multiply(s1, t, out=t)
    s2 *= D
    t -= s2
    return t
