"""The elementwise kernels every layer reaches the UAF through: evaluation
(``uaf_eval``), its six first derivatives (``uaf_grad``), the x-derivative
alone (``uaf_slope``), the terms they are built from (``uaf_terms``), and the
overflow-safe ``softplus`` and ``logistic``, which ``targets`` also uses.

Everything here operates on contiguous float64 arrays and returns freshly
allocated arrays. Results are written in place where the arithmetic allows:
at n ~ 1e4 each live temporary array costs page faults on every call.
"""

from __future__ import annotations

import numpy as np


def softplus(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe softplus: max(z, 0) + log1p(e), with e = e^{-|z|}
    computed when not given."""
    if e is None:
        e = np.exp(-np.abs(z))
    out = np.maximum(z, 0.0)
    out += np.log1p(e)
    return out


def logistic(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic sigma(z) = 1 / (1 + e^{-z}), from e = e^{-|z|}
    (computed when not given): 1 / (1 + e) for z >= 0 and e / (1 + e) below."""
    if e is None:
        e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = e / d
    np.divide(1.0, d, out=d)
    np.copyto(out, d, where=z >= 0)
    return out


def uaf_terms(xs: np.ndarray, A: float, B: float, C: float, D: float) -> tuple:
    """(xs, z1, z2, e^{-|z1|}, e^{-|z2|}) with z1 = A(x+B)+Cx^2, z2 = D(x-B)
    and xs as contiguous float64: what uaf_eval and uaf_grad share, so that a
    caller needing both at the same points computes them once."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    z1 = A * (xs + B) + C * xs * xs
    z2 = D * (xs - B)
    return xs, z1, z2, np.exp(-np.abs(z1)), np.exp(-np.abs(z2))


def uaf_eval(
    xs: np.ndarray, A: float, B: float, C: float, D: float, E: float, terms: tuple | None = None
) -> np.ndarray:
    """Stable elementwise f(x) = softplus(A(x+B)+Cx^2) - softplus(D(x-B)) + E.
    terms, from uaf_terms on the same xs and parameters, saves computing them."""
    _, z1, z2, e1, e2 = uaf_terms(xs, A, B, C, D) if terms is None else terms
    out = softplus(z1, e1)
    del z1, e1
    out -= softplus(z2, e2)
    out += E
    return out


def uaf_grad(
    xs: np.ndarray, A: float, B: float, C: float, D: float, E: float, terms: tuple | None = None
) -> np.ndarray:
    """Elementwise first derivatives of the UAF; terms as in uaf_eval.

    Returns an (n, 6) array with columns (df/dx, df/dA, df/dB, df/dC, df/dD,
    df/dE), where with z1 = A(x+B)+Cx^2, z2 = D(x-B), s = logistic:

        df/dx = s(z1)(A + 2Cx) - s(z2)D
        df/dA = s(z1)(x + B)
        df/dB = s(z1)A + s(z2)D
        df/dC = s(z1)x^2
        df/dD = -s(z2)(x - B)
        df/dE = 1
    """
    xs, z1, z2, e1, e2 = uaf_terms(xs, A, B, C, D) if terms is None else terms
    s1 = logistic(z1, e1)
    s2 = logistic(z2, e2)
    del z1, z2, e1, e2
    out = np.empty((xs.shape[0], 6), dtype=np.float64)
    out[:, 0] = s1 * (A + 2.0 * C * xs) - s2 * D
    out[:, 1] = s1 * (xs + B)
    out[:, 2] = s1 * A + s2 * D
    out[:, 3] = s1 * xs * xs
    out[:, 4] = -s2 * (xs - B)
    out[:, 5] = 1.0
    return out


def uaf_slope(xs: np.ndarray, A: float, B: float, C: float, D: float) -> np.ndarray:
    """df/dx = s(z1)(A + 2Cx) - s(z2)D alone, bitwise equal to column 0 of
    uaf_grad: the error scan needs no parameter partials."""
    xs, z1, z2, e1, e2 = uaf_terms(xs, A, B, C, D)
    return logistic(z1, e1) * (A + 2.0 * C * xs) - logistic(z2, e2) * D
