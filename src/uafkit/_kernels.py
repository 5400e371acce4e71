"""The elementwise kernels every layer reaches the UAF through: evaluation
(``uaf_eval``), its six first derivatives (``uaf_grad``), and the overflow-safe
``softplus`` and ``logistic`` they are built from, which ``targets`` also uses.

Everything here operates on contiguous float64 arrays and returns freshly
allocated arrays.
"""

from __future__ import annotations

import numpy as np


def softplus(z: np.ndarray) -> np.ndarray:
    """Overflow-safe softplus: max(z, 0) + log1p(e^{-|z|})."""
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logistic(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic sigma(z) = 1 / (1 + e^{-z}), from e = e^{-|z|}:
    1 / (1 + e) for z >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def uaf_eval(
    xs: np.ndarray, A: float, B: float, C: float, D: float, E: float
) -> np.ndarray:
    """Stable elementwise f(x) = softplus(A(x+B)+Cx^2) - softplus(D(x-B)) + E."""
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    z1 = A * (xs + B) + C * xs * xs
    z2 = D * (xs - B)
    return softplus(z1) - softplus(z2) + E


def uaf_grad(
    xs: np.ndarray, A: float, B: float, C: float, D: float, E: float
) -> np.ndarray:
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
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    z1 = A * (xs + B) + C * xs * xs
    z2 = D * (xs - B)
    s1 = logistic(z1)
    s2 = logistic(z2)
    out = np.empty((xs.shape[0], 6), dtype=np.float64)
    out[:, 0] = s1 * (A + 2.0 * C * xs) - s2 * D
    out[:, 1] = s1 * (xs + B)
    out[:, 2] = s1 * A + s2 * D
    out[:, 3] = s1 * xs * xs
    out[:, 4] = -s2 * (xs - B)
    out[:, 5] = 1.0
    return out
