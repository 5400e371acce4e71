"""An implementation of the UAF, its x-derivative, the eight target
activations and their error extrema that shares no code with uafkit.

Softplus is numpy.logaddexp(0, z), the logistic is scipy.special.expit, and
extrema come from a dense scan refined by scipy.optimize.brentq on the
analytic error derivative.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

LN2 = math.log(2.0)

# The paper's constants, and the preset table built from them.
A_STEP = A_RELU = 70.9992
A_SIGMOID = 1.01605291
A_TANH = 2.12616013
C_GAUSSIAN = -0.61341425


def preset(name: str, alpha: float | None = None) -> tuple[float, ...]:
    return {
        "identity": lambda: (1.0, 0.0, 0.0, -1.0, 0.0),
        "step": lambda: (A_STEP, 1.0 / (2.0 * A_STEP), 0.0, A_STEP, 0.0),
        "sigmoid": lambda: (A_SIGMOID, 1.0 / (2.0 * A_SIGMOID), 0.0, A_SIGMOID, 0.0),
        "tanh": lambda: (A_TANH, 1.0 / A_TANH, 0.0, A_TANH, -1.0),
        "relu": lambda: (A_RELU, 0.0, 0.0, A_RELU - 1.0, 0.0),
        "leaky_relu": lambda: (1.0, 0.0, 0.0, -alpha, 0.0),
        "softplus": lambda: (1.0, 0.0, 0.0, 0.0, LN2),
        "gaussian": lambda: (0.0, 0.0, C_GAUSSIAN, 0.0, LN2),
    }[name]()


def uaf(p, x):
    A, B, C, D, E = p
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, A * (x + B) + C * x * x) - np.logaddexp(0.0, D * (x - B)) + E


def uaf_dx(p, x):
    A, B, C, D, E = p
    x = np.asarray(x, dtype=np.float64)
    return expit(A * (x + B) + C * x * x) * (A + 2.0 * C * x) - expit(D * (x - B)) * D


def target(name: str, x, alpha: float | None = None):
    x = np.asarray(x, dtype=np.float64)
    if name == "identity":
        return x
    if name == "step":
        return np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))
    if name == "sigmoid":
        return expit(x)
    if name == "tanh":
        return np.tanh(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "leaky_relu":
        return np.where(x >= 0, x, alpha * x)
    if name == "softplus":
        return np.logaddexp(0.0, x)
    if name == "gaussian":
        return LN2 * np.exp(-0.5 * x * x)
    raise ValueError(name)


def target_dx(name: str, x, alpha: float | None = None):
    """Derivative away from the kinks and jumps at 0."""
    x = np.asarray(x, dtype=np.float64)
    if name == "identity":
        return np.ones_like(x)
    if name == "step":
        return np.zeros_like(x)
    if name == "sigmoid":
        return expit(x) * expit(-x)
    if name == "tanh":
        return 1.0 / np.cosh(x) ** 2
    if name == "relu":
        return (x > 0).astype(np.float64)
    if name == "leaky_relu":
        return np.where(x > 0, 1.0, alpha)
    if name == "softplus":
        return expit(x)
    if name == "gaussian":
        return -x * LN2 * np.exp(-0.5 * x * x)
    raise ValueError(name)


def error(p, name, x, alpha=None):
    return uaf(p, x) - target(name, x, alpha)


def rmse(p, name, interval=(-10.0, 10.0), n=2001, alpha=None) -> float:
    e = error(p, name, np.linspace(interval[0], interval[1], n), alpha)
    return float(np.sqrt(np.mean(e * e)))


NONSMOOTH_AT_ZERO = ("step", "relu", "leaky_relu")
SCAN_POINTS = 400_001


def max_error(p, name, interval=(-10.0, 10.0), alpha=None) -> tuple[float, list[float]]:
    """Supremum of |error| on the interval and the sorted points attaining it.

    Candidates are the endpoints, the one-sided limits at 0 for targets with
    a kink or jump there, and every root of d(error)/dx that the scan
    brackets near the largest scanned |error|, refined by brentq.
    """
    lo, hi = interval

    def err(x):
        return float(error(p, name, x, alpha))

    def derr(x):
        return float(uaf_dx(p, x) - target_dx(name, x, alpha))

    candidates = [(lo, err(lo)), (hi, err(hi))]
    pieces = [(lo, hi)]
    if name in NONSMOOTH_AT_ZERO and lo < 0.0 < hi:
        pieces = [(lo, -1e-7), (1e-7, hi)]
        f0 = float(uaf(p, 0.0))
        if name == "step":
            candidates += [(0.0, f0 - 1.0), (0.0, f0)]
        else:
            candidates.append((0.0, f0))
    for a, b in pieces:
        xs = np.linspace(a, b, int(SCAN_POINTS * (b - a) / (hi - lo)) + 2)
        e = error(p, name, xs, alpha)
        d = uaf_dx(p, xs) - target_dx(name, xs, alpha)
        floor = 0.5 * float(np.max(np.abs(e)))
        near = np.maximum(np.abs(e[:-1]), np.abs(e[1:])) >= floor
        for i in np.nonzero(near & (d[:-1] * d[1:] < 0))[0]:
            x = brentq(derr, xs[i], xs[i + 1], xtol=1e-14, rtol=4 * np.finfo(float).eps)
            candidates.append((x, err(x)))
        for i in np.nonzero(near & (d[:-1] == 0))[0]:
            candidates.append((float(xs[i]), float(e[i])))
    top = max(abs(v) for _, v in candidates)
    locations = sorted({x for x, v in candidates if abs(v) >= top * (1.0 - 1e-7)})
    merged: list[float] = []
    for x in locations:
        if not merged or x - merged[-1] > 1e-9:
            merged.append(x)
    return top, merged
