"""Exact closed-form reference activations and the approximation error
E(x) = f_uaf(x) - f_target(x).

A target is its core.PresetKind: calling the kind gives its exact value and
kind.derivative its slope, both from its row in core.KINDS, where each kind
is defined once. The kind takes scalars or arrays unchecked, as the
network's activation; the functions here read the kind t through core.coerce,
and the *_batch functions read their points through core.coerce_points and
evaluate them through in_blocks.
"""

from __future__ import annotations

import numpy as np

from ._kernels import in_blocks, uaf_eval
from .core import PresetKind, UafParams, coerce, coerce_points, eval_stable

__all__ = [
    "target",
    "target_eval_batch",
    "target_derivative_batch",
    "approx_error",
    "approx_error_batch",
]


def target(kind: PresetKind) -> PresetKind:
    """The target activation of the given kind: the kind itself, once
    checked to be a PresetKind."""
    return coerce("kind", kind, PresetKind)


def target_eval_batch(t: PresetKind, xs) -> np.ndarray:
    """Exact closed-form values over a 1-d array of finite numbers."""
    return in_blocks(coerce("t", t, PresetKind), coerce_points("xs", xs))


def target_derivative_batch(t: PresetKind, xs) -> np.ndarray:
    """Pointwise target derivative over a 1-d array (right-hand slope at kinks)."""
    return in_blocks(coerce("t", t, PresetKind).derivative, coerce_points("xs", xs))


def approx_error(p: UafParams, t: PresetKind, x: float) -> float:
    """E(x) = f_uaf(x) - f_target(x) (UAF minus target, in that order)."""
    x = coerce("x", x, float)
    return eval_stable(p, x) - coerce("t", t, PresetKind)(x)


def approx_error_batch(p: UafParams, t: PresetKind, xs) -> np.ndarray:
    """Elementwise approx_error over a 1-d array of finite numbers."""
    params, t = coerce("p", p, UafParams).as_tuple(), coerce("t", t, PresetKind)
    return in_blocks(lambda b: uaf_eval(b, *params) - t(b), coerce_points("xs", xs))
