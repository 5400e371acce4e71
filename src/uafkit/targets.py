"""Exact closed-form reference activations and the approximation error
E(x) = f_uaf(x) - f_target(x).

Every evaluator is overflow-safe (logistic and softplus via the log1p trick).
TargetActivation itself takes scalars or arrays unchecked, as the network's
activation; the *_batch functions read their points through
core.coerce_points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import in_blocks, logistic, softplus, uaf_eval
from .core import LN2, PresetKind, UafParams, coerce, coerce_field, coerce_points, eval_stable

__all__ = [
    "TargetActivation",
    "target",
    "target_eval",
    "target_eval_batch",
    "target_derivative_batch",
    "approx_error",
    "approx_error_batch",
]


def _eval_kind(kind: PresetKind, x: np.ndarray) -> np.ndarray:
    name = kind.name
    if name == "identity":
        return x.copy()
    if name == "step":
        return np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5))
    if name == "sigmoid":
        return logistic(x)
    if name == "tanh":
        return np.tanh(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    if name == "leaky_relu":
        return np.where(x >= 0, x, kind.alpha * x)
    if name == "softplus":
        return softplus(x)
    if name == "gaussian":
        return LN2 * np.exp(-0.5 * x * x)
    raise ValueError(f"unknown target kind {name!r}")


def _derivative_kind(kind: PresetKind, x: np.ndarray) -> np.ndarray:
    """Pointwise derivative; at kinks (relu/leaky at 0) the right-hand slope,
    at the step jump 0."""
    name = kind.name
    if name == "identity":
        return np.ones_like(x)
    if name == "step":
        return np.zeros_like(x)
    if name == "sigmoid":
        s = logistic(x)
        return s * (1.0 - s)
    if name == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if name == "relu":
        return np.where(x >= 0, 1.0, 0.0)
    if name == "leaky_relu":
        return np.where(x >= 0, 1.0, kind.alpha)
    if name == "softplus":
        return logistic(x)
    if name == "gaussian":
        return -x * LN2 * np.exp(-0.5 * x * x)
    raise ValueError(f"unknown target kind {name!r}")


@dataclass(frozen=True)
class TargetActivation:
    """A classic activation with its exact closed-form evaluator."""

    kind: PresetKind

    def __post_init__(self) -> None:
        coerce_field(self, "kind", PresetKind)

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = _eval_kind(self.kind, np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def derivative(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = _derivative_kind(self.kind, np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    @classmethod
    def from_name(cls, name: str, alpha: float | None = None) -> "TargetActivation":
        return cls(PresetKind.from_name(name, alpha))


def target(kind: PresetKind) -> TargetActivation:
    """TargetActivation for the given kind."""
    return TargetActivation(kind)


def target_eval(t: TargetActivation, x: float) -> float:
    """Exact closed-form value of the target at a scalar x."""
    return float(t(coerce("x", x, float)))


def target_eval_batch(t: TargetActivation, xs) -> np.ndarray:
    """Exact closed-form values over a 1-d array of finite numbers."""
    return t(coerce_points("xs", xs))


def target_derivative_batch(t: TargetActivation, xs) -> np.ndarray:
    """Pointwise target derivative over a 1-d array (right-hand slope at kinks)."""
    return t.derivative(coerce_points("xs", xs))


def approx_error(p: UafParams, t: TargetActivation, x: float) -> float:
    """E(x) = f_uaf(x) - f_target(x) (UAF minus target, in that order)."""
    return eval_stable(p, x) - target_eval(t, x)


def approx_error_batch(p: UafParams, t: TargetActivation, xs) -> np.ndarray:
    """Elementwise approx_error over a 1-d array of finite numbers."""
    params = p.as_tuple()
    return in_blocks(lambda b: uaf_eval(b, *params) - t(b), coerce_points("xs", xs))
