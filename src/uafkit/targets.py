"""Exact closed-form reference activations and the approximation error
E(x) = f_uaf(x) - f_target(x).

A target's value and slope are those of its kind's row in core.KINDS, where
each kind is defined once. TargetActivation itself takes scalars or arrays
unchecked, as the network's activation; the *_batch functions read their
points through core.coerce_points and evaluate them through in_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import in_blocks, uaf_eval
from .core import KINDS, PresetKind, UafParams, coerce, coerce_field, coerce_points, eval_stable

__all__ = [
    "TargetActivation",
    "target",
    "target_eval",
    "target_eval_batch",
    "target_derivative_batch",
    "approx_error",
    "approx_error_batch",
]


@dataclass(frozen=True)
class TargetActivation:
    """A classic activation with its exact closed-form evaluator."""

    kind: PresetKind

    def __post_init__(self) -> None:
        coerce_field(self, "kind", PresetKind)

    def __call__(self, x):
        return self._apply(KINDS[self.kind.name].value, x)

    def derivative(self, x):
        return self._apply(KINDS[self.kind.name].slope, x)

    def _apply(self, fn, x):
        """fn(x, alpha) over x as a 1-d array: a float for a scalar x."""
        arr = np.asarray(x, dtype=np.float64)
        out = fn(np.atleast_1d(arr), self.kind.alpha)
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
    return in_blocks(t, coerce_points("xs", xs))


def target_derivative_batch(t: TargetActivation, xs) -> np.ndarray:
    """Pointwise target derivative over a 1-d array (right-hand slope at kinks)."""
    return in_blocks(t.derivative, coerce_points("xs", xs))


def approx_error(p: UafParams, t: TargetActivation, x: float) -> float:
    """E(x) = f_uaf(x) - f_target(x) (UAF minus target, in that order)."""
    return eval_stable(p, x) - target_eval(t, x)


def approx_error_batch(p: UafParams, t: TargetActivation, xs) -> np.ndarray:
    """Elementwise approx_error over a 1-d array of finite numbers."""
    params = p.as_tuple()
    return in_blocks(lambda b: uaf_eval(b, *params) - t(b), coerce_points("xs", xs))
