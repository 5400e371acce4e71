"""Core types and evaluation of the five-parameter universal activation
function (UAF)

    f(x) = ln(1 + e^{A(x+B) + Cx^2}) - ln(1 + e^{D(x-B)}) + E

with its analytic first derivatives, and KINDS, the table of the eight
classic activations it reproduces: each kind is defined once, as a KindRow.
A PresetKind names one of them, and is also the activation itself: calling
it, or its derivative, gives the kind's exact value or slope.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from types import UnionType
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from ._kernels import in_blocks, logistic, softplus
from ._kernels import uaf_eval as _k_eval
from ._kernels import uaf_grad as _k_grad

__all__ = [
    "UafParams",
    "UafGradient",
    "PresetKind",
    "UafOverflowError",
    "PARAM_NAMES",
    "KINDS",
    "PRESET_NAMES",
    "IDENTITY",
    "STEP",
    "SIGMOID",
    "TANH",
    "RELU",
    "SOFTPLUS",
    "GAUSSIAN",
    "leaky_relu",
    "A_STEP",
    "A_SIGMOID",
    "A_TANH",
    "A_RELU",
    "C_GAUSSIAN",
    "LN2",
    "eval_naive",
    "eval_stable",
    "grad",
    "preset",
    "eval_batch",
    "grad_batch",
]

PARAM_NAMES = ("A", "B", "C", "D", "E")

# Reference constants for the preset table.
A_STEP = 70.9992
A_SIGMOID = 1.01605291
A_TANH = 2.12616013
A_RELU = 70.9992
C_GAUSSIAN = -0.61341425
LN2 = math.log(2.0)

# Most values one array sized by an outside count may hold: a sample or scan
# grid, a dataset, or a network's parameters or activations. The cap is a
# 1e-3 scan of a width-1e4 interval; larger requests are refused instead of
# being allowed to exhaust memory.
MAX_POINTS = 10_000_001

# Largest z for which e^z is a finite float64; beyond it the naive form
# evaluates ln(inf).
_EXP_MAX = math.log(sys.float_info.max)


class UafOverflowError(OverflowError):
    """Raised by eval_naive when an exponent argument leaves the safe range."""


def coerce(name: str, value, kind, minimum=None, maximum=None):
    """One config field checked and converted for type kind: bool, int,
    float, or any other class (or tuple of classes) that value must be an
    instance of.

    Stricter than calling the type: a bool must be true or false, an int an
    integral number, a float a finite number, and neither number accepts a
    bool, a string or null. NumPy scalars count as the numbers they hold.
    A number below minimum or above maximum is rejected. Raises ValueError
    naming the field.
    """
    if kind is bool:
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be true or false, got {_shown(value)}")
        return bool(value)
    if kind is not int and kind is not float:
        if not isinstance(value, kind):
            names = [k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
            raise ValueError(f"{name} must be a {' or '.join(names)}, got {_shown(value)}")
        return value
    # float and int first: they are the common case, and the ABC check is slow.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if kind is int:
        if not (isinstance(value, (int, numbers.Integral)) or float(value).is_integer()):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    else:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {_shown(minimum)}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {_shown(maximum)}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """repr(value), which is str(value) for an int or a float; an int too
    long for repr (over sys.get_int_max_str_digits() digits, 4300 by default)
    reads "at least 10^k" or "at most -10^k", 10^k <= |value| < 10^(k+1),
    also as an item of a tuple."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, tuple):
            items = ", ".join(map(_shown, value))
            return f"({items},)" if len(value) == 1 else f"({items})"
        if not isinstance(value, int):
            raise
    k = int(math.log10(abs(value))) - 1  # k or below: the loop counts up
    while 10 ** (k + 1) <= abs(value):
        k += 1
    return f"at least 10^{k}" if value > 0 else f"at most -10^{k}"


def check_size(what: str, *dims: int) -> None:
    """Raises ValueError naming what when an array with the dimensions dims
    would hold more than MAX_POINTS values."""
    size = math.prod(dims)
    if size > MAX_POINTS:
        raise ValueError(f"{what} = {_shown(size)} values, above the cap of {MAX_POINTS}")


def coerce_list(name: str, value, kind, minimum=None) -> tuple:
    """A list (or tuple) field whose items are each read by coerce."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {_shown(value)}")
    return tuple(coerce(name, item, kind, minimum) for item in value)


def coerce_interval(name: str, value) -> tuple[float, float]:
    """An interval [lo, hi]: two numbers read by coerce, held in a list, a
    tuple or a 1-d NumPy array, with lo < hi and a finite width hi - lo (an
    infinite one would put non-finite points on a grid). Raises ValueError
    naming the field."""
    bounds = coerce_list(name, value.tolist() if isinstance(value, np.ndarray) else value, float)
    if not (len(bounds) == 2 and bounds[0] < bounds[1] and math.isfinite(bounds[1] - bounds[0])):
        raise ValueError(
            f"{name} must be [lo, hi] with lo < hi and a finite width, got {value!r}"
        )
    return bounds


def coerce_field(obj, name: str, kind, minimum=None, maximum=None):
    """coerce applied to a field of the frozen dataclass obj, stored back in
    place; returns the converted value."""
    value = coerce(name, getattr(obj, name), kind, minimum, maximum)
    object.__setattr__(obj, name, value)
    return value


# Reading a signature and its type hints costs 0.1-0.3 ms a class; the
# readers ask for the same few makers.
@functools.cache
def _parameters(make):
    """make's parameters, and the readers of those a dataclass reads by type."""
    params = inspect.signature(make).parameters
    hints = get_type_hints(make) if is_dataclass(make) else {}
    return params, {n: r for n, t in hints.items() if n in params and (r := _reader(n, t))}


def _reader(name: str, kind):
    """How from_json reads the field name of type kind: a function, or None."""
    members = get_args(kind)
    if hasattr(kind, "from_dict"):
        return kind.from_dict
    if get_origin(kind) is tuple and members[1:] == (...,) and hasattr(members[0], "from_dict"):
        return lambda value: tuple(map(members[0].from_dict, coerce_list(name, value, dict)))
    if isinstance(kind, UnionType) and all(map(is_dataclass, members)):
        tag = fields(members[0])[0].name
        choices = {fields(m)[0].default: m for m in members}
        return lambda value: from_tagged_json(choices, value, tag, name)
    return None


def from_json(make, data, what: str):
    """make(**data) for a JSON object data, after the structure checks that
    every JSON reader shares.

    data must be an object whose keys are parameters of make (a dataclass or
    a function), holding every parameter that has no default. A dataclass
    reads each field by its type: with the type's from_dict, with X.from_dict
    on each item of a list for a tuple[X, ...], and with from_tagged_json for
    a union of tagged configs, whose tag is the first field (what is the
    field's name). Every other value goes to make as it is, so make's own
    checks convert it. Raises ValueError naming what.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    params, readers = _parameters(make)
    unknown = sorted(str(key) for key in data if key not in params)
    if unknown:
        raise ValueError(f"{what} contains unknown field(s): {', '.join(unknown)}")
    missing = [n for n, p in params.items() if p.default is p.empty and n not in data]
    if missing:
        raise ValueError(f"{what} requires field(s): {', '.join(missing)}")
    return make(**{k: readers[k](v) if k in readers else v for k, v in data.items()})


class JsonConfig:
    """Base of the config dataclasses that from_json reads, each field by
    its type: to_dict writes every field, a nested dataclass as its dict and
    a tuple as it is (a JSON array). A tagged config's tag is its first
    field, whose default is its value and which takes no constructor
    argument: from_tagged_json reads it, and from_json never sees it."""

    def to_dict(self) -> dict:
        return asdict(self)


def from_tagged_json(choices: dict, data, tag: str, what: str):
    """from_json for the one of choices that data's tag field names; the tag
    itself is not passed on."""
    if not isinstance(data, dict) or tag not in data:
        raise ValueError(f"{what} must be an object with a {tag!r} field")
    rest = dict(data)
    choice = rest.pop(tag)
    if not (isinstance(choice, str) and choice in choices):
        raise ValueError(f"{what} {tag} must be one of {', '.join(choices)}, got {choice!r}")
    return from_json(choices[choice], rest, what)


@dataclass(frozen=True)
class UafParams:
    """The five parameters (A, B, C, D, E); all finite reals."""

    A: float
    B: float
    C: float
    D: float
    E: float

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            object.__setattr__(self, name, coerce(name, getattr(self, name), float))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.A, self.B, self.C, self.D, self.E)

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    @classmethod
    def from_dict(cls, data: dict) -> "UafParams":
        return from_json(cls, data, "parameters")


@dataclass(frozen=True)
class UafGradient:
    """First derivatives of f at one point: d_x plus the five parameter partials."""

    d_x: float
    d_A: float
    d_B: float
    d_C: float
    d_D: float
    d_E: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.d_x, self.d_A, self.d_B, self.d_C, self.d_D, self.d_E)


class KindRow(NamedTuple):
    """One activation kind: its UAF preset as a function of alpha (leaky_relu's
    slope, None for the other kinds), its exact value and exact slope on a
    1-d array x as functions of (x, alpha), and what it does at 0: "jump",
    "kink", or None where it is smooth. At a kink the slope is the
    right-hand one, at the jump 0."""

    preset: Callable[[float | None], UafParams]
    value: Callable[[np.ndarray, float | None], np.ndarray]
    slope: Callable[[np.ndarray, float | None], np.ndarray]
    at_zero: str | None = None


KINDS: dict[str, KindRow] = {
    "identity": KindRow(
        lambda alpha: UafParams(1.0, 0.0, 0.0, -1.0, 0.0),
        lambda x, alpha: x.copy(),
        lambda x, alpha: np.ones_like(x),
    ),
    "step": KindRow(
        lambda alpha: UafParams(A_STEP, 1.0 / (2.0 * A_STEP), 0.0, A_STEP, 0.0),
        lambda x, alpha: np.where(x > 0, 1.0, np.where(x < 0, 0.0, 0.5)),
        lambda x, alpha: np.zeros_like(x),
        "jump",
    ),
    "sigmoid": KindRow(
        lambda alpha: UafParams(A_SIGMOID, 1.0 / (2.0 * A_SIGMOID), 0.0, A_SIGMOID, 0.0),
        lambda x, alpha: logistic(x),
        lambda x, alpha: (s := logistic(x)) * (1.0 - s),
    ),
    "tanh": KindRow(
        lambda alpha: UafParams(A_TANH, 1.0 / A_TANH, 0.0, A_TANH, -1.0),
        lambda x, alpha: np.tanh(x),
        lambda x, alpha: 1.0 - (t := np.tanh(x)) * t,
    ),
    "relu": KindRow(
        lambda alpha: UafParams(A_RELU, 0.0, 0.0, A_RELU - 1.0, 0.0),
        lambda x, alpha: np.maximum(x, 0.0),
        lambda x, alpha: np.where(x >= 0, 1.0, 0.0),
        "kink",
    ),
    "leaky_relu": KindRow(
        lambda alpha: UafParams(1.0, 0.0, 0.0, -alpha, 0.0),
        lambda x, alpha: np.where(x >= 0, x, alpha * x),
        lambda x, alpha: np.where(x >= 0, 1.0, alpha),
        "kink",
    ),
    "softplus": KindRow(
        lambda alpha: UafParams(1.0, 0.0, 0.0, 0.0, LN2),
        lambda x, alpha: softplus(x),
        lambda x, alpha: logistic(x),
    ),
    "gaussian": KindRow(
        lambda alpha: UafParams(0.0, 0.0, C_GAUSSIAN, 0.0, LN2),
        lambda x, alpha: LN2 * np.exp(-0.5 * x * x),
        lambda x, alpha: -x * LN2 * np.exp(-0.5 * x * x),
    ),
}

PRESET_NAMES = tuple(KINDS)


@dataclass(frozen=True)
class PresetKind:
    """One of the eight classic activations, and its exact closed form:
    kind(x) and kind.derivative(x) apply its KINDS row's value and slope to
    a scalar (giving a float) or an array, unchecked. leaky_relu carries its
    slope alpha."""

    name: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.name not in PRESET_NAMES:
            raise ValueError(
                f"unknown preset kind {self.name!r}; expected one of {', '.join(PRESET_NAMES)}"
            )
        if self.name == "leaky_relu":
            if self.alpha is None:
                raise ValueError("leaky_relu requires an alpha in (0, 0.1]")
            alpha = coerce_field(self, "alpha", float)
            if not 0.0 < alpha <= 0.1:
                raise ValueError(f"leaky_relu alpha must be in (0, 0.1], got {alpha}")
        elif self.alpha is not None:
            raise ValueError(f"{self.name} takes no alpha")

    @classmethod
    def from_name(cls, name: str, alpha: float | None = None) -> "PresetKind":
        """The kind called name; leaky_relu's alpha defaults to 0.1."""
        if name == "leaky_relu" and alpha is None:
            alpha = 0.1
        return cls(name, alpha)

    @classmethod
    def from_dict(cls, data) -> "PresetKind":
        """A kind read from JSON: its name, or an object with its name and,
        for leaky_relu, alpha."""
        if isinstance(data, str):
            return cls.from_name(data)
        return from_json(cls.from_name, data, "preset kind")

    def to_dict(self) -> dict:
        return {"name": self.name, "alpha": self.alpha}

    def __call__(self, x):
        return self._apply(KINDS[self.name].value, x)

    def derivative(self, x):
        return self._apply(KINDS[self.name].slope, x)

    def _apply(self, fn, x):
        """fn(x, alpha) over x as a 1-d array: a float for a scalar x."""
        arr = np.asarray(x, dtype=np.float64)
        out = fn(np.atleast_1d(arr), self.alpha)
        return float(out[0]) if arr.ndim == 0 else out

    def label(self) -> str:
        if self.name == "leaky_relu":
            return f"leaky_relu({self.alpha:g})"
        return self.name


IDENTITY = PresetKind("identity")
STEP = PresetKind("step")
SIGMOID = PresetKind("sigmoid")
TANH = PresetKind("tanh")
RELU = PresetKind("relu")
SOFTPLUS = PresetKind("softplus")
GAUSSIAN = PresetKind("gaussian")


def leaky_relu(alpha: float = 0.1) -> PresetKind:
    """LeakyReLU preset kind with slope alpha in (0, 0.1]."""
    return PresetKind("leaky_relu", alpha)


def preset(kind: PresetKind) -> UafParams:
    """Parameter assignment that makes the UAF match the given activation.

    identity and softplus are exact; the rest are fixed best-approximation
    constants (step/relu use the large finite slope A = 70.9992).
    """
    kind = coerce("kind", kind, PresetKind)
    return KINDS[kind.name].preset(kind.alpha)


def eval_naive(p: UafParams, x: float) -> float:
    """Literal evaluation ln(1+e^{z1}) - ln(1+e^{z2}) + E; the reference oracle.

    Raises UafOverflowError when an exponent argument exceeds the float64
    exp range.
    """
    p, x = coerce("p", p, UafParams), coerce("x", x, float)
    z1, z2 = p.A * (x + p.B) + p.C * x * x, p.D * (x - p.B)
    if z1 > _EXP_MAX or z2 > _EXP_MAX:
        arm = "A(x+B)+Cx^2" if z1 > _EXP_MAX else "D(x-B)"
        raise UafOverflowError(
            f"exponent argument {arm} = {max(z1, z2):.6g} exceeds the "
            f"float64 exp range ({_EXP_MAX:.6g}); use eval_stable"
        )
    return math.log(1.0 + math.exp(z1)) - math.log(1.0 + math.exp(z2)) + p.E


def eval_stable(p: UafParams, x: float) -> float:
    """Overflow-safe evaluation via softplus(z) = max(z,0) + log1p(e^{-|z|}).

    Agrees with eval_naive wherever the naive form is representable, and is
    finite for |x| <= 100 with |params| <= 200. Far outside that range,
    z1 = A(x+B) + Cx^2 can be inf - inf, and the result NaN.
    """
    p, x = coerce("p", p, UafParams), coerce("x", x, float)
    return float(_k_eval(np.array([x]), *p.as_tuple())[0])


def grad(p: UafParams, x: float) -> UafGradient:
    """Analytic first derivatives of f at x (d_x and the parameter partials)."""
    p, x = coerce("p", p, UafParams), coerce("x", x, float)
    row = _k_grad(np.array([x]), *p.as_tuple())[0]
    return UafGradient(*(float(v) for v in row))


def coerce_reals(name: str, value) -> np.ndarray:
    """value as a float64 array of any shape, of numbers only, like coerce:
    string, bool, object and complex dtypes are refused before the cast, and
    so is a bool among the numbers of a list or tuple, which NumPy would cast.
    An array is only tested for its dtype. Raises ValueError naming the field."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    if isinstance(value, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
    ):
        raise ValueError(f"{name} must hold real numbers, got a bool")
    return np.asarray(arr, dtype=np.float64)


def coerce_points(name: str, value) -> np.ndarray:
    """A point array: value read by coerce_reals as a contiguous 1-d float64
    array of finite values. Raises ValueError naming the field."""
    arr = np.ascontiguousarray(coerce_reals(name, value))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def grid(lo: float, hi: float, n: int, i0: int, i1: int) -> np.ndarray:
    """np.linspace(lo, hi, n)[i0:i1], bitwise, without the rest of the grid."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    xs = np.arange(i0, i1, dtype=np.float64)
    if step == 0.0:  # linspace's order for a step that underflows
        xs /= div
        xs *= delta
    else:
        xs *= step
    xs += lo
    if i1 == n:
        xs[-1] = hi
    return xs


def eval_batch(p: UafParams, xs) -> np.ndarray:
    """Elementwise eval_stable over a sequence; returns a float64 array."""
    return in_blocks(_k_eval, coerce_points("xs", xs), *coerce("p", p, UafParams).as_tuple())


def grad_batch(p: UafParams, xs) -> np.ndarray:
    """Elementwise grad over a sequence; returns an (n, 6) float64 array
    with columns (d_x, d_A, d_B, d_C, d_D, d_E)."""
    return in_blocks(_k_grad, coerce_points("xs", xs), *coerce("p", p, UafParams).as_tuple())
