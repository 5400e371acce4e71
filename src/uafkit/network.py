"""Minimal dense feed-forward network with affine-free batch normalization
BN(x) = (x - mu)/sigma (no learned scale or shift) and a single trainable UAF
shared across every neuron and layer.

The UAF parameter gradients are the sums, over all activation sites, of the
analytic partials scaled by the upstream gradient, so the activation trains by
ordinary backpropagation alongside the weights. A UAF layer's activation cache
is its flattened input and, in a training pass only, the logistic pair s of
its kernel terms (see _kernels), taken before the value consumes the terms;
an inference pass's cache holds None for s. Its backward is one path for a
frozen and a trainable UAF: a trainable one first contracts the (n, 5)
parameter partials with the upstream gradient, then both scale the upstream
by df/dx. Everything is seeded and deterministic: identical config +
dataset + seed reproduce a bitwise-identical TrainReport.

Weights, biases and the trainable UAF vector are views into one float64
vector, Network.flat, and a step's Gradients are views into one vector laid
out alike, so SGD and Adam are one elementwise pass (uaf_learning_rate applies
on the UAF's five slots). Beside flat, a network holds one parameter-sized
vector of per-element step sizes and, with Adam only, the two moments; an
update keeps nothing else from one call to the next.
Network.forward returns (activations, output, caches), caches[i] being hidden
layer i's (activation cache, batch-norm cache); Network.step(x, y) consumes
those lists, popping each layer's entries as its backward reads them, and
returns a batch's loss and gradients, and train alternates it with
apply_gradients.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ._kernels import logistic
from ._kernels import uaf_eval as _k_eval
from ._kernels import uaf_partials as _k_partials
from ._kernels import uaf_slope as _k_slope
from ._kernels import uaf_terms as _k_terms
from .core import (
    JsonConfig, PresetKind, UafParams, _shown, check_size, coerce, coerce_field, coerce_list,
    coerce_reals, from_json, preset,
)
from .datasets import Dataset

__all__ = [
    "FixedActivation",
    "TrainableUaf",
    "SgdConfig",
    "AdamConfig",
    "NetworkConfig",
    "TrainReport",
    "Network",
    "train",
]

_BN_EPSILON = 1e-5
_BN_MOMENTUM = 0.1


@dataclass(frozen=True)
class FixedActivation(JsonConfig):
    """Non-trainable activation: the frozen UAF preset for the kind, or the
    exact closed-form target when exact=True."""

    type: str = field(default="fixed", init=False, repr=False)
    kind: PresetKind
    exact: bool = False

    def __post_init__(self) -> None:
        coerce_field(self, "kind", PresetKind)
        coerce_field(self, "exact", bool)


@dataclass(frozen=True)
class TrainableUaf(JsonConfig):
    """Trainable activation: one shared UAF parameter vector for the whole
    network, initialized from init."""

    type: str = field(default="trainable", init=False, repr=False)
    init: UafParams

    def __post_init__(self) -> None:
        coerce_field(self, "init", UafParams)


def _n_params(sizes: tuple[int, ...], trainable: bool) -> int:
    """Length of the flat parameter vector: weights, biases and the UAF."""
    return sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:])) + 5 * trainable


def _check_learning_rate(config) -> None:
    if coerce_field(config, "learning_rate", float) <= 0:
        raise ValueError(f"learning_rate must be > 0, got {config.learning_rate}")


@dataclass(frozen=True)
class SgdConfig(JsonConfig):
    kind: str = field(default="sgd", init=False, repr=False)
    learning_rate: float = 0.01

    def __post_init__(self) -> None:
        _check_learning_rate(self)


@dataclass(frozen=True)
class AdamConfig(JsonConfig):
    kind: str = field(default="adam", init=False, repr=False)
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        _check_learning_rate(self)
        for name in ("beta1", "beta2"):
            if not 0.0 <= coerce_field(self, name, float) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if coerce_field(self, "epsilon", float) <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")


@dataclass(frozen=True)
class NetworkConfig(JsonConfig):
    """Layer sizes (input, hidden..., output), activation choice, batch-norm
    flag for the hidden layers, optimizer, and the training-loop settings."""

    layer_sizes: tuple[int, ...]
    activation: FixedActivation | TrainableUaf
    use_batch_norm: bool = True
    seed: int = 0
    optimizer: SgdConfig | AdamConfig = field(default_factory=SgdConfig)
    batch_size: int = 32
    epochs: int = 10
    # Step size for the shared activation parameters, so only with a
    # TrainableUaf; None means the same rate the optimizer uses for weights.
    # The shared parameters accumulate gradients from every activation site,
    # so a damped rate is often needed to keep them from outrunning the weights.
    uaf_learning_rate: float | None = None

    def __post_init__(self) -> None:
        sizes = coerce_list("layer_sizes", self.layer_sizes, int, minimum=1)
        if len(sizes) < 3:
            raise ValueError(f"need at least one hidden layer (>= 3 sizes), got {_shown(sizes)}")
        object.__setattr__(self, "layer_sizes", sizes)
        coerce_field(self, "activation", (FixedActivation, TrainableUaf))
        check_size("the parameters of layer_sizes",
                   _n_params(sizes, isinstance(self.activation, TrainableUaf)))
        coerce_field(self, "use_batch_norm", bool)
        coerce_field(self, "seed", int, minimum=0)
        coerce_field(self, "optimizer", (SgdConfig, AdamConfig))
        coerce_field(self, "batch_size", int, minimum=1)
        coerce_field(self, "epochs", int, minimum=1)
        if self.uaf_learning_rate is not None:
            if not isinstance(self.activation, TrainableUaf):
                raise ValueError("uaf_learning_rate needs a trainable activation, got a fixed one")
            if coerce_field(self, "uaf_learning_rate", float) <= 0:
                raise ValueError(f"uaf_learning_rate must be > 0, got {self.uaf_learning_rate}")

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        return from_json(cls, data, "network config")


@dataclass(frozen=True)
class TrainReport:
    """Per-epoch traces, the UAF parameter trajectory (trainable runs), and
    the epoch at which training diverged (None when it did not)."""

    loss_trace: tuple[float, ...]
    metric_trace: tuple[float, ...]
    uaf_trajectory: tuple[tuple[int, UafParams], ...] | None
    wall_time: float
    diverged_epoch: int | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_epoch is not None

    def to_dict(self) -> dict:
        return {
            "loss_trace": list(self.loss_trace),
            "metric_trace": list(self.metric_trace),
            "uaf_trajectory": None
            if self.uaf_trajectory is None
            else [{"epoch": e, "params": p.to_dict()} for e, p in self.uaf_trajectory],
            "wall_time": self.wall_time,
            "diverged": self.diverged,
            "diverged_epoch": self.diverged_epoch,
        }


def _views(flat: np.ndarray, sizes: tuple[int, ...], trainable: bool):
    """The weight matrices, the bias vectors and the UAF vector (None when
    fixed) as views into flat, in that order."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases, flat[at : at + 5] if trainable else None


@dataclass
class Gradients:
    """Exact loss gradients from one backward pass: views into the one
    vector flat, laid out like the network's parameters."""

    flat: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    uaf: np.ndarray | None  # (5,) d loss / d (A, B, C, D, E), or None if fixed


class _BatchNorm:
    """Affine-free batch normalization (x - mu)/sigma per feature, with the
    denominator floored at epsilon. Training uses batch statistics and updates
    running ones; inference uses the running statistics. Means are taken as
    sum(axis=0) / n, the arithmetic of np.mean and np.std."""

    def __init__(self, n_features: int):
        self.running_mu = np.zeros(n_features)
        self.running_sigma = np.ones(n_features)

    def forward(self, h: np.ndarray, training: bool):
        if training:
            n = h.shape[0]
            mu = h.sum(axis=0) / n
            centred = h - mu
            sigma = np.sqrt((centred * centred).sum(axis=0) / n)
            self.running_mu *= 1 - _BN_MOMENTUM
            self.running_mu += _BN_MOMENTUM * mu
            self.running_sigma *= 1 - _BN_MOMENTUM
            self.running_sigma += _BN_MOMENTUM * sigma
        else:
            sigma = self.running_sigma
            centred = h - self.running_mu
        denom = np.maximum(sigma, _BN_EPSILON)
        y = centred / denom
        return y, (y, denom)

    @staticmethod
    def backward(g: np.ndarray, cache) -> np.ndarray:
        """Gradient through training-mode normalization.

        With s = max(sigma, eps): d/dh = (g - mean(g))/s - y*mean(g*y)/s,
        where the second (sigma-path) term is dropped on features where the
        floor is active (there s is constant w.r.t. h): where s > eps fails,
        as sigma > eps does, NaN included.
        """
        y, denom = cache
        n = g.shape[0]
        g_mean = g.sum(axis=0) / n
        gy_mean = (g * y).sum(axis=0) / n
        active = denom > _BN_EPSILON
        return (g - g_mean - np.where(active, y * gy_mean, 0.0)) / denom


class Network:
    """Dense MLP with per-hidden-layer batch norm and a shared activation.

    task selects the loss/metric pair: mean squared error + RMSE for
    "regression", softmax cross-entropy + accuracy for "classification".
    """

    def __init__(self, config: NetworkConfig, task: str = "regression"):
        config = coerce("config", config, NetworkConfig)
        if task not in ("regression", "classification"):
            raise ValueError(f"task must be regression or classification, got {task!r}")
        self.config = config
        self.task = task
        self.rng = np.random.default_rng(config.seed)
        sizes = config.layer_sizes
        trainable = isinstance(config.activation, TrainableUaf)
        self.flat = np.zeros(_n_params(sizes, trainable))
        self.weights, self.biases, self.uaf = _views(self.flat, sizes, trainable)
        for w in self.weights:
            bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            w[...] = self.rng.uniform(-bound, bound, size=w.shape)
        self.n_hidden = len(sizes) - 2
        self.batch_norms = (
            [_BatchNorm(sizes[i + 1]) for i in range(self.n_hidden)]
            if config.use_batch_norm
            else None
        )
        # The activation, resolved once: the trainable view, the frozen
        # preset's vector, or None with the exact _target.
        self._params, self._target = self.uaf, None
        if trainable:
            self.uaf[...] = config.activation.init.as_tuple()
        elif config.activation.exact:
            self._target = config.activation.kind
        else:
            self._params = np.array(preset(config.activation.kind).as_tuple())
        # Per-element step sizes: the optimizer's rate, and uaf_learning_rate
        # on the UAF's five slots when it is set.
        self._rates = np.full(self.flat.size, config.optimizer.learning_rate)
        if trainable and config.uaf_learning_rate is not None:
            self._rates[-5:] = config.uaf_learning_rate
        # Adam's update count and its two moments; SGD keeps no state.
        self._adam_t = 0
        self._adam_moments = None
        if isinstance(config.optimizer, AdamConfig):
            self._adam_moments = (np.zeros_like(self.flat), np.zeros_like(self.flat))

    # -- activation ---------------------------------------------------------

    def uaf_params(self) -> UafParams | None:
        """Current UAF parameters, trainable or frozen (None for an exact
        activation)."""
        return None if self._params is None else UafParams(*self._params)

    def _act_forward(self, y: np.ndarray, training: bool):
        """Returns (activation, cache for _act_backward). Only a training
        pass takes the logistic pair s, which only the backward reads."""
        if self._target is not None:
            return self._target(y), y
        xs = y.ravel()
        terms = _k_terms(xs, *self._params[:4])
        s = logistic(*terms) if training else None
        return _k_eval(xs, *self._params, terms=terms).reshape(y.shape), (xs, s)

    def _act_backward(self, cache, upstream: np.ndarray):
        """Returns (d loss/d y, d loss/d uaf-params or None)."""
        if self._target is not None:
            return upstream * self._target.derivative(cache), None
        xs, s = cache
        u = upstream.ravel()
        # The partials read s before uaf_slope scales its second row.
        d_uaf = None if self.uaf is None else _k_partials(xs, *self._params[:4], s).T @ u
        d_y = u * _k_slope(xs, *self._params[:4], s)
        return d_y.reshape(upstream.shape), d_uaf

    # -- forward / backward -------------------------------------------------

    def forward(self, batch: np.ndarray, training: bool = False):
        """Returns (activations, output, caches): the input and each hidden
        layer's activation output, the output, and per hidden layer the
        (activation cache, batch-norm cache) that step reads. Training mode
        moves the running statistics, takes the logistic pair s into the UAF
        caches, and refuses a batch with no rows. A batch whose rows x the
        widest of layer_sizes pass core.MAX_POINTS is refused before any
        layer is computed."""
        batch = coerce_reals("batch", batch)
        if batch.ndim != 2 or batch.shape[1] != self.config.layer_sizes[0]:
            raise ValueError(
                f"batch must have shape (n, {self.config.layer_sizes[0]}), got {batch.shape}"
            )
        if training and len(batch) == 0:
            raise ValueError("a training batch needs at least one row, got 0")
        check_size("batch rows x the widest of layer_sizes", len(batch),
                   max(self.config.layer_sizes))
        activations, caches = [batch], []
        a = batch
        for i in range(self.n_hidden):
            y, bn_cache = a @ self.weights[i] + self.biases[i], None
            if self.batch_norms is not None:
                y, bn_cache = self.batch_norms[i].forward(y, training)
            a, act_cache = self._act_forward(y, training)
            caches.append((act_cache, bn_cache))
            activations.append(a)
        output = a @ self.weights[-1] + self.biases[-1]
        return activations, output, caches

    def step(self, batch: np.ndarray, targets: np.ndarray) -> tuple[float, Gradients]:
        """One training-mode forward pass and the exact gradients of the
        configured loss over the batch: (loss, gradients). The backward pops
        each layer's caches and activation off the lists forward returned, so
        a layer's arrays are freed once its backward has read them. The
        parameters are left as they are; apply_gradients updates them.
        Mismatched targets are refused before the forward pass moves any
        running statistic."""
        targets = coerce_reals("targets", targets)
        shape = np.shape(batch)[:1] + self.config.layer_sizes[-1:]
        if targets.shape != shape:
            raise ValueError(f"targets must have shape {shape}, got {targets.shape}")
        activations, output, caches = self.forward(batch, training=True)
        loss, g = self._loss_and_grad(output, targets)
        flat = np.zeros_like(self.flat)
        grads = Gradients(flat, *_views(flat, self.config.layer_sizes, self.uaf is not None))
        for i in range(self.n_hidden, -1, -1):
            if i < self.n_hidden:
                act_cache, bn_cache = caches.pop()
                g, d_uaf = self._act_backward(act_cache, g)
                if d_uaf is not None:
                    grads.uaf += d_uaf
                if self.batch_norms is not None:
                    g = _BatchNorm.backward(g, bn_cache)
            np.matmul(activations.pop().T, g, out=grads.weights[i])
            g.sum(axis=0, out=grads.biases[i])
            if i > 0:
                g = g @ self.weights[i].T
        return loss, grads

    def backward(self, batch: np.ndarray, targets: np.ndarray) -> Gradients:
        """Exact gradients of the configured loss over the batch."""
        return self.step(batch, targets)[1]

    # -- loss / metric ------------------------------------------------------

    def _loss_and_grad(self, output: np.ndarray, targets: np.ndarray):
        if self.task == "regression":
            diff = output - targets
            loss = float((diff * diff).sum() / diff.size)
            return loss, 2.0 * diff / diff.size
        # Softmax cross-entropy, numerically stable via the shifted logsumexp.
        shifted = output - output.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_p = shifted - log_z
        n = output.shape[0]
        loss = float(-np.sum(targets * log_p) / n)
        return loss, (np.exp(log_p) - targets) / n

    def metric(self, output: np.ndarray, targets: np.ndarray) -> float:
        """Validation metric: RMSE for regression, accuracy for classification."""
        if self.task == "regression":
            diff = output - targets
            return float(np.sqrt(np.mean(diff * diff)))
        return float(np.mean(output.argmax(axis=1) == targets.argmax(axis=1)))

    # -- optimization -------------------------------------------------------

    def apply_gradients(self, grads: Gradients) -> None:
        """One SGD or Adam update, as one elementwise pass over flat."""
        opt = self.config.optimizer
        g = grads.flat
        if isinstance(opt, SgdConfig):
            self.flat -= self._rates * g
            return
        self._adam_t += 1
        t = self._adam_t
        m, v = self._adam_moments
        # m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
        # flat -= (rates m_hat) / (sqrt(v_hat) + eps), each product taken in
        # that order, through two temporaries.
        m *= opt.beta1
        step = (1 - opt.beta1) * g
        m += step
        v *= opt.beta2
        np.multiply(1 - opt.beta2, g, out=step)
        step *= g
        v += step
        denom = v / (1 - opt.beta2**t)
        np.sqrt(denom, out=denom)
        denom += opt.epsilon
        np.divide(m, 1 - opt.beta1**t, out=step)
        step *= self._rates
        step /= denom
        self.flat -= step


def train(config: NetworkConfig, dataset: Dataset) -> TrainReport:
    """Seeded mini-batch training; returns per-epoch traces, the UAF
    trajectory when the activation is trainable, and a divergence marker
    (with the failing epoch) when the loss, the validation metric or the
    shared UAF parameters leave the finite range. Raises
    ValueError when the outer layer sizes do not match the dataset, or when
    a layer's activations for the validation set or a batch would hold more
    than core.MAX_POINTS values."""
    start = time.perf_counter()
    config = coerce("config", config, NetworkConfig)
    dataset = coerce("dataset", dataset, Dataset)
    shape = (dataset.inputs.shape[1], dataset.targets.shape[1])
    if (config.layer_sizes[0], config.layer_sizes[-1]) != shape:
        raise ValueError(
            f"layer_sizes {list(config.layer_sizes)} must start with the dataset's "
            f"{shape[0]} inputs and end with its {shape[1]} outputs"
        )
    train_idx, val_idx, _ = dataset.split_indices()
    # A layer's activations for the validation set or for one batch are the
    # largest arrays a run builds beside the parameters.
    rows = max(len(val_idx), min(config.batch_size, len(train_idx)))
    check_size("validation or batch rows x the widest of layer_sizes", rows,
               max(config.layer_sizes))
    net = Network(config, task=dataset.kind)
    x_train = dataset.inputs[train_idx]
    y_train = dataset.targets[train_idx]
    x_val = dataset.inputs[val_idx]
    y_val = dataset.targets[val_idx]

    loss_trace: list[float] = []
    metric_trace: list[float] = []
    trajectory: list[tuple[int, UafParams]] | None = None
    if net.uaf is not None:
        trajectory = [(0, net.uaf_params())]
    diverged_epoch: int | None = None

    for epoch in range(1, config.epochs + 1):
        order = net.rng.permutation(len(x_train))
        x_epoch, y_epoch = x_train[order], y_train[order]
        batch_losses: list[float] = []
        # Divergence is detected from the loss, the metric and the UAF
        # themselves, so the intermediate overflow warnings on an exploding
        # run are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(order), config.batch_size):
                hi = lo + config.batch_size
                loss, grads = net.step(x_epoch[lo:hi], y_epoch[lo:hi])
                if not math.isfinite(loss):
                    diverged_epoch = epoch
                    break
                net.apply_gradients(grads)
                batch_losses.append(loss)
            if diverged_epoch is not None:
                break
            epoch_loss = float(np.mean(batch_losses))
            _, val_out, _ = net.forward(x_val, training=False)
            metric = net.metric(val_out, y_val)
        # The last update of an epoch can leave the shared UAF, and with it
        # the validation metric, non-finite while every batch loss was finite.
        if not (math.isfinite(epoch_loss) and math.isfinite(metric)
                and (net.uaf is None or np.isfinite(net.uaf).all())):
            diverged_epoch = epoch
            break
        loss_trace.append(epoch_loss)
        metric_trace.append(metric)
        if trajectory is not None:
            trajectory.append((epoch, net.uaf_params()))

    return TrainReport(
        loss_trace=tuple(loss_trace),
        metric_trace=tuple(metric_trace),
        uaf_trajectory=None if trajectory is None else tuple(trajectory),
        wall_time=time.perf_counter() - start,
        diverged_epoch=diverged_epoch,
    )
