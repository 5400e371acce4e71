"""Per-layer timing: spans around uafkit's public functions and methods, and
direct calls to the layers that the commands reach only through private
names.

The spans are installed by patching module and class attributes for the
duration of each traced command and removed afterwards, so untraced
commands run the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np
import uafkit as uk
from uafkit import targets

import jobs


def _gas_uaf_net(net) -> bool:
    return net.config.layer_sizes == jobs.GAS_LAYERS and net.uaf is not None


def _gas_uaf_step(net, batch, training=False) -> bool:
    return training and len(batch) == jobs.BATCH_SIZE and _gas_uaf_net(net)


# (module, attribute path, select) triples that get a span. The CLI and the
# library look these names up at call time, so patching the attribute
# catches every call. Calls that `select` rejects run without a span: the
# network.* metrics describe the gas net's training steps on a full batch.
SPANNED = (
    ("uafkit.fitting", "fit", None),
    ("uafkit.analysis", "error_report", None),
    ("uafkit.analysis", "rmse_table", None),
    ("uafkit.analysis", "critical_points", None),
    ("uafkit.analysis", "interval_rmse", None),
    ("uafkit.analysis", "approx_error", None),
    ("uafkit.analysis", "approx_error_batch", None),
    ("uafkit.network", "train", None),
    ("uafkit.network", "Network.forward", _gas_uaf_step),
    ("uafkit.network", "Network.apply_gradients", lambda net, grads: _gas_uaf_net(net)),
    ("uafkit.datasets", "make_gas_analogue", None),
    ("uafkit.datasets", "make_blobs", None),
)


class Tracer:
    """Durations and call counts per span name, kept in memory.

    `top` accumulates the time of spans not nested in another span: the
    library's share of a command's wall time.
    """

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.top = 0.0
        self._depth = 0

    def wrap(self, name: str, fn, select=None):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if select is not None and not select(*args, **kwargs):
                return fn(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                self.durations[name].append(elapsed)
                if self._depth == 0:
                    self.top += elapsed

        return spanned

    def calls(self, *names: str) -> int:
        return sum(len(self.durations[n]) for n in names)

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, path, select in SPANNED:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(f"{module_name[len('uafkit.'):]}.{path}", fn, select))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def per_call_s(fn, target_batch_s: float = 2e-3, batches: int = 25) -> float:
    """Median over batches of the mean time of one call of fn()."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    calls = max(1, int(target_batch_s / once))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def direct_layers(seed: int) -> dict[str, float]:
    """Layers reached only through private names, called through their
    public functions at the sizes the workloads use."""
    out: dict[str, float] = {}
    # The fit grid.
    p = uk.preset(uk.SIGMOID)
    xs = np.linspace(-10.0, 10.0, 2001)
    out["core.eval_ns_per_elem.n2001"] = per_call_s(lambda: uk.eval_batch(p, xs)) / xs.size * 1e9
    out["core.grad_ns_per_elem.n2001"] = per_call_s(lambda: uk.grad_batch(p, xs)) / xs.size * 1e9
    # The bisection's one-point calls and the error scan's grid:
    # (hi - lo) / 1e-3 + 1 points.
    p = uk.preset(uk.TANH)
    one = np.array([0.5])
    out["core.eval_call_us.n1"] = per_call_s(lambda: uk.eval_batch(p, one)) * 1e6
    xs = np.linspace(-10.0, 10.0, 20001)
    out["core.eval_ns_per_elem.n20001"] = per_call_s(lambda: uk.eval_batch(p, xs)) / xs.size * 1e9
    kinds = [uk.PresetKind.from_name(n) for n in uk.core.PRESET_NAMES]
    out["targets.eval_ns_per_elem.n20001"] = statistics.fmean(
        per_call_s(lambda t=uk.target(k): targets.target_eval_batch(t, xs)) / xs.size * 1e9
        for k in kinds
    )
    # One hidden activation of the gas net: batch 32 x 32 units.
    xs = np.random.default_rng(seed).standard_normal(1024)
    p = uk.preset(uk.IDENTITY)
    out["core.eval_ns_per_elem.n1024"] = per_call_s(lambda: uk.eval_batch(p, xs)) / xs.size * 1e9
    out["core.grad_ns_per_elem.n1024"] = per_call_s(lambda: uk.grad_batch(p, xs)) / xs.size * 1e9
    # The exact activations of the fixed runs: identity (gas), sigmoid (blobs).
    out["targets.derivative_ns_per_elem.n1024"] = statistics.fmean(
        per_call_s(lambda t=uk.target(k): targets.target_derivative_batch(t, xs)) / xs.size * 1e9
        for k in (uk.IDENTITY, uk.SIGMOID)
    )
    out["network.backward_us"] = _network_backward_us()
    return out


def _network_backward_us() -> float:
    """`Network.backward` minus `Network.forward` on one 32-row batch of the
    gas net with the trainable UAF. Training reaches the backward pass only
    through the private `_backward_from`; `forward` is timed here as well so
    that both sides of the difference are measured the same way."""
    gas = uk.make_gas_analogue(**jobs.dataset_kwargs(jobs.GAS_DATASET))
    config = uk.NetworkConfig(
        layer_sizes=jobs.GAS_LAYERS,
        activation=uk.TrainableUaf(uk.preset(uk.IDENTITY)),
        optimizer=uk.AdamConfig(learning_rate=0.001),
        batch_size=jobs.BATCH_SIZE,
        uaf_learning_rate=1e-4,
    )
    net = uk.Network(config, task="regression")
    xb, yb = gas.inputs[:jobs.BATCH_SIZE], gas.targets[:jobs.BATCH_SIZE]
    forward = per_call_s(lambda: net.forward(xb, training=True))
    backward = per_call_s(lambda: net.backward(xb, yb))
    return (backward - forward) * 1e6
