"""Every uafkit name that the benchmark in perfbench/ reaches still resolves.

The benchmark's worker exits 1 when a name it calls is gone, and the
benchmark runs the same perfbench/ against the old and the new code, so a
rename shows there only as a failed run. These tests call the names as
perfbench's worker and timers do, on small inputs, and run the commands of
a traced benchmark run under its spans.
"""

import importlib
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import uafkit as uk
from uafkit import targets
from uafkit.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules timers and jobs, imported by the plain names that
    perfbench's scripts use, and dropped again afterwards."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    try:
        yield importlib.import_module("timers"), importlib.import_module("jobs")
    finally:
        for name in ("timers", "jobs"):
            sys.modules.pop(name, None)


def test_spanned_names_resolve(perfbench):
    timers, _ = perfbench
    for module_name, path, _select in timers.SPANNED:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module_name, path)


def test_traced_probe_jobs_record_every_span(perfbench, tmp_path):
    # A name can resolve and still never be called through its module, for
    # instance when the CLI binds it at import: a traced benchmark run then
    # finds no span for it, and its worker exits 1.
    timers, jobs = perfbench
    for workload in ("fit", "train"):
        jobs.write_inputs(workload, 1, str(tmp_path))
    runner = CliRunner()
    with timers.Tracer().installed() as tracer:
        for op in jobs.probe_ops():
            result = runner.invoke(main, [a.replace("{work}", str(tmp_path)) for a in op.args])
            assert result.exit_code == 0, (op.job, result.output)
    for module_name, path, _select in timers.SPANNED:
        name = f"{module_name[len('uafkit.'):]}.{path}"
        assert tracer.calls(name) > 0, name


def test_worker_and_direct_layer_names_resolve(perfbench):
    _, jobs = perfbench
    assert isinstance(uk.backend_name(), str)
    assert isinstance(importlib.import_module("uafkit.cli").main, click.Command)
    assert uk.core.PRESET_NAMES == (
        "identity", "step", "sigmoid", "tanh", "relu", "leaky_relu", "softplus", "gaussian",
    )
    xs = np.linspace(-10.0, 10.0, 5)
    for name in uk.core.PRESET_NAMES:
        t = uk.target(uk.PresetKind.from_name(name))
        assert targets.target_eval_batch(t, xs).shape == xs.shape
        assert targets.target_derivative_batch(t, xs).shape == xs.shape
    p = uk.preset(uk.SIGMOID)
    assert uk.eval_batch(p, xs).shape == (5,)
    assert uk.grad_batch(p, xs).shape == (5, 6)

    gas = uk.make_gas_analogue(**jobs.dataset_kwargs(jobs.GAS_DATASET))
    train_idx, val_idx, _ = uk.Dataset.split_indices(gas)
    assert train_idx.size and val_idx.size
    config = uk.NetworkConfig(
        layer_sizes=jobs.GAS_LAYERS,
        activation=uk.TrainableUaf(uk.preset(uk.IDENTITY)),
        optimizer=uk.AdamConfig(learning_rate=0.001),
        batch_size=jobs.BATCH_SIZE,
        uaf_learning_rate=1e-4,
    )
    net = uk.Network(config, task="regression")
    xb, yb = gas.inputs[: jobs.BATCH_SIZE], gas.targets[: jobs.BATCH_SIZE]
    net.forward(xb, training=True)
    net.backward(xb, yb)
