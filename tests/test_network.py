"""Unit tests for the dense network: forward, backward, batch norm, the flat
parameter buffer and its optimizers, and the training loop."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import uafkit as uk
from uafkit.network import (
    AdamConfig,
    FixedActivation,
    Network,
    NetworkConfig,
    SgdConfig,
    TrainableUaf,
    train,
)
from uafkit.datasets import Dataset


def _identity_uaf():
    return TrainableUaf(uk.preset(uk.IDENTITY))


# --- forward ------------------------------------------------------------------


def test_forward_zero_network_outputs_zero():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 2),
        activation=FixedActivation(uk.IDENTITY, exact=True),
        use_batch_norm=False,
    )
    net = Network(cfg)
    for w in net.weights:
        w[:] = 0.0
    _, out, _ = net.forward(np.ones((5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_forward_identity_chain_passes_input_through():
    cfg = NetworkConfig(
        layer_sizes=(1, 1, 1),
        activation=_identity_uaf(),
        use_batch_norm=False,
    )
    net = Network(cfg)
    net.weights[0][:] = 1.0
    net.weights[1][:] = 1.0
    net.biases[0][:] = 0.0
    net.biases[1][:] = 0.0
    x = np.array([[0.3], [-2.0], [5.5]])
    _, out, _ = net.forward(x)
    assert np.max(np.abs(out - x)) < 1e-12


def test_forward_rejects_bad_batch_width():
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf())
    net = Network(cfg)
    with pytest.raises(ValueError):
        net.forward(np.ones((5, 4)))


def test_forward_and_step_refuse_arrays_of_no_real_numbers():
    net = Network(NetworkConfig(layer_sizes=(2, 3, 1), activation=_identity_uaf()))
    x, y = np.ones((1, 2)), np.ones((1, 1))
    for call, message in (
        (lambda: net.forward(x * (1 + 1j)), "batch must hold real numbers, got dtype complex128"),
        (lambda: net.forward([["1", "2"]]), "batch must hold real numbers, got dtype <U1"),
        (lambda: net.forward([[1.0, True]]), "batch must hold real numbers, got a bool"),
        (lambda: net.step(x, [["1"]]), "targets must hold real numbers, got dtype <U1"),
        (lambda: net.step(x, y.astype(bool)), "targets must hold real numbers, got dtype bool"),
        (lambda: net.step(x.astype(object), y), "batch must hold real numbers, got dtype object"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    # integers are numbers: the same loss as their floats
    assert net.step(x.astype(int), y.astype(int))[0] == net.step(x, y)[0]


def test_batch_norm_normalizes_small_batch():
    cfg = NetworkConfig(
        layer_sizes=(1, 1, 1),
        activation=FixedActivation(uk.IDENTITY, exact=True),
        use_batch_norm=True,
    )
    net = Network(cfg)
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.0
    acts, _, _ = net.forward(np.array([[1.0], [2.0], [3.0]]), training=True)
    normalized = acts[1][:, 0]
    assert abs(normalized.mean()) < 1e-9
    assert abs(normalized.std() - 1.0) < 1e-9


def test_batch_norm_invariant_on_random_net():
    cfg = NetworkConfig(
        layer_sizes=(6, 5, 4, 2),
        activation=FixedActivation(uk.IDENTITY, exact=True),
        use_batch_norm=True,
        seed=13,
    )
    net = Network(cfg)
    rng = np.random.default_rng(0)
    acts, _, _ = net.forward(rng.normal(size=(64, 6)) * 3.0 + 1.0, training=True)
    for layer in acts[1:]:
        means = layer.mean(axis=0)
        stds = layer.std(axis=0)
        assert np.max(np.abs(means)) < 1e-7
        assert np.max(np.abs(stds - 1.0)) <= 1e-7


def test_inference_uses_running_statistics():
    cfg = NetworkConfig(
        layer_sizes=(2, 3, 1),
        activation=FixedActivation(uk.IDENTITY, exact=True),
        use_batch_norm=True,
        seed=1,
    )
    net = Network(cfg)
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(32, 2))
    net.forward(batch, training=True)
    # a single inference row works (batch statistics would be degenerate)
    _, out, _ = net.forward(batch[:1], training=False)
    assert out.shape == (1, 1)
    assert np.all(np.isfinite(out))


# --- backward -----------------------------------------------------------------


def _fd_check(net, x, y, rel_tol):
    """Central finite differences over every parameter tensor."""
    grads = net.backward(x, y)
    tensors = net.weights + net.biases + ([net.uaf] if net.uaf is not None else [])
    grad_tensors = grads.weights + grads.biases + (
        [grads.uaf] if grads.uaf is not None else []
    )
    h = 1e-6

    def loss():
        _, out, _ = net.forward(x, training=True)
        val, _ = net._loss_and_grad(out, y)
        return val

    for tensor, grad in zip(tensors, grad_tensors):
        flat = tensor.ravel()
        gflat = np.asarray(grad).ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss()
            flat[i] = keep - h
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2 * h)
            an = gflat[i]
            if max(abs(fd), abs(an)) <= 1e-6:
                assert abs(fd - an) < 1e-7
            else:
                assert abs(fd - an) <= rel_tol * max(abs(fd), abs(an))


def test_gradients_match_finite_differences():
    cfg = NetworkConfig(
        layer_sizes=(4, 3, 2),
        activation=TrainableUaf(uk.UafParams(1.1, 0.2, -0.05, 0.8, 0.1)),
        use_batch_norm=True,
        seed=5,
    )
    net = Network(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 4))
    y = rng.normal(size=(8, 2))
    _fd_check(net, x, y, rel_tol=1e-4)


def test_classification_gradients_match_finite_differences():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 3),
        activation=TrainableUaf(uk.preset(uk.TANH)),
        use_batch_norm=False,
        seed=6,
    )
    net = Network(cfg, task="classification")
    rng = np.random.default_rng(9)
    x = rng.normal(size=(6, 3))
    y = np.eye(3)[rng.integers(0, 3, size=6)]
    _fd_check(net, x, y, rel_tol=1e-4)


def test_zero_residual_gives_zero_gradients():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 2),
        activation=_identity_uaf(),
        use_batch_norm=False,
        seed=3,
    )
    net = Network(cfg)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    _, out, _ = net.forward(x, training=True)
    grads = net.backward(x, out.copy())
    for g in grads.weights + grads.biases + [grads.uaf]:
        assert np.max(np.abs(g)) < 1e-10


def test_frozen_activation_emits_no_uaf_gradients():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 2),
        activation=FixedActivation(uk.TANH),
        use_batch_norm=False,
    )
    net = Network(cfg)
    rng = np.random.default_rng(1)
    grads = net.backward(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
    assert grads.uaf is None


def test_frozen_uaf_backward_is_the_trainable_one_without_the_uaf_gradient():
    # The frozen UAF takes only the slope kernel; the trainable one takes the
    # slope as column 0 of the full gradient, bitwise the same.
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(7, 3)), rng.normal(size=(7, 2))
    grads = []
    for activation in (FixedActivation(uk.TANH), TrainableUaf(uk.preset(uk.TANH))):
        cfg = NetworkConfig(layer_sizes=(3, 5, 4, 2), activation=activation, seed=9)
        grads.append(Network(cfg).backward(x, y))
    frozen, trainable = grads
    for a, b in zip(frozen.weights + frozen.biases, trainable.weights + trainable.biases):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_batch_norm_running_statistics_follow_the_momentum_rule():
    bn = uk.network._BatchNorm(3)
    rng = np.random.default_rng(5)
    mu_run, sigma_run = bn.running_mu.copy(), bn.running_sigma.copy()
    for _ in range(3):
        h = rng.normal(2.0, 3.0, size=(16, 3))
        bn.forward(h, training=True)
        mu = h.sum(axis=0) / 16
        sigma = np.sqrt(((h - mu) * (h - mu)).sum(axis=0) / 16)
        mu_run = (1 - 0.1) * mu_run + 0.1 * mu
        sigma_run = (1 - 0.1) * sigma_run + 0.1 * sigma
        assert np.array_equal(bn.running_mu, mu_run)
        assert np.array_equal(bn.running_sigma, sigma_run)


def test_shared_uaf_is_one_vector_across_layers():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 4, 2),
        activation=TrainableUaf(uk.preset(uk.TANH)),
        use_batch_norm=False,
        seed=2,
    )
    net = Network(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 3))
    acts, _, _ = net.forward(x)
    # every hidden layer applies exactly the current shared parameter vector
    p = net.uaf_params()
    a = acts[0]
    for i in range(net.n_hidden):
        pre = a @ net.weights[i] + net.biases[i]
        expected = uk.eval_batch(p, pre.ravel()).reshape(pre.shape)
        assert np.array_equal(acts[i + 1], expected)
        a = acts[i + 1]
    # perturbing the single vector shifts every site identically
    net.uaf[4] += 0.25
    acts2, _, _ = net.forward(x)
    for i in range(1, len(acts)):
        assert np.max(np.abs(acts2[i][...] - acts[i])) > 0.0
    assert net.uaf_params().E == p.E + 0.25


def test_identity_init_matches_exact_identity_network():
    common = dict(layer_sizes=(5, 6, 3), use_batch_norm=True, seed=17)
    net_uaf = Network(NetworkConfig(activation=_identity_uaf(), **common))
    net_fix = Network(
        NetworkConfig(activation=FixedActivation(uk.IDENTITY, exact=True), **common)
    )
    rng = np.random.default_rng(18)
    x = rng.normal(size=(16, 5))
    _, out_uaf, _ = net_uaf.forward(x, training=True)
    _, out_fix, _ = net_fix.forward(x, training=True)
    assert np.max(np.abs(out_uaf - out_fix)) < 1e-9


def _state(net):
    """Every array the network holds, as bytes by attribute path: its own,
    those in its lists and tuples, and its batch norms' running statistics."""
    state = {}

    def walk(path, value):
        if isinstance(value, np.ndarray):
            state[path] = value.tobytes()
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                walk(f"{path}[{i}]", item)
        elif isinstance(value, uk.network._BatchNorm):
            for name, item in vars(value).items():
                walk(f"{path}.{name}", item)

    for name, value in vars(net).items():
        walk(name, value)
    return state


def test_step_returns_the_loss_and_the_backward_gradients():
    cfg = NetworkConfig(layer_sizes=(4, 5, 3), activation=_identity_uaf(), seed=3)
    net = Network(cfg, task="classification")
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 4))
    y = np.eye(3)[rng.integers(0, 3, size=7)]
    loss, grads = net.step(x, y)
    _, out, _ = net.forward(x, training=True)
    assert loss == net._loss_and_grad(out, y)[0]
    assert np.array_equal(grads.flat, net.backward(x, y).flat)
    before = _state(net)
    with pytest.raises(ValueError, match="targets"):
        net.step(x, y[:, :2])
    assert _state(net) == before


_ACTIVATIONS = [_identity_uaf(), FixedActivation(uk.TANH), FixedActivation(uk.TANH, exact=True)]
_ACTIVATION_IDS = ["trainable", "frozen", "exact"]


@pytest.mark.parametrize("activation", _ACTIVATIONS, ids=_ACTIVATION_IDS)
def test_only_a_training_step_changes_state_and_only_the_running_statistics(activation):
    cfg = NetworkConfig(layer_sizes=(3, 5, 4, 2), activation=activation, seed=4)
    net = Network(cfg)
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    keys, before = set(vars(net)), _state(net)
    net.forward(x)
    assert set(vars(net)) == keys
    assert _state(net) == before
    net.step(x, y)
    assert set(vars(net)) == keys
    after = _state(net)
    changed = {path for path in before if after[path] != before[path]}
    assert set(after) == set(before)
    assert changed == {f"batch_norms[{i}].{name}" for i in range(2)
                       for name in ("running_mu", "running_sigma")}


@pytest.mark.parametrize("activation", _ACTIVATIONS, ids=_ACTIVATION_IDS)
def test_an_empty_batch_trains_nothing_and_infers_an_empty_output(activation):
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), activation=activation, seed=1)
    net = Network(cfg)
    before = _state(net)
    with pytest.raises(ValueError, match="at least one row"):
        net.step(np.empty((0, 3)), np.empty((0, 2)))
    with pytest.raises(ValueError, match="at least one row"):
        net.forward(np.empty((0, 3)), training=True)
    assert _state(net) == before
    acts, out, caches = net.forward(np.empty((0, 3)))
    assert out.shape == (0, 2) and acts[1].shape == (0, 4) and len(caches) == 1
    _, out, _ = net.forward(np.ones((2, 3)))
    assert np.isfinite(out).all()


def test_forward_and_step_refuse_activations_above_the_cap():
    # 101 rows x 100,000 units = 10,100,000 activation values, above
    # core.MAX_POINTS: refused before a layer is computed (each would be an
    # 81 MB array) and before a running statistic moves.
    cfg = NetworkConfig(layer_sizes=(1, 100000, 1), activation=_identity_uaf(), seed=1)
    net = Network(cfg)
    before = _state(net)
    batch, targets = np.ones((101, 1)), np.ones((101, 1))
    message = ("batch rows x the widest of layer_sizes = 10100000 values, "
               f"above the cap of {uk.core.MAX_POINTS}")
    tracemalloc.start()
    try:
        for call in (lambda: net.forward(batch), lambda: net.forward(batch, training=True),
                     lambda: net.step(batch, targets)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert _state(net) == before


@pytest.mark.parametrize("sizes, rows, activation, most", [
    ((4, 20000, 1), 50, "uk.FixedActivation(uk.TANH)", 101.0),
    ((4, 20000, 1), 50, "uk.TrainableUaf(uk.preset(uk.IDENTITY))", 148.0),
    ((4, 20000, 1), 50, "uk.FixedActivation(uk.TANH, exact=True)", 66.0),
    ((4, 1000, 1000, 1000, 1000, 1000, 1), 200, "uk.TrainableUaf(uk.preset(uk.IDENTITY))", 102.0),
    ((4, 20000, 1), 50, "uk.TrainableUaf(uk.UafParams(1.0, 0.0, 1e-3, -1.0, 0.0))", 148.0),
    ((4, 1000, 1000, 1000, 1000, 1000, 1), 200,
     "uk.TrainableUaf(uk.UafParams(1.0, 0.0, 1e-3, -1.0, 0.0))", 102.0),
    ((4, 20000, 1), 50, "uk.FixedActivation(uk.GAUSSIAN)", 101.0),
], ids=["frozen", "trainable", "exact", "deep-trainable", "trainable-c", "deep-trainable-c",
        "frozen-c"])
def test_a_step_holds_a_bounded_footprint_per_hidden_value(peak_growth_mb, sizes, rows, activation, most):
    # One step on 1,000,000 hidden values: a (4, 20000, 1) net on 50 rows,
    # or five hidden layers of 1,000 on 200 rows. The peak grew by 93.0
    # (frozen), 140.8 (trainable), 58.9 (exact), 94.4 (deep trainable),
    # 140.8 (trainable at C = 1e-3), 94.3 (deep trainable at C = 1e-3) and
    # 93.0 (frozen gaussian, C != 0) bytes per value; each bound leaves 7 to
    # 8 B. A trainable run holds the identity preset's C = 0 for its first
    # step only, so the C != 0 cases bound every later one.
    made, stepped = peak_growth_mb([
        f"net = uk.Network(uk.NetworkConfig(layer_sizes={sizes}, activation={activation}))\n"
        "rng = np.random.default_rng(0)\n"
        f"x, y = rng.normal(size=({rows}, 4)), rng.normal(size=({rows}, 1))",
        "net.step(x, y)",
    ])
    assert (stepped - made) * 2**20 / 1e6 <= most


# --- flat parameter buffer and optimizers ------------------------------------------


def _tensors(owner):
    return owner.weights + owner.biases + [owner.uaf]


def test_parameters_and_gradients_are_views_of_one_flat_buffer():
    cfg = NetworkConfig(layer_sizes=(3, 4, 5, 2), activation=_identity_uaf(), seed=1)
    net = Network(cfg)
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 2))
    grads = net.backward(x, y)
    for owner in (net, grads):
        for k, tensor in enumerate(_tensors(owner)):
            assert np.shares_memory(tensor, owner.flat)
            tensor[...] = k
        # every element of the buffer belongs to exactly one tensor
        sizes = [t.size for t in _tensors(owner)]
        assert np.bincount(owner.flat.astype(int)).tolist() == sizes
    _, before, _ = net.forward(x)
    net.weights[0][0, 0] += 1.0
    _, after, _ = net.forward(x)
    assert not np.array_equal(before, after)


def _per_tensor_update(params, grads, rates, opt, state):
    """The update the fused pass replaces: one SGD or Adam step per tensor."""
    if isinstance(opt, SgdConfig):
        for p, g, rate in zip(params, grads, rates):
            p -= rate * g
        return
    state["t"] += 1
    t = state["t"]
    for i, (p, g) in enumerate(zip(params, grads)):
        state["m"][i] = opt.beta1 * state["m"][i] + (1 - opt.beta1) * g
        state["v"][i] = opt.beta2 * state["v"][i] + (1 - opt.beta2) * g * g
        m_hat = state["m"][i] / (1 - opt.beta1**t)
        v_hat = state["v"][i] / (1 - opt.beta2**t)
        p -= rates[i] * m_hat / (np.sqrt(v_hat) + opt.epsilon)


@pytest.mark.parametrize("optimizer", [SgdConfig(0.05), AdamConfig(0.01)], ids=["sgd", "adam"])
@pytest.mark.parametrize("uaf_learning_rate", [None, 1e-3])
def test_fused_update_matches_the_per_tensor_update_bitwise(optimizer, uaf_learning_rate):
    cfg = NetworkConfig(layer_sizes=(3, 5, 4, 2), activation=TrainableUaf(uk.preset(uk.TANH)),
                        optimizer=optimizer, uaf_learning_rate=uaf_learning_rate, seed=4)
    net = Network(cfg)
    reference = [t.copy() for t in _tensors(net)]
    rates = [optimizer.learning_rate] * (len(reference) - 1)
    rates.append(optimizer.learning_rate if uaf_learning_rate is None else uaf_learning_rate)
    state = {"t": 0, "m": [np.zeros_like(t) for t in reference],
             "v": [np.zeros_like(t) for t in reference]}
    rng = np.random.default_rng(6)
    for _ in range(5):
        _, grads = net.step(rng.normal(size=(8, 3)), rng.normal(size=(8, 2)))
        _per_tensor_update(reference, _tensors(grads), rates, optimizer, state)
        net.apply_gradients(grads)
        for fused, ref in zip(_tensors(net), reference):
            assert np.array_equal(fused, ref)


# --- config and report types -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(3, 2), activation=_identity_uaf())
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(3, 0, 2), activation=_identity_uaf())
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf(), epochs=0)
    with pytest.raises(ValueError):
        NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf(),
                      uaf_learning_rate=-1.0)
    with pytest.raises(ValueError, match="^uaf_learning_rate needs a trainable activation"):
        NetworkConfig(layer_sizes=(3, 4, 2), activation=FixedActivation(uk.RELU),
                      uaf_learning_rate=0.5)
    # the first four used to be cast: 32.7 to 32, 2.9 to 2, 1.5 to 1, "no" to batch norm on
    for bad in (dict(layer_sizes=(64, 32.7, 9)), dict(batch_size=2.9), dict(epochs=1.5),
                dict(use_batch_norm="no"), dict(seed=-1), dict(seed=True),
                dict(activation=uk.TANH), dict(optimizer={"kind": "sgd"})):
        with pytest.raises(ValueError):
            NetworkConfig(**{"layer_sizes": (3, 4, 2), "activation": _identity_uaf(), **bad})
    with pytest.raises(ValueError, match="^task must be regression or classification, got 'ranking'$"):
        Network(NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf()), task="ranking")
    cfg = NetworkConfig(layer_sizes=(np.int64(3), 4, 2), activation=_identity_uaf(),
                        seed=np.int64(5), use_batch_norm=np.bool_(False))
    assert (cfg.layer_sizes, cfg.seed, cfg.use_batch_norm) == ((3, 4, 2), 5, False)
    assert all(type(s) is int for s in cfg.layer_sizes)


def test_activation_and_optimizer_validation():
    for make in (lambda: SgdConfig(-1.0), lambda: SgdConfig("0.1"),
                 lambda: AdamConfig(beta1=1.5), lambda: AdamConfig(beta2=-0.1),
                 lambda: AdamConfig(epsilon=-1), lambda: AdamConfig(learning_rate=math.nan),
                 lambda: FixedActivation("tanh"), lambda: FixedActivation(uk.TANH, exact="no"),
                 lambda: TrainableUaf(uk.preset(uk.IDENTITY).to_dict())):
        with pytest.raises(ValueError):
            make()
    # a tagged field must be an object that holds its tag
    with pytest.raises(ValueError, match="^activation must be an object with a 'type' field$"):
        NetworkConfig.from_dict({"layer_sizes": [3, 4, 2], "activation": "fixed"})
    assert AdamConfig(beta1=0.0).beta1 == 0.0


def test_config_json_round_trip():
    cfg = NetworkConfig(
        layer_sizes=(4, 8, 2),
        activation=TrainableUaf(uk.preset(uk.SIGMOID)),
        optimizer=AdamConfig(learning_rate=0.002),
        batch_size=16,
        epochs=3,
        uaf_learning_rate=1e-4,
        seed=42,
    )
    again = NetworkConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        NetworkConfig.from_dict({**cfg.to_dict(), "momentum": 0.9})
    # SGD with a fixed activation, exact and frozen, through JSON text too
    for exact in (True, False):
        cfg = NetworkConfig(
            layer_sizes=(4, 8, 2),
            activation=FixedActivation(uk.leaky_relu(0.05), exact=exact),
            optimizer=SgdConfig(learning_rate=0.05),
        )
        assert NetworkConfig.from_dict(cfg.to_dict()) == cfg
        assert NetworkConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


# --- training ----------------------------------------------------------------------


def _linear_dataset(seed=0, n=400):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    return Dataset(inputs=x, targets=x @ w + b, kind="regression")


def test_train_linear_regression_to_small_error():
    # no batch norm: its per-batch statistics would jitter the affine map and
    # floor the loss far above the exact solution
    cfg = NetworkConfig(
        layer_sizes=(3, 8, 2),
        activation=FixedActivation(uk.IDENTITY, exact=True),
        use_batch_norm=False,
        optimizer=AdamConfig(learning_rate=0.01),
        batch_size=32,
        epochs=200,
        seed=0,
    )
    report = train(cfg, _linear_dataset())
    assert not report.diverged
    assert len(report.loss_trace) == 200
    assert math.sqrt(report.loss_trace[-1]) < 1e-2
    assert report.uaf_trajectory is None


def test_train_records_uaf_trajectory():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 2),
        activation=_identity_uaf(),
        epochs=3,
        seed=1,
    )
    report = train(cfg, _linear_dataset(n=100))
    assert report.uaf_trajectory is not None
    epochs = [e for e, _ in report.uaf_trajectory]
    assert epochs == [0, 1, 2, 3]
    assert report.uaf_trajectory[0][1] == uk.preset(uk.IDENTITY)
    assert len(report.metric_trace) == 3


def test_train_is_bitwise_deterministic():
    cfg = NetworkConfig(
        layer_sizes=(3, 5, 2),
        activation=_identity_uaf(),
        optimizer=AdamConfig(),
        epochs=4,
        seed=7,
    )
    a = train(cfg, _linear_dataset(seed=2))
    b = train(cfg, _linear_dataset(seed=2))
    assert a.loss_trace == b.loss_trace
    assert a.metric_trace == b.metric_trace
    assert a.uaf_trajectory == b.uaf_trajectory


def test_train_reports_divergence_with_epoch():
    cfg = NetworkConfig(
        layer_sizes=(3, 4, 2),
        activation=_identity_uaf(),
        optimizer=SgdConfig(learning_rate=1e9),
        epochs=5,
        seed=0,
    )
    report = train(cfg, _linear_dataset(n=100))
    assert report.diverged
    assert report.diverged_epoch == 1


def test_train_rejects_layer_sizes_that_miss_the_dataset():
    for sizes in ((4, 4, 2), (3, 4, 1)):
        cfg = NetworkConfig(layer_sizes=sizes, activation=_identity_uaf(), epochs=1)
        with pytest.raises(ValueError, match="layer_sizes"):
            train(cfg, _linear_dataset(n=80))


def test_train_reports_divergence_left_by_the_last_update():
    # One batch per epoch: the step sends the shared UAF to ~1e300 and the
    # validation metric to NaN after a finite batch loss.
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf(),
                        optimizer=SgdConfig(learning_rate=1e300), batch_size=128,
                        epochs=1, seed=0)
    report = train(cfg, _linear_dataset(n=100))
    assert (report.diverged, report.diverged_epoch) == (True, 1)
    assert report.metric_trace == ()
    json.dumps(report.to_dict(), allow_nan=False)


def test_train_report_serializes():
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf(),
                        epochs=2, seed=0)
    report = train(cfg, _linear_dataset(n=80))
    data = report.to_dict()
    assert set(data) >= {"loss_trace", "metric_trace", "uaf_trajectory",
                         "wall_time", "diverged", "diverged_epoch"}
    assert len(data["uaf_trajectory"]) == 3


def test_train_calls_forward_and_apply_gradients_once_per_batch(monkeypatch):
    calls = {"forward": 0, "apply_gradients": 0}
    forward, apply_gradients = Network.forward, Network.apply_gradients

    def counted_forward(self, batch, training=False):
        calls["forward"] += training
        return forward(self, batch, training=training)

    def counted_apply_gradients(self, grads):
        calls["apply_gradients"] += 1
        return apply_gradients(self, grads)

    monkeypatch.setattr(Network, "forward", counted_forward)
    monkeypatch.setattr(Network, "apply_gradients", counted_apply_gradients)
    data = _linear_dataset(n=100)
    cfg = NetworkConfig(layer_sizes=(3, 4, 2), activation=_identity_uaf(),
                        batch_size=32, epochs=2, seed=0)
    train(cfg, data)
    batches = 2 * math.ceil(len(data.split_indices()[0]) / 32)
    assert calls == {"forward": batches, "apply_gradients": batches}
