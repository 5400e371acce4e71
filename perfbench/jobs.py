"""The three workloads as rounds of `uafkit` CLI commands.

A round is a fixed multiset of operations; every run attempts whole rounds,
so the share of operations that fail is the same in every run. The seed
chooses the order of the operations within each round and the layout of the
JSON input files (key order and indentation), never what they mean.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

IDENTITY = {"A": 1.0, "B": 0.0, "C": 0.0, "D": -1.0, "E": 0.0}
FAMILIES = ("sigmoid-family", "tanh-family", "gaussian-family", "relu-family")
FAMILY_REPEATS = 25
SOFTPLUS_REPEATS = 2
# Report order of `uafkit table`; leaky_relu runs at alpha = 0.1.
PRESETS = ("identity", "step", "relu", "leaky_relu", "sigmoid", "tanh", "softplus", "gaussian")
LEAKY_ALPHA = 0.1
INTERVAL = (-10.0, 10.0)

GAS_DATASET = {"kind": "gas_analogue", "seed": 7, "snr_db": 30.0}
BLOBS_DATASET = {"kind": "blobs", "seed": 11, "n_classes": 4, "spread": 3.0}
GAS_LAYERS = (64, 32, 9)
GAS_EPOCHS = 60
BLOBS_EPOCHS = 20
BATCH_SIZE = 32


def dataset_kwargs(spec: dict) -> dict:
    """A dataset spec as keyword arguments of its uafkit.datasets generator."""
    return {k: v for k, v in spec.items() if k != "kind"}


def _free_spec(target: str) -> dict:
    return {"target": {"name": target}, "free": ["A", "B", "C", "D", "E"], "init": dict(IDENTITY)}


def _gas_config(activation: dict, **extra) -> dict:
    return {
        "layer_sizes": list(GAS_LAYERS),
        "activation": activation,
        "use_batch_norm": True,
        "seed": 0,
        "optimizer": {"kind": "adam", "learning_rate": 0.001},
        "batch_size": BATCH_SIZE,
        "epochs": GAS_EPOCHS,
        **extra,
    }


def _blobs_config(activation: dict, **extra) -> dict:
    return {
        "layer_sizes": [16, 24, 4],
        "activation": activation,
        "use_batch_norm": True,
        "seed": 3,
        "optimizer": {"kind": "adam", "learning_rate": 0.001},
        "batch_size": BATCH_SIZE,
        "epochs": BLOBS_EPOCHS,
        **extra,
    }


TRAINABLE = {"type": "trainable", "init": dict(IDENTITY)}

# File name -> JSON content; every file a workload's commands read.
INPUT_FILES = {
    "fit": {
        "free_sigmoid.json": _free_spec("sigmoid"),
        "free_softplus.json": _free_spec("softplus"),
        # Malformed: a string where a number belongs. The CLI contract is
        # exit 2 with a usage message.
        "bad_learning_rate.json": {**_free_spec("sigmoid"), "learning_rate": "0.1"},
    },
    "analysis": {},
    "train": {
        "gas.json": GAS_DATASET,
        "blobs.json": BLOBS_DATASET,
        "gas_uaf.json": _gas_config(TRAINABLE, uaf_learning_rate=1e-4),
        "gas_fixed.json": _gas_config({"type": "fixed", "kind": {"name": "identity"}, "exact": True}),
        "blobs_uaf.json": _blobs_config(TRAINABLE),
        "blobs_fixed.json": _blobs_config({"type": "fixed", "kind": {"name": "sigmoid"}, "exact": True}),
        # Malformed: null epochs, and a string where a bool belongs. Should
        # the string be accepted, one epoch keeps the wasted training short.
        "bad_epochs.json": _blobs_config(TRAINABLE, epochs=None),
        "bad_batch_norm.json": _blobs_config(TRAINABLE, use_batch_norm="no", epochs=1),
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI command. `job` names the command and its inputs; repeats of a
    job must print identical results."""

    job: str
    args: tuple[str, ...]
    usage_error: bool = False  # the correct outcome is exit 2, no traceback
    heavy: bool = False  # too slow to repeat: run once, not counted in --seconds
    short: bool = False  # 0.3 s or less: timed as its fastest repeat, not the mean


def _spec(name: str) -> str:
    return "{work}/" + name


def round_ops(workload: str, first: bool = False) -> list[Op]:
    """Every operation of one round, in a canonical order. In the first round
    of a `fit` run the free sigmoid fit, which takes most of a minute, stands
    in for one free softplus fit; the rounds keep the same length and the
    same one malformed command, so the share that fails never changes."""
    if workload == "fit":
        ops = [
            Op(f"fit {f}", ("fit", "--builtin", f), short=True)
            for f in FAMILIES
            for _ in range(FAMILY_REPEATS)
        ]
        ops += [
            Op("fit free softplus", ("fit", "--spec", _spec("free_softplus.json")))
        ] * SOFTPLUS_REPEATS
        if first:
            ops[-1] = Op("fit free sigmoid", ("fit", "--spec", _spec("free_sigmoid.json")), heavy=True)
        ops.append(
            Op("fit string learning_rate", ("fit", "--spec", _spec("bad_learning_rate.json")),
               usage_error=True)
        )
        return ops
    if workload == "analysis":
        ops = []
        for name in PRESETS:
            alpha = ("--alpha", repr(LEAKY_ALPHA)) if name == "leaky_relu" else ()
            ops.append(Op(
                f"report {name}",
                ("report", "--preset", name, *alpha, "--lo", "-10", "--hi", "10"), short=True,
            ))
        ops.append(Op("table", ("table", "--format", "csv"), short=True))
        return ops
    if workload == "train":
        def train(job, config, dataset, usage_error=False):
            return Op(job, ("train", "--config", _spec(config), "--dataset", _spec(dataset)),
                      usage_error=usage_error)
        return [
            train("train gas uaf", "gas_uaf.json", "gas.json"),
            train("train blobs uaf", "blobs_uaf.json", "blobs.json"),
            train("train gas fixed", "gas_fixed.json", "gas.json"),
            train("train blobs fixed", "blobs_fixed.json", "blobs.json"),
            train("train null epochs", "bad_epochs.json", "blobs.json", usage_error=True),
            train("train string batch_norm", "bad_batch_norm.json", "blobs.json",
                  usage_error=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fit", "analysis", "train")

# The jobs whose spans give the per-layer metrics that come from commands;
# a traced run of every workload runs each of them once, so those metrics
# mean the same on every workload. The free sigmoid fit is left out: it
# takes most of a minute.
PROBE_JOBS = (
    *(f"fit {f}" for f in FAMILIES),
    "fit free softplus",
    *(f"report {name}" for name in PRESETS),
    "table",
    "train gas uaf",
    "train blobs fixed",
)


def probe_ops() -> list[Op]:
    ops = {op.job: op for w in WORKLOADS for op in round_ops(w)}
    return [ops[job] for job in PROBE_JOBS]


def write_inputs(workload: str, seed: int, work: str) -> None:
    """Writes the workload's JSON input files into `work`, laid out by `seed`."""
    rng = random.Random(seed)
    for name, data in INPUT_FILES[workload].items():
        with open(f"{work}/{name}", "w") as handle:
            handle.write(render_json(data, rng))


def render_json(data, rng: random.Random) -> str:
    """JSON text as a person might write it: any key order, any indentation."""

    def shuffled(value):
        if isinstance(value, dict):
            keys = list(value)
            rng.shuffle(keys)
            return {k: shuffled(value[k]) for k in keys}
        if isinstance(value, list):
            return [shuffled(v) for v in value]
        return value

    return json.dumps(shuffled(data), indent=rng.choice((None, 2, 4))) + "\n"
