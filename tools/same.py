"""Same-results check: one fixed corpus of uafkit CLI commands and library
calls, run against this checkout's src/ and against another checkout's, each
in a fresh interpreter, with the entries whose output differs listed.

    python tools/same.py PARENT_CHECKOUT

The corpus is taken from this checkout (see corpus): every perfbench job,
every --help, the presets, reports on four intervals, both table formats,
eval and sweep per preset, fits with each kind of tie, training runs, a
malformed input for each command under three UAFKIT_SEED settings, and
library calls that no command makes: the batch functions at 2 * 65,536 + 3
points, and each family's characteristic residual at its preset on the
[-10, 10] grid and out to |x| = 1e4. A command's digest is the sha256 of its
exit code, stdout, stderr, uncaught exception, warnings and output files,
with train's wall_time masked; a library call's is that of its array. Each
run reads and writes files only in its own copy of the corpus's work
directory, under relative names, so that no message names a checkout.

It prints the NumPy dispatch target of each run, one sha256 per entry (this
checkout's), then "N of M entries differ" and one "- name" line per
differing entry. Digests compare only within one dispatch target: NumPy's
exp and log1p loops differ in the last bits between the SSE baseline, AVX2
and AVX-512, so the two runs must report the same one. Exit status: 0 when
the runs were compared, whatever differs; 2 when they cannot be (no
src/uafkit in the checkout, a run that fails, or two dispatch targets).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PRESETS = ("identity", "step", "sigmoid", "tanh", "relu", "leaky_relu", "softplus", "gaussian")
REPORT_INTERVALS = (("-10", "10"), ("-1000", "1000"), ("-1e-3", "2e-3"), ("-3", "7.5"))
COMMANDS = ("eval", "presets", "presets list", "presets show", "fit", "report", "table",
            "train", "sweep")
SEEDS = (None, "7", "x")
# The batch functions' points: two BATCH_BLOCK pieces and a 3-point tail,
# the finite end of the kernels' inputs among them.
BATCH_POINTS = 2 * 65536 + 3
SPECIAL_POINTS = (0.0, -0.0, 1e-300, -1e-300, 745.2, -745.2)
BATCH_PARAMS = {
    "sigmoid": (1.0, 0.5, 0.0, 1.0, 0.0),
    "gaussian": (0.0, 0.0, -0.6134142, 0.0, 0.5),
    "mixed": (1.5, -0.25, 0.01, -0.75, 0.1),
}
# The target of each batch call that takes one, and the families with a
# characteristic equation, each at its preset (leaky_relu's alpha is 0.1).
BATCH_TARGETS = {"sigmoid": "sigmoid", "gaussian": "gaussian", "mixed": "tanh"}
RESIDUAL_FAMILIES = ("sigmoid", "tanh", "relu", "leaky_relu", "gaussian")
# The residual's points: the report grid on [-10, 10], and points out to
# |x| = 1e4, where its terms as plain exponentials overflow or underflow.
RESIDUAL_POINTS = 20001
RESIDUAL_SPECIAL = (0.0, 40.0, -40.0, 120.0, -120.0, 300.0, -300.0, 400.0, -400.0,
                    800.0, -800.0, 1e4, -1e4)

IDENTITY = {"A": 1.0, "B": 0.0, "C": 0.0, "D": -1.0, "E": 0.0}
BLOBS = {"kind": "blobs", "seed": 11, "n_samples": 200, "n_classes": 4, "n_features": 16}
GAS = {"kind": "gas_analogue", "seed": 7, "n_samples": 200, "n_channels": 16, "n_species": 4}
ACTIVATIONS = {
    "trainable": {"type": "trainable", "init": IDENTITY},
    "frozen": {"type": "fixed", "kind": {"name": "tanh"}},
    "exact": {"type": "fixed", "kind": {"name": "sigmoid"}, "exact": True},
}
OPTIMIZERS = {"adam": {"kind": "adam", "learning_rate": 0.01}, "sgd": {"kind": "sgd", "learning_rate": 0.05}}


def _tie(param, kind, source=None, value=0.0):
    return {"param": param, "kind": kind, "source": source, "value": value}


def _fit_spec(free, ties, target="sigmoid", **extra):
    init = {"A": 1.0, "B": 0.5, "C": 0.0, "D": 1.0, "E": 0.0}
    return {"target": {"name": target}, "free": free, "init": init, "ties": ties, **extra}


FIT_SPECS = {
    "same": _fit_spec(["A", "B"], [_tie("D", "same", "A")]),
    "offset": _fit_spec(["A", "C"], [_tie("D", "offset", "A", -0.5)], target="tanh"),
    "const": _fit_spec(["A", "B", "C", "D"], [_tie("E", "const", None, 0.125)], target="softplus"),
    "recip": _fit_spec(["A"], [_tie("B", "recip", "A", 0.5), _tie("D", "same", "A")]),
    "zero recip": _fit_spec(["A", "D"], [_tie("B", "recip", "A", 0.0)], target="gaussian"),
}

# File name -> text (bytes for the files that are not UTF-8): the corpus's
# own inputs, beside the perfbench jobs' files.
MALFORMED = {
    "null_param.json": json.dumps({**IDENTITY, "A": None}),
    "utf16.json": b"\xff\xfe{}",
    "not_json.json": "{not json",
    "deep.json": "[" * 100_000,
    "null_epochs.json": json.dumps({"layer_sizes": [16, 8, 4], "activation": ACTIVATIONS["trainable"],
                                    "epochs": None}),
    "long_integer.json": '{"kind": "blobs", "seed": ' + "9" * 5000 + "}",
    "null_seed.json": json.dumps({**BLOBS, "seed": None}),
}


def _train_config(layers, activation, optimizer, epochs):
    return {"layer_sizes": layers, "activation": ACTIVATIONS[activation],
            "optimizer": OPTIMIZERS[optimizer], "batch_size": 32, "epochs": epochs, "seed": 5}


def _load_jobs():
    """perfbench/jobs.py, read without writing its bytecode or touching
    sys.path: the corpus takes the benchmark's job list from it. Its
    dataclass looks its module up in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def corpus(work: Path) -> list[dict]:
    """Writes every input file into work and returns the entries, in the
    order a run takes them. A CLI entry is {"name", "args", "seed",
    "outputs"}: args name files relative to work, seed is UAFKIT_SEED (None
    for unset) and outputs are the files the command writes. A library entry
    is {"name", "call", "kind", "params"}: the target kind as JSON and the
    five parameters, each None where the call takes none (the residual takes
    its kind's preset). A perfbench job's entry is named as the job."""
    entries = []

    def cli(name, *args, seed=None, outputs=()):
        entries.append({"name": name, "args": list(args), "seed": seed, "outputs": list(outputs)})

    def write(name, content):
        path = work / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))

    jobs = _load_jobs()
    for workload in jobs.WORKLOADS:
        jobs.write_inputs(workload, 1, str(work))
        seen = set()
        for op in jobs.round_ops(workload, first=True) + jobs.round_ops(workload):
            if op.job in seen:
                continue
            seen.add(op.job)
            args = [a.replace("{work}", ".") for a in op.args]
            if workload == "train":
                cli(op.job, *args, "--csv", "trajectory.csv", outputs=["trajectory.csv"])
            else:
                cli(op.job, *args)

    cli("--help", "--help")
    for command in COMMANDS:
        cli(f"{command} --help", *command.split(), "--help")
    cli("presets list", "presets", "list")
    for name in PRESETS:
        cli(f"presets show {name}", "presets", "show", name)
    cli("presets show leaky_relu alpha 0.1", "presets", "show", "leaky_relu", "--alpha", "0.1")

    for lo, hi in REPORT_INTERVALS:
        for name in PRESETS:
            cli(f"report {name} [{lo}, {hi}]", "report", "--preset", name, "--lo", lo, "--hi", hi)
    cli("report tanh to a file", "report", "--preset", "tanh", "--output", "report.json",
        outputs=["report.json"])
    cli("table text", "table")  # the perfbench job "table" is the CSV

    for name in PRESETS:
        cli(f"eval {name}", "eval", "--preset", name, "--from", "-10", "--to", "10")
        cli(f"sweep {name}", "sweep", "--preset", name, "--target", name,
            "--from", "-10", "--to", "10")
    for command in ("eval", "sweep"):
        target = ("--target", "gaussian") if command == "sweep" else ()
        cli(f"{command} gaussian extreme grid", command, "--preset", "gaussian", *target,
            "--from", "-1e200", "--to", "1e200", "--n", "41")
    write("params.json", {"params": {"A": 1.5, "B": -0.25, "C": 0.01, "D": -0.75, "E": 0.1}})
    cli("eval params file to a file", "eval", "--params", "params.json", "--from", "-3",
        "--to", "3", "--output", "eval.csv", outputs=["eval.csv"])

    for name, spec in FIT_SPECS.items():
        path = f"fit_{name.replace(' ', '_')}.json"
        write(path, spec)
        cli(f"fit {name} tie", "fit", "--spec", path)
    # B runs into relu's flat side, where J^T J turns subnormal near the end
    # and a one-parameter step's 1 / m overflows.
    write("fit_subnormal.json", _fit_spec(
        ["B"], [], target="relu", init=IDENTITY,
        interval=[-22.1112233568401, -18.197504407714963], n_samples=41, tolerance=0.0))
    cli("fit subnormal J^T J", "fit", "--spec", "fit_subnormal.json")

    write("gas_small.json", GAS)
    write("blobs_small.json", BLOBS)
    for data, layers, epochs in (("gas", [16, 12, 4], 4), ("blobs", [16, 12, 4], 6)):
        for activation in ACTIVATIONS:
            for optimizer in OPTIMIZERS:
                path = f"train_{data}_{activation}_{optimizer}.json"
                write(path, _train_config(layers, activation, optimizer, epochs))
                cli(f"train {data} {activation} {optimizer}", "train", "--config", path,
                    "--dataset", f"{data}_small.json", "--csv", "trajectory.csv",
                    outputs=["trajectory.csv"])

    for name, content in MALFORMED.items():
        write(name, content)
    # A malformed input for each command, and a seeded run that UAFKIT_SEED
    # reseeds, or refuses when it is not a whole number.
    under_seeds = {
        "eval null A": ("eval", "--params", "null_param.json", "--from", "0", "--to", "1"),
        "sweep UTF-16 params": ("sweep", "--params", "utf16.json", "--target", "tanh",
                                "--from", "0", "--to", "1"),
        "fit not JSON": ("fit", "--spec", "not_json.json"),
        "fit deep nesting": ("fit", "--spec", "deep.json"),
        "fit missing file": ("fit", "--spec", "missing.json"),
        "train null epochs": ("train", "--config", "null_epochs.json", "--dataset",
                              "blobs_small.json"),
        "train long integer seed": ("train", "--config", "train_blobs_exact_sgd.json",
                                    "--dataset", "long_integer.json"),
        "train null dataset seed": ("train", "--config", "train_blobs_exact_sgd.json",
                                    "--dataset", "null_seed.json"),
        "train blobs seeded": ("train", "--config", "train_blobs_trainable_adam.json",
                               "--dataset", "blobs_small.json"),
        "report one sample": ("report", "--preset", "tanh", "--samples", "1"),
        "report reversed interval": ("report", "--preset", "tanh", "--lo", "1", "--hi", "-1"),
        "table unknown format": ("table", "--format", "xml"),
        "presets show unknown": ("presets", "show", "swish"),
    }
    for seed in SEEDS:
        for name, args in under_seeds.items():
            cli(f"{name}, UAFKIT_SEED={seed if seed is not None else 'unset'}", *args, seed=seed)

    def library(name, call, kind=None, params=None):
        entries.append({"name": name, "call": call, "kind": kind, "params": params})

    for name, params in BATCH_PARAMS.items():
        for call in ("eval_batch", "grad_batch"):
            library(f"{call} {name}", call, params=list(params))
        target = {"name": BATCH_TARGETS[name]}
        library(f"approx_error_batch {name}", "approx_error_batch", target, list(params))
    for name in PRESETS:
        for call in ("target_eval_batch", "target_derivative_batch"):
            library(f"{call} {name}", call, {"name": name})
    for name in RESIDUAL_FAMILIES:
        library(f"characteristic_residual_scaled {name}", "characteristic_residual_scaled",
                {"name": name})
    return entries


def _dispatch() -> str:
    """The SIMD features NumPy found and the targets its float64 exp, log1p
    and multiply loops run on, as CI's DISPATCH_TARGET reads them (NumPy 2
    and later)."""
    import numpy as np

    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    found = " ".join(simd.get("found", [])) or "none"
    info = np.lib.introspect.opt_func_info(r"^(exp|log1p|multiply)$", "float64")
    loops = ", ".join(f"{name} {sig['current']}" for name, sigs in info.items() for sig in sigs.values())
    return f"NumPy {np.__version__}: found {found}; {loops}"


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _masked(text: str) -> str:
    """text with train's wall_time value (seconds, never the same twice)
    replaced by null."""
    return re.sub(r'("wall_time": )[^,\n}]+', r"\1null", text)


def child(request: dict) -> dict:
    """Runs the corpus in this interpreter, in the current directory, with
    uafkit imported from request["src"]; the digests by entry name."""
    import warnings

    import numpy as np
    from click.testing import CliRunner

    import uafkit
    from uafkit.cli import main

    if Path(uafkit.__file__).resolve().parent != Path(request["src"]) / "uafkit":
        raise SystemExit(f"uafkit was imported from {uafkit.__file__}, not {request['src']}")
    # A warning is recorded by its category and message, every time it is
    # raised: its default text names the file and line it came from.
    warned = []
    warnings.simplefilter("always")
    warnings.showwarning = lambda message, category, *_args, **_kw: warned.append(
        f"{category.__name__}: {message}")
    try:
        runner = CliRunner(mix_stderr=False)
    except TypeError:  # click 8.2 and later keep stderr apart anyway
        runner = CliRunner()
    xs = np.concatenate([np.linspace(-30.0, 30.0, BATCH_POINTS - len(SPECIAL_POINTS)),
                         SPECIAL_POINTS])
    residual_xs = np.linspace(-10.0, 10.0, RESIDUAL_POINTS).tolist() + list(RESIDUAL_SPECIAL)
    digests = {}
    for entry in request["entries"]:
        warned.clear()
        if "call" in entry:
            call = getattr(uafkit, entry["call"])
            kind = uafkit.PresetKind.from_dict(entry["kind"]) if entry["kind"] else None
            with np.errstate(all="ignore"):
                if entry["call"] == "characteristic_residual_scaled":
                    p = uafkit.preset(kind)
                    out = np.array([call(kind, p, x) for x in residual_xs])
                else:
                    args = [uafkit.UafParams(*entry["params"])] if entry["params"] else []
                    if kind:
                        args.append(kind)
                    out = call(*args, xs)
            digests[entry["name"]] = _digest(str(out.dtype), out.shape, out.tobytes().hex())
            continue
        result = runner.invoke(main, entry["args"], env={"UAFKIT_SEED": entry["seed"]})
        exc = result.exception
        raised = None if exc is None or isinstance(exc, SystemExit) else f"{type(exc).__name__}: {exc}"
        outputs = {}
        for name in entry["outputs"]:
            path = Path(name)
            outputs[name] = _masked(path.read_text()) if path.exists() else None
            path.unlink(missing_ok=True)
        digests[entry["name"]] = _digest(result.exit_code, _masked(result.stdout), result.stderr,
                                         raised, warned, outputs)
    return {"dispatch": _dispatch(), "digests": digests}


def _run(tree: Path, work: Path, entries: list[dict]) -> dict:
    """The corpus's digests and dispatch target from a fresh interpreter on
    tree/src, in the work directory."""
    request = {"src": str((tree / "src").resolve()), "entries": entries}
    env = {**os.environ, "PYTHONPATH": request["src"], "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"], input=json.dumps(request),
        capture_output=True, text=True, cwd=work, env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the run on {tree} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if argv == ["--child"]:  # the fresh interpreter _run starts
        print(json.dumps(child(json.loads(sys.stdin.read()))))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent = Path(argv[0])
    if not (parent / "src" / "uafkit" / "__init__.py").is_file():
        print(f"cannot compare: no src/uafkit in {parent}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="uafkit-same-") as tmp:
        scratch = Path(tmp)
        template = scratch / "template"
        template.mkdir()
        entries = corpus(template)
        runs = {}
        for label, tree in (("parent", parent), ("this", ROOT)):
            start = time.perf_counter()
            try:
                shutil.copytree(template, scratch / label)
                runs[label] = _run(tree, scratch / label, entries)
            except RuntimeError as exc:
                print(f"cannot compare: {exc}", file=sys.stderr)
                return 2
            print(f"{label} checkout ({tree}): {runs[label]['dispatch']}, "
                  f"{time.perf_counter() - start:.1f} s")
    if runs["parent"]["dispatch"] != runs["this"]["dispatch"]:
        print("cannot compare: the two runs took different dispatch targets", file=sys.stderr)
        return 2
    ours, theirs = runs["this"]["digests"], runs["parent"]["digests"]
    for entry in entries:
        print(f"{ours[entry['name']]}  {entry['name']}")
    differ = [e["name"] for e in entries if ours[e["name"]] != theirs[e["name"]]]
    print(f"{len(differ)} of {len(entries)} entries differ")
    for name in differ:
        print(f"- {name} (parent {theirs[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
