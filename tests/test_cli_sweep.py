"""A derandomised sweep of the CLI contract: whatever JSON values the input
files hold and whatever flag values are given, every command exits 0, 1 or
2 without a traceback, and the JSON it prints on exit 0 or 1 is strict JSON
(no NaN or Infinity).

Each JSON input starts from a valid document; an example changes up to
three of its fields, nested ones included, to a value of the field's own
type, to any JSON value, or removes them, or adds an unknown key. Sizes that
allocate memory or time (layer sizes, epochs, sample and iteration counts,
the report interval) are drawn from small ranges; the sizes that allocate
memory are also drawn above the count cap, where they fail at the check.
Since few examples draw those, a parametrised test below sets each of them
above the cap in turn. A last sweep writes each input file as bytes that are
mostly not UTF-8 JSON at all.
"""

import copy
import json
import math
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uafkit.cli import main
from uafkit.core import PARAM_NAMES, PRESET_NAMES


def _counts(hi):
    """Whole and fractional numbers up to hi, for the fields that size work."""
    return st.integers(-2, hi) | st.floats(-2.0, float(hi))


# Counts above core.MAX_POINTS; values just under it would allocate for real.
_ABOVE_CAP = st.sampled_from([1e15, 2**63])


def _sizes(hi):
    """_counts for the fields that size arrays, plus counts above the cap."""
    return _counts(hi) | _ABOVE_CAP


# Any JSON value. Its numbers are small, since a size field may draw it:
# unbounded numbers come from the strategies of the other numeric fields.
_SCALARS = st.none() | st.booleans() | _counts(60) | st.text(max_size=4)
_ANY = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
_NUMBERS = st.integers() | st.floats() | st.sampled_from([0, -1, 1e-300, 1e300, 10**400])

_IDENTITY = {"A": 1.0, "B": 0.0, "C": 0.0, "D": -1.0, "E": 0.0}
_KIND = st.sampled_from(PRESET_NAMES + ("swish",))
_PARAM = st.sampled_from(PARAM_NAMES + ("Q",))

# Each input file: a valid document, and for each field path (nested ones
# included) a strategy of values of that field's own type.
_PARAMS_FIELDS = {(name,): _NUMBERS for name in PARAM_NAMES}


def _nested(prefix, fields):
    return {prefix + path: values for path, values in fields.items()}


_SIGMOID_FAMILY = {
    "target": {"name": "sigmoid", "alpha": None},
    "free": ["A"],
    "ties": [{"param": "B", "kind": "recip", "source": "A", "value": 0.5},
             {"param": "D", "kind": "same", "source": "A"}],
    "init": {"A": 1.0, "B": 0.5, "C": 0.0, "D": 1.0, "E": 0.0},
    "interval": [-10.0, 10.0],
    "n_samples": 41,
    "max_iters": 20,
    "learning_rate": 0.1,
    "tolerance": 1e-12,
}
_FREE_FIT = {"target": "softplus", "free": list(PARAM_NAMES), "init": dict(_IDENTITY),
             "n_samples": 41, "max_iters": 20}
_FIT_FIELDS = {
    ("target",): _KIND | st.fixed_dictionaries({"name": _KIND}, optional={"alpha": _NUMBERS}),
    ("target", "name"): _KIND,
    ("target", "alpha"): _NUMBERS | st.none(),
    ("free",): st.lists(_PARAM, max_size=6),
    ("ties",): st.lists(st.fixed_dictionaries(
        {"param": _PARAM, "kind": st.sampled_from(["const", "same", "recip", "offset", "scale"])},
        optional={"source": _PARAM, "value": _NUMBERS}), max_size=3),
    ("ties", 0, "param"): _PARAM,
    ("ties", 0, "kind"): st.sampled_from(["const", "same", "recip", "offset", "scale"]),
    ("ties", 0, "source"): _PARAM | st.none(),
    ("ties", 0, "value"): _NUMBERS,
    ("init",): st.fixed_dictionaries({name: _NUMBERS for name in PARAM_NAMES}),
    **_nested(("init",), _PARAMS_FIELDS),
    ("interval",): st.lists(_NUMBERS, max_size=3),
    ("interval", 0): _NUMBERS,
    ("interval", 1): _NUMBERS,
    ("n_samples",): _sizes(60),
    ("max_iters",): _counts(30),
    ("learning_rate",): _NUMBERS,
    ("tolerance",): _NUMBERS,
}

# Both datasets have 4 inputs and 3 outputs, the outer sizes of the config.
_CONFIG = {
    "layer_sizes": [4, 5, 3],
    "activation": {"type": "trainable", "init": dict(_IDENTITY)},
    "use_batch_norm": True,
    "seed": 0,
    "optimizer": {"kind": "adam", "learning_rate": 0.01, "beta1": 0.9, "beta2": 0.999,
                  "epsilon": 1e-8},
    "batch_size": 8,
    "epochs": 2,
    "uaf_learning_rate": None,
}
_FIXED = {"type": "fixed", "kind": {"name": "tanh", "alpha": None}, "exact": False}
_CONFIG_FIELDS = {
    ("layer_sizes",): st.lists(_sizes(8), max_size=4),
    ("layer_sizes", 1): _sizes(8),
    ("activation",): st.sampled_from([_FIXED, _CONFIG["activation"]]),
    ("activation", "type"): st.sampled_from(["fixed", "trainable", "relu"]),
    **_nested(("activation", "init"), _PARAMS_FIELDS),
    ("activation", "kind"): _KIND | st.fixed_dictionaries({"name": _KIND, "alpha": _NUMBERS}),
    ("activation", "exact"): st.booleans(),
    ("use_batch_norm",): st.booleans(),
    ("seed",): _NUMBERS,
    ("optimizer",): st.fixed_dictionaries({"kind": st.sampled_from(["sgd", "adam", "rmsprop"])}),
    ("optimizer", "kind"): st.sampled_from(["sgd", "adam", "rmsprop"]),
    ("optimizer", "learning_rate"): _NUMBERS,
    ("optimizer", "beta1"): _NUMBERS,
    ("optimizer", "beta2"): _NUMBERS,
    ("optimizer", "epsilon"): _NUMBERS,
    ("batch_size",): _NUMBERS,
    ("epochs",): _counts(3),
    ("uaf_learning_rate",): _NUMBERS | st.none(),
}

_GAS = {"kind": "gas_analogue", "seed": 1, "n_samples": 40, "n_channels": 4, "n_species": 3,
        "snr_db": 30.0}
_BLOBS = {"kind": "blobs", "seed": 1, "n_samples": 40, "n_classes": 3, "n_features": 4,
          "spread": 1.0}
_DATASET_FIELDS = {
    ("kind",): st.sampled_from(["gas_analogue", "blobs", "cifar10"]),
    ("seed",): _NUMBERS,
    ("n_samples",): _sizes(80),
    ("n_channels",): _sizes(8),
    ("n_species",): _sizes(8),
    ("n_classes",): _sizes(8),
    ("n_features",): _sizes(8),
    ("spread",): _NUMBERS,
    ("snr_db",): _NUMBERS,
}


def _mostly(good, bad):
    """Draws from good four times in five, else from bad. Hypothesis favours
    the simplest draw, 0, so bad takes a value from the middle of the range."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 2 else good)


@st.composite
def _documents(draw, bases, fields, changes=st.integers(0, 3)):
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(changes)):
        *path, key = draw(st.sampled_from(sorted(fields, key=repr)))
        parent = doc
        for step in path:
            try:
                parent = parent[step]
            except (KeyError, IndexError, TypeError):
                parent = None
                break
        if isinstance(parent, list) and not (isinstance(key, int) and key < len(parent)):
            continue
        if not isinstance(parent, (dict, list)):
            continue
        how = draw(st.sampled_from(["typed", "typed", "any", "drop", "unknown"]))
        if how == "drop" and isinstance(parent, dict):
            parent.pop(key, None)
        elif how == "drop":
            del parent[key]
        elif how == "unknown" and isinstance(parent, dict):
            parent[draw(st.text(min_size=1, max_size=3))] = draw(_ANY)
        else:
            parent[key] = draw(fields[(*path, key)] if how == "typed" else _ANY)
    return doc


def _flag_floats(values=st.floats()):
    return _mostly(values.map(repr), st.text(max_size=4))


_FLAG_INTS = _mostly(st.integers(-2, 50).map(str),
                     st.text(max_size=3) | _ABOVE_CAP.map(int).map(str))
_ENDS = _mostly(st.floats(-50, 50), st.floats())
# The report scan has 1e3 points per unit of width, so its interval is kept
# small; infinite and NaN bounds are drawn as well.
_REPORT_ENDS = st.floats(-30, 30) | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _invocations(draw):
    """(args, files to write, UAFKIT_SEED or None, whether stdout is JSON)."""
    files = {}

    def option(flag, values, usually=False):
        given = _mostly(st.just(usually), st.just(not usually))
        return [flag, draw(values)] if draw(given) else []

    def range_options(lo_flag, hi_flag, ends):
        # mostly lo and lo plus a positive width, else two independent ends
        widened = st.tuples(ends, st.floats(0.5, 20.0)).map(lambda p: (p[0], p[0] + p[1]))
        lo, hi = draw(_mostly(widened, st.tuples(ends, ends)))
        return (option(lo_flag, _flag_floats(st.just(lo)), usually=True)
                + option(hi_flag, _flag_floats(st.just(hi)), usually=True))

    def params_or_preset():
        # exactly one of the two sources, mostly
        sources = draw(_mostly(st.sampled_from(["params", "preset"]),
                               st.sampled_from(["", "params preset"])))
        args = []
        if "params" in sources:
            files["params.json"] = draw(_documents([_IDENTITY], _PARAMS_FIELDS))
            args += ["--params", "params.json"]
        if "preset" in sources:
            args += ["--preset", draw(_KIND)]
        return args + option("--alpha", _flag_floats())

    command = draw(st.sampled_from(["eval", "sweep", "report", "table", "presets", "fit", "train"]))
    seed = None
    if command in ("eval", "sweep"):
        args = [command, *params_or_preset()]
        if command == "sweep":
            args += option("--target", _KIND, usually=True)
            args += option("--target-alpha", _flag_floats())
        args += range_options("--from", "--to", _ENDS)
        args += option("--n", _FLAG_INTS)
    elif command == "report":
        args = ["report", *option("--preset", _KIND, usually=True),
                *option("--alpha", _flag_floats()),
                *range_options("--lo", "--hi", _REPORT_ENDS),
                *option("--samples", _FLAG_INTS)]
    elif command == "table":
        args = ["table", *option("--samples", _FLAG_INTS, usually=True),
                *option("--format", st.sampled_from(["text", "csv", "xml"]), usually=True)]
    elif command == "presets":
        args = ["presets", "list"] if draw(st.booleans()) else [
            "presets", "show", draw(_KIND), *option("--alpha", _flag_floats())]
    elif command == "fit":
        if draw(st.booleans()):
            args = ["fit", "--builtin", draw(st.sampled_from(
                ["sigmoid-family", "tanh-family", "gaussian-family", "relu-family", "swish"]))]
        else:
            files["spec.json"] = draw(_documents([_SIGMOID_FAMILY, _FREE_FIT], _FIT_FIELDS))
            args = ["fit", "--spec", "spec.json"]
    else:
        # the changes mostly go to one of the two files, so that the other
        # one's checks pass and training runs
        changed = draw(st.sampled_from(["config", "dataset", "both"]))
        few = st.integers(0, 3 if changed == "both" else 2)
        files["config.json"] = draw(_documents(
            [_CONFIG], _CONFIG_FIELDS, few if changed != "dataset" else st.just(0)))
        files["dataset.json"] = draw(_documents(
            [_GAS, _BLOBS], _DATASET_FIELDS, few if changed != "config" else st.just(0)))
        args = ["train", "--config", "config.json", "--dataset", "dataset.json"]
        # an environment variable cannot hold a null character
        text = st.text(st.characters(exclude_characters="\x00"), max_size=3)
        seed = draw(_mostly(st.none(), st.integers(-5, 10**6).map(str) | text))
    json_out = command in ("report", "fit", "train") or args[:2] == ["presets", "show"]
    return args, files, seed, json_out


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
def test_cli_contract_holds_for_any_input(invocation):
    args, files, seed, json_out = invocation
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as work:
        for name, doc in files.items():
            with open(os.path.join(work, name), "w") as handle:
                json.dump(doc, handle)
        args = [os.path.join(work, a) if a in files else a for a in args]
        result = runner.invoke(main, args, env={"UAFKIT_SEED": seed})
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{args} {files} raised {result.exception!r}"
    )
    # a diverged train run (exit 1) prints its report too
    if json_out and result.exit_code in (0, 1):
        json.loads(result.stdout, parse_constant=_reject_constant)



def _above_cap(doc, *path):
    """doc with the count at path set above core.MAX_POINTS."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    parent = doc
    for step in parents:
        parent = parent[step]
    parent[key] = 1e15
    return doc


# Every JSON count that sizes an array, set above the cap in valid inputs.
_ABOVE_CAP_INPUTS = {
    "fit-family-n_samples": {"spec.json": _above_cap(_SIGMOID_FAMILY, "n_samples")},
    "fit-free-n_samples": {"spec.json": _above_cap(_FREE_FIT, "n_samples")},
    **{f"{base['kind']}-{field}": {"config.json": _CONFIG, "dataset.json": _above_cap(base, field)}
       for base, fields in ((_GAS, ("n_samples", "n_channels", "n_species")),
                            (_BLOBS, ("n_samples", "n_features", "n_classes")))
       for field in fields},
    "config-layer_sizes": {"config.json": _above_cap(_CONFIG, "layer_sizes", 1), "dataset.json": _GAS},
}


@pytest.mark.parametrize("files", _ABOVE_CAP_INPUTS.values(), ids=_ABOVE_CAP_INPUTS.keys())
def test_counts_above_the_cap_are_usage_errors(files):
    with tempfile.TemporaryDirectory() as work:
        for name, doc in files.items():
            with open(os.path.join(work, name), "w") as handle:
                json.dump(doc, handle)
        if "spec.json" in files:
            args = ["fit", "--spec", os.path.join(work, "spec.json")]
        else:
            args = ["train", "--config", os.path.join(work, "config.json"),
                    "--dataset", os.path.join(work, "dataset.json")]
        result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# --- input files of any bytes --------------------------------------------------

# Each input-file flag, with the command that reads it and a valid document
# for it; a train command reads the other of its two files valid.
_FILE_FLAGS = {
    "eval --params": (["eval", "--from", "0", "--to", "1"], _IDENTITY),
    "sweep --params": (["sweep", "--target", "relu", "--from", "0", "--to", "1"], _IDENTITY),
    "fit --spec": (["fit"], _SIGMOID_FAMILY),
    "train --config": (["train", "--dataset", "other.json"], _CONFIG),
    "train --dataset": (["train", "--config", "other.json"], _GAS),
}


@st.composite
def _file_bytes(draw, doc):
    """Bytes that are mostly not UTF-8 JSON: arbitrary bytes, the valid
    document behind a BOM or in UTF-16 or UTF-32, cut short inside a
    multi-byte character or with a stray byte, nested past the parser's
    depth, or holding an integer past Python's digit limit."""
    text = json.dumps({"é€\U0001d11e": "é€\U0001d11e", **doc}, ensure_ascii=False)
    how = draw(st.sampled_from(["bytes", "bom", "utf16", "truncated", "stray", "deep", "long_int"]))
    if how == "bytes":
        return draw(st.binary(max_size=40))
    if how == "bom":
        return b"\xef\xbb\xbf" + json.dumps(doc).encode()
    if how == "utf16":
        return json.dumps(doc).encode(draw(st.sampled_from(
            ["utf-16", "utf-16-le", "utf-16-be", "utf-32"])))
    data = text.encode()
    if how == "truncated":
        return data[:draw(st.integers(1, 10))]
    if how == "stray":
        at = draw(st.integers(0, len(data)))
        return data[:at] + bytes([draw(st.integers(0x80, 0xff))]) + data[at:]
    if how == "deep":
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
        depth = draw(st.sampled_from([500, 1000, 100_000]))
        closed = closer * depth if draw(st.booleans()) else ""
        key = draw(st.sampled_from(sorted(doc)))
        return json.dumps({**doc, key: "@"}).replace('"@"', opener * depth + "1" + closed).encode()
    digits = "9" * draw(st.sampled_from([4300, 4301, 5000]))
    key = draw(st.sampled_from(sorted(doc)))
    return json.dumps({**doc, key: "@"}).replace('"@"', digits).encode()


@st.composite
def _file_invocations(draw):
    flag = draw(st.sampled_from(sorted(_FILE_FLAGS)))
    command, doc = _FILE_FLAGS[flag]
    return flag, command, draw(_file_bytes(doc))


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_file_invocations())
def test_input_files_of_any_bytes_exit_0_1_or_2(invocation):
    flag, command, content = invocation
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "input.json")
        with open(path, "wb") as handle:
            handle.write(content)
        with open(os.path.join(work, "other.json"), "w") as handle:
            json.dump(_GAS if flag == "train --config" else _CONFIG, handle)
        args = [os.path.join(work, a) if a == "other.json" else a for a in command]
        result = CliRunner().invoke(main, [*args, flag.split()[1], path])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{flag} {content[:80]!r} raised {result.exception!r}"
    )
    assert "Traceback" not in result.output
