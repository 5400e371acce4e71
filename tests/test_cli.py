"""End-to-end tests of the command-line interface."""

import gc
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

import uafkit as uk
from uafkit._kernels import BATCH_BLOCK
from uafkit.cli import main
from uafkit.targets import target_eval_batch


@pytest.fixture()
def runner():
    return CliRunner()


def _lines(result):
    return result.output.strip().splitlines()


# --- eval ---------------------------------------------------------------------


def test_eval_identity_three_points(runner):
    result = runner.invoke(main, ["eval", "--preset", "identity",
                                  "--from", "-1", "--to", "1", "--n", "3"])
    assert result.exit_code == 0
    rows = _lines(result)
    assert rows[0] == "x,f_uaf"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert values == [-1.0, 0.0, 1.0]


def test_eval_with_params_file(runner, tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(uk.preset(uk.SOFTPLUS).to_dict()))
    result = runner.invoke(main, ["eval", "--params", str(params),
                                  "--from", "0", "--to", "1", "--n", "2"])
    assert result.exit_code == 0
    rows = _lines(result)
    assert float(rows[1].split(",")[1]) == pytest.approx(math.log(2.0))


def test_eval_requires_exactly_one_source(runner, tmp_path):
    result = runner.invoke(main, ["eval", "--from", "-1", "--to", "1"])
    assert result.exit_code == 2
    params = tmp_path / "p.json"
    params.write_text(json.dumps(uk.preset(uk.IDENTITY).to_dict()))
    result = runner.invoke(main, ["eval", "--params", str(params),
                                  "--preset", "identity",
                                  "--from", "-1", "--to", "1"])
    assert result.exit_code == 2


def test_eval_writes_output_file(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["eval", "--preset", "tanh",
                                  "--from", "-2", "--to", "2", "--n", "5",
                                  "--output", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,f_uaf"
    assert len(lines) == 6


def test_usage_errors_exit_2(runner, tmp_path):
    # unknown flag
    assert runner.invoke(main, ["eval", "--bogus", "1"]).exit_code == 2
    # malformed JSON names the file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["eval", "--params", str(bad),
                                  "--from", "0", "--to", "1"])
    assert result.exit_code == 2
    assert "bad.json" in result.output
    # unreadable file
    result = runner.invoke(main, ["eval", "--params", str(tmp_path / "none.json"),
                                  "--from", "0", "--to", "1"])
    assert result.exit_code == 2
    # bad range / sample count
    assert runner.invoke(main, ["eval", "--preset", "tanh",
                                "--from", "2", "--to", "-2"]).exit_code == 2
    assert runner.invoke(main, ["eval", "--preset", "tanh", "--from", "0",
                                "--to", "1", "--n", "1"]).exit_code == 2
    # --alpha is the slope of the leaky_relu preset: a kind without one, or a
    # --params file, has none to set
    params = tmp_path / "p.json"
    params.write_text(json.dumps(uk.preset(uk.TANH).to_dict()))
    for args, named in ((["eval", "--preset", "tanh"], "alpha"),
                        (["eval", "--params", str(params)], "--alpha"),
                        (["sweep", "--params", str(params), "--target", "tanh"], "--alpha")):
        result = runner.invoke(main, [*args, "--alpha", "0.3", "--from", "0", "--to", "1"])
        assert result.exit_code == 2, args
        assert named in result.output


@pytest.mark.parametrize("args", [
    ["eval", "--preset", "tanh", "--from", "-1e308", "--to", "1e308"],
    ["sweep", "--preset", "tanh", "--target", "tanh", "--from", "-1e308", "--to", "1e308"],
    ["report", "--preset", "tanh", "--lo", "-1e308", "--hi", "1e308"],
    # a finite width, but its 1e311 scan points are above the point cap
    ["report", "--preset", "tanh", "--lo", "-1e308", "--hi", "0"],
], ids=["eval", "sweep", "report", "report_point_cap"])
def test_overflowing_range_width_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    lo_flag, hi_flag = args[-4], args[-2]
    assert lo_flag in result.output and hi_flag in result.output


@pytest.mark.parametrize("args", [
    ["eval", "--preset", "tanh", "--from", "0", "--to", "1", "--n", "1000000000000000"],
    ["sweep", "--preset", "tanh", "--target", "tanh", "--from", "0", "--to", "1",
     "--n", str(2**63)],
    ["report", "--preset", "tanh", "--samples", "10000002"],
    ["table", "--samples", "1000000000000000"],
], ids=["eval", "sweep", "report", "table"])
def test_sample_count_above_the_cap_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert args[-2] in result.output and str(uk.core.MAX_POINTS) in result.output


def test_unwritable_output_exits_1(runner):
    result = runner.invoke(main, ["eval", "--preset", "identity",
                                  "--from", "0", "--to", "1",
                                  "--output", "/nonexistent-dir/out.csv"])
    assert result.exit_code == 1


# --- presets -----------------------------------------------------------------


def test_presets_list(runner):
    result = runner.invoke(main, ["presets", "list"])
    assert result.exit_code == 0
    text = result.output
    for name in ("identity", "step", "sigmoid", "tanh", "relu",
                 "leaky_relu(0.1)", "softplus", "gaussian"):
        assert name in text


def test_presets_show(runner):
    result = runner.invoke(main, ["presets", "show", "sigmoid"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["A"] == 1.01605291
    assert data["D"] == data["A"]

    result = runner.invoke(main, ["presets", "show", "leaky_relu",
                                  "--alpha", "0.05"])
    assert json.loads(result.output)["D"] == -0.05

    assert runner.invoke(main, ["presets", "show", "swish"]).exit_code == 2


@pytest.mark.parametrize("args", [["presets", "show", "tanh"], ["fit", "--builtin", "gaussian-family"]],
                         ids=["presets", "fit"])
def test_in_process_invocations_retain_no_memory(runner, args):
    # click.echo without a file caches a stdout wrapper for each CliRunner
    # invocation that is never freed: 200 calls of presets show kept 316 KB
    for _ in range(300):
        assert runner.invoke(main, args).exit_code == 0
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            runner.invoke(main, args)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


# --- fit ----------------------------------------------------------------------


def test_fit_builtin_and_round_trip(runner, tmp_path):
    out = tmp_path / "fit.json"
    result = runner.invoke(main, ["fit", "--builtin", "gaussian-family",
                                  "--output", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["converged"] is True
    assert abs(data["params"]["C"] + 0.61341425) < 1e-4

    # the fit result feeds straight back into eval, matching a hand-written
    # params file bit for bit
    explicit = tmp_path / "params.json"
    explicit.write_text(json.dumps(data["params"]))
    args = ["--from", "-3", "--to", "3", "--n", "25"]
    from_fit = runner.invoke(main, ["eval", "--params", str(out)] + args)
    from_params = runner.invoke(main, ["eval", "--params", str(explicit)] + args)
    assert from_fit.exit_code == from_params.exit_code == 0
    assert from_fit.output == from_params.output


def test_fit_spec_file(runner, tmp_path):
    spec = uk.builtin_spec("sigmoid-family").to_dict()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["fit", "--spec", str(path)])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert abs(data["params"]["A"] - 1.01605291) < 1e-4


@pytest.mark.parametrize("spec", [
    {**uk.builtin_spec("sigmoid-family").to_dict(), "learning_rate": 1.7e308},
    {"target": {"name": "sigmoid"}, "free": ["A", "B", "C", "D", "E"],
     "init": uk.preset(uk.IDENTITY).to_dict(), "learning_rate": 1.7e308},
], ids=["family", "free"])
def test_fit_spec_with_an_overflowing_damping_stalls(runner, tmp_path, capfd, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["fit", "--spec", str(path)])
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)  # output holds stderr too: nothing else was written
    assert (data["stop_reason"], data["iterations"]) == ("stalled", 0)
    assert data["rmse_trace"] == [data["rmse"]]
    assert capfd.readouterr() == ("", "")  # nothing from LAPACK either


def test_fit_requires_exactly_one_mode(runner, tmp_path):
    assert runner.invoke(main, ["fit"]).exit_code == 2
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(uk.builtin_spec("tanh-family").to_dict()))
    result = runner.invoke(main, ["fit", "--spec", str(path),
                                  "--builtin", "tanh-family"])
    assert result.exit_code == 2


def test_fit_rejects_invalid_spec_fields(runner, tmp_path):
    spec = uk.builtin_spec("tanh-family").to_dict()
    spec["surprise"] = True
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert runner.invoke(main, ["fit", "--spec", str(path)]).exit_code == 2


def test_fit_refuses_a_same_tie_with_a_value(runner, tmp_path):
    spec = uk.builtin_spec("sigmoid-family").to_dict()
    assert spec["ties"][1] == {"param": "D", "kind": "same", "source": "A", "value": 0.0}
    spec["ties"][1]["value"] = 5
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["fit", "--spec", str(path)])
    assert result.exit_code == 2
    assert "same tie takes no value, got 5.0; use an offset tie" in result.output


def _family_spec(**overrides):
    return {**uk.builtin_spec("sigmoid-family").to_dict(), **overrides}


def _tie_spec(value):
    spec = _family_spec()
    spec["ties"][0]["value"] = value
    return spec


_TRAIN_CONFIG = {
    "layer_sizes": [16, 8, 4],
    "activation": {"type": "trainable", "init": uk.preset(uk.IDENTITY).to_dict()},
    "epochs": 1,
}

_BLOBS_DATASET = {"kind": "blobs", "seed": 11, "n_samples": 200,
                  "n_classes": 4, "n_features": 16}

_GAS_DATASET = {"kind": "gas_analogue", "seed": 11, "n_samples": 200,
                "n_channels": 16, "n_species": 4}


# Each input gives one field a value of the wrong JSON type for its command.
# Python's own float/int/bool would raise a TypeError (a traceback, exit 1) or
# quietly convert it (2.9 to 2, true to 1, "no" to True); the CLI contract is
# a usage error naming the file.
@pytest.mark.parametrize("command, data", [
    ("fit", _family_spec(learning_rate="0.1")),
    ("fit", _tie_spec(None)),
    ("eval", {**uk.preset(uk.IDENTITY).to_dict(), "A": None}),
    ("train", {**_TRAIN_CONFIG, "epochs": None}),
    ("fit", _family_spec(n_samples=2.9)),
    ("fit", _family_spec(max_iters=True)),
    ("train", {**_TRAIN_CONFIG, "use_batch_norm": "no"}),
    # a spec whose init breaks its own ties (B = 0.5/A at A = 0)
    ("fit", _family_spec(init={"A": 0.0, "B": 0.5, "C": 0.0, "D": 0.0, "E": 0.0})),
    # null would leave the dataset unseeded, true would be read as seed 1
    ("dataset", {**_BLOBS_DATASET, "seed": None}),
    ("dataset", {**_BLOBS_DATASET, "seed": True}),
    ("dataset", {**_BLOBS_DATASET, "n_features": 16.5}),
    ("dataset", {**_BLOBS_DATASET, "spread": "3"}),
    # true would be read as 1 dB; -inf (infinite noise) as noise-free
    ("dataset", {**_GAS_DATASET, "snr_db": True}),
    ("dataset", {**_GAS_DATASET, "snr_db": -math.inf}),
    # nested objects reject unknown keys: "lr" would train at the default rate
    ("train", {**_TRAIN_CONFIG, "optimizer": {"kind": "sgd", "lr": 5}}),
    ("train", {**_TRAIN_CONFIG, "activation": {"type": "fixed", "kind": "tanh", "slope": 2}}),
    ("train", {**_TRAIN_CONFIG, "output_activation": "identity"}),
    ("train", {**_TRAIN_CONFIG, "optimizer": {"kind": "adam", "beta1": 1.5}}),
    ("train", {**_TRAIN_CONFIG, "seed": -1}),
    # 9 outputs against the 4 classes of the dataset
    ("train", {**_TRAIN_CONFIG, "layer_sizes": [16, 8, 9]}),
    # a width of 2e308 overflows, and the rmse would print as NaN
    ("fit", _family_spec(interval=[-1e308, 1e308])),
    # the starting error overflows, and the rmse would print as Infinity
    ("fit", {"target": "sigmoid", "free": ["A", "B", "C", "D", "E"],
             "init": {"A": 1e300, "B": 0.0, "C": 0.0, "D": 0.0, "E": 0.0}}),
    # 5 samples split 0.7/0.15/0.15 leave no validation sample
    ("dataset", {**_GAS_DATASET, "n_samples": 5}),
    ("dataset", {**_BLOBS_DATASET, "kind": ["blobs"]}),
    # counts above the cap used to end in a MemoryError traceback
    ("fit", _family_spec(n_samples=1e15)),
    ("dataset", {**_BLOBS_DATASET, "n_samples": 1e15}),
    ("dataset", {**_GAS_DATASET, "n_channels": 1e15}),
    ("train", {**_TRAIN_CONFIG, "layer_sizes": [16, 10**15, 4]}),
], ids=[
    "string_learning_rate", "null_tie_value", "null_param", "null_epochs",
    "fractional_n_samples", "bool_max_iters", "string_batch_norm", "init_breaks_ties",
    "null_dataset_seed", "bool_dataset_seed", "fractional_n_features", "string_spread",
    "bool_snr_db", "negative_infinite_snr_db",
    "unknown_optimizer_key", "unknown_activation_key", "removed_output_activation",
    "adam_beta1_above_1", "negative_seed", "layer_sizes_mismatch_dataset",
    "infinite_interval_width", "overflowing_initial_error", "empty_validation_split",
    "list_dataset_kind", "fit_n_samples_above_cap", "blobs_n_samples_above_cap",
    "gas_n_channels_above_cap", "layer_sizes_above_cap",
])
# NumPy's overflow warnings would print on stderr ahead of the usage message.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_json_values_exit_2(runner, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    if command == "fit":
        args = ["fit", "--spec", str(path)]
    elif command == "eval":
        args = ["eval", "--params", str(path), "--from", "0", "--to", "1"]
    elif command == "dataset":
        cfg, _ = _write_train_inputs(tmp_path)
        args = ["train", "--config", str(cfg), "--dataset", str(path)]
    else:
        _, ds = _write_train_inputs(tmp_path)
        args = ["train", "--config", str(path), "--dataset", str(ds)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "input.json" in result.output


# Files that fail before any JSON value is read, each with the words of its
# message: a UTF-16 BOM (not UTF-8), arrays nested past the parser's depth,
# and an integer of more digits than Python converts.
_UNREADABLE = {
    "utf16_bom": (b"\xff\xfe{}", "is not UTF-8 text"),
    "deep_nesting": (b"[" * 100_000, "malformed JSON"),
    "long_integer": (b'{"A": ' + b"9" * 5000 + b"}", "malformed JSON"),
}


@pytest.mark.parametrize("content, words", _UNREADABLE.values(), ids=_UNREADABLE.keys())
@pytest.mark.parametrize("flag", ["eval --params", "sweep --params", "fit --spec",
                                  "train --config", "train --dataset"])
def test_input_files_that_are_not_json_text_exit_2(runner, tmp_path, flag, content, words):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    command, option = flag.split()
    cfg, ds = _write_train_inputs(tmp_path)
    args = {
        "eval": ["eval", "--from", "0", "--to", "1"],
        "sweep": ["sweep", "--target", "tanh", "--from", "0", "--to", "1"],
        "fit": ["fit"],
        "train": ["train", "--config", str(cfg), "--dataset", str(ds)],
    }[command]
    result = runner.invoke(main, [*args, option, str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"file '{path}'" in result.output
    assert words in result.output


# --- report / table -------------------------------------------------------------


def test_report_tanh(runner):
    result = runner.invoke(main, ["report", "--preset", "tanh",
                                  "--lo", "-10", "--hi", "10"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["max_abs_error"] == pytest.approx(0.004719, abs=1e-6)
    locs = data["max_error_locations"]
    assert [round(x, 4) for x in locs] == [-0.4355, 0.4355]
    assert data["rmse"] == pytest.approx(0.001595, abs=5e-6)


def test_table_csv(runner):
    result = runner.invoke(main, ["table", "--samples", "2001",
                                  "--format", "csv"])
    assert result.exit_code == 0
    rows = _lines(result)
    assert rows[0] == "kind,rmse,max_error,locations"
    assert len(rows) == 9
    assert rows[1].startswith("identity,0.00000,")
    leaky = next(r for r in rows if r.startswith("leaky_relu(0.1)"))
    assert leaky.split(",")[1] == "0.41312"


def test_table_text(runner):
    result = runner.invoke(main, ["table", "--samples", "201"])
    assert result.exit_code == 0
    assert "identity" in result.output and "gaussian" in result.output


# --- sweep -----------------------------------------------------------------------


def test_sweep_header_and_error_column(runner):
    result = runner.invoke(main, ["sweep", "--preset", "sigmoid",
                                  "--target", "sigmoid",
                                  "--from", "-5", "--to", "5", "--n", "11"])
    assert result.exit_code == 0
    rows = _lines(result)
    assert rows[0] == "x,f_uaf,f_target,error"
    assert len(rows) == 12
    for row in rows[1:]:
        x, f_uaf, f_target, error = map(float, row.split(","))
        assert error == pytest.approx(f_uaf - f_target, abs=1e-15)


def test_sweep_requires_target(runner):
    result = runner.invoke(main, ["sweep", "--preset", "sigmoid",
                                  "--from", "-5", "--to", "5"])
    assert result.exit_code == 2


# --- train -----------------------------------------------------------------------


def _write_train_inputs(tmp_path, seed=3):
    config = {
        "layer_sizes": [16, 8, 4],
        "activation": {"type": "trainable",
                       "init": uk.preset(uk.IDENTITY).to_dict()},
        "optimizer": {"kind": "adam", "learning_rate": 0.001},
        "batch_size": 32,
        "epochs": 2,
        "seed": seed,
    }
    cfg = tmp_path / "config.json"
    ds = tmp_path / "dataset.json"
    cfg.write_text(json.dumps(config))
    ds.write_text(json.dumps(_BLOBS_DATASET))
    return cfg, ds


def test_train_writes_report_and_csv(runner, tmp_path):
    cfg, ds = _write_train_inputs(tmp_path)
    out = tmp_path / "report.json"
    csv_path = tmp_path / "trace.csv"
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--dataset", str(ds),
                                  "--output", str(out), "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert len(report["loss_trace"]) == 2
    assert report["diverged"] is False
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,metric,A,B,C,D,E"
    assert len(lines) == 3


def test_train_csv_leaves_the_uaf_cells_empty_for_a_fixed_activation(runner, tmp_path):
    cfg, ds = _write_train_inputs(tmp_path)
    cfg.write_text(json.dumps({**_TRAIN_CONFIG, "activation": {"type": "fixed", "kind": "tanh"},
                               "epochs": 2}))
    csv_path = tmp_path / "trace.csv"
    result = runner.invoke(main, ["train", "--config", str(cfg), "--dataset", str(ds),
                                  "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.stdout)
    rows = zip(report["loss_trace"], report["metric_trace"])
    assert csv_path.read_text().splitlines() == [
        "epoch,loss,metric,A,B,C,D,E",
        *(f"{epoch},{loss!r},{metric!r},,,,," for epoch, (loss, metric) in enumerate(rows, 1)),
    ]


def test_a_diverging_train_prints_its_report_and_exits_1(runner, tmp_path, monkeypatch):
    monkeypatch.delenv("UAFKIT_SEED", raising=False)
    cfg = tmp_path / "config.json"
    ds = tmp_path / "dataset.json"
    cfg.write_text(json.dumps({
        "layer_sizes": [16, 24, 4],
        "activation": {"type": "trainable", "init": uk.preset(uk.IDENTITY).to_dict()},
        "optimizer": {"kind": "sgd", "learning_rate": 1000.0},
        "epochs": 3,
    }))
    ds.write_text(json.dumps({"kind": "blobs", "seed": 11, "n_classes": 4, "spread": 3.0}))
    result = runner.invoke(main, ["train", "--config", str(cfg), "--dataset", str(ds)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    # the report on stdout, then the message on stderr
    message = "Error: training diverged (non-finite loss, metric or UAF parameters) at epoch 1\n"
    assert result.output.endswith(message)
    report = json.loads(result.output[:-len(message)])
    assert report["diverged"] is True and report["diverged_epoch"] == 1


def test_train_seed_env_override(runner, tmp_path, monkeypatch):
    cfg, ds = _write_train_inputs(tmp_path)

    def run():
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--dataset", str(ds)])
        assert result.exit_code == 0, result.output
        return json.loads(result.output)

    monkeypatch.setenv("UAFKIT_SEED", "101")
    first = run()
    second = run()
    assert first["loss_trace"] == second["loss_trace"]

    monkeypatch.setenv("UAFKIT_SEED", "202")
    third = run()
    assert third["loss_trace"] != first["loss_trace"]

    for bad in ("not-a-number", "-3"):
        monkeypatch.setenv("UAFKIT_SEED", bad)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--dataset", str(ds)])
        assert result.exit_code == 2
        assert "UAFKIT_SEED" in result.output and "--dataset" not in result.output


def test_train_rejects_bad_dataset_kind(runner, tmp_path):
    cfg, ds = _write_train_inputs(tmp_path)
    ds.write_text(json.dumps({"kind": "cifar10", "seed": 0}))
    result = runner.invoke(main, ["train", "--config", str(cfg),
                                  "--dataset", str(ds)])
    assert result.exit_code == 2


def test_train_refuses_a_dataset_too_large_to_print(runner, tmp_path):
    # n_samples x n_features has 4,301 digits, more than str() converts.
    cfg, ds = _write_train_inputs(tmp_path)
    ds.write_text(json.dumps({**_BLOBS_DATASET, "n_samples": 10**4299}))
    result = runner.invoke(main, ["train", "--config", str(cfg), "--dataset", str(ds)])
    assert result.exit_code == 2
    assert result.output.endswith(
        f"Error: --dataset file {str(ds)!r}: n_samples x n_features = at least 10^4300 "
        "values, above the cap of 10000001\n"
    )


def test_train_dataset_spec_accepts_integral_floats(runner, tmp_path):
    # 200.0 reads as 200 here as it does in a NetworkConfig; the run is the
    # same as with the integer spec.
    cfg, ds = _write_train_inputs(tmp_path)

    def run():
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--dataset", str(ds)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        report.pop("wall_time")
        return report

    as_ints = run()
    ds.write_text(json.dumps({**_BLOBS_DATASET, "seed": 11.0, "n_samples": 200.0,
                              "n_classes": 4.0, "spread": 1}))
    assert run() == as_ints


def test_train_gas_spec_accepts_infinite_snr(runner, tmp_path):
    # +inf is the documented noise-free setting.
    cfg, ds = _write_train_inputs(tmp_path)
    ds.write_text(json.dumps({**_GAS_DATASET, "snr_db": math.inf}))
    result = runner.invoke(main, ["train", "--config", str(cfg), "--dataset", str(ds)])
    assert result.exit_code == 0, result.output


# --- streaming output -------------------------------------------------------------


_STREAM_COMMANDS = {
    "eval": ["eval", "--preset", "tanh"],
    "sweep": ["sweep", "--preset", "tanh", "--target", "sigmoid"],
}


def _old_csv(command, n):
    """The CSV text as it was formatted from the whole grid at once."""
    xs = np.linspace(-7.5, 3.25, n)
    columns = [xs, uk.eval_batch(uk.preset(uk.TANH), xs)]
    header = "x,f_uaf\n"
    if command == "sweep":
        f_tgt = target_eval_batch(uk.target(uk.SIGMOID), xs)
        columns += [f_tgt, columns[1] - f_tgt]
        header = "x,f_uaf,f_target,error\n"
    rows = (",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))
    return (header + "".join(rows)).encode()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("command", _STREAM_COMMANDS)
def test_streamed_csv_is_the_whole_grid_csv(runner, tmp_path, command, to_file):
    n = 2 * BATCH_BLOCK + 3
    args = [*_STREAM_COMMANDS[command], "--from", "-7.5", "--to", "3.25", "--n", str(n)]
    out = tmp_path / "out.csv"
    result = runner.invoke(main, args + (["--output", str(out)] if to_file else []))
    assert result.exit_code == 0, result.output
    assert (out.read_bytes() if to_file else result.stdout_bytes) == _old_csv(command, n)


@pytest.mark.parametrize("command", _STREAM_COMMANDS)
def test_failure_mid_stream_leaves_the_output_file_alone(runner, tmp_path, monkeypatch, command):
    calls = []

    def second_block_fails(p, xs):
        calls.append(xs.size)
        if len(calls) == 2:
            raise OSError("device lost")
        return uk.eval_batch(p, xs)

    monkeypatch.setattr("uafkit.cli.eval_batch", second_block_fails)
    out = tmp_path / "out.csv"
    out.write_bytes(b"x,f_uaf\n0.0,1.0\n")
    result = runner.invoke(main, [*_STREAM_COMMANDS[command], "--from", "0", "--to", "1",
                                  "--n", str(2 * BATCH_BLOCK + 3), "--output", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert calls == [BATCH_BLOCK, BATCH_BLOCK]
    assert out.read_bytes() == b"x,f_uaf\n0.0,1.0\n"
    assert not list(tmp_path.glob(".uafkit-*.tmp"))


@pytest.mark.parametrize("command", _STREAM_COMMANDS)
def test_streamed_csv_memory_does_not_grow_with_n(peak_growth_mb, tmp_path, command):
    run = ("r = CliRunner().invoke(main, {args!r}); assert r.exit_code == 0, r.output")
    args = [*_STREAM_COMMANDS[command], "--from", "-10", "--to", "10",
            "--output", str(tmp_path / "out.csv"), "--n"]
    growth = peak_growth_mb([
        "from click.testing import CliRunner; from uafkit.cli import main",
        run.format(args=args + ["100001"]),
        run.format(args=args + ["400001"]),
    ])
    assert growth[2] - growth[1] < 8.0, growth


def test_output_files_get_the_mode_of_a_plain_open(runner, tmp_path):
    cfg, ds = _write_train_inputs(tmp_path)
    paths = [tmp_path / name for name in ("eval.csv", "report.json", "trace.csv")]
    old = os.umask(0o022)
    try:
        result = runner.invoke(main, ["eval", "--preset", "tanh", "--from", "0", "--to", "1",
                                      "--output", str(paths[0])])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["train", "--config", str(cfg), "--dataset", str(ds),
                                      "--output", str(paths[1]), "--csv", str(paths[2])])
        assert result.exit_code == 0, result.output
    finally:
        os.umask(old)
    assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [0o644] * 3
