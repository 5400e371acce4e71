"""Command-line front end: evaluation sweeps, preset inspection, fitting,
error reports, the RMSE summary table, and toy training runs.

Exit codes: 0 on success, 2 on usage errors (bad flags, malformed JSON,
unreadable input files), 1 on runtime failures (unwritable outputs, diverged
training). File outputs are written atomically (temp file + rename). The
UAFKIT_SEED environment variable, when set, overrides the seeds in training
configs and dataset specs.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile

import click
import numpy as np

from . import analysis, datasets, fitting, network
from .core import PRESET_NAMES, PresetKind, UafParams, from_tagged_json, preset
from .targets import TargetActivation, approx_error_batch, target_eval_batch
from .core import eval_batch


def _fmt(value: float) -> str:
    """Shortest round-trip decimal for CSV cells."""
    return repr(float(value))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uafkit-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise click.ClickException(f"cannot write output file '{path}': {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        _atomic_write(output, text)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r") as handle:
            content = handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {what} file '{path}': {exc}") from exc
    try:
        return json.loads(content)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"malformed JSON in {what} file '{path}': {exc}") from exc


def _params_from_flags(params_file: str | None, preset_name: str | None, alpha: float | None) -> UafParams:
    if (params_file is None) == (preset_name is None):
        raise click.UsageError("provide exactly one of --params or --preset")
    if preset_name is not None:
        return preset(_kind_from_flags(preset_name, alpha, "--preset"))
    data = _load_json(params_file, "parameters")
    # A fit result can be fed back directly: unwrap its params block.
    if isinstance(data, dict) and "params" in data and "A" not in data:
        data = data["params"]
    try:
        return UafParams.from_dict(data)
    except ValueError as exc:
        raise click.UsageError(f"--params file '{params_file}': {exc}") from exc


def _kind_from_flags(name: str, alpha: float | None, flag: str) -> PresetKind:
    try:
        return PresetKind.from_name(name, alpha)
    except ValueError as exc:
        raise click.UsageError(f"{flag}: {exc}") from exc


def _check_range(lo: float, hi: float, lo_flag: str, hi_flag: str) -> None:
    if not lo < hi:
        raise click.UsageError(f"{lo_flag} must be below {hi_flag}, got {lo} >= {hi}")
    # An infinite width would put non-finite points on the grid.
    if not math.isfinite(hi - lo):
        raise click.UsageError(
            f"{lo_flag} and {hi_flag} must be a finite distance apart, got {lo} and {hi}"
        )


def _grid(from_, to, n) -> np.ndarray:
    if not n >= 2:
        raise click.UsageError(f"--n must be >= 2, got {n}")
    _check_range(from_, to, "--from", "--to")
    return np.linspace(from_, to, n)


_PRESET_CHOICES = click.Choice(PRESET_NAMES)


@click.group()
def main() -> None:
    """Universal activation function toolkit."""


@main.command("eval")
@click.option("--params", "params_file", type=str, default=None, help="JSON file with {A,B,C,D,E}.")
@click.option("--preset", "preset_name", type=_PRESET_CHOICES, default=None, help="Named preset.")
@click.option("--alpha", type=float, default=None, help="Slope for the leaky_relu preset.")
@click.option("--from", "from_", type=float, required=True, help="Range start.")
@click.option("--to", type=float, required=True, help="Range end.")
@click.option("--n", type=int, default=101, show_default=True, help="Sample count.")
@click.option("--output", type=str, default=None, help="CSV output path (default stdout).")
def eval_cmd(params_file, preset_name, alpha, from_, to, n, output) -> None:
    """Evaluate the UAF on a uniform grid; CSV columns x,f_uaf."""
    p = _params_from_flags(params_file, preset_name, alpha)
    xs = _grid(from_, to, n)
    ys = eval_batch(p, xs)
    buf = io.StringIO()
    buf.write("x,f_uaf\n")
    for x, y in zip(xs, ys):
        buf.write(f"{_fmt(x)},{_fmt(y)}\n")
    _emit(buf.getvalue(), output)


@main.group("presets")
def presets_group() -> None:
    """Inspect the preset parameter table."""


@presets_group.command("list")
def presets_list() -> None:
    """All preset kinds with their parameters (leaky_relu at alpha=0.1)."""
    rows = []
    for name in PRESET_NAMES:
        kind = PresetKind.from_name(name)
        p = preset(kind)
        rows.append((kind.label(), p))
    width = max(len(label) for label, _ in rows)
    for label, p in rows:
        values = "  ".join(f"{n}={getattr(p, n):.8g}" for n in ("A", "B", "C", "D", "E"))
        click.echo(f"{label:<{width}}  {values}")


@presets_group.command("show")
@click.argument("kind", type=_PRESET_CHOICES)
@click.option("--alpha", type=float, default=None, help="Slope for leaky_relu.")
def presets_show(kind, alpha) -> None:
    """Parameters of one preset as JSON."""
    p = preset(_kind_from_flags(kind, alpha, "KIND"))
    click.echo(json.dumps(p.to_dict(), indent=2))


@main.command("fit")
@click.option("--spec", "spec_file", type=str, default=None, help="Fit-spec JSON file.")
@click.option("--builtin", "builtin_name", type=click.Choice(fitting.BUILTIN_SPEC_NAMES), default=None, help="Named builtin fit family.")
@click.option("--output", type=str, default=None, help="JSON output path (default stdout).")
def fit_cmd(spec_file, builtin_name, output) -> None:
    """Run a constrained fit; emits the FitResult as JSON."""
    if (spec_file is None) == (builtin_name is None):
        raise click.UsageError("provide exactly one of --spec or --builtin")
    if builtin_name is not None:
        result = fitting.fit(fitting.builtin_spec(builtin_name))
    else:
        data = _load_json(spec_file, "fit spec")
        try:
            # fit itself rejects an init that breaks the spec's ties or
            # whose error is not finite.
            result = fitting.fit(fitting.FitSpec.from_dict(data))
        except ValueError as exc:
            raise click.UsageError(f"--spec file '{spec_file}': {exc}") from exc
    _emit(json.dumps(result.to_dict(), indent=2) + "\n", output)


@main.command("report")
@click.option("--preset", "preset_name", type=_PRESET_CHOICES, required=True, help="Preset/target family.")
@click.option("--alpha", type=float, default=None, help="Slope for leaky_relu.")
@click.option("--lo", type=float, default=-10.0, show_default=True, help="Interval start.")
@click.option("--hi", type=float, default=10.0, show_default=True, help="Interval end.")
@click.option("--samples", type=int, default=2001, show_default=True, help="RMSE sample count.")
@click.option("--output", type=str, default=None, help="JSON output path (default stdout).")
def report_cmd(preset_name, alpha, lo, hi, samples, output) -> None:
    """Error-extremum/RMSE report for a preset against its target."""
    kind = _kind_from_flags(preset_name, alpha, "--preset")
    _check_range(lo, hi, "--lo", "--hi")
    if samples < 2:
        raise click.UsageError(f"--samples must be >= 2, got {samples}")
    try:
        rep = analysis.error_report(preset(kind), TargetActivation(kind), (lo, hi), samples)
    except ValueError as exc:
        raise click.UsageError(f"--lo/--hi: {exc}") from exc
    _emit(json.dumps(rep.to_dict(), indent=2) + "\n", output)


@main.command("table")
@click.option("--samples", type=int, default=2001, show_default=True, help="RMSE sample count.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--output", type=str, default=None, help="Output path (default stdout).")
def table_cmd(samples, fmt, output) -> None:
    """RMSE summary table: one row per preset on [-10, 10]."""
    if samples < 2:
        raise click.UsageError(f"--samples must be >= 2, got {samples}")
    table = analysis.rmse_table(samples)
    buf = io.StringIO()
    if fmt == "csv":
        buf.write("kind,rmse,max_error,locations\n")
        for row in table.rows:
            locs = ";".join(f"{x:.6g}" for x in row.locations)
            buf.write(f"{row.kind.label()},{row.rmse:.5f},{row.max_error:.5f},{locs}\n")
    else:
        header = f"{'kind':<16}{'rmse':>10}{'max_error':>12}  locations"
        buf.write(header + "\n")
        buf.write("-" * len(header) + "\n")
        for row in table.rows:
            locs = ", ".join(f"{x:.4g}" for x in row.locations)
            buf.write(f"{row.kind.label():<16}{row.rmse:>10.5f}{row.max_error:>12.5f}  {locs}\n")
    _emit(buf.getvalue(), output)


def _seed_override() -> int | None:
    raw = os.environ.get("UAFKIT_SEED")
    if raw is None or raw.strip() == "":
        return None
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise click.UsageError(f"UAFKIT_SEED must be a whole number >= 0, got {raw!r}")
    return seed


def _dataset_from_spec(path: str, seed_override: int | None) -> datasets.Dataset:
    data = _load_json(path, "dataset spec")
    if seed_override is not None and isinstance(data, dict):
        data["seed"] = seed_override
    makers = {"blobs": datasets.make_blobs, "gas_analogue": datasets.make_gas_analogue}
    try:
        return from_tagged_json(makers, data, "kind", "dataset spec")
    except ValueError as exc:
        raise click.UsageError(f"--dataset file '{path}': {exc}") from exc


def _trajectory_csv(report: network.TrainReport) -> str:
    buf = io.StringIO()
    buf.write("epoch,loss,metric,A,B,C,D,E\n")
    traj = {e: p for e, p in (report.uaf_trajectory or ())}
    for i, (loss, metric) in enumerate(zip(report.loss_trace, report.metric_trace)):
        epoch = i + 1
        if epoch in traj:
            p = traj[epoch]
            tail = ",".join(_fmt(getattr(p, n)) for n in ("A", "B", "C", "D", "E"))
        else:
            tail = ",,,,"
        buf.write(f"{epoch},{_fmt(loss)},{_fmt(metric)},{tail}\n")
    return buf.getvalue()


@main.command("train")
@click.option("--config", "config_file", type=str, required=True, help="NetworkConfig JSON file.")
@click.option("--dataset", "dataset_file", type=str, required=True, help="Dataset spec JSON file.")
@click.option("--output", type=str, default=None, help="TrainReport JSON path (default stdout).")
@click.option("--csv", "csv_file", type=str, default=None, help="Optional per-epoch CSV (epoch,loss,metric,A..E).")
def train_cmd(config_file, dataset_file, output, csv_file) -> None:
    """Train the configured network on a generated dataset."""
    seed_override = _seed_override()
    config_data = _load_json(config_file, "network config")
    if seed_override is not None and isinstance(config_data, dict):
        config_data["seed"] = seed_override
    try:
        config = network.NetworkConfig.from_dict(config_data)
    except ValueError as exc:
        raise click.UsageError(f"--config file '{config_file}': {exc}") from exc
    dataset = _dataset_from_spec(dataset_file, seed_override)
    try:
        report = network.train(config, dataset)
    except ValueError as exc:
        raise click.UsageError(
            f"--config file '{config_file}' does not fit --dataset file '{dataset_file}': {exc}"
        ) from exc
    _emit(json.dumps(report.to_dict(), indent=2) + "\n", output)
    if csv_file is not None:
        _atomic_write(csv_file, _trajectory_csv(report))
    if report.diverged:
        raise click.ClickException(
            f"training diverged (non-finite loss, metric or UAF parameters) at epoch "
            f"{report.diverged_epoch}"
        )


@main.command("sweep")
@click.option("--params", "params_file", type=str, default=None, help="JSON file with {A,B,C,D,E}.")
@click.option("--preset", "preset_name", type=_PRESET_CHOICES, default=None, help="Named preset.")
@click.option("--alpha", type=float, default=None, help="Slope for the leaky_relu preset.")
@click.option("--target", "target_name", type=_PRESET_CHOICES, required=True, help="Target for the error column.")
@click.option("--target-alpha", type=float, default=None, help="Slope for a leaky_relu target.")
@click.option("--from", "from_", type=float, required=True, help="Range start.")
@click.option("--to", type=float, required=True, help="Range end.")
@click.option("--n", type=int, default=401, show_default=True, help="Sample count.")
@click.option("--output", type=str, default=None, help="CSV output path (default stdout).")
def sweep_cmd(params_file, preset_name, alpha, target_name, target_alpha, from_, to, n, output) -> None:
    """UAF vs target sweep; CSV columns x,f_uaf,f_target,error."""
    p = _params_from_flags(params_file, preset_name, alpha)
    t = TargetActivation(_kind_from_flags(target_name, target_alpha, "--target"))
    xs = _grid(from_, to, n)
    f_uaf = eval_batch(p, xs)
    f_tgt = target_eval_batch(t, xs)
    errs = approx_error_batch(p, t, xs)
    buf = io.StringIO()
    buf.write("x,f_uaf,f_target,error\n")
    for x, fu, ft, e in zip(xs, f_uaf, f_tgt, errs):
        buf.write(f"{_fmt(x)},{_fmt(fu)},{_fmt(ft)},{_fmt(e)}\n")
    _emit(buf.getvalue(), output)


if __name__ == "__main__":
    main()
