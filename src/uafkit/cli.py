"""Command-line front end: evaluation sweeps, preset inspection, fitting,
error reports, the RMSE summary table, and toy training runs.

Exit codes: 0 on success, 2 on usage errors (bad flags, malformed JSON,
unreadable input files), 1 on runtime failures (unwritable outputs, diverged
training). Input files are read by `_read`, and a library ValueError becomes
a usage error in `_refused`. Every command writes through one path, `_emit`,
which streams text chunks to stdout or to a temp file that is renamed into
place once complete; an output file gets the mode a plain open() would give
it, 0o666 & ~umask. `eval` and `sweep` evaluate and write their grid in
slices of BATCH_BLOCK points, so their memory does not grow with --n. The
UAFKIT_SEED environment variable, when set, overrides the seeds in training
configs and dataset specs.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import tempfile

import click
import numpy as np

from . import analysis, datasets, fitting, network
from ._kernels import BATCH_BLOCK
from .core import (
    MAX_POINTS, PARAM_NAMES, PRESET_NAMES, PresetKind, UafParams, coerce_interval, eval_batch,
    from_tagged_json, grid, preset,
)
from .targets import target_eval_batch


def _emit(chunks, output: str | None) -> None:
    """Write the text chunks to stdout, or to output all at once: they go to a
    temp file beside it, which replaces output only when every chunk is
    written, and which is removed when a chunk or the write fails."""
    if output is None:
        # click.echo without a file caches a wrapper per sys.stdout object
        # that is never freed: one per in-process (CliRunner) invocation.
        stdout = click.get_text_stream("stdout")
        for chunk in chunks:
            click.echo(chunk, file=stdout, nl=False)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(output)),
                                   prefix=".uafkit-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(chunks)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, output)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise click.ClickException(f"cannot write output file '{output}': {exc}") from exc


@contextlib.contextmanager
def _refused(where: str | None):
    """A ValueError raised inside becomes a usage error (exit 2) that reads
    "{where}: {message}", or the bare message when where is None."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc) if where is None else f"{where}: {exc}") from exc


def _read(path: str, flag: str, what: str, make):
    """make(data) of the JSON data in the UTF-8 file at path; an unreadable
    file, text that is not UTF-8, malformed JSON and a ValueError from make
    are usage errors naming it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {what} file '{path}': {exc}") from exc
    except UnicodeDecodeError as exc:
        raise click.UsageError(f"{what} file '{path}' is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(content)
    # Besides JSONDecodeError: a ValueError for an integer of too many digits,
    # and a RecursionError for arrays or objects nested too deeply.
    except (ValueError, RecursionError) as exc:
        raise click.UsageError(f"malformed JSON in {what} file '{path}': {exc}") from exc
    with _refused(f"{flag} file '{path}'"):
        return make(data)


def _emit_json(result, output: str | None) -> None:
    _emit([json.dumps(result.to_dict(), indent=2) + "\n"], output)


def _params_from_json(data) -> UafParams:
    # A fit result can be fed back directly: unwrap its params block.
    if isinstance(data, dict) and "params" in data and "A" not in data:
        data = data["params"]
    return UafParams.from_dict(data)


def _params_from_flags(params_file: str | None, preset_name: str | None, alpha: float | None) -> UafParams:
    if (params_file is None) == (preset_name is None):
        raise click.UsageError("provide exactly one of --params or --preset")
    if preset_name is not None:
        return preset(_kind_from_flags(preset_name, alpha, "--preset"))
    if alpha is not None:
        raise click.UsageError("--alpha sets the slope of the leaky_relu preset; --params takes no alpha")
    return _read(params_file, "--params", "parameters", _params_from_json)


def _kind_from_flags(name: str, alpha: float | None, flag: str) -> PresetKind:
    with _refused(flag):
        return PresetKind.from_name(name, alpha)


def _grid_csv(header: str, from_, to, n: int, rows):
    """CSV text chunks over the uniform grid of n points on [from_, to]: the
    header, then rows(xs) for each slice xs of at most BATCH_BLOCK points.
    The interval is checked at once; each slice is made as it is written.

    Far outside |x| <= 100 a value may overflow on the way to a finite
    result or come out NaN, and either is what gets written, so rows runs
    with NumPy's overflow and invalid warnings off, as fit and train do."""
    with _refused(None):
        lo, hi = coerce_interval("--from/--to", (from_, to))
    slices = (grid(lo, hi, n, i0, min(i0 + BATCH_BLOCK, n)) for i0 in range(0, n, BATCH_BLOCK))
    quiet_rows = np.errstate(over="ignore", invalid="ignore")(rows)
    return itertools.chain([header], map(quiet_rows, slices))


_PRESET_CHOICES = click.Choice(PRESET_NAMES)
_SAMPLE_COUNT = click.IntRange(2, MAX_POINTS)


@click.group()
def main() -> None:
    """Universal activation function toolkit."""


@main.command("eval")
@click.option("--params", "params_file", type=str, default=None, help="JSON file with {A,B,C,D,E}.")
@click.option("--preset", "preset_name", type=_PRESET_CHOICES, default=None, help="Named preset.")
@click.option("--alpha", type=float, default=None, help="Slope for the leaky_relu preset.")
@click.option("--from", "from_", type=float, required=True, help="Range start.")
@click.option("--to", type=float, required=True, help="Range end.")
@click.option("--n", type=_SAMPLE_COUNT, default=101, show_default=True, help="Sample count.")
@click.option("--output", type=str, default=None, help="CSV output path (default stdout).")
def eval_cmd(params_file, preset_name, alpha, from_, to, n, output) -> None:
    """Evaluate the UAF on a uniform grid; CSV columns x,f_uaf."""
    p = _params_from_flags(params_file, preset_name, alpha)

    def rows(xs):
        return "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), eval_batch(p, xs).tolist()))

    _emit(_grid_csv("x,f_uaf\n", from_, to, n, rows), output)


@main.group("presets")
def presets_group() -> None:
    """Inspect the preset parameter table."""


@presets_group.command("list")
def presets_list() -> None:
    """All preset kinds with their parameters (leaky_relu at alpha=0.1)."""
    rows = [(kind.label(), preset(kind)) for kind in map(PresetKind.from_name, PRESET_NAMES)]
    width = max(len(label) for label, _ in rows)
    lines = []
    for label, p in rows:
        values = "  ".join(f"{n}={getattr(p, n):.8g}" for n in PARAM_NAMES)
        lines.append(f"{label:<{width}}  {values}\n")
    _emit(lines, None)


@presets_group.command("show")
@click.argument("kind", type=_PRESET_CHOICES)
@click.option("--alpha", type=float, default=None, help="Slope for leaky_relu.")
def presets_show(kind, alpha) -> None:
    """Parameters of one preset as JSON."""
    p = preset(_kind_from_flags(kind, alpha, "KIND"))
    _emit_json(p, None)


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
        # fit itself rejects an init that breaks the spec's ties or whose
        # error is not finite.
        result = _read(spec_file, "--spec", "fit spec",
                       lambda data: fitting.fit(fitting.FitSpec.from_dict(data)))
    _emit_json(result, output)


@main.command("report")
@click.option("--preset", "preset_name", type=_PRESET_CHOICES, required=True, help="Preset/target family.")
@click.option("--alpha", type=float, default=None, help="Slope for leaky_relu.")
@click.option("--lo", type=float, default=-10.0, show_default=True, help="Interval start.")
@click.option("--hi", type=float, default=10.0, show_default=True, help="Interval end.")
@click.option("--samples", type=_SAMPLE_COUNT, default=2001, show_default=True, help="RMSE sample count.")
@click.option("--output", type=str, default=None, help="JSON output path (default stdout).")
def report_cmd(preset_name, alpha, lo, hi, samples, output) -> None:
    """Error-extremum/RMSE report for a preset against its target."""
    kind = _kind_from_flags(preset_name, alpha, "--preset")
    with _refused("--lo/--hi"):
        rep = analysis.error_report(preset(kind), kind, (lo, hi), samples)
    _emit_json(rep, output)


@main.command("table")
@click.option("--samples", type=_SAMPLE_COUNT, default=2001, show_default=True, help="RMSE sample count.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text", show_default=True)
@click.option("--output", type=str, default=None, help="Output path (default stdout).")
def table_cmd(samples, fmt, output) -> None:
    """RMSE summary table: one row per preset on [-10, 10]."""
    reports = analysis.rmse_table(samples)
    if fmt == "csv":
        lines = ["kind,rmse,max_error,locations\n"]
        for rep in reports:
            locs = ";".join(f"{x:.6g}" for x in rep.max_error_locations)
            lines.append(f"{rep.target.label()},{rep.rmse:.5f},{rep.max_abs_error:.5f},{locs}\n")
    else:
        header = f"{'kind':<16}{'rmse':>10}{'max_error':>12}  locations"
        lines = [header + "\n", "-" * len(header) + "\n"]
        for rep in reports:
            locs = ", ".join(f"{x:.4g}" for x in rep.max_error_locations)
            lines.append(f"{rep.target.label():<16}{rep.rmse:>10.5f}{rep.max_abs_error:>12.5f}  {locs}\n")
    _emit(lines, output)


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


def _trajectory_csv(report: network.TrainReport):
    yield f"epoch,loss,metric,{','.join(PARAM_NAMES)}\n"
    traj = dict(report.uaf_trajectory or ())
    for epoch, (loss, metric) in enumerate(zip(report.loss_trace, report.metric_trace), 1):
        tail = ",".join(repr(float(v)) for v in traj[epoch].as_tuple()) if epoch in traj else ",,,,"
        yield f"{epoch},{float(loss)!r},{float(metric)!r},{tail}\n"


@main.command("train")
@click.option("--config", "config_file", type=str, required=True, help="NetworkConfig JSON file.")
@click.option("--dataset", "dataset_file", type=str, required=True, help="Dataset spec JSON file.")
@click.option("--output", type=str, default=None, help="TrainReport JSON path (default stdout).")
@click.option("--csv", "csv_file", type=str, default=None, help="Optional per-epoch CSV (epoch,loss,metric,A..E).")
def train_cmd(config_file, dataset_file, output, csv_file) -> None:
    """Train the configured network on a generated dataset."""
    seed = _seed_override()

    def seeded(data):
        if seed is not None and isinstance(data, dict):
            data["seed"] = seed
        return data

    def make_dataset(data):
        # The makers are looked up when the command runs, not at import.
        makers = {"blobs": datasets.make_blobs, "gas_analogue": datasets.make_gas_analogue}
        return from_tagged_json(makers, seeded(data), "kind", "dataset spec")

    config = _read(config_file, "--config", "network config",
                   lambda data: network.NetworkConfig.from_dict(seeded(data)))
    dataset = _read(dataset_file, "--dataset", "dataset spec", make_dataset)
    with _refused(f"--config file '{config_file}' does not fit --dataset file '{dataset_file}'"):
        report = network.train(config, dataset)
    _emit_json(report, output)
    if csv_file is not None:
        _emit(_trajectory_csv(report), csv_file)
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
@click.option("--n", type=_SAMPLE_COUNT, default=401, show_default=True, help="Sample count.")
@click.option("--output", type=str, default=None, help="CSV output path (default stdout).")
def sweep_cmd(params_file, preset_name, alpha, target_name, target_alpha, from_, to, n, output) -> None:
    """UAF vs target sweep; CSV columns x,f_uaf,f_target,error."""
    p = _params_from_flags(params_file, preset_name, alpha)
    t = _kind_from_flags(target_name, target_alpha, "--target")

    def rows(xs):
        f_uaf, f_tgt = eval_batch(p, xs), target_eval_batch(t, xs)
        cols = zip(xs.tolist(), f_uaf.tolist(), f_tgt.tolist(), (f_uaf - f_tgt).tolist())
        return "".join(f"{x!r},{u!r},{v!r},{e!r}\n" for x, u, v, e in cols)

    _emit(_grid_csv("x,f_uaf,f_target,error\n", from_, to, n, rows), output)


if __name__ == "__main__":
    main()
