"""tools/same.py, the same-results check, runs every benchmark job: a job
added to perfbench/jobs.py cannot escape it. It also digests the library
calls that no command makes."""

import importlib.util
from pathlib import Path

_SAME = Path(__file__).resolve().parents[1] / "tools" / "same.py"


def _same():
    spec = importlib.util.spec_from_file_location("same", _SAME)
    same = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same)
    return same


def test_the_same_results_corpus_names_every_bench_job(tmp_path):
    same = _same()
    jobs = same._load_jobs()
    entries = same.corpus(tmp_path)
    names = {entry["name"] for entry in entries}
    assert len(names) == len(entries)  # a run keys its digests by name
    for workload in ("fit", "analysis", "train"):
        for first in (True, False):
            missing = {op.job for op in jobs.round_ops(workload, first)} - names
            assert not missing, (workload, missing)


def test_the_same_results_corpus_digests_each_characteristic_residual(tmp_path):
    names = {entry["name"] for entry in _same().corpus(tmp_path)}
    for family in ("sigmoid", "tanh", "relu", "leaky_relu", "gaussian"):
        assert f"characteristic_residual_scaled {family}" in names
