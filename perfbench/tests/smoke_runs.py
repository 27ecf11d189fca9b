"""Small-stream runs of each workload, untraced and traced, that fail fast
when a check or a metric breaks.

Each run sets up, forks and measures like a benchmark run, so together they
take about half a minute on a 2-core machine.  The file name keeps them out of
the repository's default test run; run them with

    python3 -m pytest perfbench/tests/smoke_runs.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.Sizes(offline_us=20_000, online_us=100_000, online_folds=1,
                        label_us=200_000, label_train_us=200_000, label_folds=1,
                        per_class=30, epochs=1, model_us=200_000, model_per_class=30,
                        model_epochs=1, oracle_sample=16, prefix_events=40,
                        setup_reps=1, setup_min_s=0.0, setup_max_reps=1)


def contract():
    with open(REPO / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_and_passes_checks(name, tmp_path):
    c = contract()
    result = workloads.run(name, seed=3, seconds=0.01, trace=False,
                           workdir=tmp_path / "w", sizes=SMOKE)
    assert result["checks"]["attempted"] > 0
    assert result["checks"]["failed"] == 0, result["checks"]["failures"]
    values, _ = workloads.end_to_end(result)
    assert set(values) == {m["name"] for m in c["end_to_end"]}
    assert all(v > 0 for v in values.values()), values
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    c = contract()
    result = workloads.run(name, seed=3, seconds=0.01, trace=True,
                           workdir=tmp_path / "w", sizes=SMOKE)
    assert result["checks"]["failed"] == 0, result["checks"]["failures"]
    values = bench_run.per_layer(result)
    assert set(values) == {m["name"] for m in c["per_layer"]}
    for m in c["per_layer"]:
        assert bench_run.per_layer_units(m["name"]) == m["unit"]
    # every listed layer is exercised on every workload
    timed = [m["name"] for m in c["per_layer"] if m["name"].endswith(".s")]
    assert all(values[n] > 0 for n in timed), \
        [n for n in timed if values[n] <= 0]
