"""Tests of the benchmark's own helpers.  Small-stream runs of each workload
are in ``smoke_runs.py``."""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import measure  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def contract():
    with open(REPO / "BENCHMARK.json") as f:
        return json.load(f)


# -- statistics -----------------------------------------------------------------

def test_median_of_odd_and_even_samples():
    assert measure.median([3.0, 1.0, 2.0]) == 2.0
    assert measure.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(list(range(10))) is None
    pct, value = measure.tail_percentile([float(v) for v in range(20, 0, -1)])
    assert pct == 50.0 and value == 10.0       # 11..20 lie beyond it
    pct, value = measure.tail_percentile(list(range(1000)))
    assert pct == 99.0 and value == 989


def test_summarize_states_the_sample_count():
    s = measure.summarize([1.0, 2.0, 3.0])
    assert s == {"n": 3, "median": 2.0, "tail_pct": None, "tail": None}


def test_summarize_takes_the_tail_on_the_worse_side():
    samples = [float(v) for v in range(1, 21)]
    slow = measure.summarize(samples)                       # seconds
    assert (slow["tail_pct"], slow["tail"]) == (50.0, 10.0)
    low = measure.summarize(samples, higher_is_better=True)  # events/s
    assert (low["tail_pct"], low["tail"]) == (50.0, 11.0)   # 1..10 lie beyond
    samples = [float(v) for v in range(100)]
    low = measure.summarize(samples, higher_is_better=True)
    assert (low["tail_pct"], low["tail"]) == (10.0, 10.0)


# -- failure counting -----------------------------------------------------------

def test_checks_count_failures_against_attempts():
    c = measure.Checks(keep=2)
    assert c.check(True, "a")
    assert not c.check(False, "b")
    c.check(False, "c")
    c.check(False, "d")
    assert (c.attempted, c.failed) == (4, 3)
    assert c.failures == ["b", "c"]              # first failures only


def test_near_tie_counts_as_attempted_not_failed():
    c = measure.Checks()
    c.tie()
    assert (c.attempted, c.failed, c.ties) == (1, 0, 1)


# -- tracing --------------------------------------------------------------------

class _Calls:
    def outer(self):
        time.sleep(0.002)
        return self.inner() + 1

    def inner(self):
        time.sleep(0.004)
        return 1


def test_tracer_records_parents_and_self_time_and_restores():
    tracer = spans.Tracer()
    original = _Calls.__dict__["inner"]
    tracer.patch(_Calls, "outer", "outer")
    tracer.patch(_Calls, "inner", "inner")
    try:
        assert _Calls().outer() == 2
    finally:
        tracer.restore()
    assert _Calls.__dict__["inner"] is original
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    table = tracer.table()
    dur = tracer.durations()
    assert table["inner"]["self_s"] == pytest.approx(dur[1])
    assert table["outer"]["self_s"] == pytest.approx(dur[0] - dur[1])
    assert 0 < table["outer"]["self_s"] < table["outer"]["total_s"]


def test_children_pairs_measure_each_loop_item():
    tracer = spans.Tracer()
    first = tracer.wrap(lambda: None, "first")
    last = tracer.wrap(lambda: None, "last")

    def loop(n):
        for _ in range(n):
            first()
            last()

    tracer.wrap(loop, "loop")(3)
    tracer.wrap(loop, "other")(2)             # not under "loop": ignored
    per_item = tracer.children_pairs("loop", "first", "last")
    assert len(per_item) == 3 and (per_item > 0).all()


# -- command line ---------------------------------------------------------------

def test_fails_without_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench_run.main(["--workload", "offline-346-5lux", "--seed", "1",
                           "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_contract_names_match_the_code():
    c = contract()
    units = {m["name"]: m["unit"] for m in c["end_to_end"]}
    assert units == workloads.END_TO_END_UNITS
    assert [w["name"] for w in c["workloads"]] == list(workloads.WORKLOADS)
    assert c["paths"] == ["perfbench"]
