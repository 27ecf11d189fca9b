"""Micro-stream behavioral suites for the conventional denoising filters.

Each test feeds a tiny hand-constructed stream where the correct decision
sequence follows directly from the filter's definition.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdenoise.baselines import (DelbruckBAFilter, KhodamoradiFilter,
                                 LiuFilter, NNbFilter, YangFilter,
                                 make_filter)
from evdenoise.events import Event, EventStream, SensorGeometry

GEOM = SensorGeometry(64, 48)
ALGOS = ("ba", "nnb", "liu1", "liu2", "khodamoradi", "yang")


def stream(rows):
    return EventStream([Event(t, x, y, p) for t, x, y, p in rows], GEOM)


def decisions(filt, rows):
    return list(filt.run_batch(stream(rows)))


class TestDelbruckBA:
    def test_requires_k_supporters(self):
        # 8 distinct neighbor pixels fire, then the center: exactly k=8 hits
        rows = [(i, 10 + dx, 10 + dy, 1)
                for i, (dx, dy) in enumerate(
                    (d for d in [(-1, -1), (-1, 0), (-1, 1), (0, -1),
                                 (0, 1), (1, -1), (1, 0), (1, 1)]))]
        rows.append((100, 10, 10, 1))
        out = decisions(DelbruckBAFilter(GEOM), rows)
        assert out[-1] == 1 and all(d == 0 for d in out[:-1])

    def test_seven_supporters_insufficient(self):
        rows = [(i, 10 + dx, 10 + dy, 1)
                for i, (dx, dy) in enumerate(
                    [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)])]
        rows.append((100, 10, 10, 1))
        assert decisions(DelbruckBAFilter(GEOM), rows)[-1] == 0

    def test_window_boundary(self):
        filt = DelbruckBAFilter(GEOM, k=1)
        # supporter exactly T in the past still counts; same-timestamp does not
        assert decisions(filt, [(0, 10, 10, 1), (1000, 10, 11, 1)]) == [0, 1]
        filt.reset()
        assert decisions(filt, [(0, 10, 10, 1), (1001, 10, 11, 1)]) == [0, 0]
        filt.reset()
        assert decisions(filt, [(50, 10, 10, 1), (50, 10, 11, 1)]) == [0, 0]

    def test_only_latest_timestamp_per_pixel(self):
        # one pixel firing repeatedly holds a single memory cell, so it can
        # contribute at most one hit
        filt = DelbruckBAFilter(GEOM, k=2)
        rows = [(t, 10, 11, 1) for t in range(5)] + [(10, 10, 10, 1)]
        assert decisions(filt, rows)[-1] == 0


class TestNNb:
    def test_single_neighbor_suffices(self):
        assert decisions(NNbFilter(GEOM), [(0, 10, 10, 1), (500, 11, 10, 1)]) == [0, 1]

    def test_own_pixel_history_counts(self):
        assert decisions(NNbFilter(GEOM), [(0, 10, 10, 1), (500, 10, 10, 1)]) == [0, 1]

    def test_stale_neighbor_ignored(self):
        assert decisions(NNbFilter(GEOM), [(0, 10, 10, 1), (1500, 11, 10, 1)]) == [0, 0]

    def test_outside_3x3_ignored(self):
        assert decisions(NNbFilter(GEOM), [(0, 10, 10, 1), (500, 12, 10, 1)]) == [0, 0]

    def test_isolated_burst_at_edge_pixel(self):
        assert decisions(NNbFilter(GEOM), [(0, 0, 0, 1), (500, 0, 0, -1)]) == [0, 1]


class TestLiu:
    def test_same_group_hit(self):
        # S=1: pixels (10,10) and (11,11) share the 2x2 group
        assert decisions(LiuFilter(GEOM, S=1), [(0, 10, 10, 1), (500, 11, 11, 1)]) == [0, 1]

    def test_adjacent_group_hit(self):
        # (8,10) is in group (4,5); (10,10) is in adjacent group (5,5)
        assert decisions(LiuFilter(GEOM, S=1), [(0, 8, 10, 1), (500, 10, 10, 1)]) == [0, 1]

    def test_distant_group_miss(self):
        assert decisions(LiuFilter(GEOM, S=1), [(0, 4, 10, 1), (500, 10, 10, 1)]) == [0, 0]

    def test_s2_coarser_grouping(self):
        # S=2: (8,8) and (11,11) share the 4x4 group starting at (8,8)
        assert decisions(LiuFilter(GEOM, S=2), [(0, 8, 8, 1), (500, 11, 11, 1)]) == [0, 1]
        # with S=1 those pixels are in non-adjacent... actually groups (4,4)
        # and (5,5) are diagonal neighbors, so S=1 also fires; use a farther pair
        assert decisions(LiuFilter(GEOM, S=2), [(0, 4, 4, 1), (500, 11, 11, 1)]) == [0, 1]
        assert decisions(LiuFilter(GEOM, S=1), [(0, 4, 4, 1), (500, 11, 11, 1)]) == [0, 0]

    def test_window_strict_past(self):
        assert decisions(LiuFilter(GEOM, S=1), [(0, 10, 10, 1), (1001, 11, 11, 1)]) == [0, 0]
        assert decisions(LiuFilter(GEOM, S=1), [(0, 10, 10, 1), (0, 11, 11, 1)]) == [0, 0]

    def test_invalid_subsampling(self):
        with pytest.raises(ValueError):
            LiuFilter(GEOM, S=3)

    def test_cell_count_reduced(self):
        assert LiuFilter(GEOM, S=1).cell_count == 32 * 24
        assert LiuFilter(GEOM, S=2).cell_count == 16 * 12


class TestKhodamoradi:
    def test_row_and_column_both_required(self):
        # prior event at (11,11) freshens column 11 and row 11; the event at
        # (10,10) sees both within +-1
        assert decisions(KhodamoradiFilter(GEOM),
                         [(0, 11, 11, 1), (500, 10, 10, 1)]) == [0, 1]

    def test_column_alone_insufficient(self):
        # (10,30) freshens column 10 but row 30, far from row 10
        assert decisions(KhodamoradiFilter(GEOM),
                         [(0, 10, 30, 1), (500, 10, 10, 1)]) == [0, 0]

    def test_row_alone_insufficient(self):
        assert decisions(KhodamoradiFilter(GEOM),
                         [(0, 30, 10, 1), (500, 10, 10, 1)]) == [0, 0]

    def test_two_events_can_combine(self):
        # one event freshens the row, another the column
        assert decisions(KhodamoradiFilter(GEOM),
                         [(0, 10, 30, 1), (100, 30, 10, 1), (500, 10, 10, 1)]) \
            == [0, 0, 1]

    def test_stale_cells_ignored(self):
        assert decisions(KhodamoradiFilter(GEOM),
                         [(0, 11, 11, 1), (1500, 10, 10, 1)]) == [0, 0]

    def test_polarity_matching_optional(self):
        rows = [(0, 11, 11, -1), (500, 10, 10, 1)]
        assert decisions(KhodamoradiFilter(GEOM), rows) == [0, 1]
        assert decisions(KhodamoradiFilter(GEOM, match_polarity=True), rows) == [0, 0]
        rows_same = [(0, 11, 11, 1), (500, 10, 10, 1)]
        assert decisions(KhodamoradiFilter(GEOM, match_polarity=True), rows_same) == [0, 1]

    def test_overwrite_semantics(self):
        # each row holds one cell: a later event in the same row overwrites
        # the stored polarity, breaking the polarity-matched case
        rows = [(0, 11, 11, 1), (100, 40, 11, -1), (500, 10, 10, 1)]
        assert decisions(KhodamoradiFilter(GEOM, match_polarity=True), rows) \
            == [0, 0, 0]
        assert decisions(KhodamoradiFilter(GEOM), rows) == [0, 0, 1]

    def test_cell_count(self):
        assert KhodamoradiFilter(GEOM).cell_count == 64 + 48


class TestYang:
    def test_density_threshold(self):
        # two prior neighbors + the arriving event = density 3 -> real
        rows = [(0, 10, 11, 1), (100, 11, 10, 1), (500, 10, 10, 1)]
        assert decisions(YangFilter(GEOM), rows)[-1] == 1
        rows = [(0, 10, 11, 1), (500, 10, 10, 1)]
        assert decisions(YangFilter(GEOM), rows)[-1] == 0

    def test_own_pixel_history_excluded(self):
        # a pixel firing alone can never satisfy the density threshold
        rows = [(t * 100, 10, 10, 1) for t in range(10)]
        assert decisions(YangFilter(GEOM), rows) == [0] * 10

    def test_5x5_window(self):
        rows = [(0, 8, 10, 1), (100, 12, 12, 1), (500, 10, 10, 1)]
        assert decisions(YangFilter(GEOM), rows)[-1] == 1
        rows = [(0, 7, 10, 1), (100, 12, 13, 1), (500, 10, 10, 1)]
        assert decisions(YangFilter(GEOM), rows)[-1] == 0

    def test_hot_pixel_flagged_and_stays_noise(self):
        # a lone 250 Hz pixel: every event is noise, before and after the
        # hot flag trips at the 20th event in the trailing 100 ms
        rows = [(t * 4000, 20, 20, 1) for t in range(30)]
        out = decisions(YangFilter(GEOM), rows)
        assert out == [0] * 30
        filt = YangFilter(GEOM)
        filt.run_batch(stream(rows))
        assert (20, 20) in filt.hot

    def test_hot_flag_even_with_late_cluster(self):
        # once hot, real-looking support no longer rescues the pixel
        rows = [(t * 4000, 20, 20, 1) for t in range(30)]
        rows += [(130_000, 19, 20, 1), (130_100, 21, 20, 1), (130_500, 20, 20, 1)]
        out = decisions(YangFilter(GEOM), rows)
        assert out[-1] == 0

    def test_hot_flag_carries_from_step_into_run_batch(self):
        # hot after a step fold; a late event with full support and a busy
        # neighborhood (so no new trigger) stays noise in run_batch
        filt = YangFilter(GEOM)
        for t in range(30):
            filt.step(Event(t * 4000, 20, 20, 1))
        rows = [(130_000, 19, 20, 1), (130_100, 21, 20, 1), (130_200, 20, 21, 1),
                (130_500, 20, 20, 1)]
        assert decisions(filt, rows)[-1] == 0
        assert decisions(YangFilter(GEOM), rows)[-1] == 1

    def test_pruned_history_not_counted_past_hot_window(self):
        # with T_us longer than the hot window, a neighbor's own later event
        # prunes its earlier one, which then no longer supports
        rows = [(0, 10, 11, 1), (1000, 10, 11, 1), (1500, 10, 10, 1)]
        filt = YangFilter(GEOM, L=1, T_us=3000, density=3, hot_window_us=500,
                          hot_count=100)
        assert decisions(filt, rows) == [0, 0, 0]

    def test_active_neighborhood_prevents_hot_flag(self):
        # same firing rate, but a busy neighborhood: pixel is never flagged
        rows = []
        for t in range(30):
            rows.append((t * 4000, 20, 20, 1))
            rows.append((t * 4000 + 1, 21, 20, 1))
            rows.append((t * 4000 + 2, 19, 20, 1))
        rows.sort()
        filt = YangFilter(GEOM)
        out = decisions(filt, rows)
        assert (20, 20) not in filt.hot
        assert out[-3:] == [1, 1, 1]


class TestRegistryAndHarness:
    def test_make_filter_names(self):
        for name, cls in [("ba", DelbruckBAFilter), ("nnb", NNbFilter),
                          ("liu1", LiuFilter), ("liu2", LiuFilter),
                          ("khodamoradi", KhodamoradiFilter), ("yang", YangFilter)]:
            assert isinstance(make_filter(name, GEOM), cls)
        assert make_filter("liu1", GEOM).S == 1
        assert make_filter("liu2", GEOM).S == 2
        with pytest.raises(ValueError, match="unknown filter"):
            make_filter("median", GEOM)

    def test_run_batch_equals_step_loop(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.integers(0, 100_000, size=300))
        rows = [(int(t[i]), int(rng.integers(0, 64)), int(rng.integers(0, 48)),
                 int(rng.choice([-1, 1]))) for i in range(300)]
        for name in ("ba", "nnb", "liu1", "liu2", "khodamoradi", "yang"):
            f1 = make_filter(name, GEOM)
            f2 = make_filter(name, GEOM)
            batch = f1.run_batch(stream(rows))
            loop = np.array([f2.step(e) for e in stream(rows)])
            np.testing.assert_array_equal(batch, loop)

    @pytest.mark.parametrize("name", ALGOS)
    @pytest.mark.parametrize("x,y", [(GEOM.width, 20), (-1, 20), (20, -1)],
                             ids=["x=W", "x=-1", "y=-1"])
    def test_out_of_bounds_event_skipped(self, name, x, y):
        # events on every border, where a bad event stored at its own or a
        # wrapped-around pixel would be seen by later events
        rng = np.random.default_rng(1)
        W, H = GEOM.width, GEOM.height
        corners = [(0, 19), (W - 3, 19), (19, 0), (19, H - 3)]
        t = np.sort(rng.integers(0, 4_000, size=400))
        rows = []
        for ti in t:
            cx, cy = corners[int(rng.integers(0, 4))]
            rows.append((int(ti), cx + int(rng.integers(0, 3)),
                         cy + int(rng.integers(0, 3)), 1))
        want = make_filter(name, GEOM).run_batch(stream(rows))
        assert set(np.unique(want)) == {0, 1}
        filt = make_filter(name, GEOM)
        got = [filt.step(e) for e in stream(rows[:200])]
        state = pickle.dumps(filt)
        assert filt.step(Event(rows[200][0], x, y, 1)) == -1
        assert pickle.dumps(filt) == state
        got += [filt.step(e) for e in stream(rows[200:])]
        np.testing.assert_array_equal(got, want)

    def test_reset_restores_initial_state(self):
        filt = NNbFilter(GEOM)
        rows = [(0, 10, 10, 1), (500, 11, 10, 1)]
        first = decisions(filt, rows)
        filt.reset()
        assert decisions(filt, rows) == first


# -- run_batch against the step fold ------------------------------------------------

SMALL = SensorGeometry(5, 4)
WINDOW_US = st.integers(1, 4000)
PARAMS = {
    "ba": st.fixed_dictionaries({"L": st.integers(0, 2), "T_us": WINDOW_US,
                                 "k": st.integers(0, 9)}),
    "nnb": st.fixed_dictionaries({"L": st.integers(0, 2), "T_us": WINDOW_US}),
    "liu1": st.fixed_dictionaries({"T_us": WINDOW_US}),
    "liu2": st.fixed_dictionaries({"T_us": WINDOW_US}),
    "khodamoradi": st.fixed_dictionaries({"T_us": WINDOW_US,
                                          "match_polarity": st.booleans()}),
    # the hot window is drawn both shorter and longer than T_us
    "yang": st.one_of(st.just({}), st.fixed_dictionaries({
        "L": st.integers(0, 2), "T_us": WINDOW_US, "density": st.integers(1, 5),
        "hot_window_us": WINDOW_US, "hot_count": st.integers(1, 6),
        "hot_support": st.integers(0, 4)})),
}


@st.composite
def event_rows(draw, monotone: bool):
    """Single events, same-pixel bursts and hot-pixel trains, with equal
    timestamps common and off-sensor events on every edge; without
    `monotone`, a step may go back in time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    W, H = SMALL.width, SMALL.height
    rows, t = [], int(rng.integers(0, 5000))
    for _ in range(draw(st.integers(1, 15))):
        x, y = int(rng.integers(0, W)), int(rng.integers(0, H))
        if rng.random() < 0.15:
            x, y = [(-1, y), (W, y), (x, -1), (x, H)][rng.integers(0, 4)]
        kind = rng.choice(["event", "event", "burst", "train"])
        count = {"event": 1, "burst": int(rng.integers(2, 7)),
                 "train": int(rng.integers(5, 26))}[kind]
        period = int(rng.choice([100, 400, 4000]))
        for k in range(count):
            if kind == "train" and k:
                t += period
            elif monotone:
                t += int(rng.choice([0, 0, 1, 50, 300, 900, 2500]))
            else:
                t += int(rng.integers(-1500, 1501))
            rows.append((t, x, y, int(rng.choice([-1, 1]))))
    return rows


def filter_state(filt):
    if isinstance(filt, YangFilter):
        return filt.hot, {pixel: list(buf) for pixel, buf in filt.history.items()}
    return pickle.dumps(filt)


@pytest.mark.parametrize("name", ALGOS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_batch_equals_step_fold_property(name, data):
    # step on a prefix, run_batch on two middle pieces, step on the rest:
    # the same decisions and the same final state as one step fold
    kwargs = data.draw(PARAMS[name])
    rows = data.draw(event_rows(monotone=data.draw(st.booleans())))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), min_size=3,
                                     max_size=3)))
    events = [Event(*r) for r in rows]
    ref = make_filter(name, SMALL, **kwargs)
    want = [ref.step(e) for e in events]
    filt = make_filter(name, SMALL, **kwargs)
    got = [filt.step(e) for e in events[:cuts[0]]]
    for a, b in zip(cuts, cuts[1:]):
        got += filt.run_batch(EventStream(events[a:b], SMALL)).tolist()
    got += [filt.step(e) for e in events[cuts[2]:]]
    assert got == want
    assert filter_state(filt) == filter_state(ref)
