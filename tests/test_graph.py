"""Local-volume graph construction: recency store, normalization, and the
vectorized batch neighbor search against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evdenoise.events import Event, EventStream, SensorGeometry
from evdenoise.graph import (GraphNode, RecencyStore, VolumeSpec, WriteLog,
                             batch_neighbor_indices, brute_force_neighbors,
                             build_graph, features_from_batch_indices,
                             node_features_single, normalize_graph)

GEOM = SensorGeometry(32, 24)


def random_stream(rng, n, geom=GEOM, t_max=200_000):
    t = np.sort(rng.integers(0, t_max, size=n))
    x = rng.integers(0, geom.width, size=n)
    y = rng.integers(0, geom.height, size=n)
    p = rng.choice([-1, 1], size=n)
    events = [Event(int(t[i]), int(x[i]), int(y[i]), int(p[i])) for i in range(n)]
    return EventStream(events, geom)


class TestVolumeSpec:
    def test_defaults(self):
        s = VolumeSpec()
        assert (s.L, s.T_us, s.N_max) == (2, 50_000, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeSpec(L=-1)
        with pytest.raises(ValueError):
            VolumeSpec(T_us=0)


class TestRecencyStore:
    def test_query_before_insert_excludes_self(self):
        store = RecencyStore(GEOM, capacity=10)
        e = Event(100, 5, 5, 1)
        assert store.query(e, VolumeSpec()) == []
        store.insert(e)
        later = Event(200, 5, 5, 1)
        assert store.query(later, VolumeSpec()) == [GraphNode(5, 5, 100)]

    def test_capacity_evicts_oldest(self):
        store = RecencyStore(GEOM, capacity=2)
        for t in (10, 20, 30):
            store.insert(Event(t, 3, 3, 1))
        nbrs = store.query(Event(40, 3, 3, 1), VolumeSpec(N_max=10))
        assert [n.t for n in nbrs] == [30, 20]

    def test_spatial_window(self):
        spec = VolumeSpec(L=1, T_us=1000, N_max=10)
        store = RecencyStore(GEOM)
        store.insert(Event(0, 5, 5, 1))   # inside L=1 of (6,6)
        store.insert(Event(1, 8, 6, 1))   # outside
        nbrs = store.query(Event(10, 6, 6, 1), spec)
        assert nbrs == [GraphNode(5, 5, 0)]

    def test_temporal_window_closed_at_both_ends(self):
        spec = VolumeSpec(L=2, T_us=100, N_max=10)
        store = RecencyStore(GEOM)
        store.insert(Event(0, 5, 5, 1))    # exactly t - T: included
        store.insert(Event(1, 5, 6, 1))
        nbrs = store.query(Event(100, 5, 5, 1), spec)
        assert {n.t for n in nbrs} == {0, 1}
        nbrs = store.query(Event(101, 5, 5, 1), spec)
        assert {n.t for n in nbrs} == {1}

    def test_order_time_then_arrival_desc(self):
        spec = VolumeSpec(L=2, T_us=1000, N_max=10)
        store = RecencyStore(GEOM)
        store.insert(Event(5, 4, 4, 1))
        store.insert(Event(5, 5, 5, 1))   # same timestamp, later arrival
        store.insert(Event(3, 6, 6, 1))
        nbrs = store.query(Event(10, 5, 5, 1), spec)
        assert [(n.x, n.t) for n in nbrs] == [(5, 5), (4, 5), (6, 3)]

    def test_cap_keeps_most_recent(self):
        spec = VolumeSpec(L=2, T_us=10_000, N_max=3)
        store = RecencyStore(GEOM)
        for t in range(6):
            store.insert(Event(t, 5 + (t % 2), 5, 1))
        nbrs = store.query(Event(10, 5, 5, 1), spec)
        assert [n.t for n in nbrs] == [5, 4, 3]


class TestNormalization:
    def test_interest_lands_at_fixed_point(self):
        g = build_graph(Event(1000, 10, 10, 1), [], VolumeSpec())
        n = normalize_graph(g, VolumeSpec())
        assert n.interest == pytest.approx((0.5, 0.5, 0.95))

    def test_corner_values(self):
        spec = VolumeSpec(L=2, T_us=100, N_max=10)
        e = Event(1000, 10, 10, 1)
        nbrs = [GraphNode(8, 12, 900), GraphNode(12, 8, 1000)]
        n = normalize_graph(build_graph(e, nbrs, spec), spec)
        assert n.neighbors[0] == pytest.approx((0.05, 0.95, 0.05))
        assert n.neighbors[1] == pytest.approx((0.95, 0.05, 0.95))

    def test_range_bounds(self):
        spec = VolumeSpec()
        rng = np.random.default_rng(0)
        e = Event(100_000, 10, 10, 1)
        nbrs = [GraphNode(10 + int(rng.integers(-2, 3)),
                          10 + int(rng.integers(-2, 3)),
                          100_000 - int(rng.integers(0, 50_001)))
                for _ in range(10)]
        n = normalize_graph(build_graph(e, nbrs, spec), spec)
        f = n.feature_matrix()
        assert f.shape == (11, 3)
        assert np.all(f >= 0.05 - 1e-12) and np.all(f <= 0.95 + 1e-12)

    def test_build_graph_rejects_out_of_window(self):
        spec = VolumeSpec(L=1, T_us=100, N_max=10)
        e = Event(1000, 10, 10, 1)
        with pytest.raises(ValueError):
            build_graph(e, [GraphNode(12, 10, 990)], spec)
        with pytest.raises(ValueError):
            build_graph(e, [GraphNode(10, 10, 800)], spec)


class TestStreamGraphs:
    def test_matches_brute_force(self):
        # the sequential fold: query each event, then insert it
        rng = np.random.default_rng(7)
        stream = random_stream(rng, 400)
        spec = VolumeSpec(L=2, T_us=30_000, N_max=5)
        arrays = stream.arrays()
        store = RecencyStore(GEOM, capacity=spec.N_max)
        for i, e in enumerate(stream):
            assert store.query(e, spec) == brute_force_neighbors(arrays, i, spec)
            store.insert(e)

    def test_out_of_bounds_skipped(self):
        # (5, -1) has the pixel id of (4, H - 1) under x * H + y; it must be
        # no event's neighbor in either search
        H = GEOM.height
        events = [Event(0, 5, -1, 1), Event(1, 4, H - 1, 1), Event(2, 5, 1, 1),
                  Event(3, 4, H - 2, 1)]
        stream = EventStream(events, GEOM)
        t, x, y, _, _ = stream.arrays()
        nbr = batch_neighbor_indices(t, x, y, VolumeSpec(), GEOM)
        assert np.all(nbr[:2] == -1)
        assert list(nbr[2]) == [-1] * 10
        assert list(nbr[3][:2]) == [1, -1]
        store = RecencyStore(GEOM)
        with pytest.raises(ValueError, match="outside"):
            store.insert(events[0])
        for e, row in zip(events[1:], nbr[1:]):
            assert store.query(e, VolumeSpec()) == \
                [GraphNode(int(x[j]), int(y[j]), int(t[j])) for j in row if j >= 0]
            store.insert(e)


class TestBatchNeighborIndices:
    @pytest.mark.parametrize("seed,n,spec", [
        (0, 300, VolumeSpec()),
        (1, 500, VolumeSpec(L=1, T_us=5_000, N_max=3)),
        (2, 200, VolumeSpec(L=3, T_us=1_000_000, N_max=10)),
        (3, 400, VolumeSpec(L=0, T_us=10_000, N_max=4)),
    ])
    def test_matches_brute_force(self, seed, n, spec):
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, n)
        arrays = stream.arrays()
        t, x, y = arrays[0], arrays[1], arrays[2]
        nbr = batch_neighbor_indices(t, x, y, spec, GEOM)
        for i in range(n):
            oracle = brute_force_neighbors(arrays, i, spec)
            got = [GraphNode(int(x[j]), int(y[j]), int(t[j]))
                   for j in nbr[i] if j >= 0]
            assert got == oracle, f"mismatch at event {i}"

    def test_duplicate_timestamps(self):
        # many same-timestamp events at one pixel: arrival order must break ties
        events = [Event(100, 5, 5, 1) for _ in range(8)]
        stream = EventStream(events, GEOM)
        arrays = stream.arrays()
        spec = VolumeSpec(N_max=4)
        nbr = batch_neighbor_indices(arrays[0], arrays[1], arrays[2], spec, GEOM)
        assert list(nbr[7]) == [6, 5, 4, 3]

    def test_out_of_bounds_rows_empty(self):
        events = [Event(0, 5, 5, 1), Event(1, 40, 5, 1), Event(2, 5, 5, 1)]
        stream = EventStream(events, GEOM)
        arrays = stream.arrays()
        nbr = batch_neighbor_indices(arrays[0], arrays[1], arrays[2],
                                     VolumeSpec(), GEOM)
        assert np.all(nbr[1] == -1)
        assert list(nbr[2][:1]) == [0]

    def test_empty_stream(self):
        nbr = batch_neighbor_indices(np.array([], dtype=np.int64),
                                     np.array([], dtype=np.int64),
                                     np.array([], dtype=np.int64),
                                     VolumeSpec(), GEOM)
        assert nbr.shape == (0, 10)


class TestPaddedFeatures:
    def test_matches_normalize_graph(self):
        rng = np.random.default_rng(11)
        stream = random_stream(rng, 300)
        spec = VolumeSpec(L=2, T_us=30_000, N_max=6)
        arrays = stream.arrays()
        t, x, y = arrays[0], arrays[1], arrays[2]
        nbr = batch_neighbor_indices(t, x, y, spec, GEOM)
        feats, mask = features_from_batch_indices(t, x, y, nbr, spec)
        graphs = [normalize_graph(build_graph(
            e, brute_force_neighbors(arrays, i, spec), spec), spec)
            for i, e in enumerate(stream)]
        for i, g in enumerate(graphs):
            m = int(mask[i].sum())
            assert m == g.node_count
            np.testing.assert_array_equal(feats[i, :m], g.feature_matrix())
            assert np.all(feats[i, m:] == 0.0)

    def test_single_event_path_matches_batch(self):
        rng = np.random.default_rng(13)
        stream = random_stream(rng, 200)
        spec = VolumeSpec()
        arrays = stream.arrays()
        t, x, y = arrays[0], arrays[1], arrays[2]
        nbr = batch_neighbor_indices(t, x, y, spec, GEOM)
        featsB, maskB = features_from_batch_indices(t, x, y, nbr, spec)
        store = RecencyStore(GEOM, capacity=spec.N_max)
        for i, e in enumerate(stream):
            nbrs = store.query(e, spec)
            f1, m1 = node_features_single(e, nbrs, spec)
            store.insert(e)
            np.testing.assert_array_equal(f1[0], featsB[i])
            np.testing.assert_array_equal(m1[0], maskB[i])



def test_oracle_skips_off_sensor_events():
    spec = VolumeSpec()
    arrays = EventStream([Event(0, 5, -1, 1), Event(10, 5, 1, 1), Event(20, 32, 1, 1),
                          Event(30, 31, 1, 1)], GEOM).arrays()
    assert brute_force_neighbors(arrays, 1, spec) == []
    assert brute_force_neighbors(arrays, 1, spec, GEOM) == []
    # past the far edge only a geometry tells
    assert brute_force_neighbors(arrays, 3, spec) == [GraphNode(32, 1, 20)]
    assert brute_force_neighbors(arrays, 3, spec, GEOM) == []
    assert brute_force_neighbors(arrays, 2, spec, GEOM) == []

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 120),
       st.integers(0, 3), st.integers(1, 8), st.data())
def test_batch_equals_oracle_property(seed, n, L, n_max, data):
    rng = np.random.default_rng(seed)
    geom = SensorGeometry(12, 10)
    events = list(random_stream(rng, n, geom=geom, t_max=5_000))
    # about one event in eight just off an edge of the sensor
    for i in np.flatnonzero(rng.random(n) < 0.125):
        e = events[i]
        x, y = [(-1, e.y), (geom.width, e.y), (e.x, -1), (e.x, geom.height)][i % 4]
        events[i] = Event(e.t, x, y, e.p)
    stream = EventStream(events, geom)
    spec = VolumeSpec(L=L, T_us=int(rng.integers(1, 3_000)), N_max=n_max)
    arrays = stream.arrays()
    t, x, y = arrays[0], arrays[1], arrays[2]
    nbr = batch_neighbor_indices(t, x, y, spec, geom)
    for i in range(n):
        oracle = brute_force_neighbors(arrays, i, spec, geom)
        got = [GraphNode(int(x[j]), int(y[j]), int(t[j]))
               for j in nbr[i] if j >= 0]
        assert got == oracle
    # a row subset, in any order, searches only its own window
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=n, unique=True)))
    sub = batch_neighbor_indices(t, x, y, spec, geom, rows=rows)
    for i, row in zip(rows, sub):
        got = [GraphNode(int(x[j]), int(y[j]), int(t[j])) for j in row if j >= 0]
        assert got == brute_force_neighbors(arrays, int(i), spec, geom)
    feats, mask = features_from_batch_indices(t, x, y, sub, spec, rows=rows)
    full_feats, full_mask = features_from_batch_indices(t, x, y, nbr, spec)
    np.testing.assert_array_equal(feats, full_feats[rows])
    np.testing.assert_array_equal(mask, full_mask[rows])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_write_log_equals_a_scan_of_the_writes(data):
    # cell ids on a 3x2 grid, with 6 as the off-grid sentinel the batch
    # search writes off-sensor events to
    cells = np.array(data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=40)),
                     dtype=np.int64)
    n = len(cells)
    queries = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, n),
                                           st.integers(0, n), st.booleans()),
                                 min_size=1, max_size=20))
    depth = data.draw(st.integers(1, 4))
    cell, a, b, valid = (np.array(column) for column in zip(*queries))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    log = WriteLog(cells)
    key = cell * log.n
    last = log.last(key, hi, valid, depth)
    count = log.count(key, lo, hi)
    assert last.shape == (depth, len(queries))
    np.testing.assert_array_equal(log.last(key, hi, valid), last[0])
    for k in range(len(queries)):
        earlier = [i for i in range(hi[k]) if cells[i] == cell[k]] if valid[k] else []
        newest = earlier[::-1][:depth]
        assert last[:, k].tolist() == newest + [-1] * (depth - len(newest))
        assert count[k] == np.count_nonzero(cells[lo[k]: hi[k]] == cell[k])
    final = {int(c): i for i, c in enumerate(cells)}
    final_cells, final_writes = log.final()
    assert final_cells.tolist() == sorted(final)
    assert final_writes.tolist() == [final[c] for c in sorted(final)]
