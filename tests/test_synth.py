"""Synthetic scene generator: determinism, event accounting, frames, and
balanced training-set extraction."""

import hashlib

import numpy as np
import pytest

from evdenoise.events import (LABEL_NOISE, LABEL_REAL, Event, EventStream,
                              SensorGeometry, validate_stream, write_events)
from evdenoise.graph import VolumeSpec
from evdenoise.synth import (LIGHT_PRESETS, HotPixel, MovingEdge, SceneSpec,
                             build_training_set, expected_noise_count,
                             generate, preset_scene, render_frame)


def simple_scene(**kwargs):
    defaults = dict(
        geometry=SensorGeometry(32, 24),
        duration_us=500_000,
        edges=(MovingEdge("vertical", 4.0, 40.0, polarity=1),),
        seed=3,
    )
    defaults.update(kwargs)
    return SceneSpec(**defaults)


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(duration_us=0)
        with pytest.raises(ValueError):
            SceneSpec(noise_rate_hz=-1.0)
        with pytest.raises(ValueError):
            MovingEdge("diagonal", 0.0, 10.0)
        with pytest.raises(ValueError):
            MovingEdge("vertical", 0.0, 0.0)


class TestGenerate:
    def test_deterministic(self):
        scene = simple_scene(noise_rate_hz=1.0, jitter_us=500.0)
        a = generate(scene)
        b = generate(scene)
        assert a.stream == b.stream
        assert (a.real_count, a.noise_count) == (b.real_count, b.noise_count)

    def test_different_seed_differs(self):
        a = generate(simple_scene(noise_rate_hz=1.0, seed=1))
        b = generate(simple_scene(noise_rate_hz=1.0, seed=2))
        assert a.stream != b.stream

    def test_stream_valid_and_sorted(self):
        ds = generate(simple_scene(noise_rate_hz=2.0, jitter_us=2000.0,
                                   hot_pixels=(HotPixel(5, 5, 100.0),)))
        assert validate_stream(ds.stream).ok

    def test_noiseless_scene_all_real(self):
        ds = generate(simple_scene())
        labels = {e.label for e in ds.stream}
        assert labels == {LABEL_REAL}
        assert ds.noise_count == 0

    def test_edge_crossing_count_no_jitter(self):
        # edge at 40 px/s over 0.5 s travels 20 px from x=4: pixel-center
        # lines 4.5 .. 23.5 are crossed once each -> 20 columns x 24 rows
        ds = generate(simple_scene())
        assert ds.real_count == 20 * 24

    def test_wraparound(self):
        # 100 px/s across a 32-px-wide sensor for 0.64 s: exactly two full
        # traversals -> every column crossed twice
        scene = simple_scene(duration_us=640_000,
                             edges=(MovingEdge("vertical", 0.0, 100.0),))
        ds = generate(scene)
        assert ds.real_count == 2 * 32 * 24

    def test_horizontal_edge(self):
        scene = simple_scene(edges=(MovingEdge("horizontal", 4.0, 40.0, -1),))
        ds = generate(scene)
        assert ds.real_count == 20 * 32
        assert all(e.p == -1 for e in ds.stream)

    def test_noise_count_near_expectation(self):
        scene = simple_scene(noise_rate_hz=5.0, edges=())
        ds = generate(scene)
        lam = expected_noise_count(scene)
        assert lam == 5.0 * 32 * 24 * 0.5
        assert abs(ds.noise_count - lam) < 5 * np.sqrt(lam)

    def test_hot_pixels_at_fixed_location(self):
        scene = simple_scene(edges=(), hot_pixels=(HotPixel(7, 9, 400.0),))
        ds = generate(scene)
        assert ds.hot_count > 100
        assert all((e.x, e.y) == (7, 9) for e in ds.stream)
        assert all(e.label == LABEL_NOISE for e in ds.stream)

    def test_jitter_spreads_timestamps(self):
        crisp = generate(simple_scene())
        fuzzy = generate(simple_scene(jitter_us=3000.0))
        t_crisp = np.array([e.t for e in crisp.stream])
        t_fuzzy = np.array([e.t for e in fuzzy.stream])
        # without jitter each crossing is simultaneous across the column
        assert len(np.unique(t_crisp)) < len(np.unique(t_fuzzy))


class TestFrames:
    def test_frame_cadence(self):
        ds = generate(simple_scene(duration_us=100_000, frame_period_us=20_000))
        assert [f.t_us for f in ds.frames] == [0, 20_000, 40_000, 60_000, 80_000, 100_000]

    def test_step_edge_rendered(self):
        scene = simple_scene()
        img = render_frame(scene, 0)
        assert img.shape == (24, 32)
        assert np.all(img[:, :4] == 200) and np.all(img[:, 5:] == 50)

    def test_edge_moves_between_frames(self):
        scene = simple_scene()
        img0 = render_frame(scene, 0)
        img1 = render_frame(scene, 250_000)   # edge moved 10 px
        assert np.all(img1[:, :14] == 200) and np.all(img1[:, 15:] == 50)


class TestPresets:
    def test_presets_defined(self):
        assert LIGHT_PRESETS["light.750lux"] == {"noise_rate_hz": 0.5,
                                                 "jitter_us": 1000.0}
        assert LIGHT_PRESETS["light.5lux"] == {"noise_rate_hz": 2.0,
                                               "jitter_us": 3000.0}

    def test_preset_scene(self):
        scene = preset_scene("light.5lux", seed=4)
        assert scene.noise_rate_hz == 2.0 and scene.jitter_us == 3000.0
        assert len(scene.edges) == 2 and len(scene.hot_pixels) == 2
        with pytest.raises(ValueError, match="preset"):
            preset_scene("light.moon")


class TestTrainingSet:
    def test_balanced_and_labeled(self):
        ds = generate(simple_scene(noise_rate_hz=3.0, jitter_us=1000.0))
        data = build_training_set(ds.stream, VolumeSpec(), per_class=50, seed=0)
        assert len(data) == 100
        assert data.feats.shape == (100, 11, 3) and data.mask.shape == (100, 11, 1)
        assert np.count_nonzero(data.labels == 0) == 50
        assert np.count_nonzero(data.labels == 1) == 50

    def test_graphs_match_full_prefix(self):
        from evdenoise.graph import (brute_force_neighbors, build_graph,
                                     normalize_graph)
        from evdenoise.synth import sample_balanced_indices
        ds = generate(simple_scene(noise_rate_hz=3.0, jitter_us=1000.0))
        spec = VolumeSpec(N_max=5)
        data = build_training_set(ds.stream, spec, per_class=10, seed=1)
        arrays = ds.stream.arrays()
        chosen = sample_balanced_indices(ds.stream, 10, seed=1)
        np.testing.assert_array_equal(data.labels, arrays[4][chosen])
        for row, i in enumerate(chosen):
            nbrs = brute_force_neighbors(arrays, int(i), spec)
            g = normalize_graph(build_graph(ds.stream[int(i)], nbrs, spec), spec)
            m = g.node_count
            np.testing.assert_array_equal(data.feats[row, :m], g.feature_matrix())
            assert data.mask[row].sum() == m and np.all(data.feats[row, m:] == 0)

    def test_deterministic(self):
        ds = generate(simple_scene(noise_rate_hz=3.0))
        a = build_training_set(ds.stream, VolumeSpec(), per_class=20, seed=5)
        b = build_training_set(ds.stream, VolumeSpec(), per_class=20, seed=5)
        for name in ("feats", "mask", "labels"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_insufficient_events_rejected(self):
        ds = generate(simple_scene())
        with pytest.raises(ValueError, match="per class"):
            build_training_set(ds.stream, VolumeSpec(), per_class=10**6)

    def test_out_of_bounds_sample_rejected(self):
        # every event of the smaller class is sampled, one of them off-sensor
        ds = generate(simple_scene(noise_rate_hz=3.0))
        lab = ds.stream.arrays()[4]
        counts = [np.count_nonzero(lab == c) for c in (LABEL_NOISE, LABEL_REAL)]
        k = int(np.flatnonzero(lab == int(np.argmin(counts)))[5])
        events = list(ds.stream)
        e = events[k]
        events[k] = Event(e.t, ds.stream.geometry.width, e.y, e.p, e.label)
        stream = EventStream(events, ds.stream.geometry)
        with pytest.raises(ValueError, match=f"event {k} .* outside"):
            build_training_set(stream, VolumeSpec(), per_class=min(counts))


def test_generate_matches_recorded_bytes(tmp_path):
    # pinned bytes: a change to the random draws, their order or the
    # timestamp rounding changes the generated stream
    data = generate(preset_scene("light.5lux", seed=3, duration_us=100_000))
    assert (len(data.stream), data.real_count, data.noise_count,
            data.hot_count) == (1155, 496, 659, 52)
    path = tmp_path / "scene.bin"
    write_events(data.stream, path, format="bin")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "0172b53b2dc25c15da4d3a44a2791a2c81750b4d4d636cc16c57e36a62e371b5"
