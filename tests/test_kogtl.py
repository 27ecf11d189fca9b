"""Frame-based ground-truth labeling: synchronization, edge extraction,
translation ICP, and proximity labeling."""

import numpy as np
import pytest

from evdenoise.events import Event, EventStream, LABEL_NOISE, LABEL_REAL, \
    SensorGeometry
from evdenoise.kogtl import (ApsFrame, EdgeMap, FrameFormatError,
                             canny_edges, icp_align, kogtl_pipeline,
                             label_events, read_frame_dir, read_pgm,
                             synchronize, write_pgm)


def step_frame(width=64, height=48, edge_x=20, dark=50, bright=200, t_us=0):
    img = np.full((height, width), dark, dtype=np.uint8)
    img[:, :edge_x] = bright
    return ApsFrame(img, t_us)


class TestSynchronize:
    def test_partitioning_half_open(self):
        frames = [ApsFrame(np.zeros((2, 2), np.uint8), t) for t in (0, 100, 200)]
        events = EventStream([Event(t, 0, 0, 1) for t in (0, 50, 100, 199, 200, 500)],
                             SensorGeometry(2, 2))
        batches, pre = synchronize(events, frames)
        assert [len(b) for b in batches] == [2, 2, 2]
        assert len(pre) == 0
        t = events.arrays()[0]
        assert t[batches[0]].tolist() == [0, 50]
        assert t[batches[2]].tolist() == [200, 500]

    def test_pre_frame_events(self):
        frames = [ApsFrame(np.zeros((2, 2), np.uint8), 100)]
        events = EventStream([Event(10, 0, 0, 1), Event(150, 0, 0, 1)],
                             SensorGeometry(2, 2))
        batches, pre = synchronize(events, frames)
        assert pre.tolist() == [0]
        assert len(batches[0]) == 1

    def test_start_offset(self):
        frames = [ApsFrame(np.zeros((2, 2), np.uint8), 0),
                  ApsFrame(np.zeros((2, 2), np.uint8), 100)]
        events = EventStream([Event(1050, 0, 0, 1)], SensorGeometry(2, 2))
        batches, _ = synchronize(events, frames, start_offset_us=1000)
        assert len(batches[0]) == 1 and len(batches[1]) == 0

    def test_unsorted_frames_rejected(self):
        frames = [ApsFrame(np.zeros((2, 2), np.uint8), 100),
                  ApsFrame(np.zeros((2, 2), np.uint8), 0)]
        with pytest.raises(ValueError, match="sorted"):
            synchronize(EventStream([], SensorGeometry(2, 2)), frames)


class TestCanny:
    def test_vertical_step_edge_found_near_boundary(self):
        edges = canny_edges(step_frame(edge_x=20))
        cols = np.flatnonzero(edges.mask.any(axis=0))
        assert len(cols) > 0
        assert np.all(np.abs(cols - 19.5) <= 2.0)
        # the edge runs the full height
        rows_hit = edges.mask[:, cols].any(axis=1)
        assert rows_hit.mean() > 0.9

    def test_edge_thinned_to_one_pixel_per_row(self):
        edges = canny_edges(step_frame(edge_x=20))
        interior = edges.mask[5:-5, :]
        assert np.all(interior.sum(axis=1) <= 2)

    def test_flat_image_no_edges(self):
        frame = ApsFrame(np.full((32, 32), 128, np.uint8), 0)
        assert not canny_edges(frame).mask.any()

    def test_weak_isolated_texture_suppressed(self):
        # a strong step plus a barely-contrasting isolated blob: hysteresis
        # keeps the step, drops the blob
        img = np.full((48, 64), 50, dtype=np.uint8)
        img[:, :20] = 200
        img[40, 50] = 58
        edges = canny_edges(ApsFrame(img, 0))
        assert edges.mask[:, 15:25].any()
        assert not edges.mask[35:46, 45:56].any()

    def test_deterministic(self):
        a = canny_edges(step_frame())
        b = canny_edges(step_frame())
        np.testing.assert_array_equal(a.mask, b.mask)


class TestIcp:
    def test_recovers_known_shift(self):
        # an L-shaped contour constrains both translation axes (a lone
        # straight edge would leave its tangent direction free)
        img = np.full((48, 64), 50, dtype=np.uint8)
        img[:30, :20] = 200
        edges = canny_edges(ApsFrame(img, 0))
        ey, ex = np.nonzero(edges.mask)
        # synthesize events as edge pixels displaced by (+3, -2)
        points = np.stack([ex - 3.0, ey + 2.0], axis=1)
        res = icp_align(points, edges)
        assert res.converged
        assert abs(res.dx - 3.0) < 0.1 and abs(res.dy - (-2.0)) < 0.1

    def test_zero_shift_converges_immediately(self):
        edges = canny_edges(step_frame())
        ey, ex = np.nonzero(edges.mask)
        res = icp_align(np.stack([ex, ey], axis=1).astype(float), edges)
        assert res.converged and res.residual < 1e-9
        assert abs(res.dx) < 1e-9 and abs(res.dy) < 1e-9

    def test_empty_inputs_rejected(self):
        edges = canny_edges(step_frame())
        with pytest.raises(ValueError, match="empty point"):
            icp_align(np.empty((0, 2)), edges)
        with pytest.raises(ValueError, match="empty edge"):
            icp_align(np.ones((3, 2)), EdgeMap(np.zeros((4, 4), bool), 0))


class TestLabelEvents:
    def test_chebyshev_proximity(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[10, 10] = True
        edges = EdgeMap(mask, 0)
        x = np.array([12, 13, 12, 0])    # Chebyshev distances 2, 3, 2, 10:
        y = np.array([10, 10, 12, 0])    # real, noise, real, noise at B=2
        out = label_events(x, y, edges, (0.0, 0.0), B=2)
        assert out.tolist() == [LABEL_REAL, LABEL_NOISE, LABEL_REAL, LABEL_NOISE]

    def test_shift_applied_before_lookup(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[10, 10] = True
        edges = EdgeMap(mask, 0)
        x, y = np.array([7]), np.array([10])
        assert label_events(x, y, edges, (3.0, 0.0), B=0).tolist() == [LABEL_REAL]
        assert label_events(x, y, edges, (0.0, 0.0), B=0).tolist() == [LABEL_NOISE]

    def test_out_of_frame_is_noise(self):
        edges = EdgeMap(np.ones((4, 4), dtype=bool), 0)
        assert label_events(np.array([50]), np.array([50]), edges,
                            (0.0, 0.0), B=2).tolist() == [LABEL_NOISE]


class TestPipeline:
    def test_labels_edge_events_real_and_isolated_noise(self):
        frame = step_frame(edge_x=20, t_us=0)
        events = [Event(t, 19 + (t % 2), y, 1)
                  for t, y in zip(range(0, 4000, 100), range(4, 44))]
        events += [Event(5000, 55, 40, 1), Event(6000, 3, 45, -1)]
        events.sort(key=lambda e: e.t)
        stream = EventStream(events, SensorGeometry(64, 48))
        labeled, reports = kogtl_pipeline(stream, [frame])
        assert reports[0] is not None and reports[0].converged
        by_pos = {(e.x, e.y): e.label for e in labeled}
        assert by_pos[(55, 40)] == LABEL_NOISE
        assert by_pos[(3, 45)] == LABEL_NOISE
        near_edge = [e.label for e in labeled if abs(e.x - 19.5) <= 1]
        assert all(l == LABEL_REAL for l in near_edge)

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError, match="empty frame"):
            kogtl_pipeline(EventStream([], SensorGeometry(4, 4)), [])

    def test_eventless_batch_keeps_unknown_labels(self):
        frame = step_frame()
        stream = EventStream([], SensorGeometry(64, 48))
        labeled, reports = kogtl_pipeline(stream, [frame])
        assert reports == [None] and len(labeled) == 0


class TestPgm:
    def test_roundtrip(self, tmp_path):
        frame = step_frame()
        path = tmp_path / "frame_000123.pgm"
        write_pgm(frame, path)
        back = read_pgm(path)
        np.testing.assert_array_equal(back.image, frame.image)
        assert back.t_us == 123  # parsed from the filename

    def test_rejects_non_pgm(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"hello")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_rejects_truncated_image_and_empty_dir(self, tmp_path):
        path = tmp_path / "frame_000001.pgm"
        write_pgm(step_frame(), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FrameFormatError, match="truncated"):
            read_pgm(path)
        path.unlink()
        with pytest.raises(FrameFormatError, match="no .pgm frames"):
            read_frame_dir(tmp_path)

    def test_read_frame_dir_sorted(self, tmp_path):
        for t in (40_000, 0, 20_000):
            write_pgm(step_frame(t_us=t), tmp_path / f"frame_{t:08d}.pgm")
        frames = read_frame_dir(tmp_path)
        assert [f.t_us for f in frames] == [0, 20_000, 40_000]
