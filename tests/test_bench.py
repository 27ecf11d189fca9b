"""Metrics, windowed evaluation, timing harness, and memory accounting."""

import math

import numpy as np
import pytest

from evdenoise.baselines import NNbFilter
from evdenoise.bench import (EDNCNN_INPUT_ELEMENTS, ConfusionCounts,
                             confusion, format_metric, memory_estimate,
                             metrics_from_counts, time_filter, windowed_eval,
                             write_metrics_csv, write_series)
from evdenoise.events import Event, EventStream, SensorGeometry
from evdenoise.graph import VolumeSpec
from evdenoise.transformer import DenoiseModel


class TestConfusion:
    def test_convention(self):
        # FP counts real events called noise; FN counts noise called real
        truth = [1, 1, 1, 0, 0, 0]
        pred = [1, 0, 0, 0, 1, 1]
        c = confusion(pred, truth)
        assert (c.TP, c.FP, c.TN, c.FN) == (1, 2, 1, 2)
        assert c.TP + c.FP == 3   # ground-truth real count
        assert c.TN + c.FN == 3   # ground-truth noise count

    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion([1], [1, 0])
        with pytest.raises(ValueError, match="truth"):
            confusion([1], [2])
        with pytest.raises(ValueError, match="predictions"):
            confusion([2], [1])

    def test_counts_addable(self):
        a = ConfusionCounts(1, 2, 3, 4)
        b = ConfusionCounts(10, 20, 30, 40)
        assert a + b == ConfusionCounts(11, 22, 33, 44)
        assert (a + b).total == 110

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestMetrics:
    def test_formulas(self):
        m = metrics_from_counts(ConfusionCounts(TP=6, FP=2, TN=5, FN=3))
        assert m.accuracy == pytest.approx(11 / 16)
        assert m.SR == pytest.approx(6 / 8)
        assert m.NR == pytest.approx(3 / 8)
        assert m.SNR == pytest.approx(2.0)

    def test_degenerate_denominators(self):
        m = metrics_from_counts(ConfusionCounts(0, 0, 5, 0))
        assert math.isnan(m.SR) and math.isnan(m.SNR)
        assert m.NR == 0.0
        m = metrics_from_counts(ConfusionCounts(4, 0, 0, 0))
        assert m.SNR == math.inf
        m = metrics_from_counts(ConfusionCounts(0, 0, 0, 0))
        assert math.isnan(m.accuracy)

    def test_printed_accuracy_examples(self):
        # spot checks against published-style four-count rows
        cases = [
            ((15529, 16471, 29012, 2988), 69.60),
            ((27012, 4988, 25684, 6316), 82.34),
            ((6403, 1597, 6513, 1487), 80.73),
        ]
        for (tp, fp, tn, fn), acc in cases:
            m = metrics_from_counts(ConfusionCounts(tp, fp, tn, fn))
            assert m.accuracy * 100 == pytest.approx(acc, abs=0.01)


class TestWindowedEval:
    def test_partition_and_totals(self):
        t = [0, 50, 100, 150, 250]
        pred = [1, 0, 1, 1, 0]
        truth = [1, 1, 0, 1, 0]
        windows = windowed_eval(t, pred, truth, interval_us=100)
        assert [w[0] for w in windows] == [0, 100, 200]
        total = windows[0][1] + windows[1][1] + windows[2][1]
        assert total == confusion(pred, truth)

    def test_empty_bins_included(self):
        windows = windowed_eval([0, 250], [1, 1], [1, 1], interval_us=100)
        assert len(windows) == 3
        assert windows[1][1].total == 0
        assert math.isnan(windows[1][2].accuracy)

    def test_empty_input(self):
        assert windowed_eval([], [], [], 100) == []

    def test_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            windowed_eval([0], [1], [1], 0)


class TestTiming:
    @staticmethod
    def tiny_stream(n=300):
        rng = np.random.default_rng(0)
        geom = SensorGeometry(16, 16)
        t = np.sort(rng.integers(0, 100_000, size=n))
        return EventStream([Event(int(t[i]), int(rng.integers(0, 16)),
                                  int(rng.integers(0, 16)), 1)
                            for i in range(n)], geom)

    def test_seq_and_batch_reports(self):
        stream = self.tiny_stream()
        for mode in ("seq", "batch"):
            rep = time_filter(NNbFilter(stream.geometry), stream, mode,
                              warmup=20, repetitions=2)
            assert rep.mode == mode
            assert rep.mean_s > 0 and rep.total_events == len(stream)
            assert rep.total_wall_s > 0

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            time_filter(NNbFilter(SensorGeometry(4, 4)),
                        EventStream([], SensorGeometry(4, 4)), "seq")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            time_filter(NNbFilter(SensorGeometry(16, 16)),
                        self.tiny_stream(50), "parallel")


class TestMemoryEstimate:
    def test_default_window(self):
        est = memory_estimate(DenoiseModel())
        assert est.window_elements == 250
        assert est.window_bytes == 2000
        assert est.comparison_elements == EDNCNN_INPUT_ELEMENTS == 2500
        assert est.comparison_ratio == pytest.approx(10.0)

    def test_scales_with_spec(self):
        model = DenoiseModel(volume=VolumeSpec(L=1, T_us=1000, N_max=4))
        est = memory_estimate(model)
        assert est.window_elements == 9 * 4
        est = memory_estimate(model, N_g=2)
        assert est.window_elements == 18

    def test_parameter_count_positive(self):
        est = memory_estimate(DenoiseModel())
        assert est.parameter_count > 0
        assert est.parameter_bytes == est.parameter_count * 8


class TestReporting:
    def test_format_metric(self):
        assert format_metric(math.nan) == "nan"
        assert format_metric(math.inf) == "inf"
        assert format_metric(0.5) == "0.500000"

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        c = ConfusionCounts(6, 2, 5, 3)
        write_metrics_csv(path, [("nnb", c, metrics_from_counts(c))])
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == "name,TP,FP,TN,FN,accuracy,SR,NR,SNR"
        assert lines[2].startswith("nnb,6,2,5,3,0.687500")

    def test_series(self, tmp_path):
        path = tmp_path / "s.dat"
        windows = windowed_eval([0, 150], [1, 0], [1, 0], 100)
        write_series(path, windows)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 3
        assert lines[1].split()[0] == "0"
