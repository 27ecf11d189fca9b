"""Metrics, windowed evaluation, timing, memory accounting, and reporting.

Confusion convention (documented in every CLI header): positives are real
events, and FP counts real events classified as noise while FN counts noise
events classified as real — i.e. TP + FP always sums to the ground-truth
real count and TN + FN to the ground-truth noise count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .events import EventStream

CONVENTION_NOTE = (
    "# confusion convention: FP = real event classified noise, "
    "FN = noise event classified real"
)


@dataclass(frozen=True)
class ConfusionCounts:
    TP: int
    FP: int
    TN: int
    FN: int

    def __post_init__(self):
        if min(self.TP, self.FP, self.TN, self.FN) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.TP + self.FP + self.TN + self.FN

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.TP + other.TP, self.FP + other.FP,
                               self.TN + other.TN, self.FN + other.FN)


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    SR: float
    NR: float
    SNR: float


def confusion(predictions: Sequence[int], truths: Sequence[int]) -> ConfusionCounts:
    pred = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truths, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if not np.all((truth == 0) | (truth == 1)):
        raise ValueError("truth labels must be 0 or 1")
    if not np.all((pred == 0) | (pred == 1)):
        raise ValueError("predictions must be 0 or 1")
    return ConfusionCounts(
        TP=int(np.count_nonzero((truth == 1) & (pred == 1))),
        FP=int(np.count_nonzero((truth == 1) & (pred == 0))),
        TN=int(np.count_nonzero((truth == 0) & (pred == 0))),
        FN=int(np.count_nonzero((truth == 0) & (pred == 1))),
    )


def metrics_from_counts(c: ConfusionCounts) -> Metrics:
    """Accuracy = (TP+TN)/total, SR = TP/(TP+FP), NR = FN/(TN+FN),
    SNR = TP/FN (inf when FN = 0 and TP > 0, nan when both are 0)."""
    total = c.total
    accuracy = (c.TP + c.TN) / total if total else math.nan
    SR = c.TP / (c.TP + c.FP) if c.TP + c.FP else math.nan
    NR = c.FN / (c.TN + c.FN) if c.TN + c.FN else math.nan
    if c.FN:
        SNR = c.TP / c.FN
    else:
        SNR = math.inf if c.TP else math.nan
    return Metrics(accuracy, SR, NR, SNR)


def windowed_eval(times_us: Sequence[int], predictions: Sequence[int],
                  truths: Sequence[int], interval_us: int):
    """Per-interval metrics over half-open windows [k*D, (k+1)*D).

    Returns a list of (window start us, ConfusionCounts, Metrics); empty
    windows inside the covered span are included with zero counts and nan
    metrics."""
    if interval_us <= 0:
        raise ValueError("interval must be positive")
    t = np.asarray(times_us, dtype=np.int64)
    pred = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truths, dtype=np.int64)
    if not (len(t) == len(pred) == len(truth)):
        raise ValueError("length mismatch")
    if len(t) == 0:
        return []
    k0 = int(t.min() // interval_us)
    k1 = int(t.max() // interval_us)
    out = []
    bins = t // interval_us
    for k in range(k0, k1 + 1):
        sel = bins == k
        c = confusion(pred[sel], truth[sel])
        out.append((k * interval_us, c, metrics_from_counts(c)))
    return out


@dataclass
class TimingReport:
    mode: str
    mean_s: float
    std_s: float
    total_events: int
    total_wall_s: float


def time_filter(filt, stream: EventStream, mode: str,
                warmup: int = 100, repetitions: int = 5) -> TimingReport:
    """Per-event timing with a monotonic clock.

    `filt` exposes step(event), run_batch(stream) and reset().  The warmup
    prefix is processed (and timed runs re-process it) but its per-event
    timings are excluded in sequential mode.  Sequential and batch decisions
    are asserted equal.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if len(stream) == 0:
        raise ValueError("empty stream")
    warmup = min(warmup, max(0, len(stream) - 1))

    filt.reset()
    ref = filt.run_batch(stream)

    means = []
    last_decisions = None
    total_wall = 0.0
    per_event_all: List[float] = []
    for _ in range(repetitions):
        filt.reset()
        if mode == "seq":
            timings = []
            decisions = np.empty(len(stream), dtype=np.int64)
            start_all = time.perf_counter()
            for i, e in enumerate(stream):
                t0 = time.perf_counter()
                decisions[i] = filt.step(e)
                t1 = time.perf_counter()
                if i >= warmup:
                    timings.append(t1 - t0)
            total_wall += time.perf_counter() - start_all
            per_event_all.extend(timings)
            means.append(float(np.mean(timings)) if timings else 0.0)
        elif mode == "batch":
            t0 = time.perf_counter()
            decisions = filt.run_batch(stream)
            t1 = time.perf_counter()
            total_wall += t1 - t0
            means.append((t1 - t0) / len(stream))
        else:
            raise ValueError(f"unknown mode {mode!r}")
        last_decisions = decisions

    if not np.array_equal(last_decisions, ref):
        raise AssertionError("timed decisions differ from reference batch run")
    if mode == "seq" and per_event_all:
        mean = float(np.mean(per_event_all))
        std = float(np.std(per_event_all))
    else:
        mean = float(np.mean(means))
        std = float(np.std(means))
    return TimingReport(mode, mean, std, len(stream), total_wall)


EDNCNN_INPUT_ELEMENTS = 25 * 25 * 2 * 2


@dataclass
class MemoryEstimate:
    window_elements: int       # (2L+1)^2 * N_g per-event working set
    element_bytes: int
    window_bytes: int
    parameter_count: int
    parameter_bytes: int
    comparison_elements: int
    comparison_ratio: float


def memory_estimate(model, N_g: int = None) -> MemoryEstimate:
    """Per-event classification working set: the (2L+1)^2 spatial window
    times N_g node features, reported against the 25x25x2x2 comparison
    figure."""
    spec = model.volume
    if N_g is None:
        N_g = spec.N_max
    window = (2 * spec.L + 1) ** 2 * N_g
    pcount = sum(p.value.size for p in model.parameters())
    return MemoryEstimate(
        window_elements=window,
        element_bytes=8,
        window_bytes=window * 8,
        parameter_count=int(pcount),
        parameter_bytes=int(pcount) * 8,
        comparison_elements=EDNCNN_INPUT_ELEMENTS,
        comparison_ratio=EDNCNN_INPUT_ELEMENTS / window,
    )


def format_metric(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf"
    return f"{v:.6f}"


class DecisionFileError(ValueError):
    """Raised when a decisions file is malformed or does not hold one
    decision per event."""


def read_decisions(path, n_events: int) -> np.ndarray:
    """The per-event decisions (-1, 0 or 1) a `filter` run wrote, one per
    line, checked against the stream's length."""
    try:
        decisions = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise DecisionFileError(f"{path}: {exc}") from None
    if len(decisions) != n_events:
        raise DecisionFileError(f"{path}: {len(decisions)} decisions for a stream "
                                f"of {n_events} events")
    if np.any((decisions < -1) | (decisions > 1)):
        raise DecisionFileError(f"{path}: decisions must be -1, 0 or 1")
    return decisions


def write_metrics_csv(path, rows: Sequence[Tuple[str, ConfusionCounts, Metrics]]) -> None:
    with open(path, "w") as f:
        f.write(CONVENTION_NOTE + "\n")
        f.write("name,TP,FP,TN,FN,accuracy,SR,NR,SNR\n")
        for name, c, m in rows:
            f.write(f"{name},{c.TP},{c.FP},{c.TN},{c.FN},"
                    f"{format_metric(m.accuracy)},{format_metric(m.SR)},"
                    f"{format_metric(m.NR)},{format_metric(m.SNR)}\n")


def write_series(path, windows) -> None:
    """Gnuplot-compatible whitespace-separated series of windowed metrics."""
    with open(path, "w") as f:
        f.write("# t_us accuracy SR NR SNR TP FP TN FN\n")
        for t0, c, m in windows:
            f.write(f"{t0} {format_metric(m.accuracy)} {format_metric(m.SR)} "
                    f"{format_metric(m.NR)} {format_metric(m.SNR)} "
                    f"{c.TP} {c.FP} {c.TN} {c.FN}\n")
