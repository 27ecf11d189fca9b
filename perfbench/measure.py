"""Summary statistics and output-check accounting for the benchmark."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not samples:
        raise ValueError("median of an empty sample")
    return float(statistics.median(samples))


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile that still has at least ten samples beyond it.

    Returns (percentile, value): with n sorted samples, the value at rank
    n - 11 (0-based) has exactly ten larger-ranked samples, and it sits at
    percentile 100 * (n - 10) / n.  None when n < 11, since then no
    percentile has ten samples beyond it.
    """
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, float(ordered[n - 11])


def summarize(samples: Sequence[float],
              higher_is_better: bool = False) -> Dict[str, object]:
    """Median, sample count and the tail on the worse side: the highest
    percentile of a timing, or the lowest of a rate, that still has ten
    samples beyond it."""
    tail = tail_percentile([-v for v in samples] if higher_is_better else samples)
    if tail is not None and higher_is_better:
        tail = 100.0 - tail[0], -tail[1]
    return {
        "n": len(samples),
        "median": median(samples),
        "tail_pct": None if tail is None else round(tail[0], 3),
        "tail": None if tail is None else tail[1],
    }


class Checks:
    """Counts output checks attempted and failed; keeps the first failures.

    A near-tie (a decision the oracle itself cannot separate from 0.5 within
    the release gate's margin) is counted as attempted and as a tie, never as
    a failure.
    """

    def __init__(self, keep: int = 20):
        self.attempted = 0
        self.failed = 0
        self.ties = 0
        self.failures: List[str] = []
        self._keep = keep

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < self._keep:
                self.failures.append(what)
        return ok

    def tie(self) -> None:
        self.attempted += 1
        self.ties += 1
