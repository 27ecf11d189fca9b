"""Conventional spatiotemporal denoising filters, each an online state
machine consuming one event at a time.

All window comparisons use the strict past [t - T, t) except the Yang
density count, which includes the arriving event itself.  An event outside
the sensor is decided -1 and leaves the filter's state untouched.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Tuple

import numpy as np

from .events import Event, EventStream, SensorGeometry

DECISION_SKIPPED = -1
DECISION_NOISE = 0
DECISION_REAL = 1


class TimestampMap:
    """One most-recent-timestamp memory cell per pixel."""

    def __init__(self, geometry: SensorGeometry):
        self.geometry = geometry
        self.cells = np.full((geometry.width, geometry.height), -np.inf)

    @property
    def cell_count(self) -> int:
        return self.geometry.width * self.geometry.height

    def window_hits(self, x: int, y: int, L: int, t_lo: float, t_hi: float) -> int:
        x0, x1 = max(0, x - L), min(self.geometry.width, x + L + 1)
        y0, y1 = max(0, y - L), min(self.geometry.height, y + L + 1)
        block = self.cells[x0:x1, y0:y1]
        return int(np.count_nonzero((block >= t_lo) & (block < t_hi)))

    def update(self, x: int, y: int, t: int) -> None:
        self.cells[x, y] = t


class BaseFilter:
    """step(event) -> decision; subclasses decide in-bounds events in
    _decide and mutate their state after deciding."""

    name = "base"
    geometry: SensorGeometry

    def step(self, e: Event) -> int:
        g = self.geometry     # contains() inlined: this runs once per event
        if 0 <= e.x < g.width and 0 <= e.y < g.height:
            return self._decide(e)
        return DECISION_SKIPPED

    def _decide(self, e: Event) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    def run_batch(self, stream: EventStream) -> np.ndarray:
        """Whole-stream decisions in one call (same fold, single entry point)."""
        return np.array([self.step(e) for e in stream], dtype=np.int64)


class DelbruckBAFilter(BaseFilter):
    """Background-activity filter: real iff >= k supporting events in the
    (2L+1)^2 x T window strictly before the arriving event."""

    name = "ba"

    def __init__(self, geometry: SensorGeometry, L: int = 1,
                 T_us: int = 1000, k: int = 8):
        self.geometry, self.L, self.T_us, self.k = geometry, L, T_us, k
        self.reset()

    def reset(self):
        self.map = TimestampMap(self.geometry)

    def _decide(self, e: Event) -> int:
        hits = self.map.window_hits(e.x, e.y, self.L, e.t - self.T_us, e.t)
        decision = DECISION_REAL if hits >= self.k else DECISION_NOISE
        self.map.update(e.x, e.y, e.t)
        return decision


class NNbFilter(BaseFilter):
    """Nearest-neighbor filter: real iff any prior event in 3x3 x 1 ms."""

    name = "nnb"

    def __init__(self, geometry: SensorGeometry, L: int = 1, T_us: int = 1000):
        self.geometry, self.L, self.T_us = geometry, L, T_us
        self.reset()

    def reset(self):
        self.map = TimestampMap(self.geometry)

    def _decide(self, e: Event) -> int:
        hits = self.map.window_hits(e.x, e.y, self.L, e.t - self.T_us, e.t)
        decision = DECISION_REAL if hits >= 1 else DECISION_NOISE
        self.map.update(e.x, e.y, e.t)
        return decision


class LiuFilter(BaseFilter):
    """Sub-sampled group filter: one timestamp cell per 2^S x 2^S pixel group;
    real iff the event's group or any of the 8 surrounding groups fired
    within the window strictly before the event."""

    name = "liu"

    def __init__(self, geometry: SensorGeometry, S: int = 1, T_us: int = 1000):
        if S not in (1, 2):
            raise ValueError("sub-sampling factor S must be 1 or 2")
        self.geometry, self.S, self.T_us = geometry, S, T_us
        self.gw = -(-geometry.width // (1 << S))
        self.gh = -(-geometry.height // (1 << S))
        self.reset()

    def reset(self):
        self.cells = np.full((self.gw, self.gh), -np.inf)

    @property
    def cell_count(self) -> int:
        return self.gw * self.gh

    def _decide(self, e: Event) -> int:
        gx, gy = e.x >> self.S, e.y >> self.S
        x0, x1 = max(0, gx - 1), min(self.gw, gx + 2)
        y0, y1 = max(0, gy - 1), min(self.gh, gy + 2)
        block = self.cells[x0:x1, y0:y1]
        hit = bool(np.any((block >= e.t - self.T_us) & (block < e.t)))
        self.cells[gx, gy] = e.t
        return DECISION_REAL if hit else DECISION_NOISE


class KhodamoradiFilter(BaseFilter):
    """Row/column filter: two memory cells per row and per column, each
    holding the most recent event's timestamp and polarity.  Real iff both a
    column cell in {x-1,x,x+1} and a row cell in {y-1,y,y+1} are fresh."""

    name = "khodamoradi"

    def __init__(self, geometry: SensorGeometry, T_us: int = 1000,
                 match_polarity: bool = False):
        self.geometry, self.T_us = geometry, T_us
        self.match_polarity = match_polarity
        self.reset()

    def reset(self):
        self.col_t = np.full(self.geometry.width, -np.inf)
        self.col_p = np.zeros(self.geometry.width, dtype=np.int64)
        self.row_t = np.full(self.geometry.height, -np.inf)
        self.row_p = np.zeros(self.geometry.height, dtype=np.int64)

    @property
    def cell_count(self) -> int:
        return self.geometry.width + self.geometry.height

    def _fresh(self, ts, ps, i, n, t, p) -> bool:
        for j in range(max(0, i - 1), min(n, i + 2)):
            if t - self.T_us <= ts[j] < t and (not self.match_polarity or ps[j] == p):
                return True
        return False

    def _decide(self, e: Event) -> int:
        col_ok = self._fresh(self.col_t, self.col_p, e.x, self.geometry.width, e.t, e.p)
        row_ok = self._fresh(self.row_t, self.row_p, e.y, self.geometry.height, e.t, e.p)
        decision = DECISION_REAL if (col_ok and row_ok) else DECISION_NOISE
        self.col_t[e.x], self.col_p[e.x] = e.t, e.p
        self.row_t[e.y], self.row_p[e.y] = e.t, e.p
        return decision


class YangFilter(BaseFilter):
    """Density-matrix filter: real iff the event's 5x5 x 5 ms region holds at
    least `density` events (arriving event included, own-pixel history
    excluded from the support count) and the pixel is not flagged hot.

    A pixel is hot when it fired >= hot_count times in the trailing hot
    window while its neighborhood (excluding itself) contributed fewer than
    hot_support events.
    """

    name = "yang"

    def __init__(self, geometry: SensorGeometry, L: int = 2, T_us: int = 5000,
                 density: int = 3, hot_window_us: int = 100_000,
                 hot_count: int = 20, hot_support: int = 3):
        self.geometry = geometry
        self.L, self.T_us, self.density = L, T_us, density
        self.hot_window_us = hot_window_us
        self.hot_count = hot_count
        self.hot_support = hot_support
        self.reset()

    def reset(self):
        self.history: Dict[Tuple[int, int], deque] = {}
        self.hot: set = set()

    def _prune(self, buf: deque, t_lo: int) -> None:
        while buf and buf[0] < t_lo:
            buf.popleft()

    def _count_region(self, x: int, y: int, t_lo: int, t: int,
                      exclude_center: bool, L: int) -> int:
        count = 0
        for px in range(x - L, x + L + 1):
            for py in range(y - L, y + L + 1):
                if exclude_center and px == x and py == y:
                    continue
                buf = self.history.get((px, py))
                if not buf:
                    continue
                for ts in buf:
                    if t_lo <= ts < t:
                        count += 1
        return count

    def _decide(self, e: Event) -> int:
        support = self._count_region(e.x, e.y, e.t - self.T_us, e.t,
                                     exclude_center=True, L=self.L)
        density = support + 1  # arriving event is projected into its region
        pixel = (e.x, e.y)

        buf = self.history.setdefault(pixel, deque())
        self._prune(buf, e.t - self.hot_window_us)
        own_rate = len(buf) + 1
        if own_rate >= self.hot_count:
            nbhd = self._count_region(e.x, e.y, e.t - self.hot_window_us, e.t,
                                      exclude_center=True, L=self.L)
            if nbhd < self.hot_support:
                self.hot.add(pixel)

        decision = (DECISION_REAL
                    if density >= self.density and pixel not in self.hot
                    else DECISION_NOISE)
        buf.append(e.t)
        return decision


def make_filter(name: str, geometry: SensorGeometry, **kwargs) -> BaseFilter:
    table = {
        "ba": DelbruckBAFilter,
        "nnb": NNbFilter,
        "liu1": lambda g, **kw: LiuFilter(g, S=1, **kw),
        "liu2": lambda g, **kw: LiuFilter(g, S=2, **kw),
        "khodamoradi": KhodamoradiFilter,
        "yang": YangFilter,
    }
    if name not in table:
        raise ValueError(f"unknown filter {name!r}; options: {sorted(table)}")
    return table[name](geometry, **kwargs)
