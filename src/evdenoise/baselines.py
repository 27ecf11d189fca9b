"""Conventional spatiotemporal denoising filters with two entry points.

`step(event)` decides one arriving event and updates the filter's state: it
is the online path and the oracle.  `run_batch(stream)` decides a whole
stream in one vectorized pass, exactly as a fold of `step` would.

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
        """Decisions for a whole stream in one vectorized pass.

        Returns exactly the decisions of the fold `[step(e) for e in
        stream]` from the filter's current state, and leaves the state from
        which `step` decides as it would after that fold.
        """
        t, x, y, p, _ = stream.arrays()
        g = self.geometry
        live = (x >= 0) & (x < g.width) & (y >= 0) & (y < g.height)
        out = np.full(len(t), DECISION_SKIPPED, dtype=np.int64)
        out[live] = self._decide_batch(t[live], x[live], y[live], p[live])
        return out

    def _decide_batch(self, t, x, y, p) -> np.ndarray:
        """0/1 decisions of the on-sensor events given as arrays, in arrival
        order, updating the state as _decide does event by event."""
        raise NotImplementedError


class _WriteLog:
    """Every write a per-cell memory takes over a stream, in arrival order:
    one for each cell the memory already holds, then one per event.

    A stable sort by cell id keeps each cell's writes in arrival order (the
    layout of graph.batch_neighbor_indices), so one searchsorted answers
    "which write to cell c came last before event i" for every event at once.
    No time sort is needed: a memory cell holds its last write by arrival.
    Per-event arrays are in the log's event order (grouped by cell, each
    cell's in arrival order): there, every window offset's queries are sorted,
    which keeps searchsorted cache-friendly.
    """

    def __init__(self, held: np.ndarray, cells: np.ndarray):
        ids = np.concatenate([held, cells])
        self.n = np.int64(max(len(ids), 1))
        self.order = np.argsort(ids, kind="stable")
        sorted_ids = ids[self.order]
        self.key = sorted_ids * self.n + self.order
        at = np.flatnonzero(self.order >= len(held))   # the events' places
        self.write = self.order[at]                    # their write indices
        self.event = self.write - len(held)            # their stream indices
        self.cell_key = sorted_ids[at] * self.n        # their cells, as keys
        ends = np.flatnonzero(np.diff(sorted_ids, append=-1))
        self.final_cells, self.final = sorted_ids[ends], self.order[ends]

    def last_before(self, delta: int, valid: np.ndarray) -> np.ndarray:
        """Per event, the index of the last write before it to the cell
        `delta` ids past its own; -1 where there is none or valid is false."""
        q = self.cell_key + delta * self.n
        pos = np.searchsorted(self.key, q + self.write) - 1
        hit = valid & (pos >= 0) & (self.key[pos] >= q)
        return np.where(hit, self.order[pos], -1)


def _window(cx, cy, shape, rx: int, ry: int):
    """(dx, dy, cell id shift, in-grid mask) of every offset of the window
    [cx - rx, cx + rx] x [cy - ry, cy + ry] on a (w, h) grid of x * h + y
    cell ids, one offset at a time."""
    w, h = shape
    for dx in range(-rx, rx + 1):
        in_x = (cx + dx >= 0) & (cx + dx < w)
        for dy in range(-ry, ry + 1):
            yield dx, dy, dx * h + dy, in_x & (cy + dy >= 0) & (cy + dy < h)


def _map_hits(stamps: np.ndarray, cx, cy, t, T_us: int, radius: Tuple[int, int],
              pols: np.ndarray = None, p=None, match: bool = False) -> np.ndarray:
    """Per event, the number of cells of its window in the timestamp memory
    `stamps` (a (w, h) grid, -inf = empty) whose value just before the event
    lies in [t - T_us, t), and with `match` also equals the event's polarity
    in the polarity memory `pols`.  Afterwards both memories hold every
    event's write, as after the step fold.
    """
    held = np.flatnonzero(stamps > -np.inf)
    log = _WriteLog(held, cx * stamps.shape[1] + cy)
    # index -1 (no earlier write) reads the trailing empty cell
    written = np.concatenate([stamps.ravel()[held], t, [-np.inf]])
    if pols is not None:
        written_p = np.concatenate([pols.ravel()[held], p, [0]])
    e = log.event
    # float64 like the memory itself, so bounds compare as in step
    lo, hi = (t[e] - T_us).astype(np.float64), written[log.write]
    hits = np.zeros(len(t), dtype=np.int64)
    for _, _, delta, valid in _window(cx[e], cy[e], stamps.shape, *radius):
        j = log.last_before(delta, valid)
        ok = (written[j] >= lo) & (written[j] < hi)
        if match:
            ok &= written_p[j] == p[e]
        hits += ok
    np.put(stamps, log.final_cells, written[log.final])
    if pols is not None:
        np.put(pols, log.final_cells, written_p[log.final])
    out = np.empty_like(hits)
    out[e] = hits
    return out


class _CellMemoryFilter(BaseFilter):
    """One most-recent-timestamp memory cell per 2^S x 2^S pixel group;
    real iff at least k cells of the (2L+1)^2 window around the event's
    cell were written within [t - T, t)."""

    S = 0

    def __init__(self, geometry: SensorGeometry, L: int, T_us: int, k: int):
        self.geometry, self.L, self.T_us, self.k = geometry, L, T_us, k
        self.reset()

    def reset(self):
        side = 1 << self.S
        self.cells = np.full((-(-self.geometry.width // side),
                              -(-self.geometry.height // side)), -np.inf)

    @property
    def cell_count(self) -> int:
        return self.cells.size

    def _decide(self, e: Event) -> int:
        cx, cy, L = e.x >> self.S, e.y >> self.S, self.L
        # slicing clips the window at the grid's far edges
        block = self.cells[max(0, cx - L): cx + L + 1, max(0, cy - L): cy + L + 1]
        hits = np.count_nonzero((block >= e.t - self.T_us) & (block < e.t))
        self.cells[cx, cy] = e.t
        return DECISION_REAL if hits >= self.k else DECISION_NOISE

    def _decide_batch(self, t, x, y, p):
        hits = _map_hits(self.cells, x >> self.S, y >> self.S, t, self.T_us,
                         (self.L, self.L))
        return (hits >= self.k).astype(np.int64)


class DelbruckBAFilter(_CellMemoryFilter):
    """Background-activity filter: real iff >= k supporting events in the
    (2L+1)^2 x T window strictly before the arriving event."""

    name = "ba"

    def __init__(self, geometry: SensorGeometry, L: int = 1,
                 T_us: int = 1000, k: int = 8):
        super().__init__(geometry, L, T_us, k)


class NNbFilter(_CellMemoryFilter):
    """Nearest-neighbor filter: real iff any prior event in 3x3 x 1 ms
    (the BA filter with k = 1)."""

    name = "nnb"

    def __init__(self, geometry: SensorGeometry, L: int = 1, T_us: int = 1000):
        super().__init__(geometry, L, T_us, k=1)


class LiuFilter(_CellMemoryFilter):
    """Sub-sampled group filter: one timestamp cell per 2^S x 2^S pixel group;
    real iff the event's group or any of the 8 surrounding groups fired
    within the window strictly before the event (NNb on the group grid)."""

    name = "liu"

    def __init__(self, geometry: SensorGeometry, S: int = 1, T_us: int = 1000):
        if S not in (1, 2):
            raise ValueError("sub-sampling factor S must be 1 or 2")
        self.S = S
        super().__init__(geometry, L=1, T_us=T_us, k=1)


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

    def _decide_batch(self, t, x, y, p):
        # the 1-D case: columns and rows as (n, 1) grids, window +-1 along n
        fresh = [_map_hits(cells_t[:, None], c, np.zeros_like(c), t, self.T_us,
                           (1, 0), cells_p[:, None], p, self.match_polarity) >= 1
                 for cells_t, cells_p, c in ((self.col_t, self.col_p, x),
                                             (self.row_t, self.row_p, y))]
        return (fresh[0] & fresh[1]).astype(np.int64)


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

    def _decide_batch(self, t, x, y, p):
        W, H = self.geometry.width, self.geometry.height
        # the history's timestamps as writes before the stream, in time order
        held = np.array([(px * H + py, ts) for (px, py), buf in self.history.items()
                         for ts in buf], dtype=np.int64).reshape(-1, 2)
        same_deque = held[1:, 0] == held[:-1, 0]
        deques_sorted = np.all(np.diff(held[:, 1])[same_deque] >= 0)
        held = held[np.argsort(held[:, 1], kind="stable")]
        times = np.concatenate([held[:, 1], t])
        if not (deques_sorted and np.all(np.diff(times) >= 0)):
            # the counts below take time windows as arrival ranges, which
            # needs non-decreasing timestamps; fold otherwise
            return np.array([self._decide(Event(*e)) for e in
                             zip(t.tolist(), x.tolist(), y.tolist(), p.tolist())],
                            dtype=np.int64)

        m, L, hot_us = len(held), self.L, self.hot_window_us
        log = _WriteLog(held[:, 0], x * H + y)
        key, n, e = log.key, log.n, log.event

        def first_at(ts):
            """Index of the first write at or after each event's time in
            `ts` (given in arrival order, returned in log order)."""
            return np.searchsorted(times, ts)[e]

        def count(base, a_from, a_to):
            """Writes to the cells whose keys are `base` with write index
            in [a_from, a_to)."""
            return (np.searchsorted(key, base + a_to)
                    - np.searchsorted(key, base + a_from))

        # a neighbor's deque holds its writes in [t - T, t); with T longer
        # than the hot window, only those no older than hot_window before
        # its own last write, which pruned the rest
        a_t, a_support = first_at(t), first_at(t - self.T_us)
        a_hot = first_at(t - hot_us)
        xe, ye = x[e], y[e]
        support = np.zeros(len(t), dtype=np.int64)
        for dx, dy, delta, valid in _window(xe, ye, (W, H), L, L):
            if dx == dy == 0:
                continue
            a_from = a_support
            if self.T_us > hot_us:
                j = log.last_before(delta, valid)
                pruned = np.searchsorted(times, times[j] - hot_us)
                a_from = np.where(j >= m, np.maximum(a_support, pruned),
                                  a_support)
            support += np.where(valid, count(log.cell_key + delta * n, a_from, a_t), 0)

        # own rate: the pixel's earlier writes no older than the hot window
        own_rate = count(log.cell_key, a_hot, log.write) + 1
        cand = np.flatnonzero(own_rate >= self.hot_count)
        nbhd = np.zeros(len(cand), dtype=np.int64)
        for dx, dy, delta, valid in _window(xe[cand], ye[cand], (W, H), L, L):
            if dx != 0 or dy != 0:
                nbhd += np.where(valid, count(log.cell_key[cand] + delta * n,
                                              a_hot[cand], a_t[cand]), 0)
        trig = cand[nbhd < self.hot_support]
        # a pixel is hot from its first trigger on, that event included
        cells = xe * H + ye
        first_hot = np.full(W * H, len(times), dtype=np.int64)
        np.minimum.at(first_hot, cells[trig], log.write[trig])
        first_hot[[px * H + py for px, py in self.hot]] = -1
        decisions = np.empty(len(t), dtype=np.int64)
        decisions[e] = (support + 1 >= self.density) & (log.write < first_hot[cells])

        self.hot.update(divmod(c, H) for c in np.unique(cells[trig]).tolist())
        # each pixel that fired keeps its writes no older than hot_window
        # before its last one
        fired = log.final >= m
        c, last = log.final_cells[fired], log.final[fired]
        kept = np.searchsorted(times, times[last] - hot_us)
        start = np.searchsorted(key, c * n + kept)
        stop = np.searchsorted(key, (c + 1) * n)
        by_cell = times[log.order].tolist()
        for px, py, a, b in zip((c // H).tolist(), (c % H).tolist(),
                                start.tolist(), stop.tolist()):
            self.history[px, py] = deque(by_cell[a:b])
        return decisions


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
