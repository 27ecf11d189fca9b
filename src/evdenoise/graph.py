"""Local-volume event graph construction.

Each event's input graph is the <= N_max most recent events inside its
(2L+1)x(2L+1) x T-microsecond volume.  Two searches find them: a vectorized
batch search over any rows of a time-sorted stream (training and batch
prediction), and a per-pixel recency store queried one arriving event at a
time (sequential prediction).  Graph objects and the brute-force scan are
the independent oracle both are tested against.  The batch search asks its
causal question, which earlier events landed on each cell of a window, of a
WriteLog, the write index every baseline filter's run_batch also queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .events import Event, SensorGeometry


@dataclass(frozen=True)
class VolumeSpec:
    L: int = 2            # spatial half-extent; window is (2L+1)^2 pixels
    T_us: int = 50_000    # temporal depth
    N_max: int = 10       # neighbor cap (interest node is additional)

    def __post_init__(self):
        if self.L < 0 or self.T_us <= 0 or self.N_max < 0:
            raise ValueError(f"invalid volume spec {self}")


@dataclass(frozen=True)
class GraphNode:
    x: int
    y: int
    t: int


@dataclass(frozen=True)
class EventGraph:
    """Star graph: one directed edge from every neighbor to the interest node."""

    interest: GraphNode
    neighbors: Tuple[GraphNode, ...]


@dataclass(frozen=True)
class NormalizedGraph:
    """Same shape as EventGraph with features affinely mapped into [0.05, 0.95]."""

    interest: Tuple[float, float, float]
    neighbors: Tuple[Tuple[float, float, float], ...]

    @property
    def node_count(self) -> int:
        return 1 + len(self.neighbors)

    def feature_matrix(self) -> np.ndarray:
        """Node features, interest node first, shape (m, 3)."""
        return np.array([self.interest, *self.neighbors], dtype=np.float64)


class RecencyStore:
    """Per-pixel ring buffers of the most recent (timestamp, arrival index) pairs.

    Single-writer: insertion order defines the arrival order used for
    timestamp tie-breaking.
    """

    def __init__(self, geometry: SensorGeometry, capacity: int = 10):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.geometry = geometry
        self.capacity = capacity
        self._cells: dict = {}
        self._count = 0

    def insert(self, e: Event) -> None:
        if not self.geometry.contains(e.x, e.y):
            raise ValueError(f"event at ({e.x},{e.y}) outside geometry")
        buf = self._cells.setdefault((e.x, e.y), [])
        buf.append((e.t, self._count))
        self._count += 1
        if len(buf) > self.capacity:
            del buf[0]

    def query(self, e: Event, spec: VolumeSpec) -> List[GraphNode]:
        """The <= N_max most recent stored events in the local volume of `e`.

        Must be called before `e` itself is inserted.  Recency order is
        (timestamp desc, arrival desc); simultaneous events qualify because
        arrival order is the only causal order available.
        """
        t_lo = e.t - spec.T_us
        candidates = []  # (t, arrival, x, y)
        for x in range(e.x - spec.L, e.x + spec.L + 1):
            for y in range(e.y - spec.L, e.y + spec.L + 1):
                buf = self._cells.get((x, y))
                if not buf:
                    continue
                for t, arr in buf:
                    if t_lo <= t <= e.t:
                        candidates.append((t, arr, x, y))
        candidates.sort(key=lambda c: (-c[0], -c[1]))
        return [GraphNode(x, y, t) for t, _, x, y in candidates[: spec.N_max]]

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The stored events as (t, x, y) int64 columns in arrival order."""
        rows = sorted((a, t, x, y) for (x, y), buf in self._cells.items() for t, a in buf)
        return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4)[:, 1:].T.copy())


def build_graph(e: Event, neighbors: List[GraphNode], spec: VolumeSpec) -> EventGraph:
    interest = GraphNode(e.x, e.y, e.t)
    for nb in neighbors:
        if abs(nb.x - e.x) > spec.L or abs(nb.y - e.y) > spec.L:
            raise ValueError(f"neighbor {nb} outside spatial window of {interest}")
        if not (0 <= e.t - nb.t <= spec.T_us):
            raise ValueError(f"neighbor {nb} outside temporal window of {interest}")
    return EventGraph(interest, tuple(neighbors))


def normalize_graph(g: EventGraph, spec: VolumeSpec) -> NormalizedGraph:
    """Affinely map x from [x_i-L, x_i+L], y likewise, and t from [t_i-T, t_i]
    into [0.05, 0.95]; the interest node lands on (0.5, 0.5, 0.95)."""
    lo, hi = 0.05, 0.95
    span = hi - lo
    xi, yi, ti = g.interest.x, g.interest.y, g.interest.t

    def norm(node: GraphNode) -> Tuple[float, float, float]:
        if spec.L > 0:
            nx = lo + span * (node.x - (xi - spec.L)) / (2 * spec.L)
            ny = lo + span * (node.y - (yi - spec.L)) / (2 * spec.L)
        else:
            nx, ny = 0.5, 0.5
        nt = lo + span * (node.t - (ti - spec.T_us)) / spec.T_us
        return (nx, ny, nt)

    return NormalizedGraph(norm(g.interest), tuple(norm(nb) for nb in g.neighbors))


def brute_force_neighbors(stream_arrays, i: int, spec: VolumeSpec,
                          geometry: Optional[SensorGeometry] = None) -> List[GraphNode]:
    """Independent definition of the neighbor query: scan the full stream
    prefix with the volume predicate and keep the N_max most recent.

    `stream_arrays` is the (t, x, y, p, label) tuple from EventStream.arrays().
    Off-sensor events are no event's neighbors, as in both model searches:
    with `geometry`, an event outside it has none either; without, only
    events with a negative coordinate are known to be off the sensor.
    """
    t, x, y = stream_arrays[0], stream_arrays[1], stream_arrays[2]
    ti, xi, yi = t[i], x[i], y[i]
    if geometry is not None and not geometry.contains(xi, yi):
        return []
    lo = int(np.searchsorted(t[:i], ti - spec.T_us, side="left"))
    idx = np.arange(lo, i)
    xs, ys = x[lo:i], y[lo:i]
    mask = (np.abs(xs - xi) <= spec.L) & (np.abs(ys - yi) <= spec.L) \
        & (xs >= 0) & (ys >= 0)
    if geometry is not None:
        mask &= (xs < geometry.width) & (ys < geometry.height)
    idx = idx[mask]
    # most recent by (t desc, arrival desc); prefix is time-sorted so the
    # last N_max indices are exactly the most recent
    idx = idx[-spec.N_max:] if spec.N_max > 0 else idx[:0]
    order = idx[::-1]
    return [GraphNode(int(x[j]), int(y[j]), int(t[j])) for j in order]


class WriteLog:
    """Writes to per-cell memory in arrival order, write i to `cells[i]`.

    A stable sort by cell id keeps each cell's writes in arrival order; the
    key `cell * n + i` orders them by (cell, arrival), so one searchsorted
    answers a query for every cell at once.  Queries name cells by `cell * n`.
    """

    def __init__(self, cells: np.ndarray):
        self.n = np.int64(max(len(cells), 1))
        self.order = np.argsort(cells, kind="stable")
        self.key = cells[self.order] * self.n + self.order

    def last(self, key, before, valid, depth: int = None) -> np.ndarray:
        """Per query, the most recent write to its cell before write
        `before`, or with `depth` a (depth, len(key)) array of the `depth`
        most recent, newest first; -1 where there are fewer or `valid` is
        false."""
        pos = np.searchsorted(self.key, key + before) - 1
        if depth is not None:
            pos = pos - np.arange(depth)[:, None]
        # a position before the cell's run holds another cell's key
        hit = valid & (pos >= 0) & (self.key.take(pos, mode="clip") >= key)
        return np.where(hit, self.order.take(pos, mode="clip"), -1)

    def count(self, key, lo, hi) -> np.ndarray:
        """Per query, the writes to its cell with write index in [lo, hi)."""
        return np.searchsorted(self.key, key + hi) - np.searchsorted(self.key, key + lo)

    def final(self):
        """(cells, write indices): the last write to every written cell."""
        cells = self.key // self.n
        ends = np.flatnonzero(np.diff(cells, append=-1))
        return cells[ends], self.order[ends]


def window_offsets(cx, cy, shape, rx: int, ry: int):
    """(cell id shift, in-grid mask) of every offset of the window
    [cx - rx, cx + rx] x [cy - ry, cy + ry] on a (w, h) grid of x * h + y
    cell ids, one offset at a time; from an in-grid centre, no other
    in-grid offset shifts by 0."""
    w, h = shape
    for dx in range(-rx, rx + 1):
        in_x = (cx + dx >= 0) & (cx + dx < w)
        for dy in range(-ry, ry + 1):
            yield dx * h + dy, in_x & (cy + dy >= 0) & (cy + dy < h)


def batch_neighbor_indices(t: np.ndarray, x: np.ndarray, y: np.ndarray,
                           spec: VolumeSpec, geometry: SensorGeometry,
                           rows=None) -> np.ndarray:
    """Vectorized neighbor search over a time-sorted stream.

    Returns a (len(rows), N_max) int array of event indices (-1 padding) for
    the events at `rows` (default: every event), ordered by (timestamp desc,
    arrival desc) — identical to the per-event query against a RecencyStore.
    Out-of-bounds events get all -1 rows and are no event's neighbor.  No
    neighbor is older than T_us, so only the events from t[min(rows)] - T_us
    to max(rows) are searched: work and memory follow the rows and that
    window, not the stream length.
    """
    cap = spec.N_max
    rows = np.arange(len(t)) if rows is None else np.asarray(rows, dtype=np.int64)
    if len(rows) == 0 or cap == 0:
        return np.full((len(rows), cap), -1, dtype=np.int64)
    base = int(np.searchsorted(t, t[rows.min()] - spec.T_us, side="left"))
    end = int(rows.max()) + 1
    t, x, y = t[base:end], x[base:end], y[base:end]
    q = rows - base                      # the rows' positions in the window
    W, H = geometry.width, geometry.height

    # the window's events as writes to their pixels; out-of-bounds events go
    # past the last pixel, where no query looks
    in_bounds = (x >= 0) & (x < W) & (y >= 0) & (y < H)
    log = WriteLog(np.where(in_bounds, x * H + y, W * H))
    xq, yq, live = x[q], y[q], in_bounds[q]
    key = (xq * H + yq) * log.n
    cand = np.full((len(q), (2 * spec.L + 1) ** 2 * cap), -1, dtype=np.int32)
    for col, (delta, valid) in enumerate(window_offsets(xq, yq, (W, H),
                                                        spec.L, spec.L)):
        # the last up-to-cap events at the pixel with arrival index < q
        cand[:, col * cap: (col + 1) * cap] = \
            log.last(key + delta * log.n, q, valid & live, cap).T

    # rank by (t desc, arrival desc); arrival index is the tiebreak so keeping
    # the cap largest candidate indices is exact for a time-sorted stream
    part = np.argpartition(-cand, cap - 1, axis=1)[:, :cap]
    top = np.take_along_axis(cand, part, axis=1)
    top = np.take_along_axis(top, np.argsort(-top, axis=1, kind="stable"), axis=1)
    # the stream is time-sorted, so the temporal window is an index cutoff:
    # candidates older than t - T form a suffix of each descending row
    keep = (top >= 0) & (t[np.maximum(top, 0)] >= (t[q] - spec.T_us)[:, None])
    return np.where(keep, top.astype(np.int64) + base, -1)


def padded_node_features(nodes: np.ndarray, nmask: np.ndarray, spec: VolumeSpec):
    """Normalized node-feature tensor for a batch of local volumes.

    nodes: (B, N_max + 1, 3) integer (x, y, t), interest node first, then
    the neighbors, with nmask (B, N_max) marking real neighbor entries.
    Returns (feats, mask) of shapes (B, N_max + 1, 3) and (B, N_max + 1, 1),
    with the same affine map as normalize_graph (padded slots are zero).
    """
    lo, hi = 0.05, 0.95
    span = hi - lo
    B, m, _ = nodes.shape
    real = np.ones((B, m, 1), dtype=bool)
    real[:, 1:, 0] = nmask
    # window origin (x_i - L, y_i - L, t_i - T) and extent (2L, 2L, T); with
    # L = 0, x and y map to 0.5 instead
    origin = nodes[:, :1] - np.array([spec.L, spec.L, spec.T_us])
    extent = np.array([2 * spec.L or 1, 2 * spec.L or 1, spec.T_us], dtype=np.float64)
    feats = span * (nodes - origin)
    feats /= extent
    feats += lo
    if spec.L == 0:
        feats[:, :, :2] = 0.5
    return np.where(real, feats, 0.0), real.astype(np.float64)


def features_from_batch_indices(t, x, y, nbr_idx, spec: VolumeSpec, rows=None):
    """padded_node_features for the events at `rows` (default: every event)
    given their batch_neighbor_indices output.  Rows of out-of-bounds events
    (all -1 neighbors plus an out-of-bounds interest pixel) are still
    emitted; callers skip them."""
    rows = np.arange(len(t)) if rows is None else np.asarray(rows, dtype=np.int64)
    nmask = nbr_idx >= 0
    nodes = np.concatenate([rows[:, None], np.where(nmask, nbr_idx, 0)], axis=1)
    return padded_node_features(np.stack([x[nodes], y[nodes], t[nodes]], axis=-1),
                                nmask, spec)


def node_features_single(e: Event, neighbors: List[GraphNode], spec: VolumeSpec):
    """padded_node_features for one event and its queried neighbor list."""
    cap = max(1, spec.N_max)
    nbrs = neighbors[:cap]
    nodes = np.zeros((1, cap + 1, 3), dtype=np.int64)
    nodes[0, : len(nbrs) + 1] = [(e.x, e.y, e.t), *((nb.x, nb.y, nb.t) for nb in nbrs)]
    return padded_node_features(nodes, np.arange(cap)[None] < len(nbrs), spec)
