"""Local-volume event graph construction.

Each event's input graph is the <= N_max most recent events inside its
(2L+1)x(2L+1) x T-microsecond volume.  Two searches find them: a vectorized
batch search over any rows of a time-sorted stream (training and batch
prediction), and a per-pixel recency store queried one arriving event at a
time (sequential prediction).  Graph objects and the brute-force scan are
the independent oracle both are tested against.
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
    out = np.full((len(rows), cap), -1, dtype=np.int64)
    if len(rows) == 0 or cap == 0:
        return out
    base = int(np.searchsorted(t, t[rows.min()] - spec.T_us, side="left"))
    end = int(rows.max()) + 1
    t, x, y = t[base:end], x[base:end], y[base:end]
    q = rows - base                      # the rows' positions in the window
    n = len(t)
    W, H = geometry.width, geometry.height

    in_bounds = (x >= 0) & (x < W) & (y >= 0) & (y < H)
    # sort the window by (pixel id, arrival index); same-pixel runs stay in
    # arrival order, which is also time order for a sorted stream.
    # Out-of-bounds events go past the last pixel, where no query looks
    pix = np.where(in_bounds, x * H + y, W * H)
    order = np.argsort(pix, kind="stable")
    sorted_pix = pix[order]
    sorted_key = sorted_pix * np.int64(n) + order
    # first occurrence of every pixel id in the sorted layout
    run_start = np.searchsorted(sorted_pix, np.arange(W * H, dtype=np.int64))

    xq, yq, live = x[q], y[q], in_bounds[q]
    span = 2 * spec.L + 1
    cand = np.full((len(q), span * span * cap), -1, dtype=np.int32)
    col = 0
    ks = np.arange(cap)[:, None]
    for dx in range(-spec.L, spec.L + 1):
        for dy in range(-spec.L, spec.L + 1):
            valid = live & (xq + dx >= 0) & (xq + dx < W) \
                & (yq + dy >= 0) & (yq + dy < H)
            qpix = np.where(valid, (xq + dx) * H + (yq + dy), 0)
            # events at pixel qpix with arrival index < q live in
            # [run_start[qpix], hi); take the last up-to-cap of them
            hi = np.searchsorted(sorted_key, qpix * np.int64(n) + q)
            lo = run_start[qpix]
            pos = hi[None, :] - 1 - ks                      # (cap, rows)
            ok = valid[None, :] & (pos >= lo[None, :])
            cand[:, col: col + cap] = \
                np.where(ok, order[np.clip(pos, 0, n - 1)], -1).T
            col += cap

    # rank by (t desc, arrival desc); arrival index is the tiebreak so keeping
    # the cap largest candidate indices is exact for a time-sorted stream
    if cand.shape[1] > cap:
        part = np.argpartition(-cand, cap - 1, axis=1)[:, :cap]
        top = np.take_along_axis(cand, part, axis=1)
    else:
        top = cand
    top = np.take_along_axis(top, np.argsort(-top, axis=1, kind="stable"), axis=1)
    # the stream is time-sorted, so the temporal window is an index cutoff:
    # candidates older than t - T form a suffix of each descending row
    keep = (top >= 0) & (t[np.clip(top, 0, n - 1)] >= (t[q] - spec.T_us)[:, None])
    out[:, : top.shape[1]] = np.where(keep, top.astype(np.int64) + base, -1)
    return out


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
