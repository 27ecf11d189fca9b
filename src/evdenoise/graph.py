"""Local-volume event graph construction.

A per-pixel recency store tracks the most recent events at every pixel so
that, for each arriving event, the <= N_max most recent events inside the
(2L+1)x(2L+1) x T-microsecond volume can be collected and normalized into
the classifier's input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .events import Event, EventStream, SensorGeometry


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

    def pixel_entries(self, x: int, y: int) -> List[Tuple[int, int]]:
        return list(self._cells.get((x, y), ()))

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


def denormalize_features(feat, interest: GraphNode, spec: VolumeSpec) -> GraphNode:
    """Inverse of the normalization affine map (rounded back to integers)."""
    lo, span = 0.05, 0.90
    nx, ny, nt = feat
    x = (interest.x - spec.L) + (nx - lo) / span * (2 * spec.L) if spec.L > 0 else interest.x
    y = (interest.y - spec.L) + (ny - lo) / span * (2 * spec.L) if spec.L > 0 else interest.y
    t = (interest.t - spec.T_us) + (nt - lo) / span * spec.T_us
    return GraphNode(int(round(x)), int(round(y)), int(round(t)))


def stream_graphs(stream: EventStream, spec: VolumeSpec,
                  store: RecencyStore = None):
    """Yield (index, event, NormalizedGraph) for every in-bounds event, in order.

    Each event's graph is built before the event is inserted into the store.
    Out-of-bounds events are skipped (yielded with graph=None).
    """
    store = store or RecencyStore(stream.geometry, capacity=max(1, spec.N_max))
    for i, e in enumerate(stream):
        if not stream.geometry.contains(e.x, e.y):
            yield i, e, None
            continue
        nbrs = store.query(e, spec)
        graph = normalize_graph(build_graph(e, nbrs, spec), spec)
        store.insert(e)
        yield i, e, graph


def brute_force_neighbors(stream_arrays, i: int, spec: VolumeSpec) -> List[GraphNode]:
    """Independent definition of the neighbor query: scan the full stream
    prefix with the volume predicate and keep the N_max most recent.

    `stream_arrays` is the (t, x, y, p, label) tuple from EventStream.arrays().
    """
    t, x, y = stream_arrays[0], stream_arrays[1], stream_arrays[2]
    ti, xi, yi = t[i], x[i], y[i]
    lo = int(np.searchsorted(t[:i], ti - spec.T_us, side="left"))
    idx = np.arange(lo, i)
    mask = (np.abs(x[lo:i] - xi) <= spec.L) & (np.abs(y[lo:i] - yi) <= spec.L)
    idx = idx[mask]
    # most recent by (t desc, arrival desc); prefix is time-sorted so the
    # last N_max indices are exactly the most recent
    idx = idx[-spec.N_max:] if spec.N_max > 0 else idx[:0]
    order = idx[::-1]
    return [GraphNode(int(x[j]), int(y[j]), int(t[j])) for j in order]


def batch_neighbor_indices(t: np.ndarray, x: np.ndarray, y: np.ndarray,
                           spec: VolumeSpec,
                           geometry: SensorGeometry) -> np.ndarray:
    """Vectorized neighbor search for a whole time-sorted stream.

    Returns an (n, N_max) int array of event indices (-1 padding), ordered by
    (timestamp desc, arrival desc) — identical to the per-event query against
    a RecencyStore.  Out-of-bounds events get all -1 rows.
    """
    n = len(t)
    W, H = geometry.width, geometry.height
    cap = spec.N_max
    out = np.full((n, cap), -1, dtype=np.int64)
    if n == 0 or cap == 0:
        return out

    in_bounds = (x >= 0) & (x < W) & (y >= 0) & (y < H)
    # sort events by (pixel id, arrival index); same-pixel runs stay in
    # arrival order, which is also time order for a sorted stream
    pix = x * H + y
    order = np.lexsort((np.arange(n), pix))
    sorted_pix = pix[order]
    sorted_key = sorted_pix * np.int64(n) + order
    # first occurrence of every pixel id in the sorted layout
    run_start = np.searchsorted(sorted_pix, np.arange(W * H, dtype=np.int64))

    span = 2 * spec.L + 1
    n_off = span * span
    cand = np.full((n, n_off * cap), -1, dtype=np.int32)
    col = 0
    ks = np.arange(cap)[:, None]
    for dx in range(-spec.L, spec.L + 1):
        for dy in range(-spec.L, spec.L + 1):
            qpix = (x + dx) * H + (y + dy)
            valid = in_bounds & (x + dx >= 0) & (x + dx < W) \
                & (y + dy >= 0) & (y + dy < H)
            qsafe = np.where(valid, qpix, 0)
            # events at pixel qpix with arrival index < i live in
            # [run_start[qpix], hi); take the last up-to-cap of them
            hi = np.searchsorted(sorted_key, qsafe * np.int64(n) + np.arange(n))
            lo = run_start[qsafe]
            pos = hi[None, :] - 1 - ks                      # (cap, n)
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
    keep = (top >= 0) & (t[np.clip(top, 0, n - 1)] >= (t - spec.T_us)[:, None])
    out[:, : top.shape[1]] = np.where(keep, top, -1)
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


def features_from_batch_indices(t, x, y, nbr_idx, spec: VolumeSpec):
    """padded_node_features over a whole stream given batch_neighbor_indices
    output.  Rows for out-of-bounds events (all -1 neighbors plus an
    out-of-bounds interest pixel) are still emitted; callers skip them."""
    nmask = nbr_idx >= 0
    rows = np.concatenate([np.arange(len(t))[:, None],
                           np.where(nmask, nbr_idx, 0)], axis=1)
    return padded_node_features(np.stack([x, y, t], axis=1)[rows], nmask, spec)


def node_features_single(e: Event, neighbors: List[GraphNode], spec: VolumeSpec):
    """padded_node_features for one event and its queried neighbor list."""
    cap = max(1, spec.N_max)
    nbrs = neighbors[:cap]
    nodes = np.zeros((1, cap + 1, 3), dtype=np.int64)
    nodes[0, : len(nbrs) + 1] = [(e.x, e.y, e.t), *((nb.x, nb.y, nb.t) for nb in nbrs)]
    return padded_node_features(nodes, np.arange(cap)[None] < len(nbrs), spec)


def graphs_from_batch_indices(stream: EventStream, spec: VolumeSpec,
                              nbr_idx: np.ndarray):
    """Materialize NormalizedGraphs from batch_neighbor_indices output."""
    t, x, y, _, _ = stream.arrays()
    graphs = []
    for i, e in enumerate(stream):
        if not stream.geometry.contains(e.x, e.y):
            graphs.append(None)
            continue
        nbrs = [GraphNode(int(x[j]), int(y[j]), int(t[j]))
                for j in nbr_idx[i] if j >= 0]
        graphs.append(normalize_graph(build_graph(e, nbrs, spec), spec))
    return graphs
