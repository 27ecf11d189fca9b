"""EventConv message passing: per-node quantities, affine+sigmoid transforms,
and sum aggregation into the graph signature.

All quantities are computed on normalized node features, relative to the
graph-wide means; standard deviations are population (divide by node count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import expit

from .graph import NormalizedGraph
from .nn import tensor as T
from .nn.tensor import Parameter, Tensor

VARIANTS: Dict[str, Tuple[int, ...]] = {
    "3q": (1, 2, 3),
    "4q": (1, 2, 3, 7),
    "6q": (1, 2, 3, 4, 5, 6),
    "7q": (1, 2, 3, 4, 5, 6, 7),
}


@dataclass(frozen=True)
class QuantitySet:
    """Selector over the seven message quantities."""

    selected: Tuple[int, ...] = VARIANTS["7q"]

    def __post_init__(self):
        if not self.selected:
            raise ValueError("quantity selector must be non-empty")
        if any(q < 1 or q > 7 for q in self.selected):
            raise ValueError(f"quantities must be in 1..7, got {self.selected}")
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("duplicate quantities in selector")

    @classmethod
    def from_variant(cls, name: str) -> "QuantitySet":
        if name not in VARIANTS:
            raise ValueError(f"unknown message variant {name!r}; options: {sorted(VARIANTS)}")
        return cls(VARIANTS[name])

    @property
    def count(self) -> int:
        return len(self.selected)


class EventConvParams:
    """Per selected quantity: weight and bias vectors of width `wdt`."""

    def __init__(self, quantities: QuantitySet, wdt: int, rng: np.random.Generator):
        if wdt < 1:
            raise ValueError("channel width must be >= 1")
        self.quantities = quantities
        self.wdt = wdt
        self.w = {q: T.init_uniform(rng, (1, wdt), 1, f"eventconv.w{q}")
                  for q in quantities.selected}
        self.b = {q: T.init_uniform(rng, (wdt,), 1, f"eventconv.b{q}")
                  for q in quantities.selected}
        # stored back to back, so the weights and biases of every quantity
        # are one (q, 2, wdt) view
        T.ParameterBuffer(self.parameters())

    def parameters(self) -> List[Parameter]:
        out = []
        for q in self.quantities.selected:
            out.extend([self.w[q], self.b[q]])
        return out


def compute_quantities(g: NormalizedGraph) -> np.ndarray:
    """Per-node quantity matrix of shape (m, 7):

    Q1..Q3 deviations of x, y, t from the graph means; Q4..Q6 population
    standard deviations of x, y, t (identical for every node); Q7 the
    Euclidean distance from the node to the mean point.
    """
    feats = g.feature_matrix()
    dev = feats - feats.mean(axis=0)
    std = np.sqrt((dev * dev).mean(axis=0))
    m = feats.shape[0]
    Q = np.empty((m, 7), dtype=np.float64)
    Q[:, 0:3] = dev
    Q[:, 3:6] = std
    Q[:, 6] = np.sqrt((dev * dev).sum(axis=1))
    return Q


def quantities_padded(feats: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Vectorized compute_quantities over padded feature tensors.

    feats: (B, m_max, 3) normalized node features with zeros at padded
    slots; mask: (B, m_max, 1).  Means and standard deviations are taken
    over the real nodes of each graph; padded Q rows are zero (and are
    masked out again during aggregation anyway).
    """
    count = mask.sum(axis=1, keepdims=True)                    # (B, 1, 1)
    mu = (feats * mask).sum(axis=1, keepdims=True) / count     # (B, 1, 3)
    dev = (feats - mu) * mask
    var = (dev * dev).sum(axis=1, keepdims=True) / count
    std = np.sqrt(var)                                         # (B, 1, 3)
    B, m, _ = feats.shape
    Q = np.empty((B, m, 7), dtype=np.float64)
    Q[:, :, 0:3] = dev
    Q[:, :, 3:6] = std * mask
    Q[:, :, 6] = np.sqrt((dev * dev).sum(axis=2))
    return Q


def quantities_tape(feats: Tensor) -> Tensor:
    """compute_quantities as differentiable tape ops over an (m, 3) feature
    tensor, for gradient checks with respect to node features."""
    mu = T.tmean(feats, axis=0, keepdims=True)
    dev = T.sub(feats, mu)
    dev2 = T.mul(dev, dev)
    std = T.sqrt(T.tmean(dev2, axis=0, keepdims=True))          # (1, 3)
    m = feats.shape[0]
    std_rows = T.matmul(Tensor(np.ones((m, 1))), std)           # (m, 3)
    q7 = T.sqrt(T.tsum(dev2, axis=1, keepdims=True))            # (m, 1)
    return T.concat([dev, std_rows, q7], axis=1)                # (m, 7)


def eventconv_forward(Q, params: EventConvParams) -> Tensor:
    """Graph signature h: for each selected quantity k and channel c,
    h[(k,c)] = sum_j sigmoid(w_k[c] * Q[j,k] + b_k[c]), quantity-major."""
    Qt = Q if isinstance(Q, Tensor) else Tensor(np.asarray(Q, dtype=np.float64))
    if Qt.shape[-1] != 7:
        raise ValueError(f"quantity matrix must have 7 columns, got {Qt.shape}")
    parts = []
    for q in params.quantities.selected:
        col = T.matmul(Qt, Tensor(_basis_column(q)))            # (m, 1)
        act = T.sigmoid(T.add(T.matmul(col, params.w[q]), params.b[q]))
        parts.append(T.tsum(act, axis=0))                       # (wdt,)
    return T.concat(parts, axis=0)                              # (q * wdt,)


def eventconv_forward_batch(Qpad, mask, params: EventConvParams) -> Tensor:
    """Batched signature over padded quantity tensors, as one tape node.

    Qpad: (B, m_max, 7) with arbitrary values at padded slots, an array or
    a Tensor (which then gets its gradient too); mask: (B, m_max, 1) with
    1.0 at real nodes.  Padded slots contribute nothing.  The per-quantity
    op chain of eventconv_forward is its oracle.
    """
    Qt = Qpad if isinstance(Qpad, Tensor) else Tensor(np.asarray(Qpad, dtype=np.float64))
    mask = np.asarray(mask.value if isinstance(mask, Tensor) else mask,
                      dtype=np.float64)[..., None]              # (B, m, 1, 1)
    Wb, grad = _packed(params)
    W, b = Wb[:, 0], Wb[:, 1]                                   # (q, wdt)
    cols = _columns(params)
    Qsel = Qt.value[..., None] if cols is None else Qt.value[:, :, cols, None]
    act = expit(Qsel * W + b)                                   # (B, m, q, wdt)
    masked = act * mask
    B = Qsel.shape[0]

    def backward(g):
        dz = masked * (1.0 - act)
        dz *= g.reshape(B, 1, *W.shape)
        grad[:, 0] += (dz * Qsel).sum(axis=(0, 1))
        grad[:, 1] += dz.sum(axis=(0, 1))
        if T.needs_grad(Qt):
            dsel = (dz * W).sum(axis=-1)                        # (B, m, q)
            if cols is None:
                Qt._accum(dsel)
            else:
                dQ = np.zeros_like(Qt.value)
                dQ[:, :, cols] = dsel
                Qt._accum(dQ)

    return T.fused(masked.sum(axis=1).reshape(B, W.size), (Qt,), backward)


def _packed(params: EventConvParams) -> Tuple[np.ndarray, np.ndarray]:
    """(q, 2, wdt) value and gradient views: each quantity's weight, then
    its bias, as parameters() lists them."""
    return T.packed(params.parameters(), (params.quantities.count, 2, params.wdt))


def _columns(params: EventConvParams) -> Optional[np.ndarray]:
    """Q columns of the selection; None for all 7 in order."""
    sel = list(params.quantities.selected)
    return None if sel == list(range(1, 8)) else np.array(sel) - 1


class PackedEventConv(NamedTuple):
    """EventConv weights stacked once for signature_batch_np."""

    Ws: np.ndarray                  # (q, wdt) per-quantity weights
    bs: np.ndarray                  # (q, wdt) per-quantity biases
    cols: Optional[np.ndarray]      # Q columns of the selection; None for all 7


def pack_eventconv(params: EventConvParams) -> PackedEventConv:
    Wb = _packed(params)[0]
    return PackedEventConv(Wb[:, 0].copy(), Wb[:, 1].copy(), _columns(params))


def signature_batch_np(Q: np.ndarray, mask: np.ndarray,
                       params: Union[EventConvParams, PackedEventConv]) -> np.ndarray:
    """Pure-numpy eventconv_forward_batch for the inference fast path.

    One fused pass over all selected quantities instead of a per-quantity op
    chain; per-element arithmetic matches the tape version exactly.  Pass
    the pack_eventconv form to skip re-stacking the weights on every call.
    """
    if isinstance(params, EventConvParams):
        params = pack_eventconv(params)
    Ws, bs, cols = params
    Qsel = Q[..., None] if cols is None else Q[:, :, cols, None]
    z = Qsel * Ws + bs                                  # (B, m, q, wdt)
    # in-place exp-based sigmoid; clipping (np.clip without its call
    # overhead) makes exp overflow-free and is the identity for any realistic
    # pre-activation
    np.maximum(z, -700.0, out=z)
    np.minimum(z, 700.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)
    z *= mask[..., None]
    h = z.sum(axis=1)                                   # (B, q, wdt)
    return h.reshape(Q.shape[0], Ws.size)


def _basis_column(q: int) -> np.ndarray:
    e = np.zeros((7, 1), dtype=np.float64)
    e[q - 1, 0] = 1.0
    return e


def signature_reference(Q: np.ndarray, params: EventConvParams) -> np.ndarray:
    """Naive per-node loop reference for eventconv_forward."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    out = []
    for q in params.quantities.selected:
        w = params.w[q].value[0]
        b = params.b[q].value
        acc = np.zeros(params.wdt)
        for j in range(Q.shape[0]):
            acc += sig(w * Q[j, q - 1] + b)
        out.append(acc)
    return np.concatenate(out)


def pad_quantity_batch(graphs: Sequence[NormalizedGraph]):
    """Stack per-graph quantity matrices into (B, m_max, 7) plus a node mask."""
    mats = [compute_quantities(g) for g in graphs]
    m_max = max(m.shape[0] for m in mats)
    B = len(mats)
    Qpad = np.zeros((B, m_max, 7), dtype=np.float64)
    mask = np.zeros((B, m_max, 1), dtype=np.float64)
    for i, m in enumerate(mats):
        Qpad[i, : m.shape[0]] = m
        mask[i, : m.shape[0], 0] = 1.0
    return Qpad, mask
