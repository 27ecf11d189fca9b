"""Transformer classifier over graph signatures, model assembly, training,
checkpoints, and streaming prediction.

The signature h (length q*wdt) is reshaped into S=q tokens of dimension
D=wdt, one token per quantity type.  Encoder and decoder layers follow the
pre-norm residual scheme; notably, both decoder attention blocks draw their
query/key/value from the layer-normed *layer input* (implemented exactly as
published rather than the conventional cross-attention wiring).
"""

from __future__ import annotations

import functools
import io
import json
import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .events import Event, EventStream, SensorGeometry
from .eventconv import (EventConvParams, QuantitySet, eventconv_forward_batch,
                        pack_eventconv, pad_quantity_batch, quantities_padded,
                        quantities_tape, signature_batch_np)
from .graph import (NormalizedGraph, RecencyStore, VolumeSpec,
                    batch_neighbor_indices, features_from_batch_indices,
                    node_features_single)
from .nn import tensor as T
from .nn.tensor import AdamState, Parameter, Tensor
from .synth import TrainingSet

DECISION_NOISE = 0
DECISION_REAL = 1


@dataclass(frozen=True)
class ModelConfig:
    seq_len: int = 7        # S: number of selected quantities
    token_dim: int = 4      # D: EventConv channel width
    heads: int = 2
    enc_layers: int = 2
    dec_layers: int = 2
    ffn_mult: int = 4

    def __post_init__(self):
        if min(self.seq_len, self.token_dim, self.heads,
               self.enc_layers, self.dec_layers, self.ffn_mult) < 1:
            raise ValueError(f"invalid model config {self}")

    @property
    def head_dim(self) -> int:
        return self.token_dim  # d_q = d_k = d_v = D

    @property
    def ffn_dim(self) -> int:
        return self.ffn_mult * self.token_dim


class MHAParams:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, prefix: str):
        D, dh, heads = cfg.token_dim, cfg.head_dim, cfg.heads
        self.wq = [T.init_uniform(rng, (D, dh), D, f"{prefix}.h{h}.wq") for h in range(heads)]
        self.wk = [T.init_uniform(rng, (D, dh), D, f"{prefix}.h{h}.wk") for h in range(heads)]
        self.wv = [T.init_uniform(rng, (D, dh), D, f"{prefix}.h{h}.wv") for h in range(heads)]
        self.wo = T.init_uniform(rng, (heads * dh, D), heads * dh, f"{prefix}.wo")
        self.head_dim = dh

    def parameters(self) -> List[Parameter]:
        return [*self.wq, *self.wk, *self.wv, self.wo]


class LayerNormParams:
    def __init__(self, dim: int, prefix: str):
        self.gain = Parameter(np.ones(dim), f"{prefix}.gain")
        self.bias = Parameter(np.zeros(dim), f"{prefix}.bias")

    def parameters(self) -> List[Parameter]:
        return [self.gain, self.bias]


class FFNParams:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, prefix: str):
        D, F = cfg.token_dim, cfg.ffn_dim
        self.w1 = T.init_uniform(rng, (D, F), D, f"{prefix}.w1")
        self.b1 = T.init_uniform(rng, (F,), D, f"{prefix}.b1")
        self.w2 = T.init_uniform(rng, (F, D), F, f"{prefix}.w2")
        self.b2 = T.init_uniform(rng, (D,), F, f"{prefix}.b2")

    def parameters(self) -> List[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]


class EncoderLayerParams:
    def __init__(self, cfg: ModelConfig, rng, prefix: str):
        self.ln1 = LayerNormParams(cfg.token_dim, f"{prefix}.ln1")
        self.mha = MHAParams(cfg, rng, f"{prefix}.mha")
        self.ln2 = LayerNormParams(cfg.token_dim, f"{prefix}.ln2")
        self.ffn = FFNParams(cfg, rng, f"{prefix}.ffn")

    def parameters(self):
        return [*self.ln1.parameters(), *self.mha.parameters(),
                *self.ln2.parameters(), *self.ffn.parameters()]


class DecoderLayerParams:
    def __init__(self, cfg: ModelConfig, rng, prefix: str):
        self.ln1 = LayerNormParams(cfg.token_dim, f"{prefix}.ln1")
        self.mha1 = MHAParams(cfg, rng, f"{prefix}.mha1")
        self.ln2 = LayerNormParams(cfg.token_dim, f"{prefix}.ln2")
        self.mha2 = MHAParams(cfg, rng, f"{prefix}.mha2")
        self.ln3 = LayerNormParams(cfg.token_dim, f"{prefix}.ln3")
        self.ffn = FFNParams(cfg, rng, f"{prefix}.ffn")

    def parameters(self):
        return [*self.ln1.parameters(), *self.mha1.parameters(),
                *self.ln2.parameters(), *self.mha2.parameters(),
                *self.ln3.parameters(), *self.ffn.parameters()]


class ClassifierHead:
    def __init__(self, cfg: ModelConfig, rng):
        n = cfg.seq_len * cfg.token_dim
        self.w = T.init_uniform(rng, (n, 2), n, "head.w")
        self.b = T.init_uniform(rng, (2,), n, "head.b")

    def parameters(self):
        return [self.w, self.b]


def attention(Qm, Km, Vm) -> Tensor:
    """Scaled dot-product attention; row-wise softmax of Q K^T / sqrt(d_q)."""
    Qm, Km, Vm = (v if isinstance(v, Tensor) else Tensor(v) for v in (Qm, Km, Vm))
    dq = Qm.shape[-1]
    if Km.shape[-1] != dq:
        raise ValueError(f"attention: d_q {dq} != d_k {Km.shape[-1]}")
    scores = T.scale(T.matmul(Qm, T.transpose(Km)), 1.0 / np.sqrt(dq))
    return T.matmul(T.softmax(scores, axis=-1), Vm)


def multi_head(x, params: MHAParams) -> Tensor:
    """Per-head projections, attention, concatenation, output projection."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    heads = []
    for wq, wk, wv in zip(params.wq, params.wk, params.wv):
        heads.append(attention(T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv)))
    z = heads[0] if len(heads) == 1 else T.concat(heads, axis=-1)
    return T.matmul(z, params.wo)


def _ffn(x, p: FFNParams) -> Tensor:
    return T.add(T.matmul(T.relu(T.add(T.matmul(x, p.w1), p.b1)), p.w2), p.b2)


def encoder_forward(tokens, layers: Sequence[EncoderLayerParams]) -> Tensor:
    y = tokens if isinstance(tokens, Tensor) else Tensor(tokens)
    for lp in layers:
        a = T.layer_norm(y, lp.ln1.gain, lp.ln1.bias)
        y = T.add(multi_head(a, lp.mha), y)
        y = T.add(_ffn(T.layer_norm(y, lp.ln2.gain, lp.ln2.bias), lp.ffn), y)
    return y


def decoder_forward(enc_out, layers: Sequence[DecoderLayerParams]) -> Tensor:
    z = enc_out if isinstance(enc_out, Tensor) else Tensor(enc_out)
    for lp in layers:
        a = T.layer_norm(z, lp.ln1.gain, lp.ln1.bias)
        z1 = T.add(multi_head(a, lp.mha1), z)
        # second block also attends over the layer input, as published
        b = T.layer_norm(z, lp.ln2.gain, lp.ln2.bias)
        z2 = T.add(multi_head(b, lp.mha2), z1)
        z = T.add(_ffn(T.layer_norm(z2, lp.ln3.gain, lp.ln3.bias), lp.ffn), z2)
    return z


# -- fused blocks: training and inference -----------------------------------
# Every pre-norm residual block (an encoder attention or FFN, a decoder's
# pair of attention blocks, a decoder FFN) is  x + act(LN(x) @ W + b) @ Wo.
# The LayerNorm's gain and bias fold into W:
#     LN(x) @ W = ((x - mean) * inv) @ (diag(gain) W) + bias @ W,
# with inv = 1/sqrt(var + eps) per token; centering is one GEMM against
# C = I - 11^T/D, and the variance one more, because reductions over the
# short token axis run much faster as GEMMs than as ufunc reduce.  Both
# decoder attention blocks read the same layer input (as published), so
# they share one normalization and run as one attention over all their
# heads, and the stacked [wo1; wo2] projection sums their outputs.
#
# One numpy forward, _block_forward, runs a block from the weights _fold
# makes of its views, for two callers.  Training wraps it in one fused tape
# node per block (prenorm_attention, prenorm_ffn), refolding the weights
# every step and keeping what the analytic backward reads; streaming
# prediction folds them once into an InferencePlan and keeps nothing, so
# the two compute the same logits bit for bit.  The unfused tape ops
# (encoder_forward, decoder_forward, logits_from_signature) are the oracle
# of that forward and of the backward passes.  Summation order differs
# from theirs, so they agree to rounding (the release gate holds them to
# 1e-10), not bit for bit.

class _Attn(NamedTuple):
    """Views of the (norm, attention) pairs that read one block input:
    their parameter values, or their gradients."""

    gain: np.ndarray                # (P, D) per pair
    bias: np.ndarray                # (P, D)
    w: np.ndarray                   # (P, 3, H, D, dh): wq, wk, wv of each head
    wo: np.ndarray                  # (P, H * dh, D)


class _FFN(NamedTuple):
    """Views of a (norm, FFN) pair: its parameter values, or gradients."""

    gain: np.ndarray                # (D,)
    bias: np.ndarray                # (D,)
    w1: np.ndarray                  # (D, F)
    b1: np.ndarray                  # (F,)
    w2: np.ndarray                  # (F, D)
    b2: np.ndarray                  # (D,)


def _attn_views(pairs: Sequence[Tuple[LayerNormParams, MHAParams]]) -> Tuple[_Attn, _Attn]:
    """Value and gradient views of pairs stored back to back (norm, then
    attention, as parameters() lists them)."""
    params = [p for ln, mha in pairs for p in (*ln.parameters(), *mha.parameters())]
    mha = pairs[0][1]
    (D, dh), H = mha.wq[0].shape, len(mha.wq)
    qkv = 3 * H * D * dh

    def split(flat):
        return _Attn(flat[:, :D], flat[:, D: 2 * D],
                     T.view(flat[:, 2 * D: 2 * D + qkv], (-1, 3, H, D, dh)),
                     T.view(flat[:, 2 * D + qkv:], (-1, H * dh, D)))

    value, grad = T.packed(params, (len(pairs), 2 * D + qkv + H * dh * D))
    return split(value), split(grad)


def _ffn_views(ln: LayerNormParams, ffn: FFNParams) -> Tuple[_FFN, _FFN]:
    params = [*ln.parameters(), *ffn.parameters()]
    return _FFN(*(p.value for p in params)), _FFN(*(p.grad for p in params))


def _block_views(model: "DenoiseModel") -> List[Tuple[NamedTuple, NamedTuple]]:
    """(values, gradients) of every pre-norm block in order, as _Attn or
    _FFN views."""
    blocks = []
    for lp in model.encoder:
        blocks += [_attn_views([(lp.ln1, lp.mha)]), _ffn_views(lp.ln2, lp.ffn)]
    for lp in model.decoder:
        blocks += [_attn_views([(lp.ln1, lp.mha1), (lp.ln2, lp.mha2)]),
                   _ffn_views(lp.ln3, lp.ffn)]
    return blocks


@functools.lru_cache(maxsize=8)
def _ones_column(n: int) -> np.ndarray:
    col = np.ones((n, 1))
    col.flags.writeable = False
    return col


@functools.lru_cache(maxsize=8)
def _centering(D: int) -> Tuple[np.ndarray, np.ndarray]:
    """C = I - 11^T/D and the (D, 1) mean column, read-only."""
    center, mean = np.eye(D) - 1.0 / D, np.full((D, 1), 1.0 / D)
    center.flags.writeable = mean.flags.writeable = False
    return center, mean


def _normalize(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(xhat, inv) of tokens x (N, D): xhat = (x - mean) * inv."""
    center, mean = _centering(x.shape[1])
    xhat = x @ center
    inv = ((xhat * xhat) @ mean + T.LAYER_NORM_EPS) ** -0.5
    xhat *= inv
    return xhat, inv


def _normalize_backward(dxhat: np.ndarray, xhat: np.ndarray,
                        inv: np.ndarray) -> np.ndarray:
    center, mean = _centering(xhat.shape[1])
    return (dxhat @ center - xhat * ((dxhat * xhat) @ mean)) * inv


def _fold_attention(a: _Attn) -> Tuple[np.ndarray, np.ndarray]:
    """The block's (D, 3 * P * H * dh) input projection and its bias, with
    the gains and the 1/sqrt(d_q) score scale folded in.  Columns run q, k,
    v, each over the heads of every pair in order."""
    P, _, H, D, dh = a.w.shape
    scale = 1.0 / np.sqrt(dh)
    w = np.empty((D, 3, P, H, dh))
    np.multiply(a.w.transpose(3, 1, 0, 2, 4), a.gain.T[:, None, :, None, None], out=w)
    w[:, 0] *= scale
    b = np.empty((3, P, H, dh))
    b[...] = (a.bias[:, None, None, None, :] @ a.w)[:, :, :, 0].transpose(1, 0, 2, 3)
    b[0] *= scale
    return w.reshape(D, -1), b.reshape(-1)


def _unfold_attention(a: _Attn, grad: _Attn, dw: np.ndarray, db: np.ndarray) -> None:
    """Add to `grad` the gradients of the weights behind _fold_attention's
    projection, given the gradients `dw`, `db` of that projection and bias
    (both scaled in place)."""
    P, _, H, D, dh = a.w.shape
    scale = 1.0 / np.sqrt(dh)
    dw = dw.reshape(D, 3, P, H, dh)
    db = db.reshape(3, P, H, dh)
    dw[:, 0] *= scale
    db[0] *= scale
    dw = dw.transpose(2, 1, 3, 0, 4)                       # (P, 3, H, D, dh)
    db = db.transpose(1, 0, 2, 3)[:, :, :, None]           # (P, 3, H, 1, dh)
    grad.w[...] += dw * a.gain[:, None, None, :, None] + a.bias[:, None, None, :, None] * db
    grad.gain[...] += (a.w * dw).sum(axis=(1, 2, 4))
    grad.bias[...] += (a.w * db).sum(axis=(1, 2, 4))


def _fold_ffn(f: _FFN) -> Tuple[np.ndarray, np.ndarray]:
    return f.gain[:, None] * f.w1, f.bias @ f.w1 + f.b1


def _np_softmax(v: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in `v` and returned."""
    # clipping bounds exp instead of the usual row-max shift; for |v| < 700
    # (always, for trained weights) the result is the exact softmax.  The
    # row sum is a GEMM against a ones column, much faster than ufunc reduce
    # on a short axis
    np.maximum(v, -700.0, out=v)     # np.clip, without its call overhead
    np.minimum(v, 700.0, out=v)
    np.exp(v, out=v)
    v /= v @ _ones_column(v.shape[-1])
    return v


def _row_sums(v: np.ndarray) -> np.ndarray:
    """Sums over the last axis, keeping it, as one 2-D GEMM against a ones
    column (`v @ ones` on a 4-D v loops over the leading axes)."""
    n = v.shape[-1]
    return (v.reshape(-1, n) @ _ones_column(n)).reshape(*v.shape[:-1], 1)


def _transposed(m: np.ndarray) -> np.ndarray:
    """The last two axes swapped, contiguous: a strided transpose as a
    matmul operand takes its slow non-BLAS loop."""
    return np.ascontiguousarray(m.swapaxes(-1, -2))


def _split_heads(qkv: np.ndarray, B: int, S: int, heads: int) -> np.ndarray:
    """Projected tokens (B * S, 3 * heads * dh) as (3, B, heads, S, dh)
    views: q, k and v."""
    dh = qkv.shape[1] // (3 * heads)
    return qkv.reshape(B, S, 3, heads, dh).transpose(2, 0, 3, 1, 4)


def _merge_heads(z: np.ndarray) -> np.ndarray:
    """Per-head outputs (B, heads, S, dh) as concatenated tokens."""
    B, heads, S, dh = z.shape
    return z.transpose(0, 2, 1, 3).reshape(B * S, heads * dh)


class _Block(NamedTuple):
    """A pre-norm block's folded weights, sharing no memory with the
    model's parameters."""

    w_in: np.ndarray                # (D, P): folded input projection
    b_in: np.ndarray                # (P,): its folded bias
    w_out: np.ndarray               # (P_out, D)
    b_out: Optional[np.ndarray]     # (D,) FFN output bias; None for attention
    heads: int                      # attention heads; 0 for an FFN block


def _fold(value: NamedTuple) -> _Block:
    """The folded weights of the block behind an _Attn or _FFN view."""
    if isinstance(value, _Attn):
        P, _, H, D, _ = value.w.shape
        return _Block(*_fold_attention(value), value.wo.reshape(-1, D).copy(),
                      None, P * H)
    return _Block(*_fold_ffn(value), value.w2.copy(), value.b2.copy(), 0)


def _block_forward(blk: _Block, X: np.ndarray, B: int, S: int,
                   saved: Optional[dict] = None) -> np.ndarray:
    """X + block(X) over tokens X (B * S, D).

    With `saved`, the intermediates a backward pass reads are stored in it
    (xhat, inv, the projection `a`; for attention also `att` and the merged
    heads `z`).  Without, the attention weights are released before the
    heads are merged, which keeps them out of the peak working set.
    """
    xhat, inv = _normalize(X)
    a = xhat @ blk.w_in
    a += blk.b_in
    if saved is not None:
        saved.update(xhat=xhat, inv=inv, a=a)
    if blk.heads:
        q, k, v = _split_heads(a, B, S, blk.heads)
        att = _np_softmax(q @ _transposed(k))             # (B, heads, S, S)
        z = att @ v
        if saved is not None:
            saved["att"] = att
        del att
        a = _merge_heads(z)
        if saved is not None:
            saved["z"] = a
    else:
        np.maximum(a, 0.0, out=a)
    y = a @ blk.w_out
    if blk.b_out is not None:
        y += blk.b_out
    y += X
    return y


def prenorm_attention(x: Tensor, value: _Attn, grad: _Attn) -> Tensor:
    """x + sum_p MHA_p(LN_p(x)) over tokens x (B, S, D), as one tape node;
    its backward adds the weight gradients to the `grad` views."""
    B, S, D = x.shape
    P, _, H, _, dh = value.w.shape
    blk, saved = _fold(value), {}
    y = _block_forward(blk, x.value.reshape(B * S, D), B, S, saved)
    xhat, inv, qkv, att, z = (saved[n] for n in ("xhat", "inv", "a", "att", "z"))
    q, k, v = _split_heads(qkv, B, S, P * H)
    w_in, w_out = blk.w_in, blk.w_out

    def backward(g):
        G = g.reshape(B * S, D)
        grad.wo[...] += (z.T @ G).reshape(grad.wo.shape)
        dz = (G @ w_out.T).reshape(B, S, P * H, dh).transpose(0, 2, 1, 3)
        dqkv = np.empty_like(qkv)
        dq, dk, dv = _split_heads(dqkv, B, S, P * H)
        np.matmul(att.swapaxes(-1, -2), dz, out=dv)
        ds = dz @ _transposed(v)
        ds -= _row_sums(ds * att)
        ds *= att
        np.matmul(ds, k, out=dq)
        np.matmul(ds.swapaxes(-1, -2), q, out=dk)
        _unfold_attention(value, grad, xhat.T @ dqkv, dqkv.sum(axis=0))
        dx = _normalize_backward(dqkv @ w_in.T, xhat, inv)
        dx += G
        x._accum(dx.reshape(B, S, D))

    return T.fused(y.reshape(B, S, D), (x,), backward)


def prenorm_ffn(x: Tensor, value: _FFN, grad: _FFN) -> Tensor:
    """x + FFN(LN(x)) over tokens x (B, S, D), as one tape node; its
    backward adds the weight gradients to the `grad` views."""
    B, S, D = x.shape
    blk, saved = _fold(value), {}
    y = _block_forward(blk, x.value.reshape(B * S, D), B, S, saved)
    xhat, inv, r = saved["xhat"], saved["inv"], saved["a"]
    w_in = blk.w_in

    def backward(g):
        G = g.reshape(B * S, D)
        grad.w2[...] += r.T @ G
        grad.b2[...] += G.sum(axis=0)
        dr = G @ value.w2.T
        dr *= r > 0
        dw, db = xhat.T @ dr, dr.sum(axis=0)
        grad.b1[...] += db
        grad.w1[...] += value.gain[:, None] * dw + value.bias[:, None] * db
        grad.gain[...] += (value.w1 * dw).sum(axis=1)
        grad.bias[...] += value.w1 @ db
        dx = _normalize_backward(dr @ w_in.T, xhat, inv)
        dx += G
        x._accum(dx.reshape(B, S, D))

    return T.fused(y.reshape(B, S, D), (x,), backward)


class TrainingPlan:
    """A DenoiseModel's transformer as fused tape ops, for training.

    Its blocks are views into the model's parameter buffer, made once: it
    always computes with the current weights, and backward() adds the
    gradients to the buffer's gradient vector.
    """

    def __init__(self, model: "DenoiseModel"):
        cfg = model.config
        self.seq_len, self.token_dim = cfg.seq_len, cfg.token_dim
        self.blocks = [(prenorm_attention if isinstance(value, _Attn) else prenorm_ffn,
                        value, grad) for value, grad in _block_views(model)]
        self.head = model.head

    def logits(self, h: Tensor) -> Tensor:
        """Logits (B, 2) from signatures (B, S * D)."""
        B = h.shape[0]
        x = T.reshape(h, (B, self.seq_len, self.token_dim))
        for op, value, grad in self.blocks:
            x = op(x, value, grad)
        flat = T.reshape(x, (B, self.seq_len * self.token_dim))
        return T.add(T.matmul(flat, self.head.w), self.head.b)


class InferencePlan:
    """A DenoiseModel's weights packed for inference.

    A snapshot: weight changes after construction are not seen, so build a
    new plan after training, loading or editing the model.
    """

    def __init__(self, model: "DenoiseModel"):
        cfg = model.config
        self.seq_len, self.token_dim = cfg.seq_len, cfg.token_dim
        self.eventconv = pack_eventconv(model.eventconv)
        self.blocks = [_fold(value) for value, _ in _block_views(model)]
        self.head_w = model.head.w.value.copy()
        self.head_b = model.head.b.value.copy()

    def logits(self, h: np.ndarray) -> np.ndarray:
        """Logits (B, 2) from signatures (B, S * D)."""
        S, D = self.seq_len, self.token_dim
        B = h.shape[0]
        x = h.reshape(B * S, D)
        for blk in self.blocks:
            x = _block_forward(blk, x, B, S)
        return x.reshape(B, S * D) @ self.head_w + self.head_b


class DenoiseModel:
    """EventConv + transformer encoder/decoder + classifier head."""

    def __init__(self, volume: VolumeSpec = None,
                 quantities: QuantitySet = None,
                 msg_width: int = 4,
                 heads: int = 2, enc_layers: int = 2, dec_layers: int = 2,
                 ffn_mult: int = 4, seed: int = 0):
        self.volume = volume or VolumeSpec()
        self.quantities = quantities or QuantitySet()
        self.msg_width = msg_width
        cfg = ModelConfig(self.quantities.count, msg_width, heads, enc_layers,
                          dec_layers, ffn_mult)
        self.config = cfg
        rng = np.random.default_rng(seed)
        self.eventconv = EventConvParams(self.quantities, msg_width, rng)
        self.encoder = [EncoderLayerParams(cfg, rng, f"enc{i}") for i in range(enc_layers)]
        self.decoder = [DecoderLayerParams(cfg, rng, f"dec{i}") for i in range(dec_layers)]
        self.head = ClassifierHead(cfg, rng)
        # every weight a view into one flat vector, in parameters() order
        self.buffer = T.ParameterBuffer(self.parameters())

    def parameters(self) -> List[Parameter]:
        out = self.eventconv.parameters()
        for l in self.encoder:
            out.extend(l.parameters())
        for l in self.decoder:
            out.extend(l.parameters())
        out.extend(self.head.parameters())
        return out

    def zero_grad(self):
        self.buffer.grad.fill(0.0)

    # -- forward passes ----------------------------------------------------

    def logits_from_signature(self, h: Tensor) -> Tensor:
        """Logits (B, 2) from a batch of signatures (B, q * wdt)."""
        cfg = self.config
        B = h.shape[0]
        tokens = T.reshape(h, (B, cfg.seq_len, cfg.token_dim))
        enc = encoder_forward(tokens, self.encoder)
        dec = decoder_forward(enc, self.decoder)
        flat = T.reshape(dec, (B, cfg.seq_len * cfg.token_dim))
        return T.add(T.matmul(flat, self.head.w), self.head.b)

    def forward_batch(self, graphs: Sequence[NormalizedGraph]) -> Tensor:
        """Logits (B, 2) for a batch of graphs."""
        Qpad, mask = pad_quantity_batch(graphs)
        h = eventconv_forward_batch(Qpad, mask, self.eventconv)
        return self.logits_from_signature(h)

    def forward_tape_features(self, feats: Tensor) -> Tensor:
        """Single-graph logits differentiable down to the node features."""
        Q = quantities_tape(feats)
        h = eventconv_forward_batch(T.reshape(Q, (1, *Q.shape)),
                                    np.ones((1, Q.shape[0], 1)), self.eventconv)
        return T.reshape(self.logits_from_signature(h), (2,))

    def classify_graphs(self, graphs: Sequence[NormalizedGraph]) -> np.ndarray:
        """Probabilities (B, 2) for a batch of graphs."""
        return T.softmax(self.forward_batch(graphs), axis=-1).value

    def classify_padded(self, feats: np.ndarray, mask: np.ndarray,
                        plan: Optional[InferencePlan] = None) -> np.ndarray:
        """Probabilities (B, 2) from padded normalized node features.

        This is the streaming-inference fast path, run through `plan` (built
        from the current weights when not given).  Its probabilities agree
        with the tape forward (`classify_graphs`) to rounding, and differ
        from row to row between batch sizes by a few ulps at most, so
        batch and sequential prediction give the same decisions except at
        an exact tie.
        """
        plan = plan or InferencePlan(self)
        Q = quantities_padded(feats, mask)
        h = signature_batch_np(Q, mask, plan.eventconv)
        return _np_softmax(plan.logits(h))

    def decide(self, probs: np.ndarray) -> np.ndarray:
        """Argmax with the tie at p = 0.5 resolved to noise (fail closed)."""
        probs = np.atleast_2d(probs)
        return (probs[:, DECISION_REAL] > probs[:, DECISION_NOISE]).astype(np.int64)


BATCH_ROWS = 4096  # rows per fast-path call; 2048-8192 run equally fast


class ModelFilter:
    """The model behind the baseline filters' contract: any split of a
    time-sorted stream between `step` and `run_batch` decides like one
    `step` fold.  The state is the RecencyStore `store` after a `step`, and
    the (t, x, y) columns `tail` of the last T_us of on-sensor events after
    a `run_batch`; each call rebuilds its form from the other, exactly, as
    no neighbor is older than T_us and only a pixel's N_max most recent
    events can be picked.  The plan is built once, here."""

    name = "gnnt"

    def __init__(self, model: DenoiseModel, geometry: SensorGeometry):
        self.model, self.geometry = model, geometry
        self.plan = InferencePlan(model)
        self.reset()

    def reset(self) -> None:
        self.store, self.tail = None, (np.empty(0, dtype=np.int64),) * 3

    def step(self, e: Event) -> int:
        """The decision for `e`; -1 off the sensor, where nothing is stored."""
        if not self.geometry.contains(e.x, e.y):
            return -1
        if self.store is None:
            self.store = RecencyStore(self.geometry, max(1, self.model.volume.N_max))
            for t, x, y in zip(*(c.tolist() for c in self.tail)):
                self.store.insert(Event(t, x, y, 1))
        model, spec = self.model, self.model.volume
        feats, mask = node_features_single(e, self.store.query(e, spec), spec)
        decision = int(model.decide(model.classify_padded(feats, mask, self.plan))[0])
        self.store.insert(e)
        return decision

    def run_batch(self, stream: EventStream) -> np.ndarray:
        """The decisions of the fold `[step(e) for e in stream]`, leaving the
        state as it would: one batch search and fast-path call per
        BATCH_ROWS on-sensor rows, over the held events and the block.
        Raises ValueError where a timestamp goes back, from the last held."""
        g, spec, model = self.geometry, self.model.volume, self.model
        held = self.tail if self.store is None else self.store.columns()
        # no neighbor is older than T_us, so a held row older than T_us
        # before the last held one is no block event's neighbor
        held = tuple(c[held[0] >= held[0][-1:] - spec.T_us] for c in held)
        m = len(held[0])  # held rows go first; with none, the block's are not copied
        t, x, y = (np.concatenate(c) if m else c[1] for c in zip(held, stream.arrays()))
        back = np.flatnonzero(t[max(m, 1):] < t[max(m, 1) - 1: -1])
        if len(back):
            i = int(back[0]) + max(m, 1)
            raise ValueError(f"timestamp regression at index {i - m} "
                             f"({t[i]} after {t[i - 1]})")
        live = np.flatnonzero((x >= 0) & (x < g.width) & (y >= 0) & (y < g.height))
        rows = live[np.searchsorted(live, m):]
        decisions = np.full(len(t) - m, -1, dtype=np.int64)
        for lo in range(0, len(rows), BATCH_ROWS):
            chunk = rows[lo: lo + BATCH_ROWS]
            nbr = batch_neighbor_indices(t, x, y, spec, g, rows=chunk)
            feats, mask = features_from_batch_indices(t, x, y, nbr, spec, rows=chunk)
            decisions[chunk - m] = model.decide(model.classify_padded(feats, mask, self.plan))
        keep = live[live >= np.searchsorted(t, t[-1:] - spec.T_us)]  # t[-1:]: no events, no cut
        self.store, self.tail = None, (t[keep], x[keep], y[keep])
        return decisions


def predict_stream(stream: EventStream, model: DenoiseModel,
                   mode: str = "batch") -> Tuple[np.ndarray, List[int]]:
    """(decisions, skipped_indices), -1 at skipped (off-sensor) events.  Both
    modes decide through a fresh ModelFilter and agree: `seq` is a `step`
    fold, `batch` one `run_batch`, in one chunk plus the last T_us of memory."""
    filt = ModelFilter(model, stream.geometry)
    if mode == "batch":
        decisions = filt.run_batch(stream)
    elif mode == "seq":
        decisions = np.fromiter(map(filt.step, stream), np.int64, len(stream))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return decisions, [int(i) for i in np.flatnonzero(decisions < 0)]


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0


def train(dataset: TrainingSet, model: DenoiseModel,
          config: TrainConfig = None) -> List[float]:
    """Minimize cross-entropy with Adam; returns per-epoch mean loss.

    Each step records about a dozen tape nodes: the fused EventConv
    signature, one fused node per pre-norm block (TrainingPlan), the head
    and the loss; Adam updates the model's parameter buffer as one vector.
    Deterministic given the config seed (shuffling uses a dedicated PRNG and
    all reductions have fixed order).
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("empty training dataset")
    config = config or TrainConfig()
    labels_all = np.asarray(dataset.labels, dtype=np.int64)
    mask = dataset.mask
    Qpad = quantities_padded(dataset.feats, mask)
    plan = TrainingPlan(model)
    state = AdamState(model.buffer)
    rng = np.random.default_rng(config.seed)
    history: List[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, config.batch_size):
            idx = order[lo: lo + config.batch_size]
            h = eventconv_forward_batch(Qpad[idx], mask[idx], model.eventconv)
            logits = plan.logits(h)
            loss = T.cross_entropy(logits, labels_all[idx])
            if not np.isfinite(loss.value):
                raise ArithmeticError(
                    f"NaN/inf loss at step {state.step} (epoch {len(history)})")
            model.zero_grad()
            loss.backward()
            T.adam_step(model.buffer, state, config.lr)
            total += float(loss.value) * len(idx)
        history.append(total / n)
    return history


# -- checkpoint I/O --------------------------------------------------------

CKPT_MAGIC = b"EVDN0001"


def save_model(model: DenoiseModel, path) -> None:
    header = {
        "volume": {"L": model.volume.L, "T_us": model.volume.T_us,
                   "N_max": model.volume.N_max},
        "quantities": list(model.quantities.selected),
        "msg_width": model.msg_width,
        # v1 header key of a removed one-token layout; always false
        "single_token": False,
        "heads": model.config.heads,
        "enc_layers": model.config.enc_layers,
        "dec_layers": model.config.dec_layers,
        "ffn_mult": model.config.ffn_mult,
    }
    hdr = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", len(hdr)))
        f.write(hdr)
        params = model.parameters()
        f.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode()
            f.write(struct.pack("<I", len(name)))
            f.write(name)
            f.write(struct.pack("<I", p.value.ndim))
            f.write(struct.pack(f"<{p.value.ndim}q", *p.value.shape))
            f.write(p.value.astype("<f8").tobytes())


class CheckpointError(ValueError):
    """Raised when a model checkpoint is malformed, truncated or has
    trailing bytes."""


def _read_exact(f, n: int, path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"{path}: truncated checkpoint")
    return data


def _read_u32(f, path) -> int:
    return struct.unpack("<I", _read_exact(f, 4, path))[0]


def load_model(path) -> DenoiseModel:
    # parsed from memory, so a corrupt length field cannot ask for more
    # bytes than the file holds
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if f.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    hdr = _read_exact(f, _read_u32(f, path), path)
    try:
        header = json.loads(hdr)
        if header["single_token"]:
            raise ValueError("the single-token layout is no longer supported")
        model = DenoiseModel(
            volume=VolumeSpec(**header["volume"]),
            quantities=QuantitySet(tuple(header["quantities"])),
            msg_width=header["msg_width"],
            heads=header["heads"],
            enc_layers=header["enc_layers"],
            dec_layers=header["dec_layers"],
            ffn_mult=header["ffn_mult"],
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad checkpoint header: {exc}") from None
    count = _read_u32(f, path)
    params = model.parameters()
    if count != len(params):
        raise CheckpointError(f"{path}: parameter count mismatch")
    by_name = {p.name: p for p in params}
    for _ in range(count):
        name = _read_exact(f, _read_u32(f, path), path).decode(errors="replace")
        ndim = _read_u32(f, path)
        shape = struct.unpack(f"<{ndim}q", _read_exact(f, 8 * ndim, path))
        p = by_name.get(name)
        if p is None or tuple(p.value.shape) != tuple(shape):
            raise CheckpointError(f"{path}: unexpected parameter {name} {shape}")
        data = np.frombuffer(_read_exact(f, 8 * p.value.size, path), dtype="<f8")
        p.value = data.reshape(shape)
    if f.read(1):
        raise CheckpointError(f"{path}: trailing bytes after the last parameter")
    return model
