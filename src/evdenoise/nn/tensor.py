"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Float64 throughout; every primitive records itself on an implicit tape
(the Tensor graph) so a single backward() call accumulates exact gradients.
Reductions run in fixed row-major order for bit-reproducible training.

Training records coarse nodes: `fused` wraps an op with its own analytic
backward (a whole pre-norm transformer block, the EventConv signature), so
a step is about a dozen nodes.  The fine-grained primitives below are the
independent oracle those fused ops are checked against, and serve gradient
checks.  Parameters live in flat ParameterBuffers as named views, so Adam
updates a model in a few vector operations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_backward", "requires_grad", "name")

    def __init__(self, value, requires_grad: bool = False, name: str = ""):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # a copy, never g itself: one array may reach several inputs
            self.grad = g.copy() if g.shape == self.value.shape \
                else np.zeros_like(self.value) + g
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-accumulate d(self)/d(leaf) into .grad for every reachable
        tensor with requires_grad.  self must be scalar."""
        if self.value.size != 1:
            raise ValueError(f"backward() requires a scalar loss, got shape {self.shape}")
        topo: List[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """A named trainable tensor.

    Its value and gradient are views into the flat vectors of a
    ParameterBuffer (a buffer of its own until a model's buffer adopts it),
    so `p.value = v` and `p.grad = g` copy into the views and reach every
    other view of the buffer.  The gradient reads as zeros once cleared
    (`p.grad = None`).
    """

    __slots__ = ("_value", "_grad", "buffer", "offset")

    def __init__(self, value, name: str):
        self._value = np.array(value, dtype=np.float64)
        self._grad = np.zeros_like(self._value)
        self._parents = ()
        self._backward = None
        self.requires_grad = True
        self.name = name
        ParameterBuffer([self])

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, v) -> None:
        if np.shape(v) != self._value.shape:
            raise ValueError(f"{self.name}: cannot assign shape {np.shape(v)} "
                             f"to a parameter of shape {self._value.shape}")
        self._value[...] = v

    @property
    def grad(self) -> np.ndarray:
        return self._grad

    @grad.setter
    def grad(self, g) -> None:
        if g is None:
            self._grad.fill(0.0)
        else:
            self._grad[...] = g

    def _accum(self, g: np.ndarray) -> None:
        self._grad += g


class ParameterBuffer:
    """Parameters stored back to back, in order, in one flat value vector
    and one flat gradient vector; each parameter's value and grad become
    views into them (values are carried over, gradients start cleared)."""

    def __init__(self, params: Sequence[Parameter]):
        self.params = list(params)
        self.value = np.concatenate([p.value.ravel() for p in self.params]) \
            if self.params else np.zeros(0)
        self.grad = np.zeros_like(self.value)
        offset = 0
        for p in self.params:
            end = offset + p.value.size
            shape = p.value.shape
            p._value = self.value[offset:end].reshape(shape)
            p._grad = self.grad[offset:end].reshape(shape)
            p.buffer, p.offset = self, offset
            offset = end


def packed(params: Sequence[Parameter], shape) -> Tuple[np.ndarray, np.ndarray]:
    """Value and gradient views of `shape` over `params`, which must lie
    back to back, in this order, in one buffer (as a buffer's parameters
    list them)."""
    buf, start = params[0].buffer, params[0].offset
    end = start
    for p in params:
        if p.buffer is not buf or p.offset != end:
            raise ValueError(f"{p.name} does not follow the parameters before "
                             f"it in one buffer")
        end += p.value.size
    return view(buf.value[start:end], shape), view(buf.grad[start:end], shape)


def view(a: np.ndarray, shape) -> np.ndarray:
    """`a` reshaped without a copy (writes must reach `a`); raises where its
    layout would need one."""
    out = a.reshape(shape)
    if out.size and not np.may_share_memory(out, a):
        raise ValueError(f"cannot view an array of strides {a.strides} as {shape}")
    return out


def _as_tensor(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def _make(value, parents, backward) -> Tensor:
    out = Tensor(value)
    if any(p.requires_grad or p._parents for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
        out.requires_grad = any(p.requires_grad for p in parents)
    return out


def fused(value, inputs: Sequence[Tensor], backward) -> Tensor:
    """A tape node for an op with its own analytic backward.

    `backward(g)` accumulates into those `inputs` that need a gradient and
    adds parameter gradients to their buffer views itself, so the node
    always records.
    """
    out = Tensor(value, requires_grad=True)
    out._parents = tuple(inputs)
    out._backward = backward
    return out


def needs_grad(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _shapes_err(op, a, b):
    return ValueError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        value = a.value + b.value
    except ValueError:
        raise _shapes_err("add", a, b) from None

    def backward(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(_unbroadcast(g, b.shape))

    return _make(value, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        value = a.value - b.value
    except ValueError:
        raise _shapes_err("sub", a, b) from None

    def backward(g):
        a._accum(_unbroadcast(g, a.shape))
        b._accum(-_unbroadcast(g, b.shape))

    return _make(value, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        value = a.value * b.value
    except ValueError:
        raise _shapes_err("mul", a, b) from None

    def backward(g):
        a._accum(_unbroadcast(g * b.value, a.shape))
        b._accum(_unbroadcast(g * a.value, b.shape))

    return _make(value, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)

    def backward(g):
        a._accum(g * c)

    return _make(a.value * c, (a,), backward)


def _mm(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
    """np.matmul, but batched-by-2D products collapse to one GEMM (much
    faster than looping tiny per-batch products)."""
    if bv.ndim == 2 and av.ndim > 2:
        flat = av.reshape(-1, av.shape[-1]) @ bv
        return flat.reshape(*av.shape[:-1], bv.shape[-1])
    return np.matmul(av, bv)


def matmul(a, b) -> Tensor:
    """Matrix product; leading batch dimensions broadcast as in np.matmul."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        value = _mm(a.value, b.value)
    except ValueError:
        raise _shapes_err("matmul", a, b) from None

    def backward(g):
        if b.value.ndim == 2 and a.value.ndim > 2:
            ga = _mm(g, b.value.T)
            gb = a.value.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            ga = np.matmul(g, np.swapaxes(b.value, -1, -2))
            gb = np.matmul(np.swapaxes(a.value, -1, -2), g)
        a._accum(_unbroadcast(ga, a.shape))
        b._accum(_unbroadcast(gb, b.shape))

    return _make(value, (a, b), backward)


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)

    def backward(g):
        a._accum(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.value, -1, -2), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def backward(g):
        a._accum(g.reshape(old))

    return _make(a.value.reshape(shape), (a,), backward)


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    value = np.concatenate([p.value for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for p, gp in zip(parts, np.split(g, splits, axis=axis)):
            p._accum(gp)

    return _make(value, tuple(parts), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    value = a.value.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape).copy())

    return _make(value, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    value = a.value.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.value.size
    else:
        count = a.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g / count, a.shape).copy())

    return _make(value, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    value = expit(a.value)

    def backward(g):
        a._accum(g * value * (1.0 - value))

    return _make(value, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    value = np.maximum(a.value, 0.0)

    def backward(g):
        a._accum(g * (a.value > 0))

    return _make(value, (a,), backward)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    value = np.sqrt(a.value)

    def backward(g):
        safe = np.where(value > 0, value, 1.0)
        a._accum(g * np.where(value > 0, 0.5 / safe, 0.0))

    return _make(value, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    value = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * value).sum(axis=axis, keepdims=True)
        a._accum(value * (g - dot))

    return _make(value, (a,), backward)


LAYER_NORM_EPS = 1e-12


def layer_norm(a, gain, bias, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then apply
    the learnable per-feature gain and bias."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    mu = a.value.mean(axis=-1, keepdims=True)
    xc = a.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    value = gain.value * xhat + bias.value
    n = a.shape[-1]

    def backward(g):
        gain._accum(_unbroadcast(g * xhat, gain.shape))
        bias._accum(_unbroadcast(g, bias.shape))
        gx = g * gain.value
        term = gx - gx.mean(axis=-1, keepdims=True) \
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        a._accum(term * inv)

    return _make(value, (a, gain, bias), backward)


def cross_entropy(logits, labels) -> Tensor:
    """Mean of -log softmax(logits)[label] over the batch, stabilized with
    log-sum-exp.  logits: (..., C), labels: int array of matching batch shape
    or a single int for 1-D logits."""
    logits = _as_tensor(logits)
    lv = logits.value
    scalar_input = lv.ndim == 1
    if scalar_input:
        lv = lv[None, :]
    lab = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    C = lv.shape[-1]
    if lab.shape != lv.shape[:1]:
        raise ValueError(f"{lab.shape[0]} labels for {lv.shape[0]} rows of logits")
    if np.any((lab < 0) | (lab >= C)):
        raise ValueError(f"label out of range [0, {C})")
    if not np.all(np.isfinite(lv)):
        raise ValueError("non-finite logits")
    m = lv.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(lv - m).sum(axis=-1))
    B = lab.shape[0]
    rows = np.arange(B)
    losses = lse - lv[rows, lab]
    value = losses.mean()

    def backward(g):
        p = np.exp(lv - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[rows, lab] -= 1.0
        gl = g * p / B
        logits._accum(gl[0] if scalar_input else gl)

    return _make(value, (logits,), backward)


class AdamState:
    """First/second-moment accumulators, flat over a parameter buffer, and
    a step counter."""

    def __init__(self, params: ParameterBuffer,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = np.zeros(params.value.size)
        self.v = np.zeros(params.value.size)


def adam_step(params: ParameterBuffer, state: AdamState, lr: float) -> None:
    """Standard Adam update with bias correction, as one flat vector
    update of the buffer; its gradients are cleared."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    m, v = state.m, state.v
    m *= b1
    m += (1 - b1) * params.grad
    v *= b2
    v += (1 - b2) * params.grad * params.grad
    params.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    params.grad.fill(0.0)


def init_uniform(rng: np.random.Generator, shape, fan_in: int, name: str) -> Parameter:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(max(1, fan_in))
    return Parameter(rng.uniform(-bound, bound, size=shape), name)


def finite_diff_check(forward, params: Sequence[Parameter], eps: float = 1e-5,
                      max_coords_per_param: int = None,
                      rng: np.random.Generator = None) -> float:
    """Max relative error between analytic gradients and central differences.

    `forward` is a closure returning a scalar Tensor built from `params`.
    Coordinates are subsampled per parameter when max_coords_per_param is set.
    """
    for p in params:
        p.grad = None
    loss = forward()
    loss.backward()
    analytic = {id(p): (np.zeros_like(p.value) if p.grad is None else p.grad.copy())
                for p in params}
    worst = 0.0
    rng = rng or np.random.default_rng(0)
    for p in params:
        flat = p.value.reshape(-1)
        n = flat.size
        coords = np.arange(n)
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = float(forward().value)
            flat[c] = orig - eps
            lo = float(forward().value)
            flat[c] = orig
            num = (hi - lo) / (2 * eps)
            ana = analytic[id(p)].reshape(-1)[c]
            denom = max(abs(num), abs(ana), 1e-8)
            worst = max(worst, abs(num - ana) / denom)
    for p in params:
        p.grad = None
    return worst
