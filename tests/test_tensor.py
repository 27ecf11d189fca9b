"""Reverse-mode autodiff: per-op gradients against central differences,
numerical stability, and the Adam update."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evdenoise.nn.tensor as T
from evdenoise.nn.tensor import (AdamState, Parameter, ParameterBuffer,
                                 Tensor, adam_step, cross_entropy,
                                 finite_diff_check, init_uniform, layer_norm,
                                 packed)

TOL = 1e-6  # per-op central differences on smooth ops are much tighter


def param(rng, shape, name="p"):
    return Parameter(rng.standard_normal(shape), name)


def check(forward, params, tol=TOL):
    err = finite_diff_check(forward, params)
    assert err < tol, f"max relative gradient error {err}"


class TestElementwiseOps:
    def test_add_sub_mul_broadcast(self):
        rng = np.random.default_rng(0)
        a = param(rng, (3, 4), "a")
        b = param(rng, (4,), "b")
        c = param(rng, (3, 1), "c")
        check(lambda: T.tsum(T.mul(T.add(a, b), T.sub(a, c))), [a, b, c])

    def test_scale(self):
        rng = np.random.default_rng(1)
        a = param(rng, (5,), "a")
        check(lambda: T.tsum(T.scale(a, -2.5)), [a])

    def test_sigmoid(self):
        rng = np.random.default_rng(2)
        a = param(rng, (4, 3), "a")
        check(lambda: T.tsum(T.sigmoid(a)), [a])

    def test_sigmoid_saturation_finite(self):
        v = T.sigmoid(Tensor([-1000.0, 1000.0]))
        assert np.all(np.isfinite(v.value))
        assert v.value[0] == 0.0 and v.value[1] == 1.0

    def test_relu(self):
        a = Parameter(np.array([-2.0, -0.5, 0.5, 2.0]), "a")
        check(lambda: T.tsum(T.mul(T.relu(a), a)), [a])

    def test_sqrt(self):
        a = Parameter(np.array([0.5, 1.0, 4.0]), "a")
        check(lambda: T.tsum(T.sqrt(a)), [a])

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ValueError, match="add"):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestMatmulReshape:
    def test_matmul_2d(self):
        rng = np.random.default_rng(3)
        a = param(rng, (3, 4), "a")
        b = param(rng, (4, 2), "b")
        check(lambda: T.tsum(T.matmul(a, b)), [a, b])

    def test_matmul_batched_times_2d(self):
        rng = np.random.default_rng(4)
        a = param(rng, (5, 3, 4), "a")
        b = param(rng, (4, 2), "b")
        check(lambda: T.tsum(T.matmul(a, b)), [a, b])

    def test_matmul_batched_both(self):
        rng = np.random.default_rng(5)
        a = param(rng, (2, 3, 4), "a")
        b = param(rng, (2, 4, 3), "b")
        check(lambda: T.tsum(T.matmul(a, b)), [a, b])

    def test_batched_matmul_value_matches_loop(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 3, 4))
        b = rng.standard_normal((4, 2))
        got = T.matmul(Tensor(a), Tensor(b)).value
        want = np.stack([a[i] @ b for i in range(7)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_transpose_reshape_concat(self):
        rng = np.random.default_rng(7)
        a = param(rng, (3, 4), "a")
        b = param(rng, (3, 2), "b")

        def forward():
            cat = T.concat([a, b], axis=1)        # (3, 6)
            flat = T.reshape(cat, (2, 9))
            return T.tsum(T.mul(T.transpose(flat), T.transpose(flat)))

        check(forward, [a, b])


class TestReductions:
    def test_tsum_axes(self):
        rng = np.random.default_rng(8)
        a = param(rng, (3, 4, 2), "a")
        check(lambda: T.tsum(T.mul(T.tsum(a, axis=1, keepdims=True), a)), [a])

    def test_tmean(self):
        rng = np.random.default_rng(9)
        a = param(rng, (4, 5), "a")
        check(lambda: T.tsum(T.mul(T.tmean(a, axis=0, keepdims=True), a)), [a])


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        v = T.softmax(Tensor(rng.standard_normal((6, 9))), axis=-1).value
        np.testing.assert_allclose(v.sum(axis=-1), 1.0, atol=1e-12)

    def test_stable_for_large_logits(self):
        v = T.softmax(Tensor([[1e4, 1e4 + 1.0]])).value
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(v.sum(), 1.0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        a = param(rng, (3, 5), "a")
        w = Tensor(rng.standard_normal((3, 5)))
        check(lambda: T.tsum(T.mul(T.softmax(a), w)), [a])


class TestLayerNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 8)) * 10 + 3
        gain = Tensor(np.ones(8))
        bias = Tensor(np.zeros(8))
        v = layer_norm(Tensor(x), gain, bias).value
        np.testing.assert_allclose(v.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(v.var(axis=-1), 1.0, atol=1e-9)

    def test_gradient_all_inputs(self):
        rng = np.random.default_rng(13)
        a = param(rng, (3, 6), "a")
        gain = Parameter(rng.uniform(0.5, 1.5, 6), "g")
        bias = param(rng, (6,), "b")
        w = Tensor(rng.standard_normal((3, 6)))
        check(lambda: T.tsum(T.mul(layer_norm(a, gain, bias), w)),
              [a, gain, bias], tol=1e-5)


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = np.array([[2.0, -1.0], [0.5, 0.5], [-3.0, 4.0]])
        labels = np.array([0, 1, 1])
        got = cross_entropy(Tensor(logits), labels).value
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        want = -np.log(p[np.arange(3), labels]).mean()
        assert got == pytest.approx(want, abs=1e-12)

    def test_extreme_logits_finite(self):
        loss = cross_entropy(Tensor([[1000.0, -1000.0]]), [1])
        assert np.isfinite(loss.value)
        loss.backward()

    def test_gradient(self):
        rng = np.random.default_rng(14)
        a = param(rng, (5, 2), "a")
        labels = np.array([0, 1, 1, 0, 1])
        check(lambda: cross_entropy(a, labels), [a])

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            cross_entropy(Tensor([[np.nan, 0.0]]), [0])


class TestBackwardMechanics:
    def test_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_reused_node_accumulates(self):
        a = Parameter(np.array([3.0]), "a")
        b = T.add(a, a)            # d/da = 2
        c = T.mul(b, a)            # c = 2a^2, dc/da = 4a = 12
        T.tsum(c).backward()
        assert a.grad[0] == pytest.approx(12.0)

    def test_constant_inputs_do_not_become_trainable(self):
        a = Tensor(np.ones(3))
        b = Parameter(np.ones(3), "b")
        out = T.tsum(T.mul(a, b))
        out.backward()
        assert not a.requires_grad and out.requires_grad
        assert b.grad is not None

    def test_deep_chain_iterative(self):
        # deep graphs must not hit the recursion limit
        x = Parameter(np.array([1.0]), "x")
        h = x
        for _ in range(5000):
            h = T.add(h, Tensor(np.array([0.0])))
        T.tsum(h).backward()
        assert x.grad[0] == pytest.approx(1.0)


class TestAdam:
    def test_first_step_magnitude(self):
        # with bias correction the first step is ~lr regardless of grad scale
        p = Parameter(np.array([0.0]), "p")
        p.grad = np.array([123.0])
        adam_step(p.buffer, AdamState(p.buffer), lr=0.01)
        assert p.value[0] == pytest.approx(-0.01, rel=1e-6)

    def test_matches_reference_sequence(self):
        rng = np.random.default_rng(15)
        p = Parameter(rng.standard_normal(4), "p")
        ref = p.value.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        state = AdamState(p.buffer)
        lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
        for step in range(1, 6):
            g = rng.standard_normal(4)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** step)) / (np.sqrt(v / (1 - b2 ** step)) + eps)
            p.grad = g.copy()
            adam_step(p.buffer, state, lr=lr)
        np.testing.assert_allclose(p.value, ref, atol=1e-12)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]), "p")
        state = AdamState(p.buffer)
        for _ in range(2000):
            loss = T.tsum(T.mul(p, p))
            loss.backward()
            adam_step(p.buffer, state, lr=0.05)
        assert np.all(np.abs(p.value) < 1e-3)


    def test_flat_buffer_bitwise_equals_per_parameter_formula(self):
        # the elementwise update is the same arithmetic on one flat vector
        rng = np.random.default_rng(17)
        shapes = [(3, 4), (4,), (1, 5), (2, 2, 3)]
        params = [Parameter(rng.standard_normal(s), f"p{i}")
                  for i, s in enumerate(shapes)]
        buf = ParameterBuffer(params)
        ref = [p.value.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        state = AdamState(buf, beta1=0.8, beta2=0.99, eps=1e-7)
        lr, b1, b2, eps = 0.01, 0.8, 0.99, 1e-7
        for step in range(1, 11):
            grads = [rng.standard_normal(s) for s in shapes]
            for i, g in enumerate(grads):
                params[i].grad = g
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                ref[i] -= lr * (m[i] / (1 - b1 ** step)) \
                    / (np.sqrt(v[i] / (1 - b2 ** step)) + eps)
            adam_step(buf, state, lr=lr)
            for p, r in zip(params, ref):
                np.testing.assert_array_equal(p.value, r)
            assert not buf.grad.any()


class TestParameterBuffer:
    def test_values_and_grads_are_views(self):
        rng = np.random.default_rng(18)
        a, b = Parameter(rng.standard_normal((2, 3)), "a"), Parameter([1.0, 2.0], "b")
        before = np.concatenate([a.value.ravel(), b.value])
        buf = ParameterBuffer([a, b])
        np.testing.assert_array_equal(buf.value, before)
        b.value = [5.0, 6.0]                 # reassignment writes in place
        a.value[0, 0] = 9.0                  # and so does an in-place edit
        np.testing.assert_array_equal(buf.value[[0, 6, 7]], [9.0, 5.0, 6.0])
        T.tsum(T.mul(a, a)).backward()
        np.testing.assert_array_equal(buf.grad[:6], 2 * buf.value[:6])
        a.grad = None
        assert not buf.grad.any()
        with pytest.raises(ValueError, match="shape"):
            b.value = [1.0]

    def test_packed_views_need_back_to_back_parameters(self):
        a, b, c = (Parameter(np.full(2, float(i)), n) for i, n in enumerate("abc"))
        ParameterBuffer([a, b, c])
        value, grad = packed([b, c], (2, 2))
        value[1, 0] = 7.0
        assert c.value[0] == 7.0
        grad += 1.0
        np.testing.assert_array_equal(b.grad, 1.0)
        with pytest.raises(ValueError, match="back to back|follow"):
            packed([a, c], (2, 2))
        with pytest.raises(ValueError, match="view"):
            T.view(np.zeros((2, 3))[:, :2].T, (4,))

def test_init_uniform_bounds():
    rng = np.random.default_rng(16)
    p = init_uniform(rng, (100, 100), fan_in=16, name="w")
    assert np.all(np.abs(p.value) <= 0.25)
    assert np.abs(p.value).max() > 0.2  # actually fills the range


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_composite_expression_gradient_property(seed):
    rng = np.random.default_rng(seed)
    a = param(rng, (3, 4), "a")
    b = param(rng, (4, 3), "b")

    def forward():
        h = T.relu(T.matmul(a, b))
        s = T.softmax(T.matmul(h, T.transpose(h)))
        return T.tmean(T.mul(s, s))

    err = finite_diff_check(forward, [a, b])
    # central differences on this composite lose a digit vs the smooth-op
    # checks; 1e-3 still catches any structural gradient bug
    assert err < 1e-3
