"""Message quantities and the affine+sigmoid graph signature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evdenoise.nn.tensor as T
from evdenoise.eventconv import (VARIANTS, EventConvParams, QuantitySet,
                                 compute_quantities,
                                 eventconv_forward, eventconv_forward_batch,
                                 pad_quantity_batch, quantities_padded,
                                 quantities_tape, signature_batch_np,
                                 signature_reference)
from evdenoise.graph import NormalizedGraph
from evdenoise.nn.tensor import Tensor, finite_diff_check


def random_graph(rng, n_neighbors):
    pts = rng.uniform(0.05, 0.95, size=(n_neighbors, 3))
    return NormalizedGraph((0.5, 0.5, 0.95), tuple(map(tuple, pts)))


class TestQuantitySet:
    def test_variants(self):
        assert VARIANTS["3q"] == (1, 2, 3)
        assert VARIANTS["4q"] == (1, 2, 3, 7)
        assert VARIANTS["6q"] == (1, 2, 3, 4, 5, 6)
        assert VARIANTS["7q"] == (1, 2, 3, 4, 5, 6, 7)

    def test_from_variant(self):
        assert QuantitySet.from_variant("4q").selected == (1, 2, 3, 7)
        with pytest.raises(ValueError, match="unknown"):
            QuantitySet.from_variant("5q")

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantitySet(())
        with pytest.raises(ValueError):
            QuantitySet((0, 1))
        with pytest.raises(ValueError):
            QuantitySet((1, 1))


class TestQuantities:
    def test_hand_computed_two_nodes(self):
        # nodes (0.5, 0.5, 0.95) and (0.3, 0.7, 0.55); means (0.4, 0.6, 0.75)
        g = NormalizedGraph((0.5, 0.5, 0.95), (((0.3, 0.7, 0.55)),))
        Q = compute_quantities(g)
        np.testing.assert_allclose(Q[0, 0:3], [0.1, -0.1, 0.2], atol=1e-15)
        np.testing.assert_allclose(Q[1, 0:3], [-0.1, 0.1, -0.2], atol=1e-15)
        # population std over 2 points = |deviation|
        np.testing.assert_allclose(Q[:, 3:6], [[0.1, 0.1, 0.2]] * 2, atol=1e-15)
        d = np.sqrt(0.1**2 + 0.1**2 + 0.2**2)
        np.testing.assert_allclose(Q[:, 6], [d, d], atol=1e-15)

    def test_deviations_sum_to_zero(self):
        rng = np.random.default_rng(0)
        Q = compute_quantities(random_graph(rng, 7))
        np.testing.assert_allclose(Q[:, 0:3].sum(axis=0), 0.0, atol=1e-12)

    def test_single_node_graph(self):
        Q = compute_quantities(NormalizedGraph((0.5, 0.5, 0.95), ()))
        np.testing.assert_allclose(Q, 0.0, atol=1e-15)

    def test_tape_matches_numpy(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 6)
        Qt = quantities_tape(Tensor(g.feature_matrix()))
        np.testing.assert_allclose(Qt.value, compute_quantities(g), atol=1e-14)

    def test_padded_matches_per_graph(self):
        rng = np.random.default_rng(2)
        graphs = [random_graph(rng, int(rng.integers(0, 11))) for _ in range(500)]
        m_max = max(g.node_count for g in graphs)
        feats = np.zeros((len(graphs), m_max, 3))
        mask = np.zeros((len(graphs), m_max, 1))
        for i, g in enumerate(graphs):
            f = g.feature_matrix()
            feats[i, : f.shape[0]] = f
            mask[i, : f.shape[0], 0] = 1.0
        Q = quantities_padded(feats, mask)
        # bitwise: training takes its quantities from here, where it took
        # them per graph before
        for i, g in enumerate(graphs):
            m = g.node_count
            np.testing.assert_array_equal(Q[i, :m], compute_quantities(g))
            np.testing.assert_array_equal(Q[i, m:], 0.0)


class TestSignature:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_reference(self, variant):
        rng = np.random.default_rng(3)
        params = EventConvParams(QuantitySet.from_variant(variant), wdt=4, rng=rng)
        Q = compute_quantities(random_graph(rng, 8))
        h = eventconv_forward(Q, params).value
        assert h.shape == (len(VARIANTS[variant]) * 4,)
        np.testing.assert_allclose(h, signature_reference(Q, params), atol=1e-12)

    def test_signature_width_default_model(self):
        rng = np.random.default_rng(4)
        params = EventConvParams(QuantitySet.from_variant("7q"), wdt=4, rng=rng)
        Q = compute_quantities(random_graph(rng, 10))
        assert eventconv_forward(Q, params).value.shape == (28,)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        params = EventConvParams(QuantitySet.from_variant("7q"), wdt=4, rng=rng)
        Q = compute_quantities(random_graph(rng, 9))
        h = eventconv_forward(Q, params).value
        for _ in range(5):
            perm = rng.permutation(Q.shape[0])
            hp = eventconv_forward(Q[perm], params).value
            np.testing.assert_allclose(hp, h, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        params = EventConvParams(QuantitySet.from_variant("7q"), wdt=4, rng=rng)
        graphs = [random_graph(rng, int(rng.integers(0, 10))) for _ in range(12)]
        Qpad, mask = pad_quantity_batch(graphs)
        H = eventconv_forward_batch(Qpad, mask, params).value
        for i, g in enumerate(graphs):
            h = eventconv_forward(compute_quantities(g), params).value
            np.testing.assert_allclose(H[i], h, atol=1e-12)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_fast_path_matches_tape(self, variant):
        rng = np.random.default_rng(7)
        params = EventConvParams(QuantitySet.from_variant(variant), wdt=4, rng=rng)
        graphs = [random_graph(rng, int(rng.integers(0, 10))) for _ in range(15)]
        Qpad, mask = pad_quantity_batch(graphs)
        fast = signature_batch_np(Qpad, mask, params)
        tape = eventconv_forward_batch(Qpad, mask, params).value
        np.testing.assert_allclose(fast, tape, atol=1e-12)

    def test_padding_width_independent(self):
        rng = np.random.default_rng(8)
        params = EventConvParams(QuantitySet.from_variant("7q"), wdt=4, rng=rng)
        g = random_graph(rng, 4)
        Q = compute_quantities(g)
        for extra in (0, 3, 7):
            Qpad = np.zeros((1, Q.shape[0] + extra, 7))
            Qpad[0, : Q.shape[0]] = Q
            # garbage in padded slots must not leak through the mask
            Qpad[0, Q.shape[0]:] = 1e6
            mask = np.zeros((1, Q.shape[0] + extra, 1))
            mask[0, : Q.shape[0], 0] = 1.0
            h = signature_batch_np(Qpad, mask, params)
            np.testing.assert_allclose(
                h[0], eventconv_forward(Q, params).value, atol=1e-12)

    def test_gradient_through_signature(self):
        rng = np.random.default_rng(9)
        params = EventConvParams(QuantitySet.from_variant("7q"), wdt=4, rng=rng)
        feats = T.Parameter(random_graph(rng, 5).feature_matrix(), "feats")
        w = Tensor(rng.standard_normal(28))

        def forward():
            h = eventconv_forward(quantities_tape(feats), params)
            return T.tsum(T.mul(h, w))

        err = finite_diff_check(forward, [feats] + params.parameters())
        assert err < 1e-5


    @pytest.mark.parametrize("variant", ["3q", "7q"])
    def test_fused_signature_gradient(self, variant):
        # the fused op's analytic backward, to the weights and to a padded
        # quantity tensor, against central differences
        rng = np.random.default_rng(10)
        params = EventConvParams(QuantitySet.from_variant(variant), wdt=3, rng=rng)
        graphs = [random_graph(rng, int(rng.integers(0, 6))) for _ in range(4)]
        Qpad, mask = pad_quantity_batch(graphs)
        Q = T.Parameter(Qpad, "Q")
        w = Tensor(rng.standard_normal((4, params.quantities.count * 3)))

        def forward():
            return T.tsum(T.mul(eventconv_forward_batch(Q, mask, params), w))

        assert finite_diff_check(forward, [Q] + params.parameters()) < 1e-5
        # padded slots get no gradient
        finite_diff_check(forward, [Q])
        forward().backward()
        np.testing.assert_array_equal(Q.grad * (1.0 - mask), 0.0)

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 10))
def test_permutation_invariance_property(seed, n_neighbors):
    rng = np.random.default_rng(seed)
    params = EventConvParams(QuantitySet.from_variant("7q"), wdt=4, rng=rng)
    g = random_graph(rng, n_neighbors)
    feats = g.feature_matrix()
    perm = rng.permutation(feats.shape[0])
    Q = compute_quantities(g)
    Qp = compute_quantities(
        NormalizedGraph(tuple(feats[perm][0]), tuple(map(tuple, feats[perm][1:]))))
    np.testing.assert_allclose(
        eventconv_forward(Q, params).value,
        eventconv_forward(Qp, params).value, atol=1e-12)
