"""Transformer classifier: attention invariants, forward-path agreement,
training, checkpoints, and streaming prediction."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evdenoise.nn.tensor as T
import evdenoise.transformer as tf
from evdenoise.events import (Event, EventStream, SensorGeometry,
                              stream_from_arrays)
from evdenoise.eventconv import (QuantitySet, compute_quantities,
                                 eventconv_forward, eventconv_forward_batch,
                                 quantities_padded)
from evdenoise.graph import NormalizedGraph, VolumeSpec
from evdenoise.nn.tensor import Parameter, Tensor, finite_diff_check
from evdenoise.synth import TrainingSet, generate, preset_scene
from evdenoise.transformer import (CheckpointError, DenoiseModel, MHAParams,
                                   ModelConfig, ModelFilter, TrainConfig,
                                   TrainingPlan,
                                   attention, decoder_forward,
                                   encoder_forward, load_model, multi_head,
                                   predict_stream, prenorm_attention,
                                   prenorm_ffn, save_model, train)

GEOM = SensorGeometry(32, 24)


def random_graph(rng, n_neighbors):
    pts = rng.uniform(0.05, 0.95, size=(n_neighbors, 3))
    return NormalizedGraph((0.5, 0.5, 0.95), tuple(map(tuple, pts)))


def random_stream(rng, n, geom=GEOM, t_max=500_000):
    t = np.sort(rng.integers(0, t_max, size=n))
    return EventStream(
        [Event(int(t[i]), int(rng.integers(0, geom.width)),
               int(rng.integers(0, geom.height)), int(rng.choice([-1, 1])))
         for i in range(n)], geom)


class TestAttention:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        Q = Tensor(rng.standard_normal((7, 4)))
        K = Tensor(rng.standard_normal((7, 4)))
        scores = T.scale(T.matmul(Q, T.transpose(K)), 0.5)
        A = T.softmax(scores, axis=-1).value
        np.testing.assert_allclose(A.sum(axis=-1), 1.0, atol=1e-12)

    def test_uniform_keys_give_mean_of_values(self):
        # identical keys -> uniform attention -> output is the value mean
        rng = np.random.default_rng(1)
        Q = rng.standard_normal((5, 4))
        K = np.ones((6, 4))
        V = rng.standard_normal((6, 4))
        out = attention(Q, K, V).value
        np.testing.assert_allclose(out, np.broadcast_to(V.mean(axis=0), (5, 4)),
                                   atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="attention"):
            attention(np.zeros((3, 4)), np.zeros((3, 5)), np.zeros((3, 5)))

    def test_multi_head_output_shape(self):
        rng = np.random.default_rng(2)
        cfg = ModelConfig()
        p = MHAParams(cfg, rng, "mha")
        out = multi_head(rng.standard_normal((7, 4)), p)
        assert out.value.shape == (7, 4)


class TestResidualStructure:
    def test_zero_weights_give_identity_encoder(self):
        # zeroing all sublayer output projections makes each layer a no-op
        rng = np.random.default_rng(3)
        model = DenoiseModel(seed=0)
        for lp in model.encoder:
            lp.mha.wo.value[:] = 0.0
            lp.ffn.w2.value[:] = 0.0
            lp.ffn.b2.value[:] = 0.0
        x = rng.standard_normal((7, 4))
        out = encoder_forward(Tensor(x), model.encoder).value
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_give_identity_decoder(self):
        rng = np.random.default_rng(4)
        model = DenoiseModel(seed=0)
        for lp in model.decoder:
            lp.mha1.wo.value[:] = 0.0
            lp.mha2.wo.value[:] = 0.0
            lp.ffn.w2.value[:] = 0.0
            lp.ffn.b2.value[:] = 0.0
        x = rng.standard_normal((7, 4))
        out = decoder_forward(Tensor(x), model.decoder).value
        np.testing.assert_array_equal(out, x)


def padded(graphs):
    """Padded (feats, mask) of a list of graphs, as classify_padded takes."""
    m_max = max(g.node_count for g in graphs)
    feats = np.zeros((len(graphs), m_max, 3))
    mask = np.zeros((len(graphs), m_max, 1))
    for i, g in enumerate(graphs):
        f = g.feature_matrix()
        feats[i, : f.shape[0]] = f
        mask[i, : f.shape[0], 0] = 1.0
    return feats, mask


def count_calls(monkeypatch, targets) -> dict:
    """Calls per attribute name to each (owner, attribute) of `targets`
    from now on, filled in as they happen."""
    calls = {}

    def count(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for owner, attr in targets:
        count(owner, attr)
    return calls


def perturb(model, rng, scale=0.3):
    """Move every weight off its initial value, so LayerNorm gains and
    biases are no longer ones and zeros."""
    for p in model.parameters():
        p.value = p.value + rng.normal(0.0, scale, size=p.value.shape)


FAST_PATH_CONFIGS = {
    "3q": dict(quantities=QuantitySet.from_variant("3q")),
    "heads1": dict(heads=1),
    "heads3": dict(heads=3),
    "layers1": dict(enc_layers=1, dec_layers=1),
    "layers3": dict(enc_layers=3, dec_layers=3),
    "ffn_mult2": dict(ffn_mult=2),
}


class TestForwardPaths:
    def test_fast_path_matches_tape(self):
        rng = np.random.default_rng(5)
        model = DenoiseModel(seed=1)
        graphs = [random_graph(rng, int(rng.integers(0, 10))) for _ in range(30)]
        tape = T.softmax(model.forward_batch(graphs), axis=-1).value
        fast = model.classify_padded(*padded(graphs))
        np.testing.assert_allclose(fast, tape, atol=1e-10)

    @pytest.mark.parametrize("kwargs", FAST_PATH_CONFIGS.values(),
                             ids=FAST_PATH_CONFIGS.keys())
    def test_fast_path_matches_tape_across_configs(self, kwargs):
        rng = np.random.default_rng(14)
        model = DenoiseModel(seed=3, **kwargs)
        perturb(model, rng)
        graphs = [random_graph(rng, int(rng.integers(0, 10))) for _ in range(40)]
        fast = model.classify_padded(*padded(graphs))
        np.testing.assert_allclose(fast, model.classify_graphs(graphs), atol=1e-10)

    def test_classify_matches_batch(self):
        # one graph's per-quantity signature, as a batch of one, through the
        # batched tape path against the padded batch
        rng = np.random.default_rng(6)
        model = DenoiseModel(seed=2)
        g = random_graph(rng, 5)
        probs_graphs = model.classify_graphs([g])[0]
        from evdenoise.eventconv import eventconv_forward
        sig = eventconv_forward(compute_quantities(g), model.eventconv)
        logits = model.logits_from_signature(T.reshape(sig, (1, -1)))
        probs_single = T.softmax(logits, axis=-1).value[0]
        np.testing.assert_allclose(probs_single, probs_graphs, atol=1e-12)

    def test_empty_batch(self):
        model = DenoiseModel(seed=0)
        probs = model.classify_padded(np.zeros((0, 11, 3)), np.zeros((0, 11, 1)))
        assert probs.shape == (0, 2)
        assert model.decide(probs).shape == (0,)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(7)
        model = DenoiseModel(seed=3)
        graphs = [random_graph(rng, 4) for _ in range(8)]
        p = model.classify_graphs(graphs)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0)

    def test_decide_tie_goes_to_noise(self):
        model = DenoiseModel(seed=0)
        assert model.decide(np.array([[0.5, 0.5]]))[0] == 0
        assert model.decide(np.array([[0.4, 0.6]]))[0] == 1
        assert model.decide(np.array([[0.6, 0.4]]))[0] == 0

    def test_end_to_end_gradient(self):
        rng = np.random.default_rng(8)
        model = DenoiseModel(heads=2, enc_layers=1, dec_layers=1, seed=4)
        feats = Parameter(random_graph(rng, 3).feature_matrix(), "feats")

        def forward():
            return T.cross_entropy(model.forward_tape_features(feats), 1)

        err = finite_diff_check(forward, [feats], max_coords_per_param=12)
        assert err < 1e-4


def decide_in_blocks(filt, stream, size):
    """One run_batch per successive block of `size` events of `stream`."""
    cols = stream.arrays()
    return np.concatenate([
        filt.run_batch(stream_from_arrays(*(c[lo: lo + size] for c in cols),
                                          geometry=stream.geometry))
        for lo in range(0, len(stream), size)])


SPLIT_GEOM = SensorGeometry(4, 3)


@functools.lru_cache(maxsize=None)
def split_model(n_max):
    """A small perturbed random-weight model with a neighbor cap of n_max,
    whose 3x3 window covers most of SPLIT_GEOM."""
    model = DenoiseModel(volume=VolumeSpec(L=1, T_us=3000, N_max=n_max),
                         heads=1, enc_layers=1, dec_layers=1, seed=n_max)
    perturb(model, np.random.default_rng(n_max))
    return model


@st.composite
def sorted_events(draw, t0=0):
    """Time-sorted events of SPLIT_GEOM: equal timestamps and gaps of
    exactly T_us are common, a None position repeats the last one (bursts
    at one pixel), and about one position in five is just off an edge."""
    W, H = SPLIT_GEOM.width, SPLIT_GEOM.height
    on = st.tuples(st.integers(0, W - 1), st.integers(0, H - 1))
    off = st.sampled_from([(-1, 1), (W, 1), (1, -1), (1, H)])
    rows = draw(st.lists(st.tuples(
        st.sampled_from([0, 0, 1, 500, 1000, 1500, 3000]),
        st.one_of(st.none(), on, on, on, off), st.sampled_from([-1, 1])),
        max_size=40))
    events, t, xy = [], t0, (0, 0)
    for step, pos, p in rows:
        t, xy = t + step, pos or xy
        events.append(Event(t, *xy, p))
    return events


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_batch_equals_step_fold_property(data):
    # the baseline filters' property test, for the model: step, run_batch,
    # step, run_batch, run_batch over one stream decide like one step fold
    model = split_model(data.draw(st.integers(0, 4)))
    events = data.draw(sorted_events())
    cuts = [0, *sorted(data.draw(st.lists(st.integers(0, len(events)),
                                          min_size=4, max_size=4))), len(events)]
    ref = ModelFilter(model, SPLIT_GEOM)
    want = [ref.step(e) for e in events]
    filt = ModelFilter(model, SPLIT_GEOM)
    got = []
    for k, (a, b) in enumerate(zip(cuts, cuts[1:])):
        if k in (0, 2):
            got += [filt.step(e) for e in events[a:b]]
        else:
            got += filt.run_batch(EventStream(events[a:b], SPLIT_GEOM)).tolist()
    assert got == want
    # the same state: both decide one more stream alike
    suffix = EventStream(data.draw(sorted_events(events[-1].t if events else 0)),
                         SPLIT_GEOM)
    assert filt.run_batch(suffix).tolist() == ref.run_batch(suffix).tolist()


class TestPredictStream:
    def test_seq_equals_batch_bitwise(self):
        rng = np.random.default_rng(9)
        model = DenoiseModel(seed=5)
        stream = random_stream(rng, 600)
        d_seq, s_seq = predict_stream(stream, model, mode="seq")
        d_batch, s_batch = predict_stream(stream, model, mode="batch")
        assert np.array_equal(d_seq, d_batch)
        assert s_seq == s_batch

    def test_chunk_size_does_not_change_decisions(self):
        # run_batch over blocks of any size decides as over the whole stream
        rng = np.random.default_rng(10)
        model = DenoiseModel(seed=6)
        stream = random_stream(rng, 300)
        d2, _ = predict_stream(stream, model, mode="batch")
        for block in (1, 7, 4096):
            d1 = decide_in_blocks(ModelFilter(model, stream.geometry), stream, block)
            assert np.array_equal(d1, d2)

    def test_chunks_within_the_time_window_equal_seq(self):
        # ~40 events per T_us window on a small sensor, so a window spans
        # many chunks of 1 and 7 events; out-of-bounds events sit in between
        rng = np.random.default_rng(16)
        model = DenoiseModel(volume=VolumeSpec(L=2, T_us=20_000, N_max=6), seed=4)
        perturb(model, rng, scale=0.1)
        geom = SensorGeometry(10, 8)
        events = list(random_stream(rng, 500, geom=geom, t_max=250_000))
        for i in (3, 100, 101, 377):
            e = events[i]
            events[i] = Event(e.t, (-1, geom.width)[i % 2], e.y, e.p)
        stream = EventStream(events, geom)
        d_seq, s_seq = predict_stream(stream, model, mode="seq")
        assert s_seq == [3, 100, 101, 377]
        assert 0 < d_seq[d_seq >= 0].mean() < 1
        for block in (1, 7, 4096):
            d = decide_in_blocks(ModelFilter(model, geom), stream, block)
            s = [int(i) for i in np.flatnonzero(d < 0)]
            np.testing.assert_array_equal(d, d_seq)
            assert s == s_seq

    def test_run_batch_rejects_timestamp_regression(self):
        # a shuffled stream would be decided against neighbors from its
        # future; batch mode names the first step back in time instead
        rng = np.random.default_rng(17)
        geom = SensorGeometry(10, 8)
        events = list(random_stream(rng, 300, geom=geom, t_max=100_000))
        shuffled = [events[i] for i in rng.permutation(len(events))]
        t = np.array([e.t for e in shuffled])
        i = int(np.flatnonzero(t[1:] < t[:-1])[0]) + 1
        model = DenoiseModel(seed=0)
        with pytest.raises(ValueError, match=f"timestamp regression at index {i} "
                                             f"\\({t[i]} after {t[i - 1]}\\)"):
            predict_stream(EventStream(shuffled, geom), model, mode="batch")
        # from the held events' last timestamp to the block's first, whether
        # run_batch or step saw them
        for first in ("run_batch", "step"):
            filt = ModelFilter(model, geom)
            if first == "step":
                [filt.step(e) for e in events[:200]]
            else:
                filt.run_batch(EventStream(events[:200], geom))
            late = EventStream([Event(events[199].t - 1, 1, 1, 1)], geom)
            with pytest.raises(ValueError, match="regression at index 0 "):
                filt.run_batch(late)

    def test_run_batch_holds_only_the_last_time_window(self):
        rng = np.random.default_rng(18)
        geom = SensorGeometry(10, 8)
        spec = VolumeSpec(L=2, T_us=20_000, N_max=6)
        stream = random_stream(rng, 1000, geom=geom, t_max=500_000)
        t = stream.arrays()[0]
        filt = ModelFilter(DenoiseModel(volume=spec, seed=0), geom)
        for block in np.array_split(np.arange(len(stream)), 50):
            filt.run_batch(stream_from_arrays(*(c[block] for c in stream.arrays()),
                                              geometry=geom))
            last = t[block[-1]]
            held = filt.tail[0]
            assert len(held) <= np.count_nonzero(t[: block[-1] + 1] >= last - spec.T_us)
            assert np.all(held >= last - spec.T_us)

    def test_out_of_bounds_skipped(self):
        model = DenoiseModel(seed=0)
        stream = EventStream([Event(0, 5, 5, 1), Event(1, 99, 5, 1)],
                             SensorGeometry(32, 24))
        d, skipped = predict_stream(stream, model, mode="batch")
        assert skipped == [1] and d[1] == -1 and d[0] in (0, 1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            predict_stream(random_stream(np.random.default_rng(0), 3),
                           DenoiseModel(), mode="nope")

    def test_prediction_stays_on_the_traced_call_path(self, monkeypatch):
        # the benchmark's per-layer metrics time prediction through these
        # module and class attributes; each mode must call its own
        calls = count_calls(monkeypatch, (
            (tf, "batch_neighbor_indices"), (tf, "features_from_batch_indices"),
            (tf, "quantities_padded"), (tf, "signature_batch_np"),
            (tf, "node_features_single"),
            (tf.RecencyStore, "query"), (tf.RecencyStore, "insert"),
            (DenoiseModel, "classify_padded"), (DenoiseModel, "decide")))
        model = DenoiseModel(seed=0)
        stream = random_stream(np.random.default_rng(24), 50)
        predict_stream(stream, model, mode="batch")
        assert calls == {"batch_neighbor_indices": 1, "features_from_batch_indices": 1,
                         "quantities_padded": 1, "signature_batch_np": 1,
                         "classify_padded": 1, "decide": 1}
        calls.clear()
        predict_stream(stream, model, mode="seq")
        assert calls == {"query": 50, "insert": 50, "node_features_single": 50,
                         "quantities_padded": 50, "signature_batch_np": 50,
                         "classify_padded": 50, "decide": 50}

    def test_batch_fast_path_working_set(self):
        # ~6,500 B/row: the fused decoder attention holds q, k, v and the
        # scores of all its heads at once; holding the attention weights
        # through the merge of the heads would add ~1,100 B/row
        data = generate(preset_scene("light.5lux", seed=3, duration_us=400_000))
        t, x, y, _, _ = data.stream.arrays()
        model = DenoiseModel(seed=0)
        rows = np.arange(4096)
        nbr = tf.batch_neighbor_indices(t, x, y, model.volume, data.stream.geometry,
                                        rows=rows)
        feats, mask = tf.features_from_batch_indices(t, x, y, nbr, model.volume,
                                                     rows=rows)
        plan = tf.InferencePlan(model)
        tracemalloc.start()
        try:
            model.classify_padded(feats, mask, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(rows) <= 6_800


class TestPlanStaleness:
    """No inference plan outlives a weight change: classify_padded and
    predict_stream build theirs from the weights of the moment."""

    @staticmethod
    def assert_fast_matches_tape(model, graphs):
        np.testing.assert_allclose(model.classify_padded(*padded(graphs)),
                                   model.classify_graphs(graphs), atol=1e-10)

    def test_weight_changes_reach_the_fast_path(self, tmp_path):
        rng = np.random.default_rng(15)
        model = DenoiseModel(seed=10)
        graphs = [random_graph(rng, int(rng.integers(0, 10))) for _ in range(20)]
        before = model.classify_padded(*padded(graphs))
        predict_stream(random_stream(rng, 200), model, mode="seq")

        train(TestTraining.toy_dataset(rng, n=32)[0], model,
              TrainConfig(epochs=1, batch_size=8, lr=0.01, seed=0))
        assert not np.allclose(model.classify_padded(*padded(graphs)), before)
        self.assert_fast_matches_tape(model, graphs)

        path = tmp_path / "model.ckpt"
        save_model(model, path)
        back = load_model(path)
        self.assert_fast_matches_tape(back, graphs)
        np.testing.assert_array_equal(back.classify_padded(*padded(graphs)),
                                      model.classify_padded(*padded(graphs)))

        model.head.b.value[:] = [2.0, -2.0]
        self.assert_fast_matches_tape(model, graphs)


class TestFusedOps:
    """The fused tape ops training runs on, against central differences
    and against the unfused tape ops (the oracle)."""

    @staticmethod
    def block_check(op, value, grad, params, rng):
        x = Parameter(rng.standard_normal((3, 2, value.gain.shape[-1])), "x")
        w = Tensor(rng.standard_normal(x.shape))

        def forward():
            return T.tsum(T.mul(op(x, value, grad), w))

        return finite_diff_check(forward, [x] + params)

    def test_attention_blocks_match_central_differences(self):
        rng = np.random.default_rng(20)
        model = DenoiseModel(heads=2, enc_layers=1, dec_layers=1, seed=11)
        perturb(model, rng)
        plan = TrainingPlan(model)
        enc, dec = model.encoder[0], model.decoder[0]
        enc_params = [*enc.ln1.parameters(), *enc.mha.parameters()]
        dec_params = [*dec.ln1.parameters(), *dec.mha1.parameters(),
                      *dec.ln2.parameters(), *dec.mha2.parameters()]
        for (op, value, grad), params in ((plan.blocks[0], enc_params),
                                          (plan.blocks[2], dec_params)):
            assert op is prenorm_attention
            assert self.block_check(op, value, grad, params, rng) < 1e-5

    def test_ffn_block_matches_central_differences(self):
        rng = np.random.default_rng(21)
        model = DenoiseModel(enc_layers=1, dec_layers=1, seed=12)
        perturb(model, rng)
        op, value, grad = TrainingPlan(model).blocks[1]
        assert op is prenorm_ffn
        lp = model.encoder[0]
        params = [*lp.ln2.parameters(), *lp.ffn.parameters()]
        assert self.block_check(op, value, grad, params, rng) < 1e-5

    @staticmethod
    def gradients(model, loss):
        model.zero_grad()
        loss.backward()
        return {p.name: p.grad.copy() for p in model.parameters()}

    @pytest.mark.parametrize("kwargs", [{}, *FAST_PATH_CONFIGS.values()],
                             ids=["default", *FAST_PATH_CONFIGS.keys()])
    def test_training_loss_and_gradients_match_unfused_tape(self, kwargs):
        rng = np.random.default_rng(22)
        model = DenoiseModel(seed=13, **kwargs)
        plan = TrainingPlan(model)
        perturb(model, rng)          # after the plan: it sees weight changes
        graphs = [random_graph(rng, int(rng.integers(0, 10))) for _ in range(24)]
        feats, mask = padded(graphs)
        Q = quantities_padded(feats, mask)
        labels = rng.integers(0, 2, size=len(graphs))

        fused = T.cross_entropy(
            plan.logits(eventconv_forward_batch(Q, mask, model.eventconv)), labels)
        got = self.gradients(model, fused)
        # the oracle: the per-quantity EventConv chain, graph by graph, and
        # the unfused transformer ops
        rows = [T.reshape(eventconv_forward(compute_quantities(g), model.eventconv),
                          (1, -1)) for g in graphs]
        unfused = T.cross_entropy(model.logits_from_signature(
            T.concat(rows, axis=0)), labels)
        want = self.gradients(model, unfused)

        assert abs(float(fused.value) - float(unfused.value)) <= 1e-10
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10,
                                       err_msg=name)

    def test_training_stays_on_the_traced_call_path(self, monkeypatch):
        # the benchmark's per-layer metrics time training through these
        # module attributes; one epoch must call each of them
        calls = count_calls(monkeypatch, (
            (tf, "train"), (T.Tensor, "backward"), (T, "adam_step"),
            (T, "cross_entropy"), (tf, "quantities_padded"),
            (tf, "eventconv_forward_batch")))
        data = TestTraining.toy_dataset(np.random.default_rng(23), n=24)[0]
        tf.train(data, DenoiseModel(seed=0),
                 TrainConfig(epochs=1, batch_size=8, seed=0))
        assert calls == {"train": 1, "backward": 3, "adam_step": 3,
                         "cross_entropy": 3, "quantities_padded": 1,
                         "eventconv_forward_batch": 3}

class TestTraining:
    @staticmethod
    def toy_dataset(rng, n=120):
        """A TrainingSet and its graphs for a separable toy task: "real"
        graphs are dense in time, "noise" sparse."""
        graphs, labels = [], []
        for i in range(n):
            label = i % 2
            if label == 1:
                ts = rng.uniform(0.85, 0.95, size=(6, 1))
            else:
                ts = rng.uniform(0.05, 0.35, size=(2, 1))
            xy = rng.uniform(0.3, 0.7, size=(ts.shape[0], 2))
            pts = np.hstack([xy, ts])
            graphs.append(NormalizedGraph((0.5, 0.5, 0.95), tuple(map(tuple, pts))))
            labels.append(label)
        return TrainingSet(*padded(graphs), np.array(labels)), graphs

    def test_loss_decreases_and_fits(self):
        rng = np.random.default_rng(11)
        data, graphs = self.toy_dataset(rng)
        model = DenoiseModel(seed=7)
        hist = train(data, model, TrainConfig(epochs=25, batch_size=16, seed=0))
        assert hist[-1] < hist[0] * 0.5
        pred = model.decide(model.classify_graphs(graphs))
        assert (pred == data.labels).mean() >= 0.95

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        data, _ = self.toy_dataset(rng, n=40)
        h1 = train(data, DenoiseModel(seed=8),
                   TrainConfig(epochs=3, batch_size=8, seed=1))
        h2 = train(data, DenoiseModel(seed=8),
                   TrainConfig(epochs=3, batch_size=8, seed=1))
        assert h1 == h2

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], DenoiseModel())


class TestCheckpoint:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        rng = np.random.default_rng(13)
        model = DenoiseModel(quantities=QuantitySet.from_variant("4q"),
                             volume=VolumeSpec(L=1, T_us=10_000, N_max=6),
                             seed=9)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        back = load_model(path)
        assert back.volume == model.volume
        assert back.quantities.selected == model.quantities.selected
        g = random_graph(rng, 5)
        np.testing.assert_array_equal(back.classify_graphs([g]),
                                      model.classify_graphs([g]))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"whatever")
        with pytest.raises(CheckpointError, match="checkpoint"):
            load_model(path)

    def test_rejects_truncated_and_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(DenoiseModel(seed=1), path)
        blob = path.read_bytes()
        # cut inside the magic, a length field, the header, and the last value
        for cut in (4, 10, 30, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                load_model(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(CheckpointError, match="trailing"):
            load_model(path)
        path.write_bytes(blob)
        load_model(path)

    def test_rejects_the_removed_single_token_layout(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(DenoiseModel(seed=1), path)
        blob = path.read_bytes()
        # the v1 header still carries the key, always false
        assert blob.count(b'"single_token": false') == 1
        path.write_bytes(blob.replace(b'"single_token": false', b'"single_token": true '))
        with pytest.raises(CheckpointError, match="single-token"):
            load_model(path)
