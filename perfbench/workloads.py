"""The benchmark's three workloads, their timed operations and output checks.

Every round of every workload runs the same nine operations on that
workload's own inputs: KoGTL-label a 64x48 light.5lux scene from its events
CSV and PGM frames (``label``), build a training set from the labels and train
a fixed-seed model for a fixed number of epochs (``train``), and decide every
event of the workload's stream with the graph-plus-transformer model
(``gnnt``) and the six baseline filters.  The model that decides is the one
set-up trains, on the KoGTL labels of a scene of its own, so that deciding
does not depend on the small timed ``train``.  The workloads differ in the stream
and in how it is decided:

* ``offline-346-5lux`` reads a recorded DAVIS346-sized stream from a binary
  file and decides it in batch mode with the model set-up trained.  Batch
  neighbor search, EventConv, the transformer fast path, the binary reader
  and sensor-sized timestamp maps do the work; batch neighbor search sets
  peak memory.
* ``online-64-750lux`` decides a small bursty in-memory stream strictly one
  event at a time (sequential `predict_stream`, a `step()` fold per
  baseline) with the model set-up trained.  Recency-store queries and
  batch-of-1 model calls do the work; batch neighbor search does none.
* ``label-train-64-5lux`` is the dataset-production path: its labeled scene
  is the decided stream, read back from the labeled CSV and decided in batch
  mode with the model set-up trained.  KoGTL, the CSV reader and writer, the
  training-graph build and training take the largest share.

All inputs derive from the workload seed.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from evdenoise import baselines, events, graph, kogtl, synth
from evdenoise import transformer as tf
from evdenoise.nn import tensor as nn_tensor

from measure import Checks, median, summarize
from spans import Tracer, current_rss_bytes, peak_rss_bytes

clock = time.perf_counter

ALGOS = ("ba", "nnb", "liu1", "liu2", "khodamoradi", "yang")
DECIDERS = ("gnnt",) + ALGOS
SPEC = graph.VolumeSpec()            # the model's default local volume
SENSOR_346 = events.SensorGeometry(346, 260)
HELD_OUT_OFFSET = 1_000_003          # held-out seed = workload seed + offset
TIE_MARGIN = 1e-10                   # the release gate's oracle tolerance


@dataclass(frozen=True)
class Sizes:
    """Input sizes and fixed amounts of work of one run."""

    # Rounds are kept short (~1 s).  On a shared 2-core Xeon VM a core's speed
    # switches, over seconds, between two levels about 1.45x apart, so the
    # run-to-run spread of a median is set mostly by how many samples each
    # operation gets per run.
    offline_us: int = 50_000         # 346x260 light.5lux: ~10k events
    online_us: int = 100_000         # 64x48 light.750lux: ~700 events
    online_folds: int = 3            # step folds per baseline sample
    label_us: int = 120_000          # labeled 64x48 light.5lux: ~1.4k events
    label_train_us: int = 250_000    # label-train's scene: ~3k events, 13 frames
    label_folds: int = 4             # read + run_batch passes per baseline sample
    per_class: int = 50              # training graphs per class
    epochs: int = 2
    model_us: int = 300_000          # the set-up model's scene: ~3.5k events
    model_per_class: int = 200
    model_epochs: int = 4
    oracle_sample: int = 256
    prefix_events: int = 400
    setup_reps: int = 3              # set-up runs at least this often ...
    setup_min_s: float = 1.5         # ... and until this much time is spent
    setup_max_reps: int = 15

    def held_out(self) -> "Sizes":
        """Smaller scenes for the checks on the held-out seed."""
        return replace(self, offline_us=self.offline_us // 4,
                       online_us=self.online_us // 4,
                       label_us=self.label_us // 2,
                       label_train_us=self.label_train_us // 4,
                       per_class=self.per_class // 2,
                       oracle_sample=self.oracle_sample // 4,
                       prefix_events=self.prefix_events // 4)


FULL = Sizes()


def sub_seed(seed: int, k: int) -> int:
    """Seed of the k-th generated scene of a run."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def held_out_seed(seed: int) -> int:
    return seed + HELD_OUT_OFFSET


# -- steps shared by the workloads ------------------------------------------------

def label_scene(seed: int, duration_us: int, workdir: Path, k: int = 9) -> dict:
    """Generate a 64x48 light.5lux scene (the run's k-th) and write it as the
    sensor delivers it: an unlabeled events CSV and one PGM per frame, named
    by timestamp."""
    data = synth.generate(synth.preset_scene("light.5lux", seed=sub_seed(seed, k),
                                             duration_us=duration_us))
    frame_dir = workdir / "label_scene" / "frames"
    frame_dir.mkdir(parents=True, exist_ok=True)
    t, x, y, p, _ = data.stream.arrays()
    raw = events.stream_from_arrays(t, x, y, p, None, data.stream.geometry)
    csv = workdir / "label_scene" / "events.csv"
    events.write_events(raw, csv)
    for frame in data.frames:
        kogtl.write_pgm(frame, frame_dir / f"frame_{frame.t_us:010d}.pgm")
    return {"label_data": data, "csv": csv, "frame_dir": frame_dir,
            "out_csv": workdir / "labeled.csv"}


def label_files(state: dict):
    """Read the events CSV and the frames, KoGTL-label, write the labeled CSV."""
    stream = events.read_events(state["csv"],
                                geometry=state["label_data"].stream.geometry)
    frames = kogtl.read_frame_dir(state["frame_dir"])
    labeled, reports = kogtl.kogtl_pipeline(stream, frames)
    events.write_events(labeled, state["out_csv"])
    return labeled, reports, frames[0].t_us


def train_model(labeled: events.EventStream, per_class: int, epochs: int, seed: int):
    """Fixed-seed model trained on a balanced sample of the labeled stream;
    returns the model and the graph-epochs it trained."""
    dataset = synth.build_training_set(labeled, SPEC, per_class, seed=seed)
    model = tf.DenoiseModel(seed=0)
    tf.train(dataset, model,
             tf.TrainConfig(epochs=epochs, lr=0.003, batch_size=32, seed=0))
    return model, len(dataset) * epochs


def setup_model(seed: int, sizes: Sizes, workdir: Path):
    """The fixed-seed model offline and online decide with: trained on the
    KoGTL labels of a 64x48 light.5lux scene of its own."""
    state = label_scene(seed, sizes.model_us, workdir / "model", k=8)
    labeled = label_files(state)[0]
    return train_model(labeled, sizes.model_per_class, sizes.model_epochs, seed)[0]


def params_vector(model) -> np.ndarray:
    return np.concatenate([p.value.ravel() for p in model.parameters()])


def run_batch(algo: str, stream, tracer: Optional[Tracer]) -> np.ndarray:
    filt = baselines.make_filter(algo, stream.geometry)
    run = filt.run_batch if tracer is None \
        else tracer.wrap(filt.run_batch, f"baselines.{algo}.run_batch")
    return run(stream)


def step_fold(algo: str, stream, tracer: Optional[Tracer]) -> np.ndarray:
    filt = baselines.make_filter(algo, stream.geometry)
    step = filt.step if tracer is None \
        else tracer.wrap(filt.step, f"baselines.{algo}.step")
    return np.array([step(e) for e in stream], dtype=np.int64)


def share_equal(predicted, truth) -> float:
    """Share of events with a known prediction and a known truth label on
    which the two agree (-1 marks unknown or skipped)."""
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    scored = (predicted >= 0) & (truth >= 0)
    return float(np.mean(predicted[scored] == truth[scored]))


def describe(data: synth.GeneratedDataset) -> Dict[str, object]:
    """Input properties a change may depend on: size, noise and hot-pixel
    shares, neighbors per graph and the densest millisecond."""
    t, x, y, _, lab = data.stream.arrays()
    nbr = graph.batch_neighbor_indices(t, x, y, SPEC, data.stream.geometry)
    per_graph = (nbr >= 0).sum(axis=1)
    n = len(data.stream)
    return {
        "events": n,
        "noise_share": float(np.mean(lab == events.LABEL_NOISE)),
        "hot_share": data.hot_count / n,
        "neighbors_hist": np.bincount(per_graph, minlength=SPEC.N_max + 1).tolist(),
        "neighbors_mean": float(per_graph.mean()),
        "burst_max_per_ms": int(np.bincount(t // 1000).max()),
    }


# -- checks ---------------------------------------------------------------------

def check_oracle(stream, decisions, model, checks: Checks, count: int, seed: int):
    """Batch decisions at a sample of events against the independent path:
    brute-force neighbor scan, graph normalization, tape forward."""
    arrays = stream.arrays()
    live = np.flatnonzero([stream.geometry.contains(e.x, e.y) for e in stream])
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(live, min(count, len(live)), replace=False))
    graphs = [graph.normalize_graph(graph.build_graph(
        stream[int(i)], graph.brute_force_neighbors(arrays, int(i), SPEC), SPEC), SPEC)
        for i in idx]
    probs = model.classify_graphs(graphs)
    for i, pr in zip(idx, probs):
        if abs(pr[1] - 0.5) <= TIE_MARGIN:
            checks.tie()
        else:
            checks.check(int(pr[1] > pr[0]) == decisions[i], f"oracle event {i}")


def check_prefix(stream, ref: dict, model, checks: Checks, count: int,
                 tracer: Optional[Tracer]):
    """Decisions are causal: deciding a prefix one event at a time gives the
    whole-stream batch decisions on that prefix, for every decider."""
    prefix = events.EventStream(stream.events[:count], stream.geometry)
    seq, _ = tf.predict_stream(prefix, model, mode="seq")
    checks.check(np.array_equal(seq, ref["gnnt"][:count]), "gnnt seq prefix")
    for algo in ALGOS:
        fold = step_fold(algo, prefix, tracer)
        checks.check(np.array_equal(fold, ref[algo][:count]), f"{algo} step prefix")


def check_labels(state: dict, checks: Checks):
    """The labeled stream survives CSV and binary write -> read exactly, and
    KoGTL labels every event from the first frame on."""
    labeled = state["labeled"]
    geometry = labeled.geometry
    back = events.read_events(state["out_csv"], geometry=geometry)
    checks.check(back == labeled, "labeled CSV write -> read round trip")
    bin_path = state["workdir"] / "labeled.bin"
    events.write_events(labeled, bin_path, format="bin")
    back = events.read_events(bin_path, format="bin", geometry=geometry)
    checks.check(back == labeled, "labeled binary write -> read round trip")
    t, _, _, _, lab = labeled.arrays()
    missing = int(np.count_nonzero((t >= state["first_frame_t"]) & (lab < 0)))
    checks.check(missing == 0, f"{missing} post-first-frame events unlabeled")


# -- workloads ----------------------------------------------------------------------

Op = Tuple[str, Callable[[], Tuple[float, object]]]


class Workload:
    """Set-up, the operations of one round, and the output checks.

    `setup` returns the run state.  `ops(state)` lists the round's
    operations, each returning (units of work, output).  `check` compares the
    reference round's outputs with independent paths.  Operations that wrap
    callables locally use the tracer in ``state["tracer"]`` when one is set.
    """

    name = ""

    def setup(self, seed: int, sizes: Sizes, workdir: Path, model=None) -> dict:
        """Generate and write the inputs; `model`, when given, replaces the
        fixed-seed model set-up would train."""
        raise NotImplementedError

    def decide(self, state: dict, algo: str) -> Tuple[int, np.ndarray]:
        raise NotImplementedError

    def check(self, state: dict, ref: dict, checks: Checks) -> None:
        check_labels(state, checks)

    def ops(self, state: dict) -> List[Op]:
        def label():
            labeled, reports, first_t = label_files(state)
            state.update(labeled=labeled, reports=reports, first_frame_t=first_t)
            return len(labeled), labeled.arrays()[4]

        def training():
            sizes = state["sizes"]
            model, graph_epochs = train_model(state["labeled"], sizes.per_class,
                                              sizes.epochs, state["seed"])
            return graph_epochs, params_vector(model)

        def decider(algo):
            return lambda: self.decide(state, algo)

        return [("label", label), ("train", training)] + \
            [(algo, decider(algo)) for algo in DECIDERS]

    def _state(self, seed, sizes, workdir, data, label_us, model) -> dict:
        state = {"seed": seed, "sizes": sizes, "workdir": workdir,
                 "tracer": None, "data": data}
        state.update(label_scene(seed, label_us, workdir))
        state["model"] = setup_model(seed, sizes, workdir) if model is None else model
        return state


class Offline(Workload):
    name = "offline-346-5lux"

    def setup(self, seed, sizes, workdir, model=None):
        data = synth.generate(synth.preset_scene(
            "light.5lux", seed=sub_seed(seed, 0), duration_us=sizes.offline_us,
            geometry=SENSOR_346))
        path = workdir / "offline.bin"
        events.write_events(data.stream, path, format="bin")
        state = self._state(seed, sizes, workdir, data, sizes.label_us, model)
        state["path"] = path
        return state

    def decide(self, state, algo):
        stream = events.read_events(state["path"], format="bin", geometry=SENSOR_346)
        if algo == "gnnt":
            d, _ = tf.predict_stream(stream, state["model"], mode="batch")
        else:
            d = run_batch(algo, stream, state["tracer"])
        return len(stream), d

    def check(self, state, ref, checks):
        super().check(state, ref, checks)
        sizes = state["sizes"]
        stream = events.read_events(state["path"], format="bin", geometry=SENSOR_346)
        checks.check(stream == state["data"].stream, "binary read == generated stream")
        check_oracle(stream, ref["gnnt"], state["model"], checks,
                     sizes.oracle_sample, state["seed"])
        check_prefix(stream, ref, state["model"], checks, sizes.prefix_events,
                     state["tracer"])


class Online(Workload):
    name = "online-64-750lux"

    def setup(self, seed, sizes, workdir, model=None):
        data = synth.generate(synth.preset_scene(
            "light.750lux", seed=sub_seed(seed, 1), duration_us=sizes.online_us))
        return self._state(seed, sizes, workdir, data, sizes.label_us, model)

    def decide(self, state, algo):
        stream = state["data"].stream
        if algo == "gnnt":
            d, _ = tf.predict_stream(stream, state["model"], mode="seq")
            return len(stream), d
        # a fold over this small stream takes a few ms; several per sample
        # keep a sample long against the clock's and the host's jitter
        folds = state["sizes"].online_folds
        for _ in range(folds):
            d = step_fold(algo, stream, state["tracer"])
        return len(stream) * folds, d

    def check(self, state, ref, checks):
        super().check(state, ref, checks)
        stream, model = state["data"].stream, state["model"]
        batch, _ = tf.predict_stream(stream, model, mode="batch")
        checks.check(np.array_equal(batch, ref["gnnt"]), "gnnt seq == batch")
        for algo in ALGOS:
            rb = run_batch(algo, stream, state["tracer"])
            checks.check(np.array_equal(rb, ref[algo]), f"{algo} step fold == run_batch")


class LabelTrain(Workload):
    name = "label-train-64-5lux"

    def setup(self, seed, sizes, workdir, model=None):
        state = self._state(seed, sizes, workdir, None, sizes.label_train_us, model)
        state["data"] = state["label_data"]
        return state

    def decide(self, state, algo):
        def read():
            return events.read_events(state["out_csv"],
                                      geometry=state["data"].stream.geometry)

        if algo == "gnnt":
            stream = read()
            d, _ = tf.predict_stream(stream, state["model"], mode="batch")
            return len(stream), d
        # one pass over this small stream takes ~45 ms on a 2-core Xeon VM,
        # short enough that the host's sub-second speed changes scatter
        # single-pass samples by +-30%; several passes per sample keep the
        # run's median steady
        folds = state["sizes"].label_folds
        for _ in range(folds):
            stream = read()
            d = run_batch(algo, stream, state["tracer"])
        return len(stream) * folds, d

    def check(self, state, ref, checks):
        super().check(state, ref, checks)
        check_prefix(state["labeled"], ref, state["model"], checks,
                     state["sizes"].prefix_events, state["tracer"])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Offline(), Online(), LabelTrain())}


# -- measurement --------------------------------------------------------------------

def run_round(ops: List[Op]):
    """Each operation once, in order: {name: (units, seconds)}, {name: output}."""
    times, outs = {}, {}
    for name, fn in ops:
        # each operation pays for collecting its own garbage, not the last one's
        gc.collect()
        t0 = clock()
        units, out = fn()
        times[name] = (units, clock() - t0)
        outs[name] = out
    return times, outs


def same_output(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def timed_rounds(ops: List[Op], seconds: float, checks: Checks):
    """Repeat rounds until `seconds` have passed (at least one round).
    Returns per-operation throughput samples (units per second) and the
    first round's outputs, which every later round must reproduce."""
    samples: Dict[str, List[float]] = {name: [] for name, _ in ops}
    ref = None
    deadline = clock() + seconds
    while True:
        times, outs = run_round(ops)
        for name, (units, dt) in times.items():
            samples[name].append(units / dt)
            if ref is not None:
                checks.check(same_output(outs[name], ref[name]),
                             f"{name} output differs between rounds")
        if ref is None:
            ref = outs
        if clock() >= deadline:
            return samples, ref


TRACE_PAIRS = 5                      # untraced + traced rounds of a traced run

TRACE_TARGETS = [
    # (owner, attribute, span name): each is looked up there by its callers
    (events, "read_events", "events.read_events"),
    (events, "write_events", "events.write_events"),
    (events.EventStream, "arrays", "events.arrays"),
    (tf, "batch_neighbor_indices", "graph.batch_neighbor_indices"),
    (tf, "features_from_batch_indices", "graph.features_from_batch_indices"),
    (tf, "node_features_single", "graph.node_features_single"),
    (graph.RecencyStore, "query", "graph.recency_query"),
    (graph.RecencyStore, "insert", "graph.recency_insert"),
    (tf, "quantities_padded", "eventconv.quantities_padded"),
    (tf, "signature_batch_np", "eventconv.signature_batch_np"),
    (tf, "eventconv_forward_batch", "eventconv.forward_batch"),
    (tf.DenoiseModel, "classify_padded", "transformer.classify_padded"),
    (tf.DenoiseModel, "decide", "transformer.decide"),
    (tf, "predict_stream", "transformer.predict_stream"),
    (tf, "train", "transformer.train"),
    (nn_tensor.Tensor, "backward", "nn.tensor.backward"),
    (nn_tensor, "adam_step", "nn.tensor.adam_step"),
    (nn_tensor, "cross_entropy", "nn.tensor.cross_entropy"),
    (kogtl, "kogtl_pipeline", "kogtl.kogtl_pipeline"),
    (kogtl, "read_frame_dir", "kogtl.read_frame_dir"),
    (kogtl, "synchronize", "kogtl.synchronize"),
    (kogtl, "canny_edges", "kogtl.canny_edges"),
    (kogtl, "icp_align", "kogtl.icp_align"),
    (kogtl, "label_events", "kogtl.label_events"),
    (synth, "generate", "synth.generate"),
    (synth, "build_training_set", "synth.build_training_set"),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name in TRACE_TARGETS:
        tracer.patch(owner, attr, name,
                     probe_rss=(name == "graph.batch_neighbor_indices"))


def in_child(fn: Callable[[], dict]) -> dict:
    """Run fn() in a forked child and return its JSON-able result.

    The child's high-water RSS starts at the parent's RSS at the fork, so
    peak memory measured there excludes set-up.  BLAS runs single-threaded,
    so no thread is alive across the fork.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code, payload = 0, b""
        try:
            payload = json.dumps(fn()).encode()
        except BaseException:
            traceback.print_exc()
            code = 1
        try:
            with os.fdopen(w, "wb") as f:
                f.write(payload)
        finally:
            os._exit(code)
    os.close(w)
    try:
        with os.fdopen(r, "rb") as f:
            data = f.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError("workload process failed")
    return json.loads(data)


def _held_out_checks(work: Workload, state: dict, checks: Checks) -> int:
    """Every check once more on smaller inputs from the held-out seed."""
    seed = held_out_seed(state["seed"])
    workdir = state["workdir"] / "held_out"
    workdir.mkdir(parents=True, exist_ok=True)
    held = work.setup(seed, state["sizes"].held_out(), workdir,
                      model=state.get("model"))
    _, ref = run_round(work.ops(held))
    work.check(held, ref, checks)
    return seed


def timed_setups(work: Workload, seed: int, sizes: Sizes, workdir: Path,
                 once: bool):
    """Set up `sizes.setup_reps` times and on until `sizes.setup_min_s` is
    spent (at most `sizes.setup_max_reps`); returns the last state and the
    duration of each set-up."""
    durations: List[float] = []
    while True:
        t0 = clock()
        state = work.setup(seed, sizes, workdir)
        durations.append(clock() - t0)
        if once or len(durations) >= sizes.setup_max_reps or (
                len(durations) >= sizes.setup_reps
                and sum(durations) >= sizes.setup_min_s):
            return state, durations


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes = FULL) -> dict:
    """One benchmark run: set-up, then in a child process the held-out
    checks (which also warm caches and finish lazy initialization), the
    timed rounds (or alternating untraced and traced rounds) and the checks.
    Returns the raw record that `end_to_end` and `layer_metrics` summarize."""
    work = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    try:
        state, setup_s = timed_setups(work, seed, sizes, workdir, once=trace)
    finally:
        if tracer is not None:
            tracer.restore()

    def measured() -> dict:
        checks = Checks()
        rss0 = current_rss_bytes()
        out = {"held_out_seed": _held_out_checks(work, state, checks)}
        ops = work.ops(state)
        # set-up's objects live on through the run; left tracked, each
        # collection would walk them all, a cost that is the benchmark's own
        gc.collect()
        gc.freeze()
        if trace:
            # alternate untraced and traced rounds: the overhead is the
            # difference of their medians, so one slow round cannot set it
            untraced, traced = [], []
            for _ in range(TRACE_PAIRS):
                t0 = clock()
                _, ref = run_round(ops)
                untraced.append(clock() - t0)
                install(tracer)
                state["tracer"] = tracer
                try:
                    t0 = clock()
                    _, outs = run_round(ops)
                    traced.append(clock() - t0)
                    if len(traced) == TRACE_PAIRS:
                        work.check(state, ref, checks)
                finally:
                    tracer.restore()
                    state["tracer"] = None
                for op_name, value in outs.items():
                    checks.check(same_output(value, ref[op_name]),
                                 f"traced {op_name} differs from untraced")
            out["trace"] = {"untraced_round_s": median(untraced),
                            "traced_round_s": median(traced),
                            "spans": len(tracer.names)}
            out["layers"] = layer_metrics(tracer, state)
        else:
            out["samples"], ref = timed_rounds(ops, seconds, checks)
            out["peak_rss_mb"] = (peak_rss_bytes() - rss0) / 2 ** 20
            work.check(state, ref, checks)
        out["accuracy"] = share_equal(ref["gnnt"], state["data"].stream.arrays()[4])
        out["agreement"] = share_equal(ref["label"],
                                       state["label_data"].stream.arrays()[4])
        out["input"] = describe(state["data"])
        out["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                         "ties": checks.ties, "failures": checks.failures}
        return out

    try:
        result = in_child(measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    return result


# -- metric assembly -----------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{algo}_ev_s": "ev/s" for algo in DECIDERS},
    "gnnt_accuracy": "share",
    "peak_rss_mb": "MB",
    "label_ev_s": "ev/s",
    "label_agreement": "share",
    "train_samples_s": "graph-epochs/s",
}

_SAMPLE_METRIC = {**{algo: f"{algo}_ev_s" for algo in DECIDERS},
                  "label": "label_ev_s", "train": "train_samples_s"}


def end_to_end(result: dict) -> Tuple[Dict[str, float], Dict[str, dict]]:
    """Metric values (medians over the run's samples) and their summaries."""
    summaries = {"setup_s": summarize(result["setup_s"])}
    values = {"setup_s": median(result["setup_s"]),
              "gnnt_accuracy": result["accuracy"],
              "label_agreement": result["agreement"],
              "peak_rss_mb": result["peak_rss_mb"]}
    for op_name, samples in result["samples"].items():
        metric = _SAMPLE_METRIC[op_name]
        summaries[metric] = summarize(samples, higher_is_better=True)
        values[metric] = median(samples)
    return {k: values[k] for k in END_TO_END_UNITS}, summaries


LAYER_SPANS = [
    "events.read_events", "events.arrays", "events.write_events",
    "graph.batch_neighbor_indices", "graph.features_from_batch_indices",
    "graph.recency_query", "graph.recency_insert", "graph.node_features_single",
    "eventconv.quantities_padded", "eventconv.signature_batch_np",
    "eventconv.forward_batch", "transformer.classify_padded",
    "transformer.decide", "transformer.train", "nn.tensor.backward",
    "nn.tensor.adam_step", "nn.tensor.cross_entropy",
    *[f"baselines.{algo}.run_batch" for algo in ALGOS],
    "kogtl.read_frame_dir", "kogtl.synchronize", "kogtl.canny_edges",
    "kogtl.icp_align", "kogtl.label_events",
    "synth.generate", "synth.build_training_set",
]
LAYER_CALLS = ["events.arrays", "graph.recency_query",
               "transformer.classify_padded", "kogtl.icp_align"]
LAYER_PCTS = [("graph.recency_query", 99), ("transformer.classify_padded", 50),
              ("transformer.classify_padded", 99),
              *[(f"baselines.{algo}.step", 99) for algo in ALGOS]]


def layer_metrics(tracer: Tracer, state: dict) -> Dict[str, float]:
    """Per-layer figures over every traced span of the run (set-up, the
    traced rounds and the checks): self seconds, call counts, per-call percentiles,
    ICP work counts and the sequential per-event latency."""
    table = tracer.table()
    out: Dict[str, float] = {}
    for name in LAYER_SPANS:
        out[f"{name}.s"] = table[name]["self_s"] if name in table else 0.0
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = table[name]["calls"] if name in table else 0
    for name, pct in LAYER_PCTS:
        us = table[name]["us"] if name in table else np.zeros(1)
        out[f"{name}.p{pct}_us"] = float(np.percentile(us, pct))
    out["graph.batch_neighbor_indices.rss_mb"] = \
        tracer.rss_growth.get("graph.batch_neighbor_indices", 0.0) / 2 ** 20
    reports = [r for r in state["reports"] if r is not None]
    out["kogtl.icp_align.iterations"] = \
        float(np.mean([r.iterations for r in reports])) if reports else 0.0
    out["kogtl.icp_align.converged_ratio"] = \
        float(np.mean([r.converged for r in reports])) if reports else 0.0
    # one value per event of a sequential predict_stream: from its store
    # query to its store insert
    per_event = tracer.children_pairs("transformer.predict_stream",
                                      "graph.recency_query", "graph.recency_insert")
    if len(per_event) == 0:
        per_event = np.zeros(1)
    out["gnnt.seq_event.p50_us"] = float(np.percentile(per_event, 50))
    out["gnnt.seq_event.p99_us"] = float(np.percentile(per_event, 99))
    return out
