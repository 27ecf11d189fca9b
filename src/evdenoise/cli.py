"""Command-line entry points: synthesize scenes, label with frames, train,
filter streams, evaluate, benchmark, and report."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import bench
from .baselines import make_filter
from .config import ConfigError, RunConfig, parse_scene_file
from .events import EventFormatError, read_events, stream_from_arrays, write_events
from .eventconv import QuantitySet
from .graph import VolumeSpec
from .kogtl import (FrameFormatError, LabelingConfig, kogtl_pipeline,
                    read_frame_dir, write_pgm)
from .synth import build_training_set, generate, preset_scene
from .transformer import (CheckpointError, DenoiseModel, ModelFilter,
                          TrainConfig, load_model, save_model, train)


class UsageError(ValueError):
    """Raised when a command's arguments or inputs leave it nothing to run."""


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.override(seed=args.seed)
    return cfg


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_manifest(args, cfg: RunConfig, extra: dict = None) -> None:
    payload = {"command": args.command, "config": cfg.__dict__}
    if extra:
        payload.update(extra)
    blob = json.dumps(payload, sort_keys=True, default=str)
    payload["config_sha256"] = hashlib.sha256(blob.encode()).hexdigest()
    with open(_out_path(args, "manifest.json"), "w") as f:
        json.dump(payload, f, indent=2, default=str)


def _volume(cfg: RunConfig) -> VolumeSpec:
    return VolumeSpec(cfg.volume_L, cfg.volume_T_us, cfg.volume_N_max)


def _model_from_config(cfg: RunConfig) -> DenoiseModel:
    return DenoiseModel(volume=_volume(cfg),
                        quantities=QuantitySet.from_variant(cfg.variant),
                        msg_width=cfg.msg_width, heads=cfg.heads,
                        enc_layers=cfg.enc_layers, dec_layers=cfg.dec_layers,
                        ffn_mult=cfg.ffn_mult, seed=cfg.seed)


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    if args.scene:
        scene = parse_scene_file(args.scene)
    else:
        scene = preset_scene(args.light, seed=cfg.seed,
                             duration_us=args.duration_us)
    data = generate(scene)
    write_events(data.stream, _out_path(args, "events.csv"))
    frame_dir = _out_path(args, "frames")
    os.makedirs(frame_dir, exist_ok=True)
    for frame in data.frames:
        write_pgm(frame, os.path.join(frame_dir, f"frame_{frame.t_us:010d}.pgm"))
    _write_manifest(args, cfg, {
        "events": len(data.stream), "real": data.real_count,
        "noise": data.noise_count, "hot": data.hot_count,
        "frames": len(data.frames)})
    print(f"wrote {len(data.stream)} events "
          f"({data.real_count} real, {data.noise_count} noise) "
          f"and {len(data.frames)} frames to {args.out_dir}")
    return 0


def cmd_label(args) -> int:
    cfg = _load_run_config(args)
    stream = read_events(args.events, geometry=cfg.geometry())
    frames = read_frame_dir(args.frames)
    lcfg = LabelingConfig(B=args.proximity, start_offset_us=args.start_offset_us)
    labeled, reports = kogtl_pipeline(stream, frames, lcfg)
    write_events(labeled, _out_path(args, "labeled.csv"))
    done = sum(1 for r in reports if r is not None)
    _write_manifest(args, cfg, {"batches": len(reports), "aligned": done})
    print(f"labeled {len(labeled)} events over {done}/{len(reports)} frame batches")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    stream = read_events(args.events, geometry=cfg.geometry())
    model = _model_from_config(cfg)
    dataset = build_training_set(stream, model.volume, args.per_class, seed=cfg.seed)
    tc = TrainConfig(lr=cfg.lr, batch_size=cfg.batch_size,
                     epochs=cfg.epochs, seed=cfg.seed)
    history = train(dataset, model, tc)
    ckpt = _out_path(args, "model.ckpt")
    save_model(model, ckpt)
    _write_manifest(args, cfg, {"samples": len(dataset),
                                "final_loss": history[-1],
                                "checkpoint": ckpt})
    print(f"trained {cfg.variant} model for {cfg.epochs} epochs "
          f"(final loss {history[-1]:.4f}); checkpoint at {ckpt}")
    return 0


def _build_filter(args, cfg: RunConfig, geometry):
    if args.algo == "gnnt":
        if not args.model:
            raise UsageError("--model is required for --algo gnnt")
        return ModelFilter(load_model(args.model), geometry)
    kwargs = {}
    if args.algo == "ba":
        kwargs = {"T_us": cfg.filter_T_us, "k": cfg.ba_k}
    elif args.algo in ("nnb", "liu1", "liu2"):
        kwargs = {"T_us": cfg.filter_T_us}
    elif args.algo == "khodamoradi":
        kwargs = {"T_us": cfg.filter_T_us, "match_polarity": cfg.match_polarity}
    return make_filter(args.algo, geometry, **kwargs)


def cmd_filter(args) -> int:
    cfg = _load_run_config(args)
    geometry = cfg.geometry()
    stream = read_events(args.events, geometry=geometry)
    filt = _build_filter(args, cfg, geometry)
    if args.mode == "batch":
        decisions = filt.run_batch(stream)
    else:
        decisions = np.array([filt.step(e) for e in stream], dtype=np.int64)
    keep = decisions == 1
    kept = int(np.count_nonzero(keep))
    write_events(stream_from_arrays(*(c[keep] for c in stream.arrays()), geometry=geometry),
                 _out_path(args, "filtered.csv"))
    np.savetxt(_out_path(args, "decisions.txt"), decisions, fmt="%d")
    _write_manifest(args, cfg, {"algo": args.algo, "mode": args.mode,
                                "events": len(stream), "kept": kept})
    print(f"{args.algo}: kept {kept}/{len(stream)} events")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    stream = read_events(args.events, geometry=cfg.geometry())
    t, _, _, _, truth = stream.arrays()
    decisions = bench.read_decisions(args.decisions, len(stream))
    keep = (truth >= 0) & (decisions >= 0)
    if not keep.any():
        raise UsageError(f"{args.events}: no event is both labeled and decided")
    c = bench.confusion(decisions[keep], truth[keep])
    m = bench.metrics_from_counts(c)
    bench.write_metrics_csv(_out_path(args, "metrics.csv"), [(args.name, c, m)])
    windows = bench.windowed_eval(t[keep], decisions[keep], truth[keep],
                                  cfg.eval_interval_us)
    bench.write_series(_out_path(args, "metrics_series.dat"), windows)
    _write_manifest(args, cfg, {"events": len(stream),
                                "scored": int(keep.sum()),
                                "accuracy": m.accuracy})
    print(f"{args.name}: accuracy {m.accuracy:.4f} "
          f"(TP={c.TP} FP={c.FP} TN={c.TN} FN={c.FN})")
    return 0


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise UsageError(f"--repetitions must be >= 1, got {args.repetitions}")
    cfg = _load_run_config(args)
    geometry = cfg.geometry()
    stream = read_events(args.events, geometry=geometry)
    if len(stream) == 0:
        raise UsageError(f"{args.events}: no events to time")
    filt = _build_filter(args, cfg, geometry)
    report = bench.time_filter(filt, stream, args.mode,
                               repetitions=args.repetitions)
    lines = [f"algo {args.algo}", f"mode {report.mode}",
             f"events {report.total_events}",
             f"mean_us_per_event {report.mean_s * 1e6:.3f}",
             f"std_us_per_event {report.std_s * 1e6:.3f}",
             f"events_per_s {1.0 / report.mean_s:.1f}",
             f"total_wall_s {report.total_wall_s:.3f}"]
    if args.algo == "gnnt":
        est = bench.memory_estimate(filt.model)
        lines += [f"window_elements {est.window_elements}",
                  f"parameter_count {est.parameter_count}",
                  f"comparison_ratio {est.comparison_ratio:.1f}"]
    with open(_out_path(args, "bench.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    _write_manifest(args, cfg, {"algo": args.algo, "mode": args.mode})
    print("\n".join(lines))
    return 0


def cmd_report(args) -> int:
    cfg = _load_run_config(args)
    rows = []
    for path in args.metrics:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("name,"):
                    continue
                parts = line.split(",")
                c = bench.ConfusionCounts(*(int(v) for v in parts[1:5]))
                rows.append((parts[0], c, bench.metrics_from_counts(c)))
    bench.write_metrics_csv(_out_path(args, "report.csv"), rows)
    _write_manifest(args, cfg, {"rows": len(rows)})
    for name, c, m in rows:
        print(f"{name}: accuracy {m.accuracy:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="evdenoise",
        description="Event-camera denoising: synthesis, labeling, training, "
                    "filtering, and evaluation.")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--out-dir", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic labeled scene")
    s.add_argument("--scene", help="scene description file")
    s.add_argument("--light", default="light.750lux",
                   help="illumination preset when no scene file is given")
    s.add_argument("--duration-us", type=int, default=2_000_000)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("label", help="ground-truth label events against frames")
    s.add_argument("events")
    s.add_argument("frames", help="directory of PGM frames named by timestamp")
    s.add_argument("--proximity", type=int, default=2,
                   help="edge proximity window in pixels")
    s.add_argument("--start-offset-us", type=int, default=0)
    s.set_defaults(func=cmd_label)

    s = sub.add_parser("train", help="train the denoising classifier")
    s.add_argument("events", help="labeled event CSV")
    s.add_argument("--per-class", type=int, default=2000)
    s.set_defaults(func=cmd_train)

    algos = ["ba", "nnb", "liu1", "liu2", "khodamoradi", "yang", "gnnt"]
    s = sub.add_parser("filter", help="denoise an event stream")
    s.add_argument("events")
    s.add_argument("--algo", choices=algos, default="gnnt")
    s.add_argument("--mode", choices=["seq", "batch"], default="batch")
    s.add_argument("--model", help="model checkpoint (for --algo gnnt)")
    s.set_defaults(func=cmd_filter)

    s = sub.add_parser("eval", help="score decisions against ground truth")
    s.add_argument("events", help="labeled event CSV")
    s.add_argument("decisions", help="decisions file from `filter`")
    s.add_argument("--name", default="run")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("bench", help="time a filter over a stream")
    s.add_argument("events")
    s.add_argument("--algo", choices=algos, default="gnnt")
    s.add_argument("--mode", choices=["seq", "batch"], default="batch")
    s.add_argument("--model")
    s.add_argument("--repetitions", type=int, default=5)
    s.set_defaults(func=cmd_bench)

    s = sub.add_parser("report", help="merge metric CSVs into one table")
    s.add_argument("metrics", nargs="+")
    s.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, EventFormatError, CheckpointError,
            FrameFormatError, bench.DecisionFileError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
