"""End-to-end command-line workflow on a small synthetic scene."""

import json
import os

import numpy as np
import pytest

from evdenoise.cli import main
from evdenoise.events import SensorGeometry, read_events, write_events
from evdenoise.transformer import ModelFilter, load_model

SCENE = """\
width = 32
height = 24
duration_us = 400000
seed = 11
jitter_us = 500
noise_rate_hz = 2.0
edge = vertical 4 50 1
edge = horizontal 6 40 -1
hot_pixel = 20 20 200
"""

RUN_CFG = """\
sensor_width = 32
sensor_height = 24
epochs = 2
batch_size = 32
volume_T_us = 25000
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared pipeline artifacts: synth -> train -> filter."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.cfg"
    scene.write_text(SCENE)
    cfg = root / "run.cfg"
    cfg.write_text(RUN_CFG)

    out = root / "synth"
    assert main(["--out-dir", str(out), "synth", "--scene", str(scene)]) == 0
    events = out / "events.csv"

    train_out = root / "train"
    assert main(["--config", str(cfg), "--out-dir", str(train_out),
                 "train", str(events), "--per-class", "60"]) == 0

    filt_out = root / "filter"
    assert main(["--config", str(cfg), "--out-dir", str(filt_out),
                 "filter", str(events), "--algo", "gnnt",
                 "--model", str(train_out / "model.ckpt")]) == 0
    return {"root": root, "cfg": cfg, "scene": scene, "events": events,
            "train": train_out, "filter": filt_out}


def test_synth_outputs(workspace):
    out = workspace["events"].parent
    assert workspace["events"].exists()
    frames = sorted(os.listdir(out / "frames"))
    assert frames and frames[0].endswith(".pgm")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["events"] == manifest["real"] + manifest["noise"]
    assert "config_sha256" in manifest


def test_train_outputs(workspace):
    manifest = json.loads((workspace["train"] / "manifest.json").read_text())
    assert manifest["samples"] == 120
    assert np.isfinite(manifest["final_loss"])
    assert (workspace["train"] / "model.ckpt").exists()


def test_filter_outputs(workspace):
    decisions = np.loadtxt(workspace["filter"] / "decisions.txt", dtype=np.int64)
    manifest = json.loads((workspace["filter"] / "manifest.json").read_text())
    assert len(decisions) == manifest["events"]
    assert manifest["kept"] == int((decisions == 1).sum())
    assert (workspace["filter"] / "filtered.csv").exists()


@pytest.mark.parametrize("algo", ["gnnt", "ba", "nnb", "liu1", "liu2",
                                  "khodamoradi", "yang"])
def test_filter_seq_matches_batch(workspace, algo):
    decisions = {}
    for mode in ("seq", "batch"):
        out = workspace["root"] / f"filter_{algo}_{mode}"
        assert main(["--config", str(workspace["cfg"]), "--out-dir", str(out),
                     "filter", str(workspace["events"]), "--algo", algo,
                     "--mode", mode,
                     "--model", str(workspace["train"] / "model.ckpt")]) == 0
        decisions[mode] = (out / "decisions.txt").read_bytes()
    assert decisions["seq"] == decisions["batch"]


def test_model_filter_step_fold_matches_run_batch(workspace):
    geometry = SensorGeometry(32, 24)
    stream = read_events(workspace["events"], geometry=geometry)
    filt = ModelFilter(load_model(workspace["train"] / "model.ckpt"), geometry)
    batch = filt.run_batch(stream)
    for _ in range(2):          # the second fold starts over from reset()
        filt.reset()
        fold = np.array([filt.step(e) for e in stream], dtype=np.int64)
        np.testing.assert_array_equal(fold, batch)
    assert set(np.unique(batch)) == {0, 1}


def test_baseline_filter_and_eval_and_report(workspace):
    root = workspace["root"]
    cfg = workspace["cfg"]
    events = workspace["events"]
    ba_out = root / "ba"
    assert main(["--config", str(cfg), "--out-dir", str(ba_out),
                 "filter", str(events), "--algo", "nnb"]) == 0

    eval_out = root / "eval"
    assert main(["--config", str(cfg), "--out-dir", str(eval_out),
                 "eval", str(events), str(ba_out / "decisions.txt"),
                 "--name", "nnb"]) == 0
    lines = (eval_out / "metrics.csv").read_text().strip().split("\n")
    assert lines[-1].startswith("nnb,")
    assert (eval_out / "metrics_series.dat").exists()

    rep_out = root / "report"
    assert main(["--out-dir", str(rep_out), "report",
                 str(eval_out / "metrics.csv")]) == 0
    assert "nnb," in (rep_out / "report.csv").read_text()


def test_bench_command(workspace):
    out = workspace["root"] / "bench"
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(out),
                 "bench", str(workspace["events"]), "--algo", "nnb",
                 "--repetitions", "1"]) == 0
    text = (out / "bench.txt").read_text()
    assert "events_per_s" in text and "mean_us_per_event" in text


def test_bench_gnnt_reports_memory(workspace):
    out = workspace["root"] / "bench_gnnt"
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(out),
                 "bench", str(workspace["events"]), "--algo", "gnnt",
                 "--mode", "batch", "--repetitions", "1",
                 "--model", str(workspace["train"] / "model.ckpt")]) == 0
    text = (out / "bench.txt").read_text()
    assert "window_elements 250" in text
    assert "comparison_ratio 10.0" in text


def test_label_command(workspace, tmp_path):
    out = tmp_path / "label"
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(out),
                 "label", str(workspace["events"]),
                 str(workspace["events"].parent / "frames")]) == 0
    assert (out / "labeled.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aligned"] >= 1


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path), "filter", "no_such.csv",
                 "--algo", "nnb"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nope = 1\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path),
                 "synth"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_malformed_csv_exits_2(tmp_path, capsys):
    events = tmp_path / "bad.csv"
    events.write_text("t_us,x,y,p,label\n0,1,2,1,1\n10,1,oops,1,1\n")
    assert main(["--out-dir", str(tmp_path), "filter", str(events),
                 "--algo", "nnb"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":3:" in err


@pytest.mark.parametrize("label", ["-1", "-5"])
def test_explicit_negative_label_exits_2(tmp_path, capsys, label):
    # in CSV, an unknown label is an empty field only
    events = tmp_path / "bad.csv"
    events.write_text(f"t_us,x,y,p,label\n0,1,2,1,\n10,1,2,1,{label}\n")
    assert main(["--out-dir", str(tmp_path), "filter", str(events),
                 "--algo", "nnb"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":3:" in err and f"got {label}" in err


@pytest.mark.parametrize("mode", ["batch", "seq"])
def test_csv_integer_beyond_int64_exits_2(tmp_path, capsys, mode):
    events = tmp_path / "big.csv"
    events.write_text("t_us,x,y,p,label\n1,2,3,1,\n100000000000000000000,2,3,1,\n")
    assert main(["--out-dir", str(tmp_path), "filter", str(events),
                 "--algo", "ba", "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and ":3:" in err and "int64" in err


def test_empty_frame_dir_exits_2(workspace, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(tmp_path),
                 "label", str(workspace["events"]), str(frames)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(frames) in err and "no .pgm" in err


def test_truncated_frame_exits_2(workspace, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    src = sorted((workspace["events"].parent / "frames").iterdir())[0]
    (frames / src.name).write_bytes(src.read_bytes()[:-10])
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(tmp_path),
                 "label", str(workspace["events"]), str(frames)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and src.name in err and "truncated" in err


def test_short_decisions_file_exits_2(workspace, tmp_path, capsys):
    decisions = tmp_path / "decisions.txt"
    n = len(read_events(workspace["events"], geometry=SensorGeometry(32, 24)))
    np.savetxt(decisions, np.ones(n - 1, dtype=np.int64), fmt="%d")
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(tmp_path),
                 "eval", str(workspace["events"]), str(decisions)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(decisions) in err
    assert f"{n - 1} decisions for a stream of {n} events" in err


@pytest.mark.parametrize("damage", ["truncated", "trailing"])
def test_damaged_checkpoint_exits_2(workspace, tmp_path, capsys, damage):
    blob = (workspace["train"] / "model.ckpt").read_bytes()
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(blob[:-5] if damage == "truncated" else blob + b"junk")
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(tmp_path),
                 "filter", str(workspace["events"]), "--algo", "gnnt",
                 "--model", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and damage in err


def test_filter_reads_binary_stream(workspace, tmp_path):
    # with no format given, the reader is picked by the file's magic bytes
    binary = tmp_path / "events.bin"
    write_events(read_events(workspace["events"]), binary, format="bin")
    decisions = {}
    for name, path in (("csv", workspace["events"]), ("bin", binary)):
        out = tmp_path / name
        assert main(["--config", str(workspace["cfg"]), "--out-dir", str(out),
                     "filter", str(path), "--algo", "gnnt",
                     "--model", str(workspace["train"] / "model.ckpt")]) == 0
        decisions[name] = (out / "decisions.txt").read_bytes()
    assert decisions["bin"] == decisions["csv"]


def error_line(capsys) -> str:
    """The one line a failed command printed, which must be an error."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["filter", "bench"])
def test_gnnt_without_model_exits_2(workspace, tmp_path, capsys, command):
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(tmp_path),
                 command, str(workspace["events"]), "--algo", "gnnt"]) == 2
    assert "--model" in error_line(capsys)


def test_bench_empty_stream_exits_2(tmp_path, capsys):
    events = tmp_path / "empty.csv"
    events.write_text("t_us,x,y,p,label\n")
    assert main(["--out-dir", str(tmp_path), "bench", str(events),
                 "--algo", "nnb"]) == 2
    err = error_line(capsys)
    assert str(events) in err and "no events" in err


@pytest.mark.parametrize("repetitions", ["0", "-3"])
def test_bench_repetitions_below_one_exits_2(workspace, tmp_path, capsys,
                                              repetitions):
    assert main(["--config", str(workspace["cfg"]), "--out-dir", str(tmp_path),
                 "bench", str(workspace["events"]), "--algo", "nnb",
                 "--repetitions", repetitions]) == 2
    assert f"--repetitions must be >= 1, got {repetitions}" in error_line(capsys)


def test_eval_without_scored_events_exits_2(tmp_path, capsys):
    # unlabeled events, and the one labeled event was skipped (-1)
    events = tmp_path / "events.csv"
    events.write_text("t_us,x,y,p,label\n0,1,2,1,\n10,1,2,1,1\n20,3,2,1,\n")
    decisions = tmp_path / "decisions.txt"
    decisions.write_text("1\n-1\n0\n")
    assert main(["--out-dir", str(tmp_path), "eval", str(events),
                 str(decisions)]) == 2
    err = error_line(capsys)
    assert str(events) in err and "no event is both labeled and decided" in err
    assert not (tmp_path / "metrics.csv").exists()
