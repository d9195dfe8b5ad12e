"""Command-line behavior: exit codes and a desk-scale end-to-end chain."""

import hashlib
import os
import shlex
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from ghaar import cli
from ghaar import compressed as cm
from ghaar import config as cf
from ghaar import haar_space as hs
from ghaar import nn_core as nn
from ghaar import pipeline as pl
from ghaar import ppm
from ghaar import synth as sy
from ghaar import training as tr
from ghaar import windows as wd
from test_pipeline import tiny_model

SMALL_CONFIG = """
# camera and scene
m11 = 160
m22 = 160
m13 = 40
m23 = 30
d3d = 1.0
x3d_min = -2.0
x3d_max = 2.0
y3d_min = -1.0
y3d_max = 1.0

# windows
ws = 16
stride_frac = 0.3
pyramid_ratio = 1.4

# dataset
n_images = 6
image_w = 80
image_h = 60
max_objects = 2
n_jitter = 1
bg_ratio = 1.0

# training
epochs = 1
lr = 0.05
batch_size = 16
phi = 0.1
q = 8
nr = 8
classes = 3
trunk_widths = 2 3 3 3
head_widths = 3 3
bottleneck = 2
"""


GEOMETRY_KEYS = ("m11", "m22", "m13", "m23", "d3d",
                 "x3d_min", "x3d_max", "y3d_min", "y3d_max")


def config_without(*keys):
    """SMALL_CONFIG minus the lines that set the given keys."""
    return "".join(line + "\n" for line in SMALL_CONFIG.splitlines()
                   if line.split(" = ")[0] not in keys)


@pytest.fixture
def detect_calls(monkeypatch):
    """The argument tuples of every pipeline.detect_image call."""
    calls = []
    detect = pl.detect_image

    def counting(*args, **kw):
        calls.append(args)
        return detect(*args, **kw)

    monkeypatch.setattr(pl, "detect_image", counting)
    return calls


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "scene.cfg"
    cfg.write_text(SMALL_CONFIG)
    data = root / "data"
    out = root / "run"
    assert cli.main(["gen-data", "--config", str(cfg), "--seed", "3",
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--seed", "0",
                     "--data", str(data), "--out", str(out)]) == 0
    return {"root": root, "cfg": cfg, "data": data, "out": out,
            "model": out / "model.ghnw"}


def test_gen_data_outputs(workspace):
    data = workspace["data"]
    assert (data / "manifest.txt").exists()
    ppms = sorted(p for p in os.listdir(data) if p.endswith(".ppm"))
    assert len(ppms) == 6


def test_train_outputs(workspace):
    out = workspace["out"]
    assert workspace["model"].exists()
    log = (out / "log.csv").read_text().splitlines()
    # fit's row keys; no held-out set ran, so no val_* columns
    assert log[0] == "epoch,phase,lr,space,loss,loc,cla,reg,err_cla,mean_residual"
    assert len(log) >= 2


def test_model_round_trips(workspace):
    blob = workspace["model"].read_bytes()
    model = cm.decode_model(blob)
    assert cm.encode_model(model) == blob
    assert model.spec.input_size == 16


def test_inspect_model(workspace, capsys):
    assert cli.main(["inspect-model", "--model",
                     str(workspace["model"])]) == 0
    text = capsys.readouterr().out
    assert "patterns 8 of 256" in text
    assert "ratio 7.20" in text


def test_detect_writes_csv_and_ppm(workspace):
    data, out = workspace["data"], workspace["root"] / "det"
    image = data / "train_00000.ppm"
    assert cli.main(["detect", "--model", str(workspace["model"]),
                     "--config", str(workspace["cfg"]),
                     "--out", str(out), "--annotate", str(image)]) == 0
    csv_path = out / "train_00000_det.csv"
    assert csv_path.read_text().splitlines()[0] == "label,score,x1,y1,x2,y2"
    assert (out / "train_00000_det.ppm").exists()


def test_detect_writes_each_detection_and_draws_only_its_outlines(tmp_path):
    # a model that detects: the random tiny net fires on random pixels
    model_path = tmp_path / "tiny.ghnw"
    model_path.write_bytes(cm.encode_model(tiny_model()))
    cfg = tmp_path / "detect.cfg"
    cfg.write_text("score_thresh = 0.2\n")
    image = np.random.default_rng(0).integers(0, 256, size=(64, 80, 3),
                                              dtype=np.uint8)
    ppm.write_ppm(tmp_path / "frame.ppm", image)
    out = tmp_path / "det"
    assert cli.main(["detect", "-m", str(model_path), "-c", str(cfg),
                     "-o", str(out), "--annotate",
                     str(tmp_path / "frame.ppm")]) == 0
    dets = pl.detect_image(cm.decode_model(model_path.read_bytes()), image,
                           score_thresh=0.2)
    assert dets
    # one row per detection: score to 4 decimals, box corners to 2
    rows = [f"{d.label},{d.score:.4f}," + ",".join(f"{v:.2f}" for v in d.box)
            for d in dets]
    assert ((out / "frame_det.csv").read_text().splitlines()
            == ["label,score,x1,y1,x2,y2"] + rows)
    painted = ppm.read_ppm(out / "frame_det.ppm")
    outlines = np.zeros_like(image)
    for d in dets:
        ppm.draw_box(outlines, d.box, (1, 1, 1))
    outlines = outlines.any(axis=2)
    changed = (painted != image).any(axis=2)
    assert changed.any() and not (changed & ~outlines).any()
    colors = set(cli.LABEL_COLORS.values())
    assert all(tuple(int(c) for c in px) in colors for px in painted[outlines])


def test_eval_out_writes_the_printed_lines_one_band_per_edge_pair(
        workspace, tmp_path, capsys):
    model_path = tmp_path / "tiny.ghnw"
    model_path.write_bytes(cm.encode_model(tiny_model()))
    edges = (0.0, 15.0, 17.5, 1000.0, 1e5)
    cfg = tmp_path / "bands.cfg"
    cfg.write_text(SMALL_CONFIG + "score_thresh = 0.2\nbands = "
                   + " ".join(map(str, edges)) + "\n")
    out = tmp_path / "ev"
    assert cli.main(["eval", "-c", str(cfg), "-m", str(model_path),
                     "--data", str(workspace["data"]), "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (out / "eval.txt").read_text() == printed
    bands = [line.split() for line in printed.splitlines()
             if line.startswith("band ")]
    assert [b[1] for b in bands] == [f"{lo:g}..{hi:g}"
                                     for lo, hi in zip(edges, edges[1:])]
    # the same scoring, run through the library
    conf = cf.parse_config(str(cfg))
    cam, ranges = cf.geometry_from_config(conf)
    model = cm.decode_model(model_path.read_bytes())
    manifest = sy.load_manifest(workspace["data"])
    dets = {name: pl.detect_image(model,
                                  ppm.read_ppm(workspace["data"] / name),
                                  cam, ranges,
                                  **cf.detect_settings_from_config(conf))
            for name, _ in manifest.entries}
    rep = pl.evaluate(dets, dict(manifest.entries), cam=cam, d3d=ranges.d3d,
                      band_edges=edges)
    assert ([(int(b[7]), int(b[9]), int(b[11])) for b in bands]
            == [(r.tp, r.fp, r.fn) for r in rep.bands])
    assert sum(r.fp for r in rep.bands) and sum(r.fn for r in rep.bands)


@pytest.mark.parametrize("value", ["-inf", "nan"])
def test_non_finite_box_coordinate_is_data_error_naming_its_line(
        workspace, tmp_path, capsys, value):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    sidecar = data / "train_00001.txt"
    sidecar.write_text(sidecar.read_text() + f"2 {value} 30.0 42.0 40.0\n")
    line = len(sidecar.read_text().splitlines())
    cfg, model = str(workspace["cfg"]), str(workspace["model"])
    for argv in (["train", "-c", cfg, "--data", str(data),
                  "-o", str(tmp_path / "run")],
                 ["eval", "-c", cfg, "-m", model, "--data", str(data)]):
        assert cli.main(argv) == 3
        assert (f"data error: {sidecar}:{line}: non-finite coordinate"
                in capsys.readouterr().err)


def test_eval_reports(workspace, capsys):
    assert cli.main(["eval", "--config", str(workspace["cfg"]),
                     "--model", str(workspace["model"]),
                     "--data", str(workspace["data"])]) == 0
    text = capsys.readouterr().out
    assert "er_cla" in text and "precision" in text and "recall" in text
    assert "window_er_cla" in text


def test_bench_reports(workspace, capsys):
    assert cli.main(["bench", "--config", str(workspace["cfg"]),
                     "--model", str(workspace["model"])]) == 0
    text = capsys.readouterr().out
    assert "windows_per_sec" in text
    assert "sliding_windows" in text and "filtered_windows" in text
    for line in text.splitlines():
        if line.startswith("per_step_multiplies"):
            assert line.split()[-1] == "1"


def test_bench_agrees_with_detect_image(workspace, capsys):
    assert cli.main(["bench", "--config", str(workspace["cfg"]),
                     "--model", str(workspace["model"]), "--seed", "5"]) == 0
    report = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.splitlines())
    # the same frame, detected directly
    cfg = cf.parse_config_text(SMALL_CONFIG)
    image = np.random.default_rng(5).integers(
        0, 256, size=(cf.get_int(cfg, "image_h"), cf.get_int(cfg, "image_w"),
                      3), dtype=np.uint8)
    model = cm.decode_model(workspace["model"].read_bytes())
    grid = dict(stride_frac=cf.get_float(cfg, "stride_frac"),
                ratio=cf.get_float(cfg, "pyramid_ratio"))
    cam, ranges = cf.camera_from_config(cfg), cf.ranges_from_config(cfg)
    counter = cm.OpCounter()
    pl.detect_image(model, image, cam, ranges, counter=counter, **grid)
    kept = len(wd.final_windows(image, cam, ranges, ws=model.spec.input_size,
                                **grid)[0])
    assert int(report["filtered_windows"]) == kept > 0
    # detection runs the dense route, so its counter holds dense tallies
    assert int(report["dense_multiplies"]) == counter.multiplies
    sliding, _ = wd.final_windows(image, ws=model.spec.input_size, **grid)
    assert int(report["sliding_windows"]) == len(sliding)


def test_eval_malformed_bands_is_config_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "bands.cfg"
    cfg.write_text(SMALL_CONFIG + "bands = 1 x 9\n")
    assert cli.main(["eval", "--config", str(cfg),
                     "--model", str(workspace["model"]),
                     "--data", str(workspace["data"])]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("edges", ["9 1", "nan 4", "4 inf", "5"])
def test_eval_bands_out_of_order_non_finite_or_single_is_config_error(
        workspace, tmp_path, capsys, detect_calls, edges):
    cfg = tmp_path / "bands.cfg"
    cfg.write_text(SMALL_CONFIG + f"bands = {edges}\n")
    assert cli.main(["eval", "--config", str(cfg),
                     "--model", str(workspace["model"]),
                     "--data", str(workspace["data"])]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "band " not in captured.out
    assert detect_calls == []     # refused before any image is detected


def test_eval_bands_without_geometry_is_config_error(workspace, tmp_path,
                                                     capsys, detect_calls):
    cfg = tmp_path / "bands.cfg"
    cfg.write_text(config_without(*GEOMETRY_KEYS) + "bands = 0 5 10\n")
    assert cli.main(["eval", "--config", str(cfg),
                     "--model", str(workspace["model"]),
                     "--data", str(workspace["data"])]) == 2
    assert "config error: bands needs the camera" in capsys.readouterr().err
    assert detect_calls == []


def test_partial_geometry_is_config_error(workspace, tmp_path, capsys):
    # any camera or range key asks for pruning, which needs the full set
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(config_without("x3d_min"))
    model, data = str(workspace["model"]), str(workspace["data"])
    for argv in (["bench", "-c", str(cfg), "-m", model],
                 ["detect", "-c", str(cfg), "-m", model,
                  "-o", str(tmp_path / "det"), data + "/train_00000.ppm"],
                 ["eval", "-c", str(cfg), "-m", model, "--data", data]):
        assert cli.main(argv) == 2, argv[0]
        assert ("config error: missing required config key 'x3d_min'"
                in capsys.readouterr().err), argv[0]
    # with no camera or range key at all, every window is kept
    cfg.write_text(config_without(*GEOMETRY_KEYS))
    assert cli.main(["bench", "-c", str(cfg), "-m", model]) == 0
    report = dict(line.split(" ", 1)
                  for line in capsys.readouterr().out.splitlines())
    assert report["filtered_windows"] == report["sliding_windows"]


def test_subcommands_take_only_the_flags_they_read(workspace, capsys):
    model, cfg = str(workspace["model"]), str(workspace["cfg"])
    ignored = str(workspace["root"] / "ignored")
    for argv in (["inspect-model", "-m", model, "-o", ignored],
                 ["inspect-model", "-m", model, "-c", cfg],
                 ["inspect-model", "-m", model, "--seed", "1"],
                 ["bench", "-c", cfg, "-m", model, "-o", ignored],
                 ["detect", "-m", model, "-o", ignored, "--seed", "1", "x.ppm"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert "--config" in usage and "--seed" in usage
    assert "-o" not in usage.split() and "--out" not in usage


def test_exit_code_config_error(tmp_path):
    assert cli.main(["gen-data", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "d")]) == 2


def test_exit_code_data_error(workspace, tmp_path):
    assert cli.main(["eval", "--config", str(workspace["cfg"]),
                     "--model", str(tmp_path / "missing.ghnw"),
                     "--data", str(workspace["data"])]) == 3


def test_exit_code_format_error(workspace, tmp_path):
    bad = bytearray(workspace["model"].read_bytes())
    bad[0] ^= 0xFF
    path = tmp_path / "broken.ghnw"
    path.write_bytes(bytes(bad))
    assert cli.main(["inspect-model", "--model", str(path)]) == 4


def test_non_integer_manifest_seed_is_data_error(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    manifest = (workspace["data"] / "manifest.txt").read_text()
    (data / "manifest.txt").write_text(
        "".join("seed one\n" if line.startswith("seed ") else line + "\n"
                for line in manifest.splitlines()))
    assert cli.main(["train", "-c", str(workspace["cfg"]), "--data",
                     str(data), "-o", str(tmp_path / "run")]) == 3
    assert "seed line 'seed one' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("side", [2, 4])
def test_inspect_model_refuses_a_pattern_side_other_than_3(tmp_path, capsys,
                                                          side):
    spec = nn.build_network_spec(
        in_channels=3, classes=3, window=16, trunk_widths=(2, 3, 3, 3),
        head_widths=(3, 3), bottleneck=2, constrained=False)
    data = bytearray(cm.encode_model(cm.compress(
        nn.init_params(spec, seed=0), hs.reduced_space_from_indices(3, [0]))))
    side_off = len(cm.MAGIC) + 1 + 16 + 4 + len(cm.serialize_spec(spec))
    data[side_off] = side
    path = tmp_path / "side.ghnw"
    path.write_bytes(bytes(data))
    assert cli.main(["inspect-model", "-m", str(path)]) == 4
    assert (f"format error: pattern side {side} is not 3 "
            f"(at byte offset {side_off})" in capsys.readouterr().err)


def test_exit_code_infeasible_scene(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL_CONFIG.replace("x3d_min = -2.0", "x3d_min = 40.0")
                   .replace("x3d_max = 2.0", "x3d_max = 41.0"))
    assert cli.main(["gen-data", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / "d")]) == 3


def readme_quickstart_commands():
    """The `ghaar ...` lines of the README block after "drive the pipeline"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("Then drive the pipeline:", 1)[1].split("```")[1]
    return [shlex.split(line) for line in block.splitlines()
            if line.startswith("ghaar ")]


def test_readme_quickstart_runs_as_written(tmp_path, monkeypatch):
    (tmp_path / "scene.cfg").write_text(SMALL_CONFIG)
    monkeypatch.chdir(tmp_path)
    commands = readme_quickstart_commands()
    assert [argv[1] for argv in commands] == [
        "gen-data", "gen-data", "train", "inspect-model", "detect", "eval",
        "bench"]
    for argv in commands:
        try:
            code = cli.main(argv[1:])
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        assert code == 0, " ".join(argv)


def test_exit_code_training_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(SMALL_CONFIG.replace("lr = 0.05", "lr = 1e300"))
    assert cli.main(["train", "--config", str(cfg), "--seed", "0",
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "run")]) == 2
    assert "training error: non-finite" in capsys.readouterr().err


def test_bench_without_surviving_windows_is_data_error(workspace, tmp_path,
                                                        capsys):
    # a 20x20 frame holds four 16px windows and pruning keeps none of them
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SMALL_CONFIG.replace("image_w = 80", "image_w = 20")
                   .replace("image_h = 60", "image_h = 20"))
    assert cli.main(["bench", "--config", str(cfg),
                     "--model", str(workspace["model"])]) == 3
    assert "data error: no 16px window" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("image_h", "-5"), ("image_w", "0")])
def test_bench_refuses_a_frame_side_below_one(tmp_path, capsys, key, value):
    # refused before the model is read: that one does not exist (exit 3)
    cfg = tmp_path / "frame.cfg"
    cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
    assert cli.main(["bench", "--config", str(cfg),
                     "--model", str(tmp_path / "missing.ghnw")]) == 2
    assert (f"config error: config key '{key}' must be >= 1, got {value}"
            in capsys.readouterr().err)


def test_detect_refuses_images_whose_outputs_clash(workspace, tmp_path,
                                                   capsys, monkeypatch):
    # a/x.ppm and b/x.ppm would both write x_det.csv, the second over the
    # first: refused before any image is read or any file written
    image = (workspace["data"] / "train_00000.ppm").read_bytes()
    paths = [tmp_path / "a" / "x.ppm", tmp_path / "b" / "x.ppm"]
    for path in paths:
        path.parent.mkdir()
        path.write_bytes(image)
    reads = []
    monkeypatch.setattr(ppm, "read_ppm", reads.append)
    out = tmp_path / "det"
    assert cli.main(["detect", "-m", str(workspace["model"]), "-o", str(out),
                     *map(str, paths)]) == 2
    assert (f"config error: {paths[0]} and {paths[1]} would both write "
            "x_det.csv" in capsys.readouterr().err)
    assert reads == [] and not out.exists()


@pytest.fixture
def reads(monkeypatch):
    """The path of every image extract_samples reads."""
    calls = []
    read = sy.read_ppm

    def counting(path):
        calls.append(path)
        return read(path)

    monkeypatch.setattr(sy, "read_ppm", counting)
    return calls


def test_misspelt_key_is_refused_before_any_image(workspace, tmp_path, capsys,
                                                   reads):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(SMALL_CONFIG + "epoch = 3\n")     # for epochs
    assert cli.main(["gen-data", "-c", str(cfg), "-o",
                     str(tmp_path / "d")]) == 2
    assert "unknown config key 'epoch'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()
    assert cli.main(["train", "-c", str(cfg), "--data",
                     str(workspace["data"]), "-o", str(tmp_path / "run")]) == 2
    assert "unknown config key 'epoch'" in capsys.readouterr().err
    assert reads == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("old, new, what", [
    ("classes = 3", "classes = 2", "labels span 0..2"),
])
def test_train_refuses_samples_the_network_cannot_take(
        workspace, tmp_path, capsys, monkeypatch, old, new, what):
    steps = []
    monkeypatch.setattr(tr, "train_step", lambda *a: steps.append(a))
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text(SMALL_CONFIG.replace(old, new))
    assert cli.main(["train", "-c", str(cfg), "--data",
                     str(workspace["data"]), "-o", str(tmp_path / "run")]) == 2
    assert f"config error: training {what}" in capsys.readouterr().err
    assert steps == []


def test_detect_refuses_a_one_channel_model(workspace, tmp_path, capsys):
    # a valid model the library trains, on inputs an RGB frame cannot give
    cfg = tr.TrainConfig(epochs=1, batch_size=8, nr=8, window=16,
                         in_channels=1, trunk_widths=(2, 3, 3, 3),
                         head_widths=(3, 3), bottleneck=2)
    rng = np.random.default_rng(0)
    params, space, _ = tr.fit(rng.normal(size=(8, 1, 16, 16)),
                              np.zeros((8, 4)), np.zeros(8, dtype=int), cfg)
    model = tmp_path / "gray.ghnw"
    model.write_bytes(cm.encode_model(cm.compress(params, space)))
    assert cli.main(["detect", "-m", str(model), "-o", str(tmp_path / "det"),
                     str(workspace["data"] / "train_00000.ppm")]) == 3
    assert "data error: model takes 1-channel input" in capsys.readouterr().err


@pytest.mark.parametrize("drop, what", [
    ("loc_gap", "loc head does not end in global averaging"),
    ("cla_softmax", "cla head does not end in averaging and softmax")])
def test_detect_refuses_a_model_whose_heads_it_cannot_read(
        workspace, tmp_path, capsys, monkeypatch, drop, what):
    # the trained model's file with one head layer's line cut from its spec
    # text, digest and length to match; no such spec can be constructed, so
    # the file is refused at load, before any image is read
    data = workspace["model"].read_bytes()
    text = cm.serialize_spec(cm.decode_model(data).spec)
    payload = data[len(cm.MAGIC) + 1 + 16 + 4 + len(text):]
    cut = b"".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"layer {drop} ".encode()))
    assert len(cut) < len(text)
    path = tmp_path / "headless.ghnw"
    path.write_bytes(cm.MAGIC + bytes([cm.VERSION])
                     + hashlib.sha256(cut).digest()[:16]
                     + struct.pack("<I", len(cut)) + cut + payload)
    reads = []
    monkeypatch.setattr(ppm, "read_ppm", reads.append)
    for argv in (["detect", "-m", str(path), "-o", str(tmp_path / "det"),
                  str(workspace["data"] / "train_00000.ppm")],
                 ["inspect-model", "-m", str(path)]):
        assert cli.main(argv) == 4
        assert (f"format error: bad spec block: {what}"
                in capsys.readouterr().err)
    assert reads == []


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [
    ("train", "pyramid_ratio"), ("train", "jitter_frac"),
    ("train", "bg_ratio"), ("detect", "pyramid_ratio"), ("detect", "m11"),
    ("detect", "x3d_min"), ("detect", "score_thresh"),
    ("detect", "bandwidth_frac")])
def test_non_finite_value_is_refused_before_any_image(
        workspace, tmp_path, capsys, monkeypatch, command, key, value):
    reads = []
    monkeypatch.setattr(sy, "read_ppm", reads.append)      # train's reader
    monkeypatch.setattr(ppm, "read_ppm", reads.append)     # detect's reader
    cfg = tmp_path / "nonfinite.cfg"
    cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
    out = str(tmp_path / "run")
    argv = {"train": ["train", "-c", str(cfg), "--data",
                      str(workspace["data"]), "-o", out],
            "detect": ["detect", "-c", str(cfg), "-m", str(workspace["model"]),
                       "-o", out, str(workspace["data"] / "train_00000.ppm")]}
    assert cli.main(argv[command]) == 2
    assert (f"config error: config key '{key}' is not a finite number"
            in capsys.readouterr().err)
    assert reads == []


def test_zero_decay_interval_is_refused_before_any_image(workspace, tmp_path,
                                                         capsys, reads):
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(SMALL_CONFIG + "decay_every = 0\n")
    assert cli.main(["train", "-c", str(cfg), "--data",
                     str(workspace["data"]), "-o", str(tmp_path / "run")]) == 2
    assert "config error: lr decay interval" in capsys.readouterr().err
    assert reads == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("ws, what", [
    ("0", "input needs channels and a size"),
    ("-16", "input needs channels and a size"),
    ("7", "layer pool1 cannot pool a 7x7 map")])
def test_train_refuses_a_graph_that_cannot_run_before_any_image(
        workspace, tmp_path, capsys, reads, ws, what):
    cfg = tmp_path / "ws.cfg"
    cfg.write_text(SMALL_CONFIG.replace("ws = 16", f"ws = {ws}"))
    assert cli.main(["train", "-c", str(cfg), "--data",
                     str(workspace["data"]), "-o", str(tmp_path / "run")]) == 2
    assert f"config error: {what}" in capsys.readouterr().err
    assert reads == [] and not (tmp_path / "run").exists()


def test_negative_jitter_is_refused_before_any_sample(workspace, tmp_path,
                                                       capsys, reads):
    cfg = tmp_path / "jitter.cfg"
    cfg.write_text(SMALL_CONFIG + "jitter_frac = -1\n")
    for argv in (["train", "-c", str(cfg), "--data", str(workspace["data"]),
                  "-o", str(tmp_path / "run")],
                 ["eval", "-c", str(cfg), "-m", str(workspace["model"]),
                  "--data", str(workspace["data"])]):
        assert cli.main(argv) == 2, argv[0]
        assert "jitter_frac >= 0" in capsys.readouterr().err, argv[0]
    assert reads == []


@pytest.mark.parametrize("key, value", [
    ("n_jitter", "0"), ("bg_ratio", "-1"), ("jitter_frac", "-1")])
def test_eval_refuses_sample_settings_before_any_detection(
        workspace, tmp_path, capsys, monkeypatch, key, value):
    def detect(*a, **kw):
        raise AssertionError("detect_image ran")

    monkeypatch.setattr(pl, "detect_image", detect)
    cfg = tmp_path / "extract.cfg"
    cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
    assert cli.main(["eval", "-c", str(cfg), "-m", str(workspace["model"]),
                     "--data", str(workspace["data"])]) == 2
    assert "config error: n_jitter must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("ws", ["0", "-16"])
def test_gen_data_names_a_window_size_below_one(tmp_path, capsys, ws):
    cfg = tmp_path / "ws.cfg"
    cfg.write_text(SMALL_CONFIG.replace("ws = 16", f"ws = {ws}"))
    assert cli.main(["gen-data", "-c", str(cfg), "-o",
                     str(tmp_path / "data")]) == 2
    assert (f"config error: window size ws must be >= 1, got {ws}"
            in capsys.readouterr().err)
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("key, value, what", [
    ("score_thresh", "2", "score_thresh must be in [0, 1], got 2.0"),
    ("score_thresh", "-1", "score_thresh must be in [0, 1], got -1.0"),
    ("bandwidth_frac", "0", "bandwidth_frac must be positive"),
    ("nms_iou", "0", "iou_thresh must be in (0, 1]")])
def test_eval_refuses_detection_settings_before_any_window(
        workspace, tmp_path, capsys, monkeypatch, key, value, what):
    built = []
    monkeypatch.setattr(pl, "final_windows", lambda *a, **kw: built.append(a))
    cfg = tmp_path / "detect.cfg"
    cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
    assert cli.main(["eval", "-c", str(cfg), "-m", str(workspace["model"]),
                     "--data", str(workspace["data"])]) == 2
    assert f"config error: {what}" in capsys.readouterr().err
    assert built == []


def test_train_reads_the_seed_key_unless_seed_is_given(workspace, tmp_path):
    cfg = tmp_path / "seeded.cfg"
    cfg.write_text(SMALL_CONFIG + "seed = 9\n")
    blobs = {}
    for tag, extra in (("file", []), ("flag", ["--seed", "9"]),
                       ("override", ["--seed", "0"])):
        out = tmp_path / tag
        assert cli.main(["train", "-c", str(cfg), "--data",
                         str(workspace["data"]), "-o", str(out)] + extra) == 0
        blobs[tag] = (out / "model.ghnw").read_bytes()
    assert blobs["file"] == blobs["flag"] != blobs["override"]
    assert blobs["override"] == workspace["model"].read_bytes()


def test_unconstrained_train_ships_dense_kernels(workspace, tmp_path, capsys):
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(SMALL_CONFIG + "constrain = false\n")
    out = tmp_path / "run"
    assert cli.main(["train", "-c", str(cfg), "--data",
                     str(workspace["data"]), "-o", str(out)]) == 0
    assert "phase B" not in capsys.readouterr().out
    model = cm.decode_model((out / "model.ghnw").read_bytes())
    assert len(model.space) == 1       # no record references the table
    assert not any(layer.constrained for layer, _ in model.spec.conv_layers())
