"""Self-test of the benchmark at toy size.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Runs every workload shrunk to a few windows or samples, traced and
untraced, and checks the result line against BENCHMARK.json; checks that
the detection output check flags a perturbed detection list; and checks
that the benchmark refuses to run without the package sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import bootstrap  # noqa: E402

bootstrap.import_ghaar(ROOT)

import checks  # noqa: E402
import fixture  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
from ghaar import pipeline as pl  # noqa: E402
from ghaar import synth as sy  # noqa: E402
from ghaar.windows import CameraModel, Window  # noqa: E402
from tracing import Tracer  # noqa: E402

TOY_CAMERA = CameraModel(m11=96.0, m22=96.0, m13=32.0, m23=24.0)


@pytest.fixture
def toy(monkeypatch):
    """Shrink every workload: 64x48 frames, a tiny network for train."""
    tiny_scenes = sy.SynthSettings(n_images=2, image_w=64, image_h=48,
                                   ws=scenes.WS, max_objects=2)
    for name, wl in harness.WORKLOADS.items():
        if isinstance(wl, harness.FramesWorkload):
            wl = dataclasses.replace(wl, scenes=tiny_scenes,
                                     camera=TOY_CAMERA)
        else:
            wl = dataclasses.replace(
                wl, scenes=scenes.readme_scenes(3),
                config=scenes.readme_train_config(
                    epochs=2, batch_size=16, nr=4, trunk_widths=(2, 2, 2, 2),
                    head_widths=(2, 2), bottleneck=2))
        monkeypatch.setitem(harness.WORKLOADS, name, wl)
    monkeypatch.setattr(checks, "DETECT_BATCH", 2)
    monkeypatch.setattr(harness, "FRAMES_SETUP_SECONDS", 0.0)
    monkeypatch.setattr(harness, "TRAIN_SETUP_REPEATS", 2)


def test_benchmark_json_matches_harness():
    spec = bootstrap.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for name in harness.WORKLOADS:
        args = run.parse_args(["--workload", name, "--seed", "1",
                               "--seconds", "1"])
        assert args.workload == name
    assert spec["command"] == ["python3", "perfbench/run.py"]
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(table)


def test_every_layer_metric_has_a_prediction():
    with open(os.path.join(BENCH, "predictions.json")) as fh:
        rows = json.load(fh)["predictions"]
    predicted = {name for row in rows for name in row["layers"]}
    workloads = set(harness.WORKLOADS)
    metrics = {name for name, _, _ in harness.END_TO_END}
    for row in rows:
        for metric, workload in row["moves"] + row["no_change"]:
            assert metric in metrics and workload in workloads
    for name, _, _ in harness.PER_LAYER:
        template = name.rsplit(".", 1)[0] + ".<layer>"
        assert name in predicted or template in predicted, name


def test_fixture_network_has_the_named_layers():
    spec = fixture.network_spec(fixture.load_fixture()["settings"])
    names = tuple(l.name for l, _ in spec.conv_layers() if l.constrained)
    assert names == harness.CONSTRAINED_LAYERS


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(toy, tmp_path, workload,
                                               trace):
    line, report = harness.run(workload, seed=3, seconds=0.01, trace=trace,
                               work=str(tmp_path), blas_threads=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: m["unit"] for k, m in line["metrics"].items()} \
        == {name: unit for name, unit, _ in table}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    else:
        assert (tmp_path / "spans.jsonl").exists()
        assert 0.0 < line["metrics"]["trace.coverage"]["value"] <= 1.0
    assert report["machine"]["nproc"] >= 1
    assert report["why"]
    assert report["failed_frac"] == 0.0
    json.dumps(report)


def _detection(x1, label=1, score=0.9):
    win = Window(x2d=x1 + 16.0, y2d=16.0, d2d=32.0, level=0)
    return pl.Detection(box=(x1, 2.0, x1 + 20.0, 22.0), label=label,
                        score=score, source_window=win)


def test_compare_detections_flags_perturbations():
    dets = [_detection(5.0), _detection(50.0, label=2, score=0.7)]
    assert checks.compare_detections(dets, list(reversed(dets))) == ([], 0.0)
    shifted = [_detection(5.0 + 1e-6), dets[1]]
    relabeled = [dets[0], _detection(50.0, label=1, score=0.7)]
    for bad in (shifted, relabeled, dets[:1], dets + [_detection(90.0)]):
        problems, _ = checks.compare_detections(dets, bad)
        assert problems


def test_perturbed_detections_fail_the_run(toy, tmp_path, monkeypatch):
    real = pl.detect_image

    def perturbed(*args, **kwargs):
        return real(*args, **kwargs) + [_detection(10.0)]

    monkeypatch.setattr(pl, "detect_image", perturbed)
    line, report = harness.run("frames_small", seed=3, seconds=0.01,
                               trace=False, work=str(tmp_path),
                               blas_threads=1)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    assert report["failed_frac"] == 1.0


def test_self_time_subtracts_children():
    ticks = iter(np.arange(0.0, 100.0))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = lambda: None
    outer = lambda: tracer.call("inner", inner)
    tracer.call("outer", outer, new_op=True)
    # outer spans ticks 0..3, inner 1..2
    assert tracer.self_seconds() == [2.0, 1.0]
    assert [s.op for s in tracer.spans] == [0, 0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
