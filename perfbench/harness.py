"""The benchmark's workloads, their timed loops, and the metrics they report.

Load comes from one closed-loop client in this process: the next frame (or
training run) starts only when the previous one has returned.  Timing spans
come from tracing.Tracer; an untraced run records only the operation
boundary (one span per detect_image call or train_step), a traced run adds
a span at every layer boundary named in PER_LAYER.
"""

import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ghaar import compressed as cm
from ghaar import haar_space as hs
from ghaar import nn_core as nn
from ghaar import pipeline as pl
from ghaar import ppm
from ghaar import synth as sy
from ghaar import training as tr
from ghaar import windows as wd

import bootstrap
import checks
import fixture
import scenes
from tracing import Tracer

# (name, unit, better)
END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# constrained layers of the README-shaped fixture network
CONSTRAINED_LAYERS = ("conv1", "conv2", "conv3", "conv4", "loc_conv5_1",
                      "loc_conv5_2", "cla_conv5_1", "cla_conv5_2")

# "_ms" figures are self time per frame (frames workloads) or per training
# step (train); perfbench/README.md lists the exceptions.
PER_LAYER = (
    ("windows.build_pyramid_ms", "ms", "lower"),
    ("windows.sliding_windows_ms", "ms", "lower"),
    ("windows.perspective_filter_ms", "ms", "lower"),
    ("windows.sliding_count", "count", "lower"),
    ("windows.kept_count", "count", "lower"),
    ("windows.kept_ratio", "ratio", "lower"),
    ("windows.crop_window_ms", "ms", "lower"),
    ("ppm.normalize_image_ms", "ms", "lower"),
    ("compressed.forward_fast_ms", "ms", "lower"),
    ("compressed.forward_fast_ms_per_window", "ms", "lower"),
    ("compressed.multiplies_per_window", "count", "lower"),
    ("compressed.additions_per_window", "count", "lower"),
) + tuple((f"compressed.per_step_multiplies.{name}", "count", "lower")
          for name in CONSTRAINED_LAYERS) + (
    ("compressed.forward_dense_ms", "ms", "lower"),
    ("compressed.decode_model_ms", "ms", "lower"),
    ("pipeline.mean_shift_refine_ms", "ms", "lower"),
    ("pipeline.nms_ms", "ms", "lower"),
    ("pipeline.raw_detections", "count", "lower"),
    ("pipeline.final_detections", "count", "lower"),
    ("pipeline.detect_image_self_ms", "ms", "lower"),
    ("training.train_step_ms.A", "ms", "lower"),
    ("training.train_step_ms.B", "ms", "lower"),
    ("training.train_step_self_ms", "ms", "lower"),
    ("training.constrain_params_ms", "ms", "lower"),
    ("haar_space.project_batch_ms", "ms", "lower"),
    ("haar_space.kernel_pattern_pairs", "count", "lower"),
    ("nn_core.forward_ms", "ms", "lower"),
    ("nn_core.backward_ms", "ms", "lower"),
    ("training.mean_nearest_residual_ms", "ms", "lower"),
    ("training.retries", "count", "lower"),
    ("synth.extract_samples_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.op_ms_p50", "ms", "lower"),
)

# Frames set-up takes about a millisecond, and the machine's speed swings
# over seconds; repeating it for this long lets its median span the swings.
FRAMES_SETUP_SECONDS = 2.0
# Untimed warm-up before the frame loop: two full detect_image batches
# through forward_fast.  One batch leaves the heap short of its working
# size, and the peak RSS then depends on the frames that follow.
WARMUP_BATCHES = 2
# The first extract_samples call in a process runs about 1.7x slower than
# the rest while the heap grows; with 5 repeats the median is past it.
TRAIN_SETUP_REPEATS = 5


@dataclass(frozen=True)
class FramesWorkload:
    """A fixed frame set run through detect_image, cycled until time is up."""
    scenes: sy.SynthSettings
    camera: wd.CameraModel


@dataclass(frozen=True)
class TrainWorkload:
    """training.fit over samples from generated scenes, repeated until
    time is up."""
    scenes: sy.SynthSettings
    config: tr.TrainConfig


# Each workload's rationale is its "why" in BENCHMARK.json.
WORKLOADS = {
    "frames_small": FramesWorkload(
        scenes.readme_scenes(16, split="small",
                             color_margin=scenes.FIXTURE_COLOR_MARGIN),
        scenes.README_CAMERA),
    "frames_crowd": FramesWorkload(
        scenes.crowd_scenes(3), scenes.CROWD_CAMERA),
    "train": TrainWorkload(
        scenes.readme_scenes(300),
        scenes.readme_train_config(epochs=2)),
}


def _median_ms(seconds):
    return 1000.0 * statistics.median(seconds) if seconds else 0.0


def _closed_loop(seconds, run_one):
    """Call run_one() back to back for about `seconds`.

    Stops when the next call would end further from `seconds` than the
    loop is now, so a run holds round(seconds / call time) calls, at least
    one.  Returns the wall time of the loop.
    """
    t0 = time.perf_counter()
    n = 0
    while True:
        run_one()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / (2 * n) > seconds:
            return elapsed


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_ms(totals, name, n_ops):
    return 1000.0 * totals.get(name, 0.0) / n_ops


def _info_sum(tracer, name):
    return sum(s.info for s in tracer.spans if s.name == name)


# -- frames -----------------------------------------------------------------

def _wrap_frame_layers(tracer):
    size = lambda a, kw, r: len(r)
    tracer.wrap(wd, "build_pyramid", "windows.build_pyramid")
    tracer.wrap(wd, "sliding_windows", "windows.sliding_windows", info=size)
    tracer.wrap(wd, "perspective_filter", "windows.perspective_filter",
                info=size)
    tracer.wrap(pl, "crop_window", "windows.crop_window")
    tracer.wrap(pl, "normalize_image", "ppm.normalize_image")
    tracer.wrap(pl, "forward_fast", "compressed.forward_fast",
                info=lambda a, kw, r: len(a[1]))
    tracer.wrap(pl, "mean_shift_refine", "pipeline.mean_shift_refine",
                info=lambda a, kw, r: len(a[0]))
    tracer.wrap(pl, "nms", "pipeline.nms", info=size)


def _coverage(tracer, op_span):
    """Share of the operation spans' time spent in their child spans."""
    total, own = 0.0, 0.0
    for s, self_s in zip(tracer.spans, tracer.self_seconds()):
        if s.name == op_span:
            total += s.seconds
            own += self_s
    return 1.0 - own / total


def run_frames(wl, seed, seconds, trace, work):
    t_inputs = time.perf_counter()
    data_dir = _fresh_dir(os.path.join(work, "frames"))
    manifest = sy.synth_generate(wl.scenes, wl.camera, scenes.RANGES,
                                 data_dir, seed)
    fix = fixture.load_fixture()
    blob = fixture.fixture_model_bytes(fix)
    paths = [os.path.join(data_dir, name) for name, _ in manifest.entries]
    setup_s, decode_s = [], []
    t_setup = time.perf_counter()
    while not setup_s or time.perf_counter() - t_setup < FRAMES_SETUP_SECONDS:
        t0 = time.perf_counter()
        model = cm.decode_model(blob)
        t1 = time.perf_counter()
        frames = [ppm.read_ppm(p) for p in paths]
        setup_s.append(time.perf_counter() - t0)
        decode_s.append(t1 - t0)

    ws = model.spec.input_size
    for _ in range(WARMUP_BATCHES):
        cm.forward_fast(model, np.zeros((checks.DETECT_BATCH, 3, ws, ws)))

    geometry = dict(stride_frac=scenes.STRIDE_FRAC, ratio=scenes.RATIO)
    counter = cm.OpCounter() if trace else None
    outputs = []            # (frame index, detections or None)
    with Tracer() as tracer:
        if trace:
            _wrap_frame_layers(tracer)

        def one_frame():
            k = len(outputs) % len(frames)
            try:
                dets = tracer.call(
                    "pipeline.detect_image", pl.detect_image,
                    (model, frames[k], wl.camera, scenes.RANGES),
                    dict(geometry, counter=counter), new_op=True)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                dets = None
            outputs.append((k, dets))

        loop_s = _closed_loop(seconds, one_frame)
    # before the output check, whose dense oracle has buffers of its own
    peak_rss_mb = _peak_rss_mb()

    # output check, outside the timed loop: every frame against the oracle
    t_check = time.perf_counter()
    oracle, dense_s, worst_gap = {}, [], 0.0
    for k in sorted({k for k, _ in outputs}):
        oracle[k], secs = checks.oracle_detections(
            model, frames[k], wl.camera, scenes.RANGES, **geometry)
        dense_s.append(secs)
    failed = 0
    for k, dets in outputs:
        if dets is None:
            failed += 1
            continue
        problems, gap = checks.compare_detections(oracle[k], dets)
        worst_gap = max(worst_gap, gap)
        if problems:
            failed += 1
            print(f"frame {k}: " + "; ".join(problems), file=sys.stderr)

    check_s = time.perf_counter() - t_check
    n = len(outputs)
    frame_s = [s.seconds for s in tracer.spans
               if s.name == "pipeline.detect_image"]
    end_to_end = {
        "throughput_per_s": n / loop_s,
        "op_ms_p50": _median_ms(frame_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    layers = {"compressed.decode_model_ms": _median_ms(decode_s),
              "compressed.forward_dense_ms":
                  1000.0 * statistics.mean(dense_s)}
    if trace:
        layers.update(_frame_layer_metrics(tracer, counter, n))
        layers["trace.coverage"] = _coverage(tracer, "pipeline.detect_image")
        tracer.write(os.path.join(work, "spans.jsonl"))
    report = {
        "frames_per_s": end_to_end["throughput_per_s"],
        "frame_ms_p50": end_to_end["op_ms_p50"],
        "frame_samples": len(frame_s),
        "frame_ms": [1000.0 * v for v in frame_s],
        "frames_run": n,
        "distinct_frames": len(oracle),
        "frame_set": len(frames),
        "objects_per_frame": [len(g) for _, g in manifest.entries],
        "oracle_worst_gap": worst_gap,
        "spans": len(tracer.spans),
        "setup_repeats": len(setup_s),
        "phase_s": {"inputs": t_setup - t_inputs, "setup": sum(setup_s),
                    "loop": loop_s, "check": check_s},
        "fixture_settings": fix["settings"],
    }
    return end_to_end, layers, n, failed, failed == 0, report


def _frame_layer_metrics(tracer, counter, n):
    totals = tracer.totals()
    out = {name: _layer_ms(totals, span, n) for name, span in (
        ("windows.build_pyramid_ms", "windows.build_pyramid"),
        ("windows.sliding_windows_ms", "windows.sliding_windows"),
        ("windows.perspective_filter_ms", "windows.perspective_filter"),
        ("windows.crop_window_ms", "windows.crop_window"),
        ("ppm.normalize_image_ms", "ppm.normalize_image"),
        ("compressed.forward_fast_ms", "compressed.forward_fast"),
        ("pipeline.mean_shift_refine_ms", "pipeline.mean_shift_refine"),
        ("pipeline.nms_ms", "pipeline.nms"),
        ("pipeline.detect_image_self_ms", "pipeline.detect_image"))}
    sliding = _info_sum(tracer, "windows.sliding_windows")
    kept = _info_sum(tracer, "windows.perspective_filter")
    windows = _info_sum(tracer, "compressed.forward_fast") or 1
    out.update({
        "windows.sliding_count": sliding / n,
        "windows.kept_count": kept / n,
        "windows.kept_ratio": kept / sliding if sliding else 0.0,
        "compressed.forward_fast_ms_per_window":
            1000.0 * totals.get("compressed.forward_fast", 0.0) / windows,
        "compressed.multiplies_per_window": counter.multiplies / windows,
        "compressed.additions_per_window": counter.additions / windows,
        "pipeline.raw_detections":
            _info_sum(tracer, "pipeline.mean_shift_refine") / n,
        "pipeline.final_detections": _info_sum(tracer, "pipeline.nms") / n,
    })
    for name in CONSTRAINED_LAYERS:
        out[f"compressed.per_step_multiplies.{name}"] = (
            counter.per_step_multiplies(name) if name in counter.layers
            else 0.0)
    return out


# -- train ------------------------------------------------------------------

def _wrap_train_layers(tracer):
    tracer.wrap(nn, "forward", "nn_core.forward")
    tracer.wrap(nn, "backward", "nn_core.backward")
    tracer.wrap(tr, "constrain_params", "training.constrain_params")
    tracer.wrap(tr, "mean_nearest_residual", "training.mean_nearest_residual")
    tracer.wrap(hs, "project_batch", "haar_space.project_batch",
                info=lambda a, kw, r: len(a[0]) * len(a[1]))


def _step_info(args, kwargs, result):
    # train_step(params, x, loc_target, labels, space, cfg, lr)
    return len(args[4]), result["loss"]


def run_train(wl, seed, seconds, trace, work):
    data_dir = _fresh_dir(os.path.join(work, "scenes"))
    manifest = sy.synth_generate(wl.scenes, scenes.README_CAMERA,
                                 scenes.RANGES, data_dir, seed)
    setup_s = []
    for _ in range(TRAIN_SETUP_REPEATS):
        t0 = time.perf_counter()
        x, loc, labels = sy.extract_samples(manifest, data_dir, seed=seed,
                                            **scenes.EXTRACT)
        setup_s.append(time.perf_counter() - t0)

    cfg = wl.config
    fits = []               # (seconds, encoded model)
    with Tracer() as tracer:
        tracer.wrap(tr, "train_step", "training.train_step", new_op=True,
                    info=_step_info)
        if trace:
            _wrap_train_layers(tracer)

        def one_fit():
            t0 = time.perf_counter()
            params, space, _rows = tr.fit(x, loc, labels, cfg)
            secs = time.perf_counter() - t0
            fits.append((secs, cm.encode_model(cm.compress(params, space))))

        _closed_loop(seconds, one_fit)
    peak_rss_mb = _peak_rss_mb()

    steps = [s for s in tracer.spans if s.name == "training.train_step"]
    retries = sum(s.error is not None for s in steps)
    done = [s for s in steps if s.error is None]
    losses_finite = all(np.isfinite(s.info[1]) for s in done)
    blobs = {blob for _, blob in fits}
    round_trip = all(checks.round_trip_ok(b) for b in blobs)
    samples = x.shape[0]
    fit_s = sum(secs for secs, _ in fits)
    full = hs.space_size(cfg.m)
    end_to_end = {
        "throughput_per_s": len(fits) * samples * cfg.epochs / fit_s,
        "op_ms_p50": _median_ms([s.seconds for s in done]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    layers = {"synth.extract_samples_s": statistics.median(setup_s),
              "training.retries": retries}
    if trace:
        totals = tracer.totals()
        n = len(steps)
        layers.update({
            "training.train_step_ms.A": _median_ms(
                [s.seconds for s in done if s.info[0] == full]),
            "training.train_step_ms.B": _median_ms(
                [s.seconds for s in done if s.info[0] != full]),
            "haar_space.kernel_pattern_pairs":
                _info_sum(tracer, "haar_space.project_batch") / n,
        })
        for name, span in (
                ("training.train_step_self_ms", "training.train_step"),
                ("training.constrain_params_ms", "training.constrain_params"),
                ("haar_space.project_batch_ms", "haar_space.project_batch"),
                ("nn_core.forward_ms", "nn_core.forward"),
                ("nn_core.backward_ms", "nn_core.backward"),
                ("training.mean_nearest_residual_ms",
                 "training.mean_nearest_residual")):
            layers[name] = _layer_ms(totals, span, n)
        layers["trace.coverage"] = _coverage(tracer, "training.train_step")
        tracer.write(os.path.join(work, "spans.jsonl"))
    failed = retries + sum(not np.isfinite(s.info[1]) for s in done)
    correct = failed == 0 and round_trip and len(blobs) == 1
    report = {
        "train_windows_per_s": end_to_end["throughput_per_s"],
        "step_ms_p50": end_to_end["op_ms_p50"],
        "step_samples": len(done),
        "fits": len(fits),
        "samples": samples,
        "positives": int((labels != 0).sum()),
        "epochs": cfg.epochs,
        "steps": len(steps),
        "losses_finite": losses_finite,
        "round_trip_identical": round_trip,
        "fits_identical": len(blobs) == 1,
        "model_sha256": sorted(hashlib.sha256(b).hexdigest() for b in blobs),
        "train_config": {"batch_size": cfg.batch_size, "phi": cfg.phi,
                         "q": cfg.q, "nr": cfg.nr, "lr": cfg.lr,
                         "trunk_widths": list(cfg.trunk_widths),
                         "head_widths": list(cfg.head_widths),
                         "bottleneck": cfg.bottleneck, "seed": cfg.seed},
    }
    return end_to_end, layers, len(steps), failed, correct, report


# -- one run ----------------------------------------------------------------

def _why(workload):
    return next(w["why"] for w in bootstrap.benchmark_spec()["workloads"]
                if w["name"] == workload)


def run(workload, seed, seconds, trace, work, blas_threads):
    """One benchmark run; returns (result line dict, full report dict)."""
    wl = WORKLOADS[workload]
    runner = run_frames if isinstance(wl, FramesWorkload) else run_train
    end_to_end, layers, attempted, failed, correct, report = runner(
        wl, seed, seconds, trace, work)
    if trace:
        layers["trace.op_ms_p50"] = end_to_end["op_ms_p50"]
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    wanted = PER_LAYER if trace else END_TO_END
    values = layers if trace else end_to_end
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in wanted}
    line = {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
    report.update({
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "why": _why(workload),
        "machine": machine_block(blas_threads),
        "failed_frac": failed / attempted if attempted else 1.0,
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": units[k]}
                      for k, v in layers.items()},
    })
    return line, report
