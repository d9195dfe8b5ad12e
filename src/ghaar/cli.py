"""Command-line surface: gen-data, train, eval, detect, bench, inspect-model.

Exit codes: 0 success, 2 configuration or training error (a fit that
diverged), 3 data error, 4 model format error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import compressed as cm
from . import config as cf
from . import haar_space as hs
from . import pipeline as pl
from . import ppm
from . import synth as sy
from . import training as tr
from . import windows as wd
from .errors import ConfigError, DataError, FormatError, TrainingError

LABEL_COLORS = {1: (255, 40, 40), 2: (40, 90, 255)}


def _load_model(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DataError(f"cannot read model {path}: {e}")
    return cm.decode_model(data)


def _save_model(model, path):
    blob = cm.encode_model(model)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def cmd_gen_data(args):
    cfg = cf.parse_config(args.config)
    cam = cf.camera_from_config(cfg)
    ranges = cf.ranges_from_config(cfg)
    settings = cf.synth_settings_from_config(cfg)
    manifest = sy.synth_generate(settings, cam, ranges, args.out, args.seed)
    n_obj = sum(len(gts) for _, gts in manifest.entries)
    print(f"wrote {len(manifest.entries)} images with {n_obj} objects "
          f"to {args.out}")
    return 0


def cmd_train(args):
    cfg = cf.parse_config(args.config)
    tc = cf.train_config_from_config(cfg, seed=args.seed)
    manifest = sy.load_manifest(args.data)
    ratio = cf.detect_settings_from_config(cfg)["ratio"]
    ex = cf.extract_params_from_config(cfg)
    x, loc, labels = sy.extract_samples(manifest, args.data, ws=tc.window,
                                        ratio=ratio, seed=tc.seed, **ex)
    val = None
    if args.val_data:
        vman = sy.load_manifest(args.val_data)
        val = sy.extract_samples(vman, args.val_data, ws=tc.window,
                                 ratio=ratio, seed=tc.seed + 1, **ex)
    print(f"training on {x.shape[0]} windows "
          f"({int((labels != 0).sum())} positive)")

    def progress(row):
        msg = (f"epoch {row['epoch']:3d} phase {row['phase']} "
               f"space {row['space']:3d} loss {row['loss']:.4f} "
               f"err {row['err_cla']:.3f}")
        if "val_err_cla" in row:
            msg += f" val_err {row['val_err_cla']:.3f}"
        print(msg, flush=True)

    params, space, rows = tr.fit(x, loc, labels, tc, val=val,
                                 progress=progress)
    os.makedirs(args.out, exist_ok=True)
    tr.write_log_csv(rows, os.path.join(args.out, "log.csv"))
    model = cm.compress(params, space)
    path = os.path.join(args.out, "model.ghnw")
    size = _save_model(model, path)
    print(f"wrote {path}: {size} bytes, {len(model.space)} patterns")
    return 0


def cmd_eval(args):
    cfg = cf.parse_config(args.config)
    cam, ranges = cf.geometry_from_config(cfg)
    settings = cf.detect_settings_from_config(cfg)
    kw = {}
    if "bands" in cfg:
        if cam is None:
            raise ConfigError("bands needs the camera and range keys")
        kw = dict(cam=cam, d3d=ranges.d3d, band_edges=pl.check_band_edges(
            cf.get_float_tuple(cfg, "bands")))
    ex = cf.extract_params_from_config(cfg)
    sy.check_extract_settings(**ex)
    model = _load_model(args.model)
    manifest = sy.load_manifest(args.data)
    for name, gts in manifest.entries:
        for g in gts:
            if g.label >= model.spec.classes:
                raise DataError(f"{os.path.join(args.data, name)}: object "
                                f"label {g.label} outside the model's "
                                f"{model.spec.classes} classes")
    dets_by = {}
    for name, _ in manifest.entries:
        image = ppm.read_ppm(os.path.join(args.data, name))
        dets_by[name] = pl.detect_image(model, image, cam, ranges, **settings)
    rep = pl.evaluate(dets_by, dict(manifest.entries), **kw)
    wx, wloc, wlab = sy.extract_samples(manifest, args.data,
                                        ws=model.spec.input_size,
                                        ratio=settings["ratio"],
                                        seed=args.seed, **ex)
    wm = tr.evaluate_windows(model.params, wx, wloc, wlab)
    lines = [
        f"images {len(manifest.entries)}",
        f"detections tp {rep.tp} fp {rep.fp} fn {rep.fn} n {rep.n}",
        f"er_cla {rep.er_cla:.4f}",
        f"er_loc {rep.er_loc:.6f}",
        f"precision {rep.precision:.4f}",
        f"recall {rep.recall:.4f}",
        f"window_er_cla {wm['val_err_cla']:.4f}",
        f"window_er_loc {wm['val_err_loc']:.6f}",
    ]
    for b in rep.bands:
        lines.append(f"band {b.z_lo:g}..{b.z_hi:g} precision "
                     f"{b.precision:.4f} recall {b.recall:.4f} "
                     f"tp {b.tp} fp {b.fp} fn {b.fn}")
    for line in lines:
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def cmd_detect(args):
    paths = {}
    for path in args.images:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in paths:
            raise ConfigError(f"{paths[stem]} and {path} would both write "
                              f"{stem}_det.csv")
        paths[stem] = path
    model = _load_model(args.model)
    cfg = cf.parse_config(args.config) if args.config else {}
    cam, ranges = cf.geometry_from_config(cfg)
    settings = cf.detect_settings_from_config(cfg)
    os.makedirs(args.out, exist_ok=True)
    for stem, path in paths.items():
        image = ppm.read_ppm(path)
        dets = pl.detect_image(model, image, cam, ranges, **settings)
        csv_path = os.path.join(args.out, stem + "_det.csv")
        with open(csv_path, "w") as fh:
            fh.write("label,score,x1,y1,x2,y2\n")
            for d in dets:
                x1, y1, x2, y2 = d.box
                fh.write(f"{d.label},{d.score:.4f},{x1:.2f},{y1:.2f},"
                         f"{x2:.2f},{y2:.2f}\n")
        if args.annotate:
            painted = image.copy()
            for d in dets:
                ppm.draw_box(painted, d.box,
                             LABEL_COLORS.get(d.label, (255, 255, 0)))
            ppm.write_ppm(os.path.join(args.out, stem + "_det.ppm"), painted)
        print(f"{path}: {len(dets)} detections -> {csv_path}")
    return 0


def cmd_bench(args):
    cfg = cf.parse_config(args.config)
    h, w = (cf.get_int(cfg, key, getattr(sy.SynthSettings, key))
            for key in ("image_h", "image_w"))
    for key, side in (("image_h", h), ("image_w", w)):
        if side < 1:
            raise ConfigError(f"config key '{key}' must be >= 1, got {side}")
    model = _load_model(args.model)
    cam, ranges = cf.geometry_from_config(cfg)
    settings = cf.detect_settings_from_config(cfg)
    ws = model.spec.input_size
    rng = np.random.default_rng(args.seed)
    image = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    grid = dict(ws=ws, stride_frac=settings["stride_frac"],
                ratio=settings["ratio"])
    sliding = len(wd.final_windows(image, **grid)[0])
    kept = len(wd.final_windows(image, cam, ranges, **grid)[0])
    if not kept:
        raise DataError(f"no {ws}px window survives pruning on a {w}x{h} "
                        f"frame: nothing to time")
    start = time.perf_counter()
    pl.detect_image(model, image, cam, ranges, **settings)
    elapsed = time.perf_counter() - start
    # every window costs the same: count one through each route
    one = np.zeros((1, model.spec.in_channels, ws, ws))
    fast, dense = cm.OpCounter(), cm.OpCounter()
    cm.forward_fast(model, one, counter=fast)
    cm.forward_dense(model, one, counter=dense)
    print(f"sliding_windows {sliding}")
    print(f"filtered_windows {kept}")
    print(f"reduction {kept / sliding:.4f}")
    print(f"windows_per_sec {kept / elapsed:.1f}")
    print(f"fast_multiplies {fast.multiplies * kept}")
    print(f"fast_additions {fast.additions * kept}")
    print(f"dense_multiplies {dense.multiplies * kept}")
    for layer, _ in model.spec.conv_layers():
        if layer.constrained:
            print(f"per_step_multiplies {layer.name} "
                  f"{fast.per_step_multiplies(layer.name):g}")
    return 0


def cmd_inspect_model(args):
    model = _load_model(args.model)
    spec = model.spec
    print(f"input {spec.in_channels}x{spec.input_size}x{spec.input_size} "
          f"classes {spec.classes}")
    print(f"patterns {len(model.space)} of {hs.space_size(model.space.m)} "
          f"(m={model.space.m})")
    print(f"digest {model.digest.hex()}")
    report = cm.storage_report(spec, len(model.space))
    for row in report["layers"]:
        tag = "haar" if row["constrained"] else "dense"
        print(f"layer {row['name']:8s} {tag:5s} k={row['kernel_size']} "
              f"kernels {row['kernels']:6d} dense {row['dense_bytes']:8d}B "
              f"packed {row['compressed_bytes']:8d}B "
              f"ratio {row['ratio']:.2f}")
    print(f"kernel_bytes dense {report['dense_kernel_bytes']} "
          f"packed {report['compressed_kernel_bytes']} "
          f"ratio {report['kernel_ratio']:.2f}")
    print(f"file_bytes {report['file_bytes']}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ghaar",
        description="Sign-pattern-constrained detector toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # only the flags a command reads: None omits config/out, True requires it
    def common(p, config=None, model=False, out=None, seed=True):
        if config is not None:
            p.add_argument("-c", "--config", required=config,
                           help="key=value configuration file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if model:
            p.add_argument("-m", "--model", required=True, help="model file")
        if out is not None:
            p.add_argument("-o", "--out", required=out, help="output directory")

    p = sub.add_parser("gen-data", help="render a synthetic dataset")
    common(p, config=True, out=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="fit a model on a rendered dataset")
    common(p, config=True, out=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--val-data", help="held-out dataset directory")
    # without --seed the file's seed key, else TrainConfig's, applies
    p.set_defaults(func=cmd_train, seed=None)

    p = sub.add_parser("eval", help="score a model against a dataset")
    common(p, config=True, model=True, out=False)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="run detection on images")
    common(p, config=False, model=True, out=True, seed=False)
    p.add_argument("images", nargs="+", help="PPM images")
    p.add_argument("--annotate", action="store_true",
                   help="also write annotated PPMs")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bench", help="measure windows/sec and multiply counts")
    common(p, config=True, model=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect-model", help="print model layout and storage")
    common(p, model=True, seed=False)
    p.set_defaults(func=cmd_inspect_model)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 4
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
