"""Synthetic scene generator and training-sample extractor.

Scenes are textured-noise backgrounds with flat-shaded objects: class 1 is a
filled square, class 2 a filled disc.  Object placement is geometry
consistent: a 3D position is sampled inside the configured lateral/vertical
ranges with depth chosen so the projected size lands in the requested pixel
band, then projected through the camera, so every annotation's implied 3D
point sits inside the scene ranges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .pipeline import GroundTruthBox, encode_target
from .ppm import bilinear_resize, read_boxes, read_ppm, write_boxes, write_ppm
from .windows import (
    DEFAULT_RATIO,
    DEFAULT_WS,
    RS_HI,
    RS_LO,
    CameraModel,
    SceneRanges,
    _level_band,
    _level_sizes,
    corner_window,
)

BG_LO = 60.0      # background texture value band
BG_HI = 190.0


@dataclass
class SynthSettings:
    n_images: int = 20
    image_w: int = 512
    image_h: int = 384
    ws: int = DEFAULT_WS
    max_objects: int = 2
    size_lo: float = None    # apparent object side in pixels; default Rs band
    size_hi: float = None
    tries: int = 40
    split: str = "train"
    color_margin: int = 0    # min distance of object channels from the
                             # background value band; 0 keeps free colors

    def __post_init__(self):
        if self.ws < 1:
            raise ConfigError(f"window size ws must be >= 1, got {self.ws}")
        if self.size_lo is None:
            self.size_lo = RS_LO * self.ws
        if self.size_hi is None:
            self.size_hi = RS_HI * self.ws
        if self.n_images < 1 or self.max_objects < 1 or self.tries < 1:
            raise ConfigError("n_images, max_objects, tries must be >= 1")
        if not 0 < self.size_lo <= self.size_hi:
            raise ConfigError(
                f"bad size band [{self.size_lo}, {self.size_hi}]")
        if self.image_w < self.ws or self.image_h < self.ws:
            raise ConfigError("canvas smaller than the window size")
        if not 0 <= self.color_margin <= BG_LO - 1:
            raise ConfigError(
                f"color margin must be in [0, {BG_LO - 1}], "
                f"got {self.color_margin}")


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple       # (filename, tuple of GroundTruthBox)
    split: str
    seed: int


def _textured_background(rng, h, w):
    coarse = rng.uniform(BG_LO, BG_HI,
                         size=(max(h // 16, 2), max(w // 16, 2), 3))
    base = bilinear_resize(coarse, h, w)
    base += rng.normal(0.0, 12.0, size=(h, w, 3))
    return np.clip(base, 0, 255).astype(np.uint8)


def _object_color(rng, st: SynthSettings):
    """Flat-shade color; with a margin set, channels avoid the bg band."""
    if st.color_margin <= 0:
        return rng.integers(30, 226, size=3).astype(np.uint8)
    dark = rng.integers(0, int(BG_LO) - st.color_margin + 1, size=3)
    bright = rng.integers(int(BG_HI) + st.color_margin, 256, size=3)
    pick = rng.integers(0, 2, size=3).astype(bool)
    return np.where(pick, bright, dark).astype(np.uint8)


def _draw_object(image, box, label, color):
    h, w, _ = image.shape
    x1, y1, x2, y2 = box
    ys = np.arange(int(np.floor(y1)), int(np.ceil(y2)) + 1)
    xs = np.arange(int(np.floor(x1)), int(np.ceil(x2)) + 1)
    ys = ys[(ys >= 0) & (ys < h)]
    xs = xs[(xs >= 0) & (xs < w)]
    py = ys[:, None] + 0.5
    px = xs[None, :] + 0.5
    if label == 1:
        mask = (px >= x1) & (px <= x2) & (py >= y1) & (py <= y2)
    else:
        cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
        r = (x2 - x1) / 2.0
        mask = (px - cx) ** 2 + (py - cy) ** 2 <= r * r
    region = image[np.ix_(ys, xs)]
    region[mask] = color
    image[np.ix_(ys, xs)] = region


def _intersects(a, b):
    return a[0] < b[2] and a[2] > b[0] and a[1] < b[3] and a[3] > b[1]


def _sample_objects(rng, cam: CameraModel, ranges: SceneRanges,
                    st: SynthSettings):
    """Boxed object placements for one image; empty when nothing fits."""
    # keep a hair inside the 3D ranges so file rounding cannot push the
    # implied point back out
    mx = 1e-3 * (ranges.x3d_max - ranges.x3d_min)
    my = 1e-3 * (ranges.y3d_max - ranges.y3d_min)
    out = []
    taken = []
    n_obj = int(rng.integers(1, st.max_objects + 1))
    for _ in range(n_obj):
        for _attempt in range(st.tries):
            side = float(rng.uniform(st.size_lo, st.size_hi))
            _, _, z3d = cam.implied(0.0, 0.0, side, ranges.d3d)
            if z3d <= 0:
                continue
            x3d = float(rng.uniform(ranges.x3d_min + mx, ranges.x3d_max - mx))
            y3d = float(rng.uniform(ranges.y3d_min + my, ranges.y3d_max - my))
            x2d, y2d, d2d = cam.project(x3d, y3d, z3d, ranges.d3d)
            box = (x2d - d2d / 2, y2d - d2d / 2,
                   x2d + d2d / 2, y2d + d2d / 2)
            if box[0] < 1 or box[1] < 1 or box[2] > st.image_w - 1 \
                    or box[3] > st.image_h - 1:
                continue
            pad = (box[0] - 2, box[1] - 2, box[2] + 2, box[3] + 2)
            if any(_intersects(pad, t) for t in taken):
                continue
            label = int(rng.integers(1, 3))
            out.append((box, label))
            taken.append(box)
            break
    return out


def synth_generate(settings: SynthSettings, cam: CameraModel,
                   ranges: SceneRanges, out_dir, seed: int):
    """Render n_images scenes with sidecar annotations; returns the manifest.

    Deterministic per seed, down to the written bytes.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    placed = 0
    for i in range(settings.n_images):
        image = _textured_background(rng, settings.image_h, settings.image_w)
        gts = []
        for box, label in _sample_objects(rng, cam, ranges, settings):
            color = _object_color(rng, settings)
            _draw_object(image, box, label, color)
            gts.append(GroundTruthBox(tuple(round(v, 4) for v in box), label))
        name = f"{settings.split}_{i:05d}"
        write_ppm(os.path.join(out_dir, name + ".ppm"), image)
        write_boxes(os.path.join(out_dir, name + ".txt"),
                    [(g.label, g.box) for g in gts])
        entries.append((name + ".ppm", tuple(gts)))
        placed += len(gts)
    if placed == 0:
        raise DataError("no object placement fit the frustum; the camera, "
                        "ranges, and canvas are inconsistent")
    manifest = DatasetManifest(entries=tuple(entries), split=settings.split,
                               seed=seed)
    write_manifest(manifest, out_dir)
    return manifest


def write_manifest(manifest: DatasetManifest, out_dir):
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"split {manifest.split}\n")
        fh.write(f"seed {manifest.seed}\n")
        for name, _gts in manifest.entries:
            fh.write(name + "\n")


def load_manifest(src_dir) -> DatasetManifest:
    path = os.path.join(src_dir, "manifest.txt")
    if not os.path.exists(path):
        raise DataError(f"no manifest.txt under {src_dir}")
    split, seed, names = "train", 0, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("split "):
                split = line.split(None, 1)[1]
            elif line.startswith("seed "):
                try:
                    seed = int(line.split(None, 1)[1])
                except ValueError:
                    raise DataError(f"{path}: seed line {line!r} is not an integer")
            else:
                names.append(line)
    entries = []
    for name in names:
        img_path = os.path.join(src_dir, name)
        if not os.path.exists(img_path):
            raise DataError(f"manifest references missing image {name}")
        boxes = read_boxes(os.path.join(src_dir,
                                        os.path.splitext(name)[0] + ".txt"))
        entries.append((name, tuple(GroundTruthBox(b, label)
                                    for label, b in boxes)))
    return DatasetManifest(entries=tuple(entries), split=split, seed=seed)


def _window_at(cx, cy, lh, lw, ws):
    """Top-left corner (x, y) of the ws-px window centred nearest (cx, cy)
    on an lh x lw level, clipped so the window stays inside the level."""
    x0 = int(np.clip(round(cx - ws / 2), 0, lw - ws))
    y0 = int(np.clip(round(cy - ws / 2), 0, lh - ws))
    return x0, y0


def _band_level(sizes, side, ws):
    """The pyramid level whose size band sits closest to the object side."""
    mid = np.sqrt(RS_LO * RS_HI)
    best, best_d = 0, np.inf
    for k, (scale, _, _) in enumerate(sizes):
        d = abs(np.log(side / (scale * ws)) - np.log(mid))
        if d < best_d:
            best, best_d = k, d
    return best


def check_extract_settings(n_jitter=1, jitter_frac=0.0, bg_ratio=0.0,
                           flip=False):
    """ConfigError unless n_jitter >= 1 and jitter_frac, bg_ratio >= 0: the
    rule for extract_samples' settings.  A setting left out passes (flip
    always does), so the keywords a config sets can be checked alone."""
    if n_jitter < 1 or bg_ratio < 0 or jitter_frac < 0:
        raise ConfigError("n_jitter must be >= 1, and bg_ratio and "
                          "jitter_frac >= 0")


def extract_samples(manifest: DatasetManifest, src_dir, *, ws=DEFAULT_WS,
                    ratio=DEFAULT_RATIO, n_jitter=2, jitter_frac=0.15,
                    bg_ratio=3.0, flip=False, seed=0):
    """Window-level training arrays from a rendered dataset.

    Positives are n_jitter shifted windows around each object on the level
    whose size band holds it; backgrounds are object-free, round(bg_ratio x
    positives) per image.  Each ws x ws block is resampled alone at its
    corner, bit-equal to that block of the whole level.  flip follows every
    sample with its mirror and moves no other.  Returns (patches, loc,
    labels), patches as uint8 (N, ws, ws, 3).
    """
    check_extract_settings(n_jitter, jitter_frac, bg_ratio)
    rng = np.random.default_rng(seed)
    patches, locs, labels = [], [], []

    def add(patch, loc, label):
        samples = [(patch, loc)]
        if flip:   # an object's loc mirrors with it; a background's is 0
            mirrored = (1.0 - loc[1], 1.0 - loc[0], loc[2], loc[3])
            samples.append((patch[:, ::-1], mirrored if label else loc))
        for patch, loc in samples:
            patches.append(np.ascontiguousarray(patch))
            locs.append(np.asarray(loc, dtype=np.float32))
            labels.append(label)

    for name, gts in manifest.entries:
        image = read_ppm(os.path.join(src_dir, name))
        sizes = _level_sizes(image.shape, ws, ratio)

        def block(k, x0, y0):
            return _level_band(image, *sizes[k], (y0, y0 + ws), (x0, x0 + ws))

        for gt in gts:
            x1, y1, x2, y2 = gt.box
            side = ((x2 - x1) + (y2 - y1)) / 2.0
            k = _band_level(sizes, side, ws)
            scale, lh, lw = sizes[k]
            for _ in range(n_jitter):
                jx, jy = rng.uniform(-jitter_frac, jitter_frac, size=2) * ws
                x0, y0 = _window_at((x1 + x2) / 2.0 / scale + jx,
                                    (y1 + y2) / 2.0 / scale + jy, lh, lw, ws)
                add(block(k, x0, y0),
                    encode_target(gt.box, corner_window(scale, k, x0, y0, ws)),
                    gt.label)
        for _ in range(int(round(bg_ratio * (n_jitter * len(gts))))):
            for _attempt in range(50):
                k = int(rng.integers(0, len(sizes)))
                s, lh, lw = sizes[k]
                x0 = int(rng.integers(0, lw - ws + 1))
                y0 = int(rng.integers(0, lh - ws + 1))
                wbox = (x0 * s, y0 * s, (x0 + ws) * s, (y0 + ws) * s)
                if any(_intersects(wbox, g.box) for g in gts):
                    continue
                add(block(k, x0, y0), np.zeros(4), 0)
                break
    if not patches:
        raise DataError("dataset produced no training samples")
    return (np.stack(patches), np.stack(locs),
            np.asarray(labels, dtype=np.int64))
