"""Detection pipeline: per-window outputs to image-space boxes, refinement,
and IoU-based scoring.

Window-local box coordinates are four edge offsets (dx1, dx2, dy1, dy2) =
(left, right, top, bottom) in window-normalized units: 0 is the window's min
edge, 1 its max edge, values outside [0, 1] describe overhang.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compressed import forward_dense
from .compressed import forward_fast  # perfbench's traced runs wrap this name
from .errors import ConfigError, DataError
from .ppm import normalize_image
from .windows import (
    DEFAULT_RATIO,
    DEFAULT_STRIDE_FRAC,
    Window,
    crop_window,
    final_windows,
)

DETECT_SCORE_THRESH = 0.5
DETECT_NMS_IOU = 0.7
MEAN_SHIFT_BANDWIDTH = 0.3
EVAL_IOU = 0.7
# windows per forward_dense call: fastest of 32/64/128/256 on the perfbench
# frames (2 cores), 55 ms per 160x120 frame and 558 ms per 1024x768 one;
# conv1's im2col columns take 14 MB at 64 windows
DETECT_BATCH_SIZE = 64


@dataclass(frozen=True)
class Detection:
    """One detected object in source-image pixels."""

    box: tuple          # (x1, y1, x2, y2)
    label: int
    score: float
    source_window: Window

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise DataError(f"degenerate detection box {self.box}")
        if not 0.0 <= self.score <= 1.0:
            raise DataError(f"detection score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruthBox:
    box: tuple          # (x1, y1, x2, y2)
    label: int

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise DataError(f"degenerate ground-truth box {self.box}")


def decode_outputs(loc, window: Window):
    """Window-normalized edge offsets to a source-pixel (x1, y1, x2, y2)."""
    dx1, dx2, dy1, dy2 = (float(v) for v in np.asarray(loc).reshape(4))
    left = window.x2d - window.d2d / 2.0
    top = window.y2d - window.d2d / 2.0
    d = window.d2d
    return (left + dx1 * d, top + dy1 * d, left + dx2 * d, top + dy2 * d)


def encode_target(box, window: Window):
    """Inverse of decode_outputs: source-pixel box to edge offsets."""
    x1, y1, x2, y2 = (float(v) for v in box)
    left = window.x2d - window.d2d / 2.0
    top = window.y2d - window.d2d / 2.0
    d = window.d2d
    return np.array([(x1 - left) / d, (x2 - left) / d,
                     (y1 - top) / d, (y2 - top) / d], dtype=np.float64)


def iou(a, b):
    """Intersection-over-union of two (x1, y1, x2, y2) boxes."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = ((a[2] - a[0]) * (a[3] - a[1])
             + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return float(inter / union)


def _area(box):
    return (box[2] - box[0]) * (box[3] - box[1])


def _rank_key(d: Detection):
    # descending score, ties broken by larger area then lexicographic box
    return (-d.score, -_area(d.box), d.box)


def _features(dets):
    boxes = np.array([d.box for d in dets], dtype=np.float64)
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    lw = np.log(boxes[:, 2] - boxes[:, 0])
    lh = np.log(boxes[:, 3] - boxes[:, 1])
    return np.stack([cx, cy, lw, lh], axis=1)


def _mean_shift_group(dets, bandwidth_frac):
    """Flat-kernel mean shift over one label's detections.

    Feature space is (cx, cy, log w, log h); position bandwidth scales with
    the group's mean box size so the blur radius tracks object scale.
    """
    feats = _features(dets)
    scores = np.maximum(np.array([d.score for d in dets]), 1e-12)
    sizes = np.exp(feats[:, 2:4]).mean(axis=1)
    h_pos = bandwidth_frac * float(sizes.mean())
    scale = np.array([h_pos, h_pos, bandwidth_frac, bandwidth_frac])
    base = feats / scale
    pts = base.copy()
    for _ in range(200):
        d2 = ((pts[:, None, :] - base[None, :, :]) ** 2).sum(axis=2)
        w = (d2 <= 1.0) * scores[None, :]
        new = (w @ base) / w.sum(axis=1)[:, None]
        shift = np.abs(new - pts).max()
        pts = new
        if shift < 1e-10:
            break
    modes = []
    members = []
    for i in range(len(dets)):
        for mi, mode in enumerate(modes):
            if ((pts[i] - mode) ** 2).sum() <= 0.25:
                members[mi].append(i)
                break
        else:
            modes.append(pts[i])
            members.append([i])
    out = []
    for idx in members:
        w = scores[idx] / scores[idx].sum()
        fm = w @ feats[idx]
        cw, ch = np.exp(fm[2]), np.exp(fm[3])
        box = (fm[0] - cw / 2.0, fm[1] - ch / 2.0,
               fm[0] + cw / 2.0, fm[1] + ch / 2.0)
        top = idx[int(np.argmax([dets[i].score for i in idx]))]
        out.append(Detection(box=box, label=dets[top].label,
                             score=dets[top].score,
                             source_window=dets[top].source_window))
    return out


def mean_shift_refine(dets, bandwidth_frac=MEAN_SHIFT_BANDWIDTH):
    """Cluster same-label detections; one score-weighted box per cluster."""
    if not bandwidth_frac > 0.0:
        raise ConfigError(f"bandwidth_frac must be positive, got {bandwidth_frac}")
    if not dets:
        return []
    out = []
    for label in sorted({d.label for d in dets}):
        out.extend(_mean_shift_group([d for d in dets if d.label == label],
                                     bandwidth_frac))
    return out


def nms(dets, iou_thresh=DETECT_NMS_IOU):
    """Greedy per-class suppression of overlaps strictly above iou_thresh."""
    if not 0.0 < iou_thresh <= 1.0:
        raise ConfigError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    kept = []
    for d in sorted(dets, key=_rank_key):
        if any(k.label == d.label and iou(k.box, d.box) > iou_thresh
               for k in kept):
            continue
        kept.append(d)
    return kept


def detect_image(model, image, cam=None, ranges=None, *,
                 stride_frac=DEFAULT_STRIDE_FRAC, ratio=DEFAULT_RATIO,
                 score_thresh=DETECT_SCORE_THRESH,
                 bandwidth_frac=MEAN_SHIFT_BANDWIDTH,
                 nms_iou=DETECT_NMS_IOU, batch_size=DETECT_BATCH_SIZE,
                 counter=None):
    """Full single-image pass: windows -> dense-route inference -> refine.

    Batches run on compressed.forward_dense, faster in numpy than
    forward_fast, so counter gets k*k multiplies per step.  Background
    label 0, scores below score_thresh and degenerate boxes are dropped
    before refinement; final_windows gives the windows a pass runs.
    Before any window is built: ConfigError on a setting outside its range,
    and DataError when the model does not take the 3-channel windows an RGB
    image yields.
    """
    if not 0.0 <= score_thresh <= 1.0:
        raise ConfigError(f"score_thresh must be in [0, 1], got {score_thresh}")
    # each refuses a bad setting before it looks at its detections
    mean_shift_refine([], bandwidth_frac)
    nms([], nms_iou)
    if model.spec.in_channels != 3:
        raise DataError(f"model takes {model.spec.in_channels}-channel "
                        "input; detection feeds it RGB windows")
    ws = model.spec.input_size
    wins, levels = final_windows(image, cam=cam, ranges=ranges, ws=ws,
                                 stride_frac=stride_frac, ratio=ratio)
    raw = []
    for lo in range(0, len(wins), batch_size):
        batch = wins[lo:lo + batch_size]
        x = normalize_image(np.stack([crop_window(w, levels, ws)
                                      for w in batch]))
        loc, probs = forward_dense(model, x, counter=counter)
        labels = probs.argmax(axis=1)
        scores = probs.max(axis=1)
        for i, win in enumerate(batch):
            if labels[i] == 0 or scores[i] < score_thresh:
                continue
            box = decode_outputs(loc[i], win)
            if box[0] >= box[2] or box[1] >= box[3]:
                continue
            raw.append(Detection(box=box, label=int(labels[i]),
                                 score=float(scores[i]), source_window=win))
    return nms(mean_shift_refine(raw, bandwidth_frac), nms_iou)


@dataclass(frozen=True)
class BandReport:
    """Precision/recall inside one implied-distance interval [z_lo, z_hi)."""

    z_lo: float
    z_hi: float
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float


@dataclass(frozen=True)
class EvalReport:
    n: int              # ground truths + false positives
    tp: int
    fp: int
    fn: int
    er_cla: float       # (FP + FN) / N
    er_loc: float       # sum of squared encode() gaps over matches / (4 N)
    precision: float
    recall: float
    bands: tuple = field(default=())


def _match_image(dets, gts, iou_thresh):
    """Greedy one-to-one matching by descending detection score."""
    taken = [False] * len(gts)
    pairs, fps = [], []
    for d in sorted(dets, key=_rank_key):
        best, best_v = -1, -1.0
        for j, g in enumerate(gts):
            if taken[j] or g.label != d.label:
                continue
            v = iou(d.box, g.box)
            if v >= iou_thresh and v > best_v:
                best, best_v = j, v
        if best >= 0:
            taken[best] = True
            pairs.append((d, gts[best]))
        else:
            fps.append(d)
    fns = [g for j, g in enumerate(gts) if not taken[j]]
    return pairs, fps, fns


def _implied_z(box, cam, d3d):
    side = ((box[2] - box[0]) + (box[3] - box[1])) / 2.0
    return cam.m11 * d3d / side - cam.m34


def check_band_edges(edges):
    """edges as a tuple; ConfigError unless there are at least two, all
    finite and strictly increasing."""
    edges = tuple(edges)
    if len(edges) < 2:
        raise ConfigError(f"distance bands need at least two edges, "
                          f"got {len(edges)}")
    if not (np.isfinite(edges).all()
            and all(lo < hi for lo, hi in zip(edges, edges[1:]))):
        raise ConfigError(f"distance band edges {edges} are not finite "
                          "and strictly increasing")
    return edges


def evaluate(dets_by_image, gts_by_image, iou_thresh=EVAL_IOU, *,
             cam=None, d3d=None, band_edges=None):
    """Detection-level scoring at the given IoU threshold.

    Both arguments map image keys to lists; the key sets must agree.  With
    cam, d3d, and band_edges (list of (z_lo, z_hi), each pair passing
    check_band_edges), precision/recall are additionally bucketed by the
    distance each box size implies.
    """
    if set(dets_by_image) != set(gts_by_image):
        raise DataError("detections and ground truths reference "
                        "different images")
    pairs, fp_dets, fn_gts = [], [], []
    loc_sum = 0.0
    for key in sorted(dets_by_image):
        p, fp_i, fn_i = _match_image(dets_by_image[key], gts_by_image[key],
                                     iou_thresh)
        pairs.extend(p)
        fp_dets.extend(fp_i)
        fn_gts.extend(fn_i)
        for d, g in p:
            diff = (encode_target(d.box, d.source_window)
                    - encode_target(g.box, d.source_window))
            loc_sum += float(diff @ diff)
    tp, fp, fn = len(pairs), len(fp_dets), len(fn_gts)
    n_gt = tp + fn
    n = n_gt + fp
    bands = ()
    if band_edges is not None:
        if cam is None or d3d is None:
            raise ConfigError("distance bands require cam and d3d")
        rows = []
        for z_lo, z_hi in band_edges:
            check_band_edges((z_lo, z_hi))
            def hit(box):
                return z_lo <= _implied_z(box, cam, d3d) < z_hi
            tp_b = sum(hit(g.box) for _, g in pairs)
            fp_b = sum(hit(d.box) for d in fp_dets)
            fn_b = sum(hit(g.box) for g in fn_gts)
            rows.append(BandReport(
                z_lo=z_lo, z_hi=z_hi, tp=tp_b, fp=fp_b, fn=fn_b,
                precision=tp_b / (tp_b + fp_b) if tp_b + fp_b else 1.0,
                recall=tp_b / (tp_b + fn_b) if tp_b + fn_b else 1.0))
        bands = tuple(rows)
    return EvalReport(
        n=n, tp=tp, fp=fp, fn=fn,
        er_cla=(fp + fn) / n if n else 0.0,
        er_loc=loc_sum / (4.0 * n) if n else 0.0,
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / n_gt if n_gt else 1.0,
        bands=bands)
