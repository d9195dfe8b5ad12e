"""Detection pipeline: per-window outputs to image-space boxes, refinement,
and IoU-based scoring.

Window-local box coordinates are four edge offsets (dx1, dx2, dy1, dy2) =
(left, right, top, bottom) in window-normalized units: 0 is the window's min
edge, 1 its max edge, values outside [0, 1] describe overhang.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .compressed import forward_dense_from
from .compressed import forward_fast  # perfbench's traced runs wrap this name
from .errors import ConfigError, DataError
from .nn_core import conv_windows
from .ppm import normalize_image
from .windows import (
    DEFAULT_RATIO,
    DEFAULT_STRIDE_FRAC,
    Window,
    crop_window,  # perfbench's traced runs wrap this name
    final_windows,
)

DETECT_SCORE_THRESH = 0.5
DETECT_NMS_IOU = 0.7
MEAN_SHIFT_BANDWIDTH = 0.3
EVAL_IOU = 0.7
# windows per forward_dense_from call, the layers after the first conv.
# Per frame, against 64, on the seed-101-103 perfbench 1024x768 frames:
# 32 takes 5% longer, 128 6% and 256 23%; on the seed-101-102 160x120 ones
# 32 ties (faster on 35 of 64 frames), 128 takes 4% and 256 13% longer
# (2 cores, medians of frames run at the four sizes in turn).
DETECT_BATCH_SIZE = 64
# pixels of a level's band the first conv runs over at once: for an RGB
# 3x3 conv its im2col columns take 216 bytes a pixel, 7 MB here
CONV_BLOCK_PIXELS = 1 << 15


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


# elements per temporary in refinement: mean shift takes its neighbour
# pairs, and nms its IoU rows, in blocks of about this many
_BLOCK = 1 << 16


def _cells(pts):
    # kept in float64: the cell of any finite coordinate is exact, and a
    # cell +-1 is exact below 2**53, beyond which points within 1 of each
    # other are equal
    return np.floor(pts[:, :2])


class _Grid:
    """Points bucketed on unit cells of their first two coordinates.

    A point within distance 1 of q is within 1 of it on each coordinate,
    so it lies in the 3x3 block of cells around q's cell.  Points are
    sorted by column, then row, each counted by its rank among the occupied
    ones, so the block's points form at most three runs: one per column.
    """

    def __init__(self, pts):
        self.pts = pts
        cells = _cells(pts)
        self.cols, self.rows = (np.unique(cells[:, a]) for a in (0, 1))
        key = self._key(np.searchsorted(self.cols, cells[:, 0]),
                        np.searchsorted(self.rows, cells[:, 1]))
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]

    def _key(self, col, row):
        return col * len(self.rows) + row

    def blocks(self, pts):
        """(Q, 3) starts, in self.order, and lengths of the point runs in
        the 3x3 block of cells around each of the Q query points."""
        cells = _cells(pts)
        col0, col_end, row0, row_end = (
            np.searchsorted(axis, cells[:, a] + step, side=side)
            for axis, a in ((self.cols, 0), (self.rows, 1))
            for step, side in ((-1.0, "left"), (1.0, "right")))
        col = col0[:, None] + np.arange(3)
        start = np.searchsorted(self.keys, self._key(col, row0[:, None]))
        end = np.searchsorted(self.keys, self._key(col, row_end[:, None]))
        return start, np.where(col < col_end[:, None], end - start, 0)

    def pairs(self, start, length):
        """(query row, point index) for every point in the runs that
        blocks() gave, grouped by query row."""
        n = length.ravel()
        pos = np.arange(n.sum()) + np.repeat(start.ravel() - np.cumsum(n) + n,
                                             n)
        query = np.repeat(np.arange(len(length)), length.sum(axis=1))
        return query, self.order[pos]


def _shift(pts, grid, weighted):
    """One flat-kernel step: each point moves to the score-weighted mean of
    the grid points within distance 1 of it, a block of queries at a time.
    weighted holds each grid point's score times its coordinates, then its
    score, so one bincount sums every column."""
    start, length = grid.blocks(pts)
    per_query = length.sum(axis=1)
    block = (np.cumsum(per_query) - per_query) // _BLOCK
    edges = np.concatenate(([0], np.flatnonzero(block[1:] != block[:-1]) + 1,
                            [len(pts)]))
    cols = weighted.shape[1]
    new = np.empty_like(pts)
    for lo, hi in zip(edges[:-1], edges[1:]):
        q, j = grid.pairs(start[lo:hi], length[lo:hi])
        near = ((pts[lo:hi][q] - grid.pts[j]) ** 2).sum(axis=1) <= 1.0
        q, j = q[near], j[near]
        sums = np.bincount((q[:, None] * cols + np.arange(cols)).ravel(),
                           weights=weighted[j].ravel(),
                           minlength=(hi - lo) * cols).reshape(-1, cols)
        new[lo:hi] = sums[:, :-1] / sums[:, -1:]
    return new


def _merge_modes(pts):
    """Member lists, one per mode in creation order: in index order, each
    point joins the first mode within distance 0.5 of it, or starts one.
    Modes are bucketed by cell, and only the 3x3 block of cells around a
    point can hold one in reach."""
    modes, members, by_cell = [], [], {}
    around = list(itertools.product((-1.0, 0.0, 1.0), repeat=2))
    cells = _cells(pts).tolist()
    for i, (p, (gx, gy)) in enumerate(zip(pts.tolist(), cells)):
        first = len(modes)
        for dx, dy in around:
            for m in by_cell.get((gx + dx, gy + dy), ()):
                if m < first:
                    a, b, c, e = (u - v for u, v in zip(p, modes[m]))
                    if a * a + b * b + c * c + e * e <= 0.25:
                        first = m
        if first == len(modes):
            modes.append(p)
            members.append([])
            by_cell.setdefault((gx, gy), []).append(first)
        members[first].append(i)
    return members


def _mean_shift_group(dets, bandwidth_frac):
    """Flat-kernel mean shift over one label's detections.

    Feature space is (cx, cy, log w, log h); position bandwidth scales with
    the group's mean box size so the blur radius tracks object scale.  In
    bandwidth units the kernel's radius is 1, so each point's neighbours
    are looked for only in the 3x3 block of unit (cx, cy) cells around it,
    and modes merge (radius 0.5) through the same cells: the cost grows
    with the points in those blocks, not with the square of the group.
    """
    feats = _features(dets)
    scores = np.maximum(np.array([d.score for d in dets]), 1e-12)
    sizes = np.exp(feats[:, 2:4]).mean(axis=1)
    h_pos = bandwidth_frac * float(sizes.mean())
    scale = np.array([h_pos, h_pos, bandwidth_frac, bandwidth_frac])
    base = feats / scale
    grid = _Grid(base)
    weighted = np.concatenate([base * scores[:, None], scores[:, None]],
                              axis=1)
    pts = base.copy()
    # a step's result for a point depends on its own position alone, so a
    # point that a step left in place stays there: only the others step
    moving = np.arange(len(pts))
    for _ in range(200):
        new = _shift(pts[moving], grid, weighted)
        shift = np.abs(new - pts[moving]).max()
        still = (new == pts[moving]).all(axis=1)
        pts[moving] = new
        moving = moving[~still]
        if shift < 1e-10:
            break
    out = []
    for idx in _merge_modes(pts):
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
    """Greedy per-class suppression of overlaps strictly above iou_thresh.

    In _rank_key order, a box is kept when no kept box of its label
    overlaps it by more than iou_thresh.  Each label's IoU rows come a
    block of rows at a time, in iou's float64 operation order, so the
    result is the pairwise loop's: the given objects, in rank order.
    """
    if not 0.0 < iou_thresh <= 1.0:
        raise ConfigError(f"iou_thresh must be in (0, 1], got {iou_thresh}")
    ranked = sorted(dets, key=_rank_key)
    boxes = np.array([d.box for d in ranked], dtype=np.float64).reshape(-1, 4)
    labels = np.array([d.label for d in ranked])
    keep = np.zeros(len(ranked), dtype=bool)
    for label in np.unique(labels):
        at = np.flatnonzero(labels == label)
        b = boxes[at]
        area = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
        free = np.ones(len(at), dtype=bool)     # no kept box suppresses it
        step = max(1, _BLOCK // len(at))
        for lo in range(0, len(at), step):
            # rows lo..lo+step against the boxes from lo on: iou(k, d) for
            # k in the rows; a pair that does not overlap gets iw or ih
            # clipped to 0, so inter 0 and IoU 0, as in iou
            k, d = b[lo:lo + step, None, :], b[lo:]
            iw = np.minimum(k[..., 2], d[:, 2]) - np.maximum(k[..., 0], d[:, 0])
            ih = np.minimum(k[..., 3], d[:, 3]) - np.maximum(k[..., 1], d[:, 1])
            inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
            union = area[lo:lo + step, None] + area[lo:] - inter
            for i, row in enumerate(inter / union > iou_thresh, start=lo):
                if free[i]:
                    keep[at[i]] = True
                    free[lo:] &= ~row
    return [det for det, kept in zip(ranked, keep) if kept]


def _first_conv_batches(model, levels, batch_size):
    """(start, output) per batch of at most batch_size windows, in
    final_windows' order: start indexes the batch's first window in its
    list, and output is the trunk's first conv over the batch, (O, n, ws,
    ws) as forward_dense computes it on the cropped and normalized pixels,
    bit for bit.  The conv runs once over each rectangle that a level's kept
    axes are cut into, of at most CONV_BLOCK_PIXELS pixels (or one block):
    whole rows of windows while a row of blocks fits, else runs of one
    row's columns, so a rectangle's windows are consecutive."""
    ws = model.spec.input_size
    lp = model.params.layers[model.spec.shared_trunk[0].name]

    def runs(axis, offset, span):
        # the axis on the band, cut into runs whose blocks fit in span px
        a = np.asarray(axis) - offset
        return np.split(a, np.flatnonzero(np.diff(a // (span - ws + 1))) + 1)

    start = 0
    for level in (lv for lv in levels if lv.xs and lv.ys):
        rows = max(ws, CONV_BLOCK_PIXELS // level.image.shape[1])
        cols = max(ws, CONV_BLOCK_PIXELS // rows)
        ox, oy = level.origin
        for yr, xr in itertools.product(runs(level.ys, oy, rows),
                                        runs(level.xs, ox, cols)):
            band = level.image[yr[0]:yr[-1] + ws, xr[0]:xr[-1] + ws]
            corners = np.stack(np.meshgrid(xr - xr[0], yr - yr[0]),
                               axis=-1).reshape(-1, 2)
            read = None             # the last rectangle's conv, freed first
            read = conv_windows(normalize_image(band), lp.kernels, lp.bias,
                                corners, ws)
            stop = start + len(corners)
            for lo in range(start, stop, batch_size):
                yield lo, read(lo - start, min(lo + batch_size, stop) - start)
            start = stop


def detect_image(model, image, cam=None, ranges=None, *,
                 stride_frac=DEFAULT_STRIDE_FRAC, ratio=DEFAULT_RATIO,
                 score_thresh=DETECT_SCORE_THRESH,
                 bandwidth_frac=MEAN_SHIFT_BANDWIDTH,
                 nms_iou=DETECT_NMS_IOU, batch_size=DETECT_BATCH_SIZE,
                 counter=None):
    """Full single-image pass: windows -> dense-route inference -> refine.

    The dense route is faster in numpy than forward_fast, so counter gets
    k*k multiplies per step.  Its first trunk conv runs once per rectangle
    cut from final_windows' levels (_first_conv_batches), and batches of
    at most batch_size of its windows run the rest of it
    (forward_dense_from): the detections are bit for bit those of
    forward_dense on the cropped windows, at any batch size.  Background
    label 0, scores below score_thresh and degenerate boxes are dropped
    before refinement.  Before any window is built: ConfigError on a
    setting outside its range (batch_size an integer >= 1), and DataError
    when the model does not take the 3-channel windows of an RGB image.
    """
    if not 0.0 <= score_thresh <= 1.0:
        raise ConfigError(f"score_thresh must be in [0, 1], got {score_thresh}")
    if not (isinstance(batch_size, (int, np.integer)) and batch_size >= 1):
        raise ConfigError(f"batch_size must be an integer >= 1, "
                          f"got {batch_size!r}")
    # each refuses a bad setting before it looks at its detections
    mean_shift_refine([], bandwidth_frac)
    nms([], nms_iou)
    if model.spec.in_channels != 3:
        raise DataError(f"model takes {model.spec.in_channels}-channel "
                        "input; detection feeds it RGB windows")
    wins, levels = final_windows(image, cam=cam, ranges=ranges,
                                 ws=model.spec.input_size,
                                 stride_frac=stride_frac, ratio=ratio)
    raw = []
    for lo, first in _first_conv_batches(model, levels, batch_size):
        batch = wins[lo:lo + first.shape[1]]
        loc, probs = forward_dense_from(model, first, counter=counter)
        labels = probs.argmax(axis=1)
        scores = probs.max(axis=1)
        # not "scores >= score_thresh": a NaN score reaches Detection's check
        for i in np.flatnonzero((labels != 0) & ~(scores < score_thresh)):
            win = batch[i]
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
    cam, d3d, and band_edges (edges z0 < z1 < ..., as check_band_edges
    admits them), precision/recall are additionally reported per band
    [z_k, z_k+1) of the depth z3d that CameraModel.implied gives each box,
    its side the mean of its width and height.
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
        edges = check_band_edges(band_edges)
        # z3d of each matched, false and missed box
        depths = [[cam.implied((x1 + x2) / 2.0, (y1 + y2) / 2.0,
                               ((x2 - x1) + (y2 - y1)) / 2.0, d3d)[2]
                   for x1, y1, x2, y2 in boxes]
                  for boxes in ([g.box for _, g in pairs],
                                [d.box for d in fp_dets],
                                [g.box for g in fn_gts])]
        rows = []
        for z_lo, z_hi in zip(edges, edges[1:]):
            tp_b, fp_b, fn_b = (sum(z_lo <= z < z_hi for z in zs)
                                for zs in depths)
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
