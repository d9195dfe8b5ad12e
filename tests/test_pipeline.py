"""Box codec, refinement, and evaluation behavior."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghaar.errors import ConfigError, DataError
from ghaar import compressed as cm
from ghaar import haar_space as hs
from ghaar import nn_core as nn
from ghaar import pipeline as pl
from ghaar import training as tr
from ghaar.ppm import normalize_image
from ghaar.windows import (CameraModel, SceneRanges, Window, block_corner,
                           crop_window, final_windows)


def win(cx=24.0, cy=24.0, d=48.0, level=0):
    return Window(x2d=cx, y2d=cy, d2d=d, level=level)


def det(box, label=1, score=0.9, window=None):
    return pl.Detection(box=box, label=label, score=score,
                        source_window=window or win())


def test_decode_examples():
    w = win(24.0, 24.0, 48.0, 0)
    assert pl.decode_outputs((0, 1, 0, 1), w) == (0.0, 0.0, 48.0, 48.0)
    assert pl.decode_outputs((0.25, 0.75, 0.25, 0.75), w) == (
        12.0, 12.0, 36.0, 36.0)
    scaled = win(48.0, 48.0, 96.0, 1)
    assert pl.decode_outputs((0.25, 0.75, 0.25, 0.75), scaled) == (
        24.0, 24.0, 72.0, 72.0)


def test_encode_decode_round_trip():
    rng = np.random.default_rng(3)
    worst_loc = worst_box = 0.0
    for _ in range(1000):
        w = win(cx=float(rng.uniform(30, 900)), cy=float(rng.uniform(30, 700)),
                d=float(rng.uniform(20, 200)), level=int(rng.integers(0, 5)))
        loc = rng.uniform(-0.5, 1.5, size=4)
        loc[1] = loc[0] + abs(loc[1] - loc[0]) + 1e-3
        loc[3] = loc[2] + abs(loc[3] - loc[2]) + 1e-3
        box = pl.decode_outputs(loc, w)
        worst_loc = max(worst_loc,
                        np.abs(pl.encode_target(box, w) - loc).max())
        back = pl.decode_outputs(pl.encode_target(box, w), w)
        worst_box = max(worst_box, max(abs(a - b) for a, b in zip(back, box)))
    assert worst_loc <= 1e-9
    assert worst_box <= 1e-9


def test_iou_examples():
    assert pl.iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert pl.iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0
    assert pl.iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1.0 / 3.0)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = np.sort(rng.uniform(0, 100, size=4))
        b = np.sort(rng.uniform(0, 100, size=4))
        ba = (a[0], a[1], a[2], a[3])
        bb = (b[0], b[1], b[2], b[3])
        v = pl.iou(ba, bb)
        assert 0.0 <= v <= 1.0
        assert v == pl.iou(bb, ba)


def test_nms_examples():
    a = det((0, 0, 20, 20), score=0.9)
    b = det((1, 1, 19, 19), score=0.8)
    assert pl.nms([a]) == [a]
    assert pl.nms([b, a], 0.7) == [a]
    far = det((40, 40, 60, 60), score=0.8)
    assert pl.nms([a, far], 0.7) == [a, far]
    other = pl.Detection(box=(1, 1, 19, 19), label=2, score=0.8,
                         source_window=win())
    assert pl.nms([a, other], 0.7) == [a, other]


def test_nms_tie_rules():
    big = det((0, 0, 20, 20), score=0.8)
    small = det((1, 1, 19, 19), score=0.8)
    assert pl.nms([small, big], 0.7) == [big]
    left = det((0, 0, 10, 10), score=0.8)
    right = det((1, 0, 11, 10), score=0.8)
    assert pl.nms([right, left], 0.7) == [left]


def test_nms_output_is_antichain():
    rng = np.random.default_rng(11)
    dets = []
    for _ in range(60):
        x, y = rng.uniform(0, 80, size=2)
        w, h = rng.uniform(5, 30, size=2)
        dets.append(pl.Detection(
            box=(x, y, x + w, y + h), label=int(rng.integers(1, 3)),
            score=float(rng.uniform(0.1, 1.0)), source_window=win()))
    kept = pl.nms(dets, 0.4)
    assert all(k in dets for k in kept)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            if a.label == b.label:
                assert pl.iou(a.box, b.box) <= 0.4
    with pytest.raises(ConfigError):
        pl.nms(dets, 0.0)


def test_nms_threshold_is_strict():
    a = det((0, 0, 10, 10), score=0.8)
    half = det((0, 0, 10, 5), score=0.8)       # IoU with a exactly 0.5
    assert pl.iou(a.box, half.box) == 0.5
    assert pl.nms([half, a], 0.5) == [a, half]
    assert pl.nms([half, a], 0.49) == [a]
    # exact duplicates: IoU 1.0 is suppressed below 1.0 and kept at 1.0;
    # the stable sort keeps the first of the tie
    twin = det((0, 0, 10, 10), score=0.8)
    assert [id(d) for d in pl.nms([twin, a], 0.7)] == [id(twin)]
    assert [id(d) for d in pl.nms([twin, a], 1.0)] == [id(twin), id(a)]


def test_mean_shift_empty_and_single():
    assert pl.mean_shift_refine([]) == []
    d = det((10, 20, 50, 70), score=0.7)
    out = pl.mean_shift_refine([d])
    assert len(out) == 1
    assert np.allclose(out[0].box, d.box, atol=1e-9)
    assert out[0].label == d.label and out[0].score == d.score


def test_mean_shift_two_clusters():
    d1 = det((10, 10, 50, 50), score=0.9)
    d2 = det((14, 10, 54, 50), score=0.6)
    d3 = det((300, 200, 340, 240), score=0.8)
    out = pl.mean_shift_refine([d1, d2, d3], 0.3)
    assert len(out) == 2
    merged = next(o for o in out if o.box[0] < 100)
    lone = next(o for o in out if o.box[0] > 100)
    # score-weighted center: (0.9*30 + 0.6*34) / 1.5 = 31.6, size stays 40
    assert np.allclose(merged.box, (11.6, 10.0, 51.6, 50.0), atol=1e-9)
    assert merged.score == 0.9
    assert merged.source_window == d1.source_window
    assert np.allclose(lone.box, d3.box, atol=1e-9)


def test_mean_shift_fixed_point():
    dets = [det((10, 10, 50, 50), score=0.9),
            det((14, 10, 54, 50), score=0.6),
            det((300, 200, 340, 240), score=0.8)]
    once = pl.mean_shift_refine(dets, 0.3)
    twice = pl.mean_shift_refine(once, 0.3)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        assert np.allclose(a.box, b.box, atol=1e-9)
        assert a.score == b.score


def scan_modes(pts):
    """pl._merge_modes as a scan over every mode for each point."""
    modes, members = [], []
    for i in range(len(pts)):
        for mi, mode in enumerate(modes):
            if ((pts[i] - mode) ** 2).sum() <= 0.25:
                members[mi].append(i)
                break
        else:
            modes.append(pts[i])
            members.append([i])
    return members


def dense_mean_shift_group(dets, bandwidth_frac):
    """pl._mean_shift_group as a dense (N, N) iteration and a scan over
    every mode: the reference the cell-bucketed form is held to."""
    feats = pl._features(dets)
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
    out = []
    for idx in scan_modes(pts):
        w = scores[idx] / scores[idx].sum()
        fm = w @ feats[idx]
        cw, ch = np.exp(fm[2]), np.exp(fm[3])
        box = (fm[0] - cw / 2.0, fm[1] - ch / 2.0,
               fm[0] + cw / 2.0, fm[1] + ch / 2.0)
        top = idx[int(np.argmax([dets[i].score for i in idx]))]
        out.append(pl.Detection(box=box, label=dets[top].label,
                                score=dets[top].score,
                                source_window=dets[top].source_window))
    return out


def reference_mean_shift_refine(dets, bandwidth_frac):
    out = []
    for label in sorted({d.label for d in dets}):
        out.extend(dense_mean_shift_group(
            [d for d in dets if d.label == label], bandwidth_frac))
    return out


def pairwise_nms(dets, iou_thresh):
    """pl.nms as a loop over every kept box: the reference for IoU rows."""
    kept = []
    for d in sorted(dets, key=pl._rank_key):
        if any(k.label == d.label and pl.iou(k.box, d.box) > iou_thresh
               for k in kept):
            continue
        kept.append(d)
    return kept


def clustered_detections(rng, n, per_object):
    """n raw detections scattered around n / per_object objects, as
    detection yields them: jittered boxes of each object's size, mostly its
    label, scores on a few levels (so they tie) and exact duplicates."""
    k = max(1, round(n / per_object))
    centers = rng.uniform(0, 400, size=(k, 2))
    sides = np.exp(rng.uniform(np.log(12), np.log(120), size=k))
    labels = rng.integers(1, 3, size=k)
    dets = []
    while len(dets) < n:
        if dets and rng.random() < 0.08:
            d = dets[int(rng.integers(len(dets)))]
            dets.append(dataclasses.replace(d))        # an equal, new object
            continue
        o = int(rng.integers(k))
        w, h = sides[o] * np.exp(rng.normal(0.0, 0.1, size=2))
        cx, cy = centers[o] + rng.normal(0.0, 0.15 * sides[o], size=2)
        label = int(labels[o]) if rng.random() > 0.1 else 3 - int(labels[o])
        dets.append(pl.Detection(
            box=(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), label=label,
            score=float(rng.choice([0.5, 0.6, 0.75, 0.9])),
            source_window=win(cx=float(cx), cy=float(cy), d=float(sides[o]))))
    return dets


def same_detections(got, want):
    return (len(got) == len(want)
            and all((g.label, g.score, g.source_window)
                    == (w.label, w.score, w.source_window)
                    for g, w in zip(got, want))
            and (np.array([g.box for g in got]).tobytes()
                 == np.array([w.box for w in want]).tobytes()))


@pytest.mark.parametrize("seed", range(16))
def test_mean_shift_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 250)) if seed else 1000
    dets = clustered_detections(rng, n, per_object=rng.uniform(1.5, 12))
    for bandwidth in (pl.MEAN_SHIFT_BANDWIDTH, rng.uniform(0.05, 1.0)):
        got = pl.mean_shift_refine(dets, bandwidth)
        want = reference_mean_shift_refine(dets, bandwidth)
        assert same_detections(got, want), (seed, bandwidth)


def test_mean_shift_joins_the_first_mode_in_reach():
    # in bandwidth units (size 10, so 3 px): a, c and b at 0, 1.8 and 0.85
    # shift to 0.425, 1.325 and 0.883; b is within 0.5 of both modes and
    # joins a's, the first, though c's is nearer
    box = lambda x: (3 * x - 5, 0.0, 3 * x + 5, 10.0)
    a, c, b = (det(box(x), score=0.8) for x in (0.0, 1.8, 0.85))
    want = reference_mean_shift_refine([a, c, b], 0.3)
    assert len(want) == 2
    assert same_detections(pl.mean_shift_refine([a, c, b], 0.3), want)


def test_mode_merge_matches_a_scan_over_every_mode():
    # points packed so that many lie within 0.5 of modes in each of the 8
    # neighbouring cells
    rng = np.random.default_rng(37)
    for trial in range(60):
        n = int(rng.integers(1, 200))
        pts = rng.uniform(-2.0, 2.0, size=(n, 4)) * [1.0, 1.0, 0.2, 0.2]
        assert pl._merge_modes(pts) == scan_modes(pts), trial


def test_nms_matches_pairwise_reference():
    rng = np.random.default_rng(29)
    for trial in range(120):
        dets = clustered_detections(rng, int(rng.integers(0, 60)),
                                    per_object=rng.uniform(1.0, 6.0))
        if trial % 3 == 0:
            dets = pl.mean_shift_refine(dets)
        # thresholds at IoUs that occur in the set, so some pairs sit
        # exactly on them
        thresholds = [0.5, 1.0, float(rng.uniform(0.05, 0.95))]
        for _ in range(4):
            if len(dets) > 1:
                i, j = rng.choice(len(dets), size=2, replace=False)
                v = pl.iou(dets[i].box, dets[j].box)
                if v > 0.0:
                    thresholds.append(v)
        for t in thresholds:
            got = pl.nms(dets, t)
            assert [id(d) for d in got] == [id(d) for d in pairwise_nms(
                dets, t)], (trial, t)


def test_refinement_scales_to_thousands_of_detections():
    dets = clustered_detections(np.random.default_rng(41), 3000,
                                per_object=12)
    t0 = time.perf_counter()
    out = pl.nms(pl.mean_shift_refine(dets))
    elapsed = time.perf_counter() - t0
    tracemalloc.start()
    pl.nms(pl.mean_shift_refine(dets))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert 0 < len(out) < len(dets)
    # the dense form takes seconds and an (N, N, 4) array of 288 MB here
    assert elapsed < 2.0
    assert peak < 3000 * 3000 * 8 / 4


def test_evaluate_perfect():
    gt = [pl.GroundTruthBox((0, 0, 48, 48), 1)]
    dets = [det((0, 0, 48, 48), label=1, score=0.9)]
    rep = pl.evaluate({"a": dets}, {"a": gt})
    assert (rep.tp, rep.fp, rep.fn) == (1, 0, 0)
    assert rep.er_cla == 0.0 and rep.er_loc == 0.0
    assert rep.precision == 1.0 and rep.recall == 1.0


def test_evaluate_all_missed():
    gts = {"a": [pl.GroundTruthBox((0, 0, 48, 48), 1),
                 pl.GroundTruthBox((100, 100, 140, 140), 2)]}
    rep = pl.evaluate({"a": []}, gts)
    assert (rep.tp, rep.fp, rep.fn) == (0, 0, 2)
    assert rep.n == 2
    assert rep.er_cla == 1.0
    assert rep.recall == 0.0


def test_evaluate_extra_detection_is_fp():
    gt = [pl.GroundTruthBox((0, 0, 48, 48), 1)]
    good = det((0, 1, 48, 48), label=1, score=0.8)
    stray = det((200, 200, 240, 240), label=1, score=0.95)
    rep = pl.evaluate({"a": [good, stray]}, {"a": gt})
    assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)
    assert rep.n == 2
    assert rep.er_cla == 0.5
    assert rep.precision == 0.5 and rep.recall == 1.0


def test_evaluate_er_loc_hand_value():
    w = win(24.0, 24.0, 48.0)
    gt = [pl.GroundTruthBox((0, 0, 48, 48), 1)]
    dets = [pl.Detection(box=(2, 0, 48, 48), label=1, score=0.9,
                         source_window=w)]
    rep = pl.evaluate({"a": dets}, {"a": gt})
    assert rep.tp == 1
    # encode gap is (2/48, 0, 0, 0); squared norm / (4 * 1)
    assert rep.er_loc == pytest.approx((2.0 / 48.0) ** 2 / 4.0, abs=1e-12)


def test_evaluate_label_must_match():
    gt = [pl.GroundTruthBox((0, 0, 48, 48), 1)]
    dets = [det((0, 0, 48, 48), label=2, score=0.9)]
    rep = pl.evaluate({"a": dets}, {"a": gt})
    assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)


def test_evaluate_reorder_symmetric():
    rng = np.random.default_rng(7)
    gts = {"a": [pl.GroundTruthBox((10, 10, 50, 50), 1),
                 pl.GroundTruthBox((60, 60, 100, 100), 1)]}
    dets = [det((11, 10, 51, 50), score=0.9),
            det((12, 12, 50, 52), score=0.9),
            det((61, 60, 101, 100), score=0.7),
            det((200, 200, 220, 220), score=0.6)]
    base = pl.evaluate({"a": dets}, gts)
    for _ in range(5):
        shuffled = [dets[i] for i in rng.permutation(len(dets))]
        assert pl.evaluate({"a": shuffled}, gts) == base


def test_evaluate_image_mismatch_raises():
    with pytest.raises(DataError):
        pl.evaluate({"a": []}, {"b": []})


def test_evaluate_distance_bands():
    cam = CameraModel(m11=800.0, m22=800.0, m13=256.0, m23=192.0)
    near_gt = pl.GroundTruthBox((100, 100, 140, 140), 1)   # side 40 -> z 20
    far_gt = pl.GroundTruthBox((300, 300, 316, 316), 1)    # side 16 -> z 50
    dets = [det((100, 100, 140, 140), score=0.9)]
    rep = pl.evaluate({"a": dets}, {"a": [near_gt, far_gt]},
                      cam=cam, d3d=1.0, band_edges=[0, 30, 60])
    near, far = rep.bands
    assert (near.z_lo, near.z_hi, far.z_lo, far.z_hi) == (0, 30, 30, 60)
    assert (near.tp, near.fn) == (1, 0)
    assert near.recall == 1.0
    assert (far.tp, far.fn) == (0, 1)
    assert far.recall == 0.0
    with pytest.raises(ConfigError):
        pl.evaluate({"a": dets}, {"a": [near_gt]}, band_edges=[0, 30])
    for bad in ([30, 0], [0, np.nan], [0, 30, 30], [30]):
        with pytest.raises(ConfigError):
            pl.evaluate({"a": dets}, {"a": [near_gt]}, cam=cam, d3d=1.0,
                        band_edges=bad)


def tiny_model(seed=0, first_kernel=3):
    spec = nn.build_network_spec(
        in_channels=3, classes=3, window=16,
        trunk_widths=(3, 4, 4, 4), head_widths=(4, 4), bottleneck=3)
    if first_kernel == 1:
        spec = dataclasses.replace(spec, shared_trunk=(
            nn.LayerSpec("conv1", "conv", 1, 3, 3, relu=True),)
            + spec.shared_trunk[1:])
    params = nn.init_params(spec, seed=seed)
    space = hs.enumerate_space(3)
    tr.constrain_params(params, space)
    counts = tr.usage_census(params, space)
    reduced = hs.select_top_filters(counts, max(8, int((counts > 0).sum())))
    tr.constrain_params(params, reduced)
    return cm.compress(params, reduced)


def test_detect_image_deterministic():
    model = tiny_model()
    rng = np.random.default_rng(19)
    image = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
    out1 = pl.detect_image(model, image, score_thresh=0.2)
    out2 = pl.detect_image(model, image, score_thresh=0.2)
    assert out1 == out2
    assert len(final_windows(image, ws=model.spec.input_size)[0]) > 0


def test_detect_image_threshold_filters_everything():
    model = tiny_model()
    rng = np.random.default_rng(23)
    image = rng.integers(0, 256, size=(40, 40, 3), dtype=np.uint8)
    assert pl.detect_image(model, image, score_thresh=1.0) == []


def test_detect_image_independent_of_batch_size():
    model = tiny_model()
    rng = np.random.default_rng(31)
    image = rng.integers(0, 256, size=(64, 80, 3), dtype=np.uint8)
    want = pl.detect_image(model, image, score_thresh=0.2)
    windows = len(final_windows(image, ws=model.spec.input_size)[0])
    assert windows > pl.DETECT_BATCH_SIZE
    assert want
    for batch in (1, 7, windows, windows + 5):
        assert pl.detect_image(model, image, score_thresh=0.2,
                               batch_size=batch) == want, batch


@pytest.mark.parametrize("batch_size", [0, -1, 2.0, None])
def test_detect_image_refuses_a_bad_batch_size(monkeypatch, batch_size):
    # not an integer of at least 1: refused before any window is built
    monkeypatch.setattr(pl, "final_windows", None)     # never reached
    with pytest.raises(ConfigError, match="batch_size must be an integer "
                       f">= 1, got {batch_size!r}"):
        pl.detect_image(tiny_model(), np.zeros((40, 40, 3), dtype=np.uint8),
                        batch_size=batch_size)


def test_detect_image_refuses_a_nan_score(monkeypatch):
    # a window whose class scores hold a NaN is not dropped as below the
    # threshold: it reaches Detection's check
    def forward(model, first, counter=None):
        n = first.shape[1]
        loc = np.tile([0.25, 0.75, 0.25, 0.75], (n, 1))
        return loc, np.tile([0.1, np.nan, 0.2], (n, 1))

    monkeypatch.setattr(pl, "forward_dense_from", forward)
    image = np.zeros((40, 40, 3), dtype=np.uint8)
    with pytest.raises(DataError, match="score nan"):
        pl.detect_image(tiny_model(), image)


def rebuilt_detections(model, image, forward, score_thresh, cam=None,
                       ranges=None, outputs=None):
    """detect_image's steps from public parts, with the given forward run
    once on all the cropped windows; its (loc, probs) is appended to
    outputs when given."""
    ws = model.spec.input_size
    wins, levels = final_windows(image, cam=cam, ranges=ranges, ws=ws)
    if not wins:
        return []
    x = normalize_image(np.stack([crop_window(w, levels, ws) for w in wins]))
    loc, probs = forward(model, x)
    if outputs is not None:
        outputs.append((loc, probs))
    raw = []
    for i, w in enumerate(wins):
        label = int(probs[i].argmax())
        score = float(probs[i].max())
        if label == 0 or score < score_thresh:
            continue
        box = pl.decode_outputs(loc[i], w)
        if box[0] < box[2] and box[1] < box[3]:
            raw.append(pl.Detection(box=box, label=label, score=score,
                                    source_window=w))
    return pl.nms(pl.mean_shift_refine(raw))


def test_detect_image_runs_the_dense_route():
    model = tiny_model()
    assert any(layer.constrained for layer, _ in model.spec.conv_layers())
    image = np.random.default_rng(31).integers(0, 256, size=(64, 80, 3),
                                               dtype=np.uint8)
    counter = cm.OpCounter()
    got = pl.detect_image(model, image, score_thresh=0.2, counter=counter)
    assert (len(final_windows(image, ws=model.spec.input_size)[0])
            > 2 * pl.DETECT_BATCH_SIZE)
    assert got
    assert got == rebuilt_detections(model, image, cm.forward_dense, 0.2)
    # the one-multiply route computes the same detections
    fast = rebuilt_detections(model, image, cm.forward_fast, 0.2)
    assert len(fast) == len(got)
    for f, g in zip(fast, got):
        assert (f.label, f.source_window) == (g.label, g.source_window)
        assert abs(f.score - g.score) <= 1e-9
        assert max(abs(a - b) for a, b in zip(f.box, g.box)) <= 1e-9
    for layer, _ in model.spec.conv_layers():
        if layer.constrained:
            assert (counter.per_step_multiplies(layer.name)
                    == layer.kernel_size ** 2 == 9)


BAND_CAM = CameraModel(m11=96.0, m22=96.0, m13=48.0, m23=36.0)
BAND_RANGES = SceneRanges(-1.0, 2.0, -0.8, 1.5, 1.0)


def band_geometry_holds(case, model, wins, levels, batch_size):
    """True when the windows detect_image runs have the geometry the case
    is named for."""
    ws = model.spec.input_size
    corners = np.array([block_corner(w, levels, ws) for w in wins])
    if case == "flush-odd":
        # a flush last row or column of the grid, off the 5-px step and odd
        return bool(((corners % 5 != 0) & (corners % 2 == 1)).any())
    if case == "pruned-origin":
        return any(level.origin != (0, 0) for level in levels)
    starts, run_level, top_left, bottom_right = pl._conv_blocks(
        wins, corners, levels, ws)
    if case == "split-rectangle":
        # a rectangle whose windows fill more than one batch, the last part
        sizes = np.diff(np.append(starts, len(wins)))
        return bool(((sizes > batch_size) & (sizes % batch_size > 0)).any())
    if case == "small-blocks":
        # more rectangles than levels, and some only part of a row of windows
        widths = np.array([levels[k].image.shape[1] for k in run_level])
        return (len(starts) > len({w.level for w in wins})
                and bool((bottom_right[:, 0] - top_left[:, 0] < widths).any()))
    return model.spec.shared_trunk[0].kernel_size == 1


@pytest.mark.parametrize("case, shape, camera, batch_size, block, kernel", [
    ("flush-odd", (39, 47), False, 64, None, 3),
    ("pruned-origin", (72, 96), True, 64, None, 3),
    ("split-rectangle", (40, 52), False, 7, None, 3),
    ("small-blocks", (64, 80), True, 64, 400, 3),
    ("1x1-first", (40, 52), True, 16, None, 1),
])
def test_band_route_matches_the_per_window_route(case, shape, camera,
                                                 batch_size, block, kernel,
                                                 monkeypatch):
    # detect_image runs the first conv once per band rectangle; every
    # window's outputs, and so the detections, are bit for bit those of
    # forward_dense on the cropped windows
    if block is not None:
        monkeypatch.setattr(pl, "CONV_BLOCK_PIXELS", block)
    model = tiny_model(first_kernel=kernel)
    image = np.random.default_rng(41).integers(0, 256, size=shape + (3,),
                                               dtype=np.uint8)
    cam, ranges = (BAND_CAM, BAND_RANGES) if camera else (None, None)
    wins, levels = final_windows(image, cam=cam, ranges=ranges,
                                 ws=model.spec.input_size)
    assert band_geometry_holds(case, model, wins, levels, batch_size)
    assert band_route_detections(model, image, cam, ranges, batch_size,
                                 monkeypatch)


def band_route_detections(model, image, cam, ranges, batch_size,
                          monkeypatch):
    """detect_image's detections, after asserting that they and every
    window's outputs, in batches of at most batch_size, are bitwise those
    of forward_dense on all the cropped windows."""
    got_outputs = []

    def recording(model, first, counter=None):
        assert first.shape[1] <= batch_size
        got_outputs.append(cm.forward_dense_from(model, first, counter))
        return got_outputs[-1]

    monkeypatch.setattr(pl, "forward_dense_from", recording)
    got = pl.detect_image(model, image, cam, ranges, score_thresh=0.0,
                          batch_size=batch_size)
    want_outputs = []
    want = rebuilt_detections(model, image, cm.forward_dense, 0.0, cam=cam,
                              ranges=ranges, outputs=want_outputs)
    assert got == want
    assert bool(got_outputs) == bool(want_outputs)
    for parts, w in zip(zip(*got_outputs), *want_outputs):
        # loc, then probs: the batches' rows in order
        assert np.concatenate(parts).tobytes() == w.tobytes()
    return got


@settings(max_examples=25, deadline=None)
@given(h=st.integers(16, 90), w=st.integers(16, 90), camera=st.booleans(),
       batch_size=st.integers(1, 40), block=st.integers(200, 3000),
       kernel=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
def test_band_route_matches_on_random_geometry(h, w, camera, batch_size,
                                               block, kernel, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(pl, "CONV_BLOCK_PIXELS", block)
        image = np.random.default_rng(seed).integers(
            0, 256, size=(h, w, 3), dtype=np.uint8)
        cam, ranges = (BAND_CAM, BAND_RANGES) if camera else (None, None)
        band_route_detections(tiny_model(first_kernel=kernel), image, cam,
                              ranges, batch_size, monkeypatch)


def test_detect_image_refuses_a_model_without_three_channels():
    spec = nn.build_network_spec(in_channels=1, classes=3, window=16,
                                 trunk_widths=(2, 3, 3, 3), head_widths=(3, 3),
                                 bottleneck=2)
    space = hs.enumerate_space(3)
    model = cm.compress(tr.constrain_params(nn.init_params(spec), space),
                        space)
    image = np.zeros((40, 40, 3), dtype=np.uint8)
    with pytest.raises(DataError, match="1-channel"):
        pl.detect_image(model, image)


@pytest.mark.parametrize("drop, what", [
    ("loc_gap", "loc head"), ("cla_softmax", "cla head"),
    ("cla_gap", "cla head")])
def test_detect_image_refuses_heads_it_cannot_read(drop, what):
    # no box offset or no class distribution per window: such a spec cannot
    # be constructed, so no model detection is handed carries one
    spec = tiny_model().spec
    heads = {head: tuple(layer for layer in getattr(spec, head)
                         if layer.name != drop)
             for head in ("loc_head", "cla_head")}
    with pytest.raises(ConfigError, match=f"{what} does not end in"):
        dataclasses.replace(spec, **heads)
