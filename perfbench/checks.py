"""Output checks: a dense-route oracle for detection, and model round trips.

The oracle rebuilds one frame's detections from public parts of the
package, with the dense engine in place of the one-multiply path, and
compare_detections says where two detection lists disagree.
"""

import inspect
import time

import numpy as np

from ghaar import compressed as cm
from ghaar import pipeline as pl
from ghaar import windows as wd
from ghaar.ppm import normalize_image

# fast and dense routes differ by accumulation order only (~1e-14 here)
DETECTION_TOL = 1e-9
# detect_image's batch size, so the oracle and the warm-up run its batches
DETECT_BATCH = inspect.signature(
    pl.detect_image).parameters["batch_size"].default


def oracle_detections(model, image, cam, ranges, *, stride_frac, ratio):
    """(detections, dense forward seconds) for one frame via forward_dense.

    Uses detect_image's batch boundaries, so the dense time is measured on
    the same batches the fast path runs.
    """
    ws = model.spec.input_size
    wins, levels = wd.final_windows(image, cam=cam, ranges=ranges, ws=ws,
                                    stride_frac=stride_frac, ratio=ratio)
    raw = []
    dense_s = 0.0
    for lo in range(0, len(wins), DETECT_BATCH):
        batch = wins[lo:lo + DETECT_BATCH]
        x = np.stack([normalize_image(wd.crop_window(w, levels, ws))
                      for w in batch])
        t0 = time.perf_counter()
        loc, probs = cm.forward_dense(model, x)
        dense_s += time.perf_counter() - t0
        for i, win in enumerate(batch):
            label = int(np.argmax(probs[i]))
            score = float(probs[i, label])
            if label == 0 or score < pl.DETECT_SCORE_THRESH:
                continue
            box = pl.decode_outputs(loc[i], win)
            if box[0] >= box[2] or box[1] >= box[3]:
                continue
            raw.append(pl.Detection(box=box, label=label, score=score,
                                    source_window=win))
    final = pl.nms(pl.mean_shift_refine(raw, pl.MEAN_SHIFT_BANDWIDTH),
                   pl.DETECT_NMS_IOU)
    return final, dense_s


def compare_detections(expected, got):
    """(problems, worst gap) between two detection lists.

    Counts must be equal and every expected detection must pair one-to-one
    with a detection of the same label whose box corners and score are
    within DETECTION_TOL; problems is empty when they do.  The worst gap is
    the largest corner or score difference over the pairs found.
    """
    problems = []
    if len(expected) != len(got):
        problems.append(f"{len(got)} detections, oracle has {len(expected)}")
    free = list(got)
    worst = 0.0
    for e in expected:
        gaps = [max(abs(g.score - e.score),
                    *(abs(a - b) for a, b in zip(g.box, e.box)))
                if g.label == e.label else np.inf for g in free]
        j = int(np.argmin(gaps)) if gaps else -1
        if j < 0 or gaps[j] > DETECTION_TOL:
            problems.append(f"no match for label {e.label} box "
                            f"{tuple(round(v, 3) for v in e.box)}")
            continue
        worst = max(worst, gaps[j])
        free.pop(j)
    return problems, worst


def round_trip_ok(blob):
    """True when decode -> encode gives the same bytes back."""
    return cm.encode_model(cm.decode_model(blob)) == blob
