"""Scene generation determinism, geometry consistency, sample extraction."""

import gc
import os

import numpy as np
import pytest

from ghaar.errors import ConfigError, DataError
from ghaar.pipeline import GroundTruthBox, encode_target
from ghaar.ppm import read_ppm, write_ppm
from ghaar import synth as sy
from ghaar import windows as wd
from ghaar.windows import CameraModel, SceneRanges, Window, implied_3d


def scene(**kw):
    cam = CameraModel(m11=240.0, m22=240.0, m13=80.0, m23=60.0)
    ranges = SceneRanges(x3d_min=-3.0, x3d_max=3.0,
                         y3d_min=-1.5, y3d_max=1.5, d3d=1.0)
    st = dict(n_images=4, image_w=160, image_h=120, ws=24, max_objects=2)
    st.update(kw)
    return cam, ranges, sy.SynthSettings(**st)


def test_same_seed_is_bitwise_identical(tmp_path):
    cam, ranges, st = scene()
    m1 = sy.synth_generate(st, cam, ranges, tmp_path / "a", seed=5)
    m2 = sy.synth_generate(st, cam, ranges, tmp_path / "b", seed=5)
    assert m1.entries == m2.entries
    for name, _ in m1.entries:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_manifest_round_trip(tmp_path):
    cam, ranges, st = scene()
    written = sy.synth_generate(st, cam, ranges, tmp_path, seed=2)
    loaded = sy.load_manifest(tmp_path)
    assert loaded == written
    with pytest.raises(DataError):
        sy.load_manifest(tmp_path / "missing")


def test_entry_count_and_files(tmp_path):
    cam, ranges, st = scene(n_images=6)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=3)
    assert len(manifest.entries) == 6
    names = [n for n, _ in manifest.entries]
    assert len(set(names)) == 6
    for name in names:
        assert os.path.exists(tmp_path / name)


def test_boxes_in_image_and_implied_ranges(tmp_path):
    cam, ranges, st = scene(n_images=8)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=7)
    checked = 0
    for _name, gts in manifest.entries:
        for gt in gts:
            x1, y1, x2, y2 = gt.box
            assert 0 <= x1 < x2 <= st.image_w
            assert 0 <= y1 < y2 <= st.image_h
            win = Window(x2d=(x1 + x2) / 2, y2d=(y1 + y2) / 2,
                         d2d=x2 - x1, level=0)
            x3d, y3d, z3d = implied_3d(win, cam, ranges.d3d)
            assert ranges.x3d_min <= x3d <= ranges.x3d_max
            assert ranges.y3d_min <= y3d <= ranges.y3d_max
            assert z3d > 0
            checked += 1
    assert checked > 0


def test_infeasible_config_raises(tmp_path):
    cam = CameraModel(m11=240.0, m22=240.0, m13=80.0, m23=60.0)
    off_scene = SceneRanges(x3d_min=40.0, x3d_max=41.0,
                            y3d_min=-1.5, y3d_max=1.5, d3d=1.0)
    st = sy.SynthSettings(n_images=2, image_w=160, image_h=120, ws=24)
    with pytest.raises(DataError):
        sy.synth_generate(st, cam, off_scene, tmp_path, seed=0)


def test_extract_counts_and_shapes(tmp_path):
    cam, ranges, st = scene()
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=11)
    x, loc, labels = sy.extract_samples(manifest, tmp_path, ws=24,
                                        n_jitter=2, bg_ratio=2.0, seed=1)
    per_image = [2 * len(gts) for _, gts in manifest.entries]
    n_pos = sum(per_image)
    n_bg = sum(int(round(2.0 * p)) for p in per_image)
    assert x.shape == (n_pos + n_bg, 24, 24, 3)
    assert x.dtype == np.uint8
    assert loc.shape == (n_pos + n_bg, 4) and loc.dtype == np.float32
    assert int((labels != 0).sum()) == n_pos
    assert set(np.unique(labels)) <= {0, 1, 2}


def test_extract_flip_pairs(tmp_path):
    cam, ranges, st = scene(n_images=2)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=13)
    x, loc, labels = sy.extract_samples(manifest, tmp_path, ws=24,
                                        n_jitter=1, bg_ratio=0.0,
                                        flip=True, seed=4)
    assert len(labels) % 2 == 0 and (labels != 0).all()
    for i in range(0, len(labels), 2):
        assert labels[i] == labels[i + 1]
        assert np.array_equal(x[i + 1], x[i][:, ::-1])
        assert np.allclose(loc[i + 1],
                           (1.0 - loc[i][1], 1.0 - loc[i][0],
                            loc[i][2], loc[i][3]), atol=1e-6)


def test_extract_flip_keeps_the_plain_positives_and_scales_backgrounds(
        tmp_path):
    # test_extract_flip_pairs checks that each positive's mirror follows it
    cam, ranges, st = scene(n_images=3)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=13)
    kw = dict(ws=24, n_jitter=2, seed=4)
    flipped = sy.extract_samples(manifest, tmp_path, bg_ratio=0.0,
                                 flip=True, **kw)
    plain = sy.extract_samples(manifest, tmp_path, bg_ratio=0.0, **kw)
    for got, want in zip(flipped, plain):
        assert np.array_equal(got[0::2], want)
    # round(bg_ratio x plain positives) backgrounds, each followed by its
    # mirror: at n_jitter 2 and bg_ratio 1.5, 1.5 rows per positive row
    _, _, labels = sy.extract_samples(manifest, tmp_path, bg_ratio=1.5,
                                      flip=True, **kw)
    at = 0
    for _, gts in manifest.entries:
        n_pos = 2 * 2 * len(gts)
        n_bg = int(round(1.5 * n_pos))
        assert (labels[at:at + n_pos] != 0).all()
        assert (labels[at + n_pos:at + n_pos + n_bg] == 0).all()
        at += n_pos + n_bg
    assert at == len(labels)


def test_extract_flip_adds_mirrors_and_moves_no_other_sample(tmp_path):
    cam, ranges, st = scene(n_images=3)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=13)
    kw = dict(ws=24, n_jitter=2, bg_ratio=3.0, seed=4)
    x, loc, labels = sy.extract_samples(manifest, tmp_path, flip=True, **kw)
    plain = sy.extract_samples(manifest, tmp_path, **kw)
    for got, want in zip((x, loc, labels), plain):
        assert np.array_equal(got[0::2], want)
    assert (labels == 0).sum() == 2 * (plain[2] == 0).sum() > 0
    assert np.array_equal(x[1::2], x[0::2][:, :, ::-1])
    assert np.array_equal(labels[1::2], labels[0::2])
    bg = labels[0::2] == 0
    assert np.all(loc[1::2][bg] == 0.0)
    mirrored = loc[0::2][~bg][:, [1, 0, 2, 3]]
    mirrored[:, :2] = 1.0 - mirrored[:, :2]
    assert np.allclose(loc[1::2][~bg], mirrored, atol=1e-6)


def reference_samples(manifest, src_dir, ws, ratio, n_jitter, jitter_frac,
                      bg_ratio, seed):
    """The unmirrored samples as read from whole pyramids: build_pyramid,
    then each corner as a Window cropped by crop_window, with
    extract_samples' generator calls; also returns how many positive
    corners were clipped into their level and the levels positives used."""
    rng = np.random.default_rng(seed)
    patches, locs, labels, clipped, used = [], [], [], 0, set()
    mid = np.sqrt(wd.RS_LO * wd.RS_HI)
    for name, gts in manifest.entries:
        levels = wd.build_pyramid(read_ppm(os.path.join(src_dir, name)), ws,
                                  ratio)
        for gt in gts:
            x1, y1, x2, y2 = gt.box
            side = ((x2 - x1) + (y2 - y1)) / 2.0
            k = int(np.argmin([abs(np.log(side / (lv.scale * ws))
                                   - np.log(mid)) for lv in levels]))
            scale = levels[k].scale
            lh, lw = levels[k].image.shape[:2]
            used.add(k)
            for _ in range(n_jitter):
                jx, jy = rng.uniform(-jitter_frac, jitter_frac, size=2) * ws
                cx = (x1 + x2) / 2.0 / scale + jx
                cy = (y1 + y2) / 2.0 / scale + jy
                x0, y0 = round(cx - ws / 2), round(cy - ws / 2)
                cx0 = int(np.clip(x0, 0, lw - ws))
                cy0 = int(np.clip(y0, 0, lh - ws))
                clipped += (cx0, cy0) != (x0, y0)
                win = wd.corner_window(scale, k, cx0, cy0, ws)
                patches.append(wd.crop_window(win, levels, ws))
                locs.append(encode_target(gt.box, win))
                labels.append(gt.label)
        for _ in range(int(round(bg_ratio * (n_jitter * len(gts))))):
            for _attempt in range(50):
                k = int(rng.integers(0, len(levels)))
                s = levels[k].scale
                lh, lw = levels[k].image.shape[:2]
                x0 = int(rng.integers(0, lw - ws + 1))
                y0 = int(rng.integers(0, lh - ws + 1))
                if any(x0 * s < b[2] and (x0 + ws) * s > b[0]
                       and y0 * s < b[3] and (y0 + ws) * s > b[1]
                       for b in (g.box for g in gts)):
                    continue
                win = wd.corner_window(s, k, x0, y0, ws)
                patches.append(wd.crop_window(win, levels, ws))
                locs.append(np.zeros(4))
                labels.append(0)
                break
    return ((np.stack(patches), np.asarray(locs, dtype=np.float32),
             np.asarray(labels, dtype=np.int64)), clipped, used)


@pytest.mark.parametrize("flip, bg_ratio", [(False, 3.0), (True, 0.0)])
def test_extract_reads_the_blocks_of_whole_pyramid_levels(tmp_path, flip,
                                                          bg_ratio):
    # objects of three sizes against the frame's edges and in its middle,
    # so positives come from several levels, scale 1 among them, and the
    # jittered corners are clipped into their level
    rng = np.random.default_rng(29)
    boxes = [[((0.4, 0.6, 14.4, 14.6), 1), ((140.0, 100.5, 159.5, 119.0), 2)],
             [((1.0, 80.0, 31.0, 110.0), 2), ((70.0, 40.0, 90.0, 60.0), 1)],
             [((95.0, 0.5, 159.0, 63.5), 1), ((2.0, 2.0, 40.0, 40.0), 2)]]
    entries = []
    for i, gts in enumerate(boxes):
        name = f"edge_{i}.ppm"
        write_ppm(tmp_path / name,
                  rng.integers(0, 256, size=(120, 160, 3), dtype=np.uint8))
        entries.append((name, tuple(GroundTruthBox(b, la) for b, la in gts)))
    manifest = sy.DatasetManifest(entries=tuple(entries), split="train",
                                  seed=0)
    kw = dict(ws=24, ratio=1.4, n_jitter=3, jitter_frac=0.3, seed=8)
    want, clipped, used = reference_samples(manifest, tmp_path,
                                            bg_ratio=bg_ratio, **kw)
    got = sy.extract_samples(manifest, tmp_path, bg_ratio=bg_ratio,
                             flip=flip, **kw)
    assert clipped > 0 and 0 in used and len(used) >= 3
    assert (want[2] == 0).any() == (bg_ratio > 0)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g[0::2] if flip else g, w)


def test_extract_loc_targets_in_band(tmp_path):
    cam, ranges, st = scene(n_images=6)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=17)
    x, loc, labels = sy.extract_samples(manifest, tmp_path, ws=24,
                                        n_jitter=3, bg_ratio=1.0, seed=2)
    assert loc.min() >= -0.5 and loc.max() <= 1.5
    assert np.all(loc[labels == 0] == 0.0)


def test_extract_is_reproducible(tmp_path):
    cam, ranges, st = scene()
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=19)
    a = sy.extract_samples(manifest, tmp_path, ws=24, seed=6)
    b = sy.extract_samples(manifest, tmp_path, ws=24, seed=6)
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_extract_leaves_no_reference_cycle(tmp_path):
    # a cycle through the sample lists would hold every sample until the
    # collector runs, so repeated extractions would peak higher
    cam, ranges, st = scene(n_images=2)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=13)
    gc.collect()
    gc.disable()
    try:
        sy.extract_samples(manifest, tmp_path, ws=24, flip=True, seed=4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_color_margin_keeps_objects_out_of_background_band(tmp_path):
    cam, ranges, st = scene(n_images=6, color_margin=35)
    manifest = sy.synth_generate(st, cam, ranges, tmp_path, seed=23)
    checked = 0
    for name, gts in manifest.entries:
        image = read_ppm(os.path.join(tmp_path, name))
        for gt in gts:
            x1, y1, x2, y2 = gt.box
            cx, cy = int((x1 + x2) / 2), int((y1 + y2) / 2)
            center = image[cy, cx].astype(int)
            assert np.all((center <= sy.BG_LO - 35) | (center >= sy.BG_HI + 35))
            checked += 1
    assert checked > 0
    with pytest.raises(ConfigError):
        scene(color_margin=60)
