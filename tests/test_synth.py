"""Scene generation determinism, geometry consistency, sample extraction."""

import os

import numpy as np
import pytest

from ghaar.errors import ConfigError, DataError
from ghaar.ppm import read_ppm
from ghaar import synth as sy
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
    # backgrounds follow bg_ratio over positives and mirrors alike
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
