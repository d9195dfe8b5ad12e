"""PPM I/O, sidecars, resizing, normalization."""

import os
import re

import numpy as np
import pytest

from ghaar.errors import DataError
from ghaar import ppm


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(13, 17, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    ppm.write_ppm(path, img)
    back = ppm.read_ppm(path)
    assert np.array_equal(img, back)


def test_ppm_reads_comments(tmp_path):
    path = tmp_path / "c.ppm"
    payload = bytes(range(2 * 2 * 3))
    path.write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + payload)
    img = ppm.read_ppm(path)
    assert img.shape == (2, 2, 3)
    assert img.reshape(-1).tolist() == list(payload)


def test_ppm_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
    with pytest.raises(DataError):
        ppm.read_ppm(bad)
    short = tmp_path / "short.ppm"
    short.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
    with pytest.raises(DataError):
        ppm.read_ppm(short)
    deep = tmp_path / "deep.ppm"
    deep.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(DataError):
        ppm.read_ppm(deep)


def test_boxes_round_trip(tmp_path):
    path = tmp_path / "img.txt"
    boxes = [(1, (2.0, 3.0, 10.0, 12.0)), (2, (0.5, 0.25, 4.75, 9.0))]
    ppm.write_boxes(path, boxes)
    back = ppm.read_boxes(path)
    assert len(back) == 2
    for (la, ba), (lb, bb) in zip(boxes, back):
        assert la == lb
        assert ba == pytest.approx(bb)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 5 5 2 2\n")
    with pytest.raises(DataError):
        ppm.read_boxes(bad)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_sidecar_coordinate_names_its_line(tmp_path, value):
    path = tmp_path / "img.txt"
    path.write_text(f"1 2 3 10 12\n2 1 {value} 4 9\n")
    with pytest.raises(DataError,
                       match=re.escape(f"{path}:2: non-finite coordinate")):
        ppm.read_boxes(path)


def test_resize_identity_and_constant():
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 255, size=(9, 7, 3))
    same = ppm.bilinear_resize(img, 9, 7)
    assert np.allclose(same, img)
    flat = np.full((10, 10), 42.0)
    small = ppm.bilinear_resize(flat, 4, 6)
    assert np.allclose(small, 42.0)


def test_resize_downscale_averages():
    # 2x2 blocks of a checkerboard average out at exactly half scale
    img = np.zeros((4, 4))
    img[::2, 1::2] = 100.0
    img[1::2, ::2] = 100.0
    half = ppm.bilinear_resize(img, 2, 2)
    assert np.allclose(half, 50.0)


def test_resize_gradient_preserved():
    # a linear ramp stays linear under pixel-center bilinear resampling
    ramp = np.tile(np.arange(16.0), (4, 1))
    wide = ppm.bilinear_resize(ramp, 4, 8)
    diffs = np.diff(wide[0])
    assert np.allclose(diffs, diffs[0])


def float_first_resize(image, out_h, out_w):
    """Reference bilinear resize: the whole source converted to float64
    first, then the corners gathered from it."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    if img.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


@pytest.mark.parametrize("shape", [(23, 31), (23, 31, 3)])
@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_band_is_a_slice_of_the_full_resize(shape, dtype):
    rng = np.random.default_rng(3)
    if dtype is np.uint8:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        img = rng.uniform(-20.0, 300.0, size=shape)
    for out_h, out_w in [(16, 22), (23, 31), (40, 57), (1, 1)]:
        full = ppm.bilinear_resize(img, out_h, out_w)
        assert full.dtype == np.float64
        assert np.array_equal(full, float_first_resize(img, out_h, out_w))
        for _ in range(25):
            r0, r1 = sorted(int(v) for v in rng.integers(0, out_h + 1, 2))
            c0, c1 = sorted(int(v) for v in rng.integers(0, out_w + 1, 2))
            band = ppm.bilinear_band(img, out_h, out_w, (r0, r1), (c0, c1))
            assert band.dtype == np.float64
            assert band.shape == full[r0:r1, c0:c1].shape
            assert np.array_equal(band, full[r0:r1, c0:c1])


def test_synth_frames_match_float_first_resize(tmp_path, monkeypatch):
    """synth_generate resizes its background texture; the frames it writes
    are byte-identical to those of the float-first resize."""
    from ghaar import synth as sy
    from ghaar.windows import CameraModel, SceneRanges
    cam = CameraModel(m11=240.0, m22=240.0, m13=80.0, m23=60.0)
    ranges = SceneRanges(-2.8, 2.8, -2.0, 2.0, 1.0)
    st = sy.SynthSettings(n_images=3, image_w=160, image_h=120, ws=32)
    sy.synth_generate(st, cam, ranges, tmp_path / "band", seed=7)
    monkeypatch.setattr(sy, "bilinear_resize", float_first_resize)
    sy.synth_generate(st, cam, ranges, tmp_path / "float", seed=7)
    names = sorted(os.listdir(tmp_path / "band"))
    assert names == sorted(os.listdir(tmp_path / "float"))
    assert any(n.endswith(".ppm") for n in names)
    for name in names:
        assert ((tmp_path / "band" / name).read_bytes()
                == (tmp_path / "float" / name).read_bytes())


def test_normalize_image():
    img = np.zeros((2, 2, 3), dtype=np.uint8)
    img[..., 1] = 255
    x = ppm.normalize_image(img)
    assert x.shape == (3, 2, 2)
    assert np.allclose(x[0], -0.5)
    assert np.allclose(x[1], 0.5)
    with pytest.raises(DataError):
        ppm.normalize_image(np.zeros((2, 2)))
    # a stack converts in one call, bitwise equal to one call per image
    stack = np.random.default_rng(0).integers(0, 256, size=(4, 5, 6, 3),
                                              dtype=np.uint8)
    xs = ppm.normalize_image(stack)
    assert xs.shape == (4, 3, 5, 6)
    assert np.array_equal(xs, np.stack([ppm.normalize_image(im) for im in stack]))
    with pytest.raises(DataError):
        ppm.normalize_image(np.zeros((4, 5, 6, 4), dtype=np.uint8))


def test_draw_box_outline():
    img = np.zeros((10, 10, 3), dtype=np.uint8)
    ppm.draw_box(img, (2, 3, 7, 8), (255, 0, 0))
    assert img[3, 2:8, 0].min() == 255   # top edge
    assert img[8, 2:8, 0].min() == 255   # bottom edge
    assert img[3:9, 2, 0].min() == 255   # left edge
    assert img[5, 5, 0] == 0             # interior untouched
