"""Pyramid, sliding grid, containment sweep, and perspective pruning."""

import numpy as np
import pytest

from ghaar.errors import ConfigError, DataError
from ghaar import windows as wd


def spec_camera():
    """The synthetic camera used throughout the geometry examples."""
    return wd.CameraModel(m11=800, m22=800, m13=512, m23=384)


def test_pyramid_level_counts():
    img = np.zeros((48, 48, 3))
    assert len(wd.build_pyramid(img, ws=48, ratio=1.4)) == 1
    big = np.zeros((768, 1024, 3))
    levels = wd.build_pyramid(big, ws=48, ratio=1.4)
    assert len(levels) == 9
    for k, level in enumerate(levels):
        assert level.scale == pytest.approx(1.4 ** k)
        h, w = level.image.shape[:2]
        assert abs(h * 1.4 ** k - 768) <= 0.5 * 1.4 ** k + 1e-9
        assert abs(w * 1.4 ** k - 1024) <= 0.5 * 1.4 ** k + 1e-9
    with pytest.raises(DataError):
        wd.build_pyramid(np.zeros((30, 100, 3)), ws=48)
    with pytest.raises(ConfigError):
        wd.build_pyramid(img, ratio=1.0)


def test_sliding_window_positions():
    level = wd.PyramidLevel(scale=1.0, image=np.zeros((48, 62, 3)))
    wins = wd.sliding_windows(level, 0, ws=48, stride_frac=0.3)
    xs = sorted({w.x2d for w in wins})
    assert xs == [24.0, 38.0]  # left edges 0 and 14
    assert all(w.d2d == 48.0 for w in wins)
    single = wd.PyramidLevel(scale=1.0, image=np.zeros((48, 48, 3)))
    assert len(wd.sliding_windows(single, 0)) == 1


def test_sliding_windows_cover_every_pixel():
    level = wd.PyramidLevel(scale=1.0, image=np.zeros((100, 130, 3)))
    wins = wd.sliding_windows(level, 0, ws=48, stride_frac=0.3)
    covered = np.zeros((100, 130), dtype=bool)
    for w in wins:
        x = int(w.x2d - 24)
        y = int(w.y2d - 24)
        covered[y:y + 48, x:x + 48] = True
    assert covered.all()


def test_sliding_windows_scale_mapping():
    level = wd.PyramidLevel(scale=2.0, image=np.zeros((48, 48, 3)))
    (win,) = wd.sliding_windows(level, 3, ws=48, stride_frac=0.3)
    assert win.d2d == 96.0
    assert win.x2d == 48.0 and win.level == 3


def test_coverage_passes_at_published_parameters():
    report = wd.coverage_verify(0.5, 0.7, 0.3, 1.4, ws=48, canvas=512)
    assert report.passed
    assert report.worst_margin > 0


def test_coverage_boundary_probe():
    report = wd.coverage_verify(0.5, 0.7, 0.31, 1.4, ws=48, canvas=512)
    # step rounds to 15 > the 14.4px free play at the band edge
    assert report.worst_margin <= 0.0
    assert not report.passed


def test_coverage_rejects_gapped_ratio():
    with pytest.raises(ConfigError):
        wd.coverage_verify(0.5, 0.7, 0.3, 1.5)


@pytest.mark.parametrize("stride_frac", [0, 0.001, 1.5])
def test_coverage_refuses_a_stride_the_window_grid_refuses(stride_frac):
    # 0.001 of 48 px rounds to a step of 0
    with pytest.raises(ConfigError, match="stride fraction"):
        wd.coverage_verify(0.5, 0.7, stride_frac, 1.4, ws=48, canvas=512)


def test_coverage_refuses_a_canvas_smaller_than_the_window():
    with pytest.raises(DataError, match="smaller than the 48px window"):
        wd.coverage_verify(0.5, 0.7, 0.3, 1.4, ws=48, canvas=40)


@pytest.mark.parametrize("grid, match", [
    (dict(ratio=float("nan")), "pyramid ratio"),
    (dict(stride_frac=0.001), "stride fraction"),      # a 0 px step
    (dict(ws=0), "window size must be >= 1"),
    (dict(ws=-16), "window size must be >= 1")])
def test_final_windows_refuses_a_grid_it_cannot_build(grid, match):
    image = np.zeros((40, 40, 3), dtype=np.uint8)
    with pytest.raises(ConfigError, match=match):
        wd.final_windows(image, **{"ws": 16, **grid})


def test_projection_hand_values():
    cam = spec_camera()
    x2d, y2d, d2d = cam.project(0.0, 0.0, 20.0, 2.0)
    assert (x2d, y2d) == (512.0, 384.0)
    assert d2d == 80.0
    with pytest.raises(DataError):
        cam.project(0, 0, -1.0, 2.0)


def test_implied_3d_hand_values():
    cam = spec_camera()
    x3d, y3d, z3d = wd.implied_3d(wd.Window(512, 384, 80, 0), cam, 2.0)
    assert (x3d, y3d, z3d) == pytest.approx((0.0, 0.0, 20.0))
    x3d, _, _ = wd.implied_3d(wd.Window(592, 384, 80, 0), cam, 2.0)
    assert x3d == pytest.approx(2.0)


def test_implied_3d_round_trip_including_m34():
    rng = np.random.default_rng(8)
    cams = [spec_camera(),
            wd.CameraModel(m11=750, m22=820, m13=500, m23=370,
                           m14=30.0, m24=-12.0, m34=1.75)]
    for cam in cams:
        for _ in range(500):
            x3d = rng.uniform(-10, 10)
            y3d = rng.uniform(-3, 5)
            z3d = rng.uniform(5, 60)
            d3d = rng.uniform(0.5, 4.0)
            x2d, y2d, d2d = cam.project(x3d, y3d, z3d, d3d)
            gx, gy, gz = wd.implied_3d(wd.Window(x2d, y2d, d2d, 0), cam, d3d)
            assert abs(gx - x3d) < 1e-9
            assert abs(gy - y3d) < 1e-9
            assert abs(gz - z3d) < 1e-9
            # and forward again
            bx, by, bd = cam.project(gx, gy, gz, d3d)
            assert abs(bx - x2d) < 1e-9 and abs(by - y2d) < 1e-9
            assert abs(bd - d2d) < 1e-9


def half_space_inside(win, cam, ranges):
    """Independent oracle: the four boundary-plane inequalities evaluated
    directly in (x2d, y2d, d2d) space."""
    w = cam.m11 * ranges.d3d / win.d2d
    z = w - cam.m34
    fx_min = win.x2d * w - (cam.m11 * ranges.x3d_min + cam.m13 * z + cam.m14)
    fx_max = (cam.m11 * ranges.x3d_max + cam.m13 * z + cam.m14) - win.x2d * w
    fy_min = win.y2d * w - (cam.m22 * ranges.y3d_min + cam.m23 * z + cam.m24)
    fy_max = (cam.m22 * ranges.y3d_max + cam.m23 * z + cam.m24) - win.y2d * w
    return fx_min >= 0 and fx_max >= 0 and fy_min >= 0 and fy_max >= 0


def test_perspective_filter_agrees_with_half_space_oracle():
    rng = np.random.default_rng(9)
    cam = wd.CameraModel(m11=750, m22=820, m13=500, m23=370,
                         m14=30.0, m24=-12.0, m34=1.75)
    ranges = wd.SceneRanges(-8.0, 8.0, -1.0, 3.0, 2.0)
    wins = [wd.Window(x2d=rng.uniform(-200, 1200), y2d=rng.uniform(-200, 1000),
                      d2d=rng.uniform(10, 400), level=0)
            for _ in range(10_000)]
    kept = set(id(w) for w in wd.perspective_filter(wins, cam, ranges))
    mismatches = sum(1 for w in wins
                     if (id(w) in kept) != half_space_inside(w, cam, ranges))
    assert mismatches == 0
    assert 0 < len(kept) < len(wins)


def test_perspective_filter_hand_cases():
    cam = spec_camera()
    ranges = wd.SceneRanges(-10.0, 10.0, -10.0, 10.0, 2.0)
    center = wd.Window(512, 384, 80, 0)  # implies (0, 0, 20)
    assert wd.perspective_filter([center], cam, ranges) == [center]
    high = wd.SceneRanges(-10.0, 10.0, 0.0, 3.0, 2.0)
    off = wd.Window(512, 384 + 50 * 800 / 20 / 40, 80, 0)
    # y3d of `off` is 1.25 * 40 = 50 px ... compute directly instead:
    y3d = wd.implied_3d(off, cam, 2.0)[1]
    expect = [off] if 0.0 <= y3d <= 3.0 else []
    assert wd.perspective_filter([off], cam, high) == expect


def test_final_windows_intersection_and_monotonicity():
    rng = np.random.default_rng(10)
    img = rng.uniform(0, 255, size=(768, 1024, 3))
    cam = spec_camera()
    u_s, levels = wd.final_windows(img)
    assert len(levels) == 9
    wide = wd.SceneRanges(-8.0, 8.0, -1.0, 3.0, 2.0)
    narrow = wd.SceneRanges(-4.0, 4.0, -0.5, 1.5, 2.0)
    u_f, _ = wd.final_windows(img, cam, wide)
    u_n, _ = wd.final_windows(img, cam, narrow)
    assert set(u_f) <= set(u_s)
    assert set(u_n) <= set(u_f)
    assert len(u_f) < len(u_s)
    # every pruned window is genuinely out of range
    dropped = set(u_s) - set(u_f)
    for win in list(dropped)[:200]:
        x3d, y3d, _ = wd.implied_3d(win, cam, wide.d3d)
        assert not (wide.x3d_min <= x3d <= wide.x3d_max
                    and wide.y3d_min <= y3d <= wide.y3d_max)


def test_crop_window_reads_level_pixels():
    img = np.arange(100 * 100 * 3, dtype=np.float64).reshape(100, 100, 3)
    levels = wd.build_pyramid(img, ws=48, ratio=1.4)
    wins = wd.sliding_windows(levels[0], 0, ws=48)
    crop = wd.crop_window(wins[0], levels, ws=48)
    assert crop.shape == (48, 48, 3)
    assert np.array_equal(crop, img[:48, :48])
    with pytest.raises(DataError):
        wd.crop_window(wd.Window(1000.0, 10.0, 48.0, 0), levels)
    # a band level holds pixels [20, 80) x [30, 90) of the source: its
    # windows read through the origin, and one left or right of the band
    # is refused, never wrapped into a negative numpy slice
    band = [wd.PyramidLevel(scale=1.0, image=img[30:90, 20:80],
                            origin=(20, 30))]
    inside = wd.corner_window(band[0].scale, 0, 25, 40, ws=48)
    assert np.array_equal(wd.crop_window(inside, band, ws=48),
                          img[40:88, 25:73])
    for x, y in ((0, 40), (19, 40), (25, 29), (33, 40), (25, 43)):
        with pytest.raises(DataError):
            wd.crop_window(wd.corner_window(band[0].scale, 0, x, y, ws=48),
                           band, ws=48)
    empty = [wd.PyramidLevel(scale=1.0, image=img[:0, :0])]
    with pytest.raises(DataError):
        wd.crop_window(wins[0], empty, ws=48)


def reference_windows(image, cam, ranges, ws, stride_frac, ratio):
    """The three sieves one after the other on whole levels."""
    levels = wd.build_pyramid(image, ws, ratio)
    wins = [win for k, level in enumerate(levels)
            for win in wd.sliding_windows(level, k, ws, stride_frac)]
    if cam is not None and ranges is not None:
        wins = wd.perspective_filter(wins, cam, ranges)
    return wins, levels


def check_against_reference(image, cam, ranges, ws=32, stride_frac=0.3,
                            ratio=1.4):
    """final_windows yields the reference windows in the reference order,
    with the same field types, and bit-equal crops; each level's kept axes
    give its windows, y-major, and its band's origin; returns (windows,
    number of levels whose band is empty)."""
    wins, levels = wd.final_windows(image, cam, ranges, ws, stride_frac,
                                    ratio)
    ref, ref_levels = reference_windows(image, cam, ranges, ws, stride_frac,
                                        ratio)
    assert len(levels) == len(ref_levels)
    assert wins == ref
    assert wins == [wd.corner_window(level.scale, k, x, y, ws)
                    for k, level in enumerate(levels)
                    for y in level.ys for x in level.xs]
    for level in levels:
        assert level.origin == ((level.xs[0], level.ys[0])
                                if level.xs and level.ys else (0, 0))
    assert ([tuple(map(type, (w.x2d, w.y2d, w.d2d, w.level))) for w in wins]
            == [tuple(map(type, (w.x2d, w.y2d, w.d2d, w.level))) for w in ref])
    for win in wins:
        got = wd.crop_window(win, levels, ws)
        want = wd.crop_window(win, ref_levels, ws)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return wins, sum(level.image.size == 0 for level in levels)


def test_final_windows_match_reference_on_crowd_geometry():
    img = np.random.default_rng(14).integers(0, 256, size=(768, 1024, 3),
                                             dtype=np.uint8)
    cam = wd.CameraModel(m11=1536.0, m22=1536.0, m13=512.0, m23=384.0)
    ranges = wd.SceneRanges(-2.8, 2.8, -2.0, 2.0, 1.0)
    wins, _ = check_against_reference(img, cam, ranges)
    assert len(wins) == 1543


def test_final_windows_match_reference_on_readme_geometry():
    img = np.random.default_rng(15).integers(0, 256, size=(120, 160, 3),
                                             dtype=np.uint8)
    cam = wd.CameraModel(m11=240.0, m22=240.0, m13=80.0, m23=60.0)
    ranges = wd.SceneRanges(-2.8, 2.8, -2.0, 2.0, 1.0)
    check_against_reference(img, cam, ranges)
    # without geometry every grid window is kept, float pixels included
    check_against_reference(img, None, None)
    check_against_reference(img.astype(np.float64) + 0.25, cam, None)


def test_final_windows_match_reference_on_random_cameras():
    rng = np.random.default_rng(12)
    empty_levels = kept = 0
    for _ in range(8):
        h, w = int(rng.integers(60, 260)), int(rng.integers(60, 340))
        cam = wd.CameraModel(m11=rng.uniform(150, 500),
                             m22=rng.uniform(150, 500),
                             m13=rng.uniform(0, w), m23=rng.uniform(0, h),
                             m14=rng.uniform(-60, 60),
                             m24=rng.uniform(-60, 60),
                             m34=rng.uniform(-1.0, 2.0))
        x0, y0 = rng.uniform(-3, 1), rng.uniform(-2, 0.5)
        ranges = wd.SceneRanges(x0, x0 + rng.uniform(0.5, 4),
                                y0, y0 + rng.uniform(0.3, 2.5),
                                rng.uniform(0.5, 1.5))
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        wins, empty = check_against_reference(img, cam, ranges, ws=16)
        empty_levels += empty
        kept += len(wins)
    # the draw covers levels that keep nothing and levels that keep some
    assert empty_levels > 0 and kept > 0


def test_scene_ranges_validation():
    with pytest.raises(ConfigError):
        wd.SceneRanges(5.0, -5.0, 0.0, 1.0, 2.0)
    with pytest.raises(ConfigError):
        wd.SceneRanges(-5.0, 5.0, 0.0, 1.0, -2.0)
    with pytest.raises(ConfigError):
        wd.CameraModel(m11=0.0, m22=800.0)
