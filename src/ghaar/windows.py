"""Candidate window generation.

Windows come from two sieves.  A pyramid of bilinear-downscaled images is
swept with a sparse sliding grid, which bounds the apparent object size
each level is responsible for.  Independently, a calibrated camera and
physical scene ranges imply, for each window triple (x2D, y2D, d2D), a 3D
position; windows whose implied position falls outside the configured
world box are discarded.  The final candidate set is the intersection.

final_windows takes the intersection on the grid axes before any
resampling: on one level d2D is fixed, so the implied x3D depends on x2D
alone and y3D on y2D alone, and the kept set is the product of one mask
per axis; each level carries its kept axes.  Only the band of each level
that holds kept windows is resampled.  build_pyramid, sliding_windows and
perspective_filter, the same sieves on whole levels, are its reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .ppm import bilinear_band

DEFAULT_WS = 48
DEFAULT_STRIDE_FRAC = 0.3
DEFAULT_RATIO = 1.4      # 0.7 / 0.5: levels hand off exactly at the band edges
RS_LO = 0.5
RS_HI = 0.7
COVERAGE_SIDE_STEP = 0.25   # px between the object sides coverage_verify sweeps


@dataclass(frozen=True)
class Window:
    """Candidate square region in source-image pixels; center + side."""
    x2d: float
    y2d: float
    d2d: float
    level: int


@dataclass(frozen=True)
class PyramidLevel:
    """A pyramid level, or the band of it that final_windows resamples."""
    scale: float             # source size / level size
    image: np.ndarray        # resampled (H, W, C) pixels of the band
    origin: tuple = (0, 0)   # (x, y) of the band's top-left on the level
    xs: tuple = ()           # final_windows' kept corner columns and rows
    ys: tuple = ()           # on the level, ascending; none on build_pyramid's


@dataclass(frozen=True)
class CameraModel:
    """Entries of the small-rotation projection approximation.

    Forward model, for a physical square of side d3d at (x3d, y3d, z3d):
        x2d = (m11*x3d + m13*z3d + m14) / (z3d + m34)
        y2d = (m22*y3d + m23*z3d + m24) / (z3d + m34)
        d2d = m11*d3d / (z3d + m34)
    """
    m11: float
    m22: float
    m13: float = 0.0
    m23: float = 0.0
    m14: float = 0.0
    m24: float = 0.0
    m34: float = 0.0

    def __post_init__(self):
        if self.m11 <= 0 or self.m22 <= 0:
            raise ConfigError("focal terms m11 and m22 must be positive")

    def project(self, x3d, y3d, z3d, d3d):
        """(x2d, y2d, d2d) of a physical square; depth must be in front."""
        denom = np.asarray(z3d, dtype=np.float64) + self.m34
        if np.any(denom <= 0):
            raise DataError("object is behind the camera plane")
        x2d = (self.m11 * x3d + self.m13 * z3d + self.m14) / denom
        y2d = (self.m22 * y3d + self.m23 * z3d + self.m24) / denom
        d2d = self.m11 * d3d / denom
        return x2d, y2d, d2d

    def implied(self, x2d, y2d, d2d, d3d):
        """project's inverse: (x3d, y3d, z3d) of the square of side d3d
        seen at (x2d, y2d, d2d).  The projective depth w = m11*d3d/d2d is
        z3d + m34; x2d and y2d may be arrays, since d2d alone fixes w."""
        w = self.m11 * d3d / d2d
        z3d = w - self.m34
        x3d = (x2d * w - self.m13 * z3d - self.m14) / self.m11
        y3d = (y2d * w - self.m23 * z3d - self.m24) / self.m22
        return x3d, y3d, z3d


@dataclass(frozen=True)
class SceneRanges:
    x3d_min: float
    x3d_max: float
    y3d_min: float
    y3d_max: float
    d3d: float

    def __post_init__(self):
        if self.x3d_min >= self.x3d_max or self.y3d_min >= self.y3d_max:
            raise ConfigError("world ranges need min < max on both axes")
        if self.d3d <= 0:
            raise ConfigError("physical object side must be positive")


def _level_sizes(shape, ws, ratio):
    """(scale, level height, level width) of each pyramid level of an image
    shaped (h, w, ...), down to the last one not below ws on a side."""
    if not ratio > 1:
        raise ConfigError(f"pyramid ratio must exceed 1, got {ratio}")
    if ws < 1:
        raise ConfigError(f"window size must be >= 1, got {ws}")
    h, w = shape[:2]
    if min(h, w) < ws:
        raise DataError(f"image {w}x{h} is smaller than the {ws}px window")
    sizes = []
    while True:
        scale = ratio ** len(sizes)
        lh, lw = int(round(h / scale)), int(round(w / scale))
        if min(lh, lw) < ws:
            return sizes
        sizes.append((scale, lh, lw))


def _level_band(image, scale, lh, lw, rows, cols):
    """Rows [rows[0], rows[1]) x columns [cols[0], cols[1]) of the level
    resampled to lh x lw; the source level (scale 1) is a view."""
    if scale == 1:
        return image[rows[0]:rows[1], cols[0]:cols[1]]
    # levels stay uint8 images so crops feed the same input path as the
    # source frame
    return np.clip(np.round(bilinear_band(image, lh, lw, rows, cols)),
                   0, 255).astype(np.uint8)


def build_pyramid(image, ws=DEFAULT_WS, ratio=DEFAULT_RATIO):
    """Downscale by ratio^k until a level would drop below ws on a side."""
    img = np.asarray(image)
    return [PyramidLevel(scale=scale,
                         image=_level_band(img, scale, lh, lw,
                                           (0, lh), (0, lw)))
            for scale, lh, lw in _level_sizes(img.shape, ws, ratio)]


def _grid_step(ws, stride_frac):
    if not (0 < stride_frac <= 1 and round(stride_frac * ws) >= 1):
        raise ConfigError(f"stride fraction must be in (0, 1] and give a "
                          f"step of at least 1 px, got {stride_frac}")
    return int(round(stride_frac * ws))


def _axis_positions(length, ws, step):
    xs = list(range(0, length - ws + 1, step))
    if xs[-1] != length - ws:
        xs.append(length - ws)
    return xs


def sliding_windows(level: PyramidLevel, level_id: int, ws=DEFAULT_WS,
                    stride_frac=DEFAULT_STRIDE_FRAC):
    """Sparse grid over one level, stepped by round(stride_frac*ws) with a
    final flush row/column so the far edges are reachable."""
    step = _grid_step(ws, stride_frac)
    h, w = level.image.shape[:2]
    if min(h, w) < ws:
        return []
    xs = _axis_positions(w, ws, step)
    return [corner_window(level.scale, level_id, x, y, ws)
            for y in _axis_positions(h, ws, step) for x in xs]


def implied_3d(window: Window, cam: CameraModel, d3d: float):
    """World position whose projection is exactly this window
    (CameraModel.implied); DataError unless its side is positive."""
    if window.d2d <= 0:
        raise DataError(f"window side must be positive, got {window.d2d}")
    return cam.implied(window.x2d, window.y2d, window.d2d, d3d)


def perspective_filter(windows, cam: CameraModel, ranges: SceneRanges):
    """Keep windows whose implied 3D point lies inside the world box."""
    out = []
    for win in windows:
        x3d, y3d, _ = implied_3d(win, cam, ranges.d3d)
        if (ranges.x3d_min <= x3d <= ranges.x3d_max
                and ranges.y3d_min <= y3d <= ranges.y3d_max):
            out.append(win)
    return out


def final_windows(image, cam=None, ranges=None, ws=DEFAULT_WS,
                  stride_frac=DEFAULT_STRIDE_FRAC, ratio=DEFAULT_RATIO):
    """Pyramid sliding windows, perspective-pruned when geometry is given.

    Returns (windows, levels); windows are in deterministic level-major
    scan order.  Without a camera or ranges the sliding set passes through
    untouched.  The windows equal perspective_filter over sliding_windows
    of build_pyramid, but each level only resamples the band its kept
    windows cover (an empty band when it keeps none).  A level's windows
    are its kept axes' product, xs x ys, y-major, and crop_window reads one
    through the band's origin: (xs[0], ys[0]), or (0, 0) if it keeps none.
    """
    img = np.asarray(image)
    sizes = _level_sizes(img.shape, ws, ratio)
    step = _grid_step(ws, stride_frac)
    wins, levels = [], []
    for k, (scale, lh, lw) in enumerate(sizes):
        xs = np.asarray(_axis_positions(lw, ws, step))
        ys = np.asarray(_axis_positions(lh, ws, step))
        if cam is not None and ranges is not None:
            # corner_window's centre arithmetic, on the axes
            x3d, y3d, _ = cam.implied((xs + ws / 2) * scale,
                                      (ys + ws / 2) * scale, ws * scale,
                                      ranges.d3d)
            xs = xs[(ranges.x3d_min <= x3d) & (x3d <= ranges.x3d_max)]
            ys = ys[(ranges.y3d_min <= y3d) & (y3d <= ranges.y3d_max)]
        xs, ys = tuple(xs.tolist()), tuple(ys.tolist())
        if xs and ys:
            cols, rows = (xs[0], xs[-1] + ws), (ys[0], ys[-1] + ws)
        else:
            cols = rows = (0, 0)
        levels.append(PyramidLevel(
            scale=scale, image=_level_band(img, scale, lh, lw, rows, cols),
            origin=(cols[0], rows[0]), xs=xs, ys=ys))
        wins.extend(corner_window(scale, k, x, y, ws) for y in ys for x in xs)
    return wins, levels


def corner_window(scale, level_id: int, x, y, ws=DEFAULT_WS):
    """The window whose ws x ws block on the level of this scale has
    top-left pixel (x, y); crop_window is the inverse."""
    return Window(x2d=(x + ws / 2) * scale, y2d=(y + ws / 2) * scale,
                  d2d=ws * scale, level=level_id)


def crop_window(win: Window, levels, ws=DEFAULT_WS):
    """The window's ws x ws pixel block from its own pyramid level, or
    from the band of it the level holds, found through the band's origin
    (corner_window's inverse); DataError if the block leaves that band."""
    level = levels[win.level]
    ox, oy = level.origin
    x = int(round(win.x2d / level.scale - ws / 2)) - ox
    y = int(round(win.y2d / level.scale - ws / 2)) - oy
    h, w = level.image.shape[:2]
    if not (0 <= x <= w - ws and 0 <= y <= h - ws):
        raise DataError(f"window at ({win.x2d}, {win.y2d}) leaves its level")
    return level.image[y:y + ws, x:x + ws]


@dataclass(frozen=True)
class CoverageReport:
    """coverage_verify's worst object side; passed if it has slack left."""
    passed: bool
    worst_margin: float      # pixels of two-sided slack at the worst case
    worst_side: float        # object side (source px) achieving it


def _axis_margin(canvas, side, ws, step, scale, level_len):
    """Best two-sided slack for a 1D object of `side` source px against one
    level_len-px level's window grid, minimized over object positions.

    Window intervals in source pixels are [x*scale, (x+ws)*scale].  An
    object [a, a+side] is contained iff some window has
    x*scale <= a and a+side <= (x+ws)*scale.
    """
    xs = np.asarray(_axis_positions(level_len, ws, step), dtype=np.float64)
    lo = xs * scale
    hi = (xs + ws) * scale
    a = np.arange(0.0, canvas - side + 1e-9, 0.25)
    if a[-1] < canvas - side - 1e-9:
        a = np.append(a, canvas - side)
    left = a[:, None] - lo[None, :]
    right = hi[None, :] - (a[:, None] + side)
    pair = np.minimum(left, right)
    margins = pair.max(axis=1)
    # objects touching the canvas boundary cannot drift outward, so their
    # outer-side slack is not a failure distance; keep containment itself
    margins[0] = np.where(left[0] >= 0, right[0], pair[0]).max()
    margins[-1] = np.where(right[-1] >= 0, left[-1], pair[-1]).max()
    return float(margins.min())


def coverage_verify(rs_lo=RS_LO, rs_hi=RS_HI, stride_frac=DEFAULT_STRIDE_FRAC,
                    ratio=DEFAULT_RATIO, ws=DEFAULT_WS, canvas=512):
    """Exhaustive sweep of the containment guarantee.

    For every object side with size ratio in [rs_lo, rs_hi] (stepped by
    COVERAGE_SIDE_STEP px) and every position on the canvas, some pyramid
    window must fully contain the object.  Containment of an axis-aligned
    square is separable, so each axis is swept independently and the worst
    margin is the minimum over both.  The grid is final_windows' on a canvas
    square, with its errors: ConfigError for a stride_frac or ratio it
    refuses, DataError for a canvas smaller than ws.
    """
    if not 0 < rs_lo < rs_hi <= 1:
        raise ConfigError("size-ratio band must satisfy 0 < lo < hi <= 1")
    if ratio > rs_hi / rs_lo + 1e-12:
        raise ConfigError(
            f"pyramid ratio {ratio} exceeds {rs_hi}/{rs_lo}; objects between "
            "levels would escape both bands")
    step = _grid_step(ws, stride_frac)
    levels = _level_sizes((canvas, canvas), ws, ratio)
    worst_margin, worst_side = np.inf, 0.0
    sides = np.arange(rs_lo * ws, rs_hi * ws + 1e-9, COVERAGE_SIDE_STEP)
    if sides[-1] < rs_hi * ws - 1e-9:
        sides = np.append(sides, rs_hi * ws)  # the band edge is the worst case
    for side in sides:
        best_for_side = -np.inf
        for scale, length, _ in levels:
            # only the levels whose size-ratio band holds the side
            if rs_lo - 1e-9 <= side / (ws * scale) <= rs_hi + 1e-9:
                best_for_side = max(best_for_side, _axis_margin(
                    canvas, side, ws, step, scale, length))
        if best_for_side < worst_margin:
            worst_margin, worst_side = best_for_side, float(side)
    return CoverageReport(passed=bool(worst_margin > 0),
                          worst_margin=worst_margin, worst_side=worst_side)
