"""Binary PPM (P6) image I/O plus the small raster helpers the detector
needs: bilinear resizing, input normalization, annotation sidecars, and box
overdraw.  Images are (H, W, 3) uint8 arrays."""

import numpy as np

from .errors import DataError


def read_ppm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        fields.append(data[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise DataError(f"{path}: malformed PPM header")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    pixels = data[pos:pos + expected]
    if len(pixels) != expected:
        raise DataError(f"{path}: expected {expected} pixel bytes, "
                        f"got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, image):
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise DataError(f"write_ppm needs (H, W, 3) uint8, got "
                        f"{image.shape} {image.dtype}")
    h, w, _ = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_boxes(path):
    """Annotation sidecar: one 'label x1 y1 x2 y2' line per object."""
    boxes = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 5:
                raise DataError(f"{path}:{ln}: expected 'label x1 y1 x2 y2'")
            try:
                label = int(parts[0])
                x1, y1, x2, y2 = (float(p) for p in parts[1:])
            except ValueError:
                raise DataError(f"{path}:{ln}: non-numeric annotation")
            if not np.isfinite((x1, y1, x2, y2)).all():
                raise DataError(f"{path}:{ln}: non-finite coordinate")
            if x1 >= x2 or y1 >= y2:
                raise DataError(f"{path}:{ln}: degenerate box")
            boxes.append((label, (x1, y1, x2, y2)))
    return boxes


def write_boxes(path, boxes):
    with open(path, "w") as fh:
        for label, (x1, y1, x2, y2) in boxes:
            fh.write(f"{label} {x1:.4f} {y1:.4f} {x2:.4f} {y2:.4f}\n")


def bilinear_resize(image, out_h, out_w):
    """Pixel-center-aligned bilinear resampling.

    Works on (H, W) or (H, W, C) float or integer arrays and returns
    float64; callers round/cast as needed.
    """
    return bilinear_band(image, out_h, out_w, (0, out_h), (0, out_w))


def _taps(lo, hi, n_in, n_out):
    """Source index pairs and weights of output samples lo..hi-1 on one
    axis; each output depends on its own index only, so any range is the
    same slice of the full axis."""
    pos = (np.arange(lo, hi) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1)
    i0 = np.floor(pos).astype(np.int64)
    return i0, np.minimum(i0 + 1, n_in - 1), pos - i0


def bilinear_band(image, out_h, out_w, rows, cols):
    """Output rows [rows[0], rows[1]) and columns [cols[0], cols[1]) of
    bilinear_resize(image, out_h, out_w), bit-equal to that slice.

    The four corner samples are gathered in the source dtype and only they
    are converted to float64 (exact for integer pixels), so a band costs
    its own area, not the source's.
    """
    img = np.asarray(image)
    if out_h < 1 or out_w < 1:
        raise DataError(f"cannot resize to {out_h}x{out_w}")
    h, w = img.shape[:2]
    y0, y1, fy = _taps(*rows, h, out_h)
    x0, x1, fx = _taps(*cols, w, out_w)
    fy = fy[:, None]
    fx = fx[None, :]
    if img.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top_rows, bot_rows = img[y0], img[y1]

    def corner(src, xi):
        return src[:, xi].astype(np.float64, copy=False)

    top = corner(top_rows, x0) * (1 - fx) + corner(top_rows, x1) * fx
    bot = corner(bot_rows, x0) * (1 - fx) + corner(bot_rows, x1) * fx
    return top * (1 - fy) + bot * fy


def normalize_image(image):
    """uint8 (..., H, W, 3) -> float64 (..., 3, H, W) network input in
    [-0.5, 0.5]; a stack converts bitwise equal to its images one by one."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim < 3 or img.shape[-1] != 3:
        raise DataError(f"expected (..., H, W, 3) images, got shape {img.shape}")
    return np.moveaxis(img, -1, -3) / 255.0 - 0.5


def draw_box(image, box, color):
    """Overwrite the 1-px box outline on an (H, W, 3) uint8 image, in place."""
    h, w, _ = image.shape
    x1, y1, x2, y2 = (int(round(v)) for v in box)
    x1, x2 = max(x1, 0), min(x2, w - 1)
    y1, y2 = max(y1, 0), min(y2, h - 1)
    if x1 > x2 or y1 > y2:
        return image
    col = np.asarray(color, dtype=np.uint8)
    image[y1, x1:x2 + 1] = col
    image[y2, x1:x2 + 1] = col
    image[y1:y2 + 1, x1] = col
    image[y1:y2 + 1, x2] = col
    return image
