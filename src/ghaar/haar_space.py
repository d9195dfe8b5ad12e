"""Sign-pattern filter space: enumeration, projection, and selection.

A sign pattern is a SIDE x SIDE (3x3) kernel whose cells are all -1 or +1.
A pattern and its negation act as the same filter once an arbitrary real
scale factor is allowed, so the space is canonicalized by fixing cell (0, 0)
to +1.  The remaining 8 cells, read in row-major order, form the bits of the
canonical index: cell number j+1 contributes bit j (least significant bit
first), with +1 encoding as 1.  Index 0 is therefore the pattern that is +1
at (0, 0) and -1 everywhere else; the all-ones pattern has the largest
index, 255, so a one-byte reference indexes any pattern table.

Projecting a real kernel w onto a pattern s means finding the least-squares
scale: lambda = sum(w * s) / sum(s * s) = sum(w * s) / 9.  The residual
sum((w - lambda * s)**2) measures how far w sits from the ray through s.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DimensionError

SIDE = 3        # the paper's 3x3 patterns: 2**(3*3-1) = 256 of them
BLOCK = 2048    # kernels per project_batch chunk


def space_size(m: int) -> int:
    """Number of canonical sign patterns of side m, which must be SIDE."""
    if m != SIDE:
        raise ConfigError(f"filter space side must be {SIDE}, got {m}")
    return 1 << (m * m - 1)


@dataclass(frozen=True)
class SignPattern:
    """One canonical +-1 filter."""

    m: ClassVar[int] = SIDE
    cells: np.ndarray  # (m, m) int8, cells[0, 0] == +1
    canonical_index: int

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.int8)
        if cells.shape != (self.m, self.m):
            raise DimensionError(f"cells shape {cells.shape} != ({self.m}, {self.m})")
        if not np.all(np.abs(cells) == 1):
            raise ConfigError("sign pattern cells must be -1 or +1")
        if cells[0, 0] != 1:
            raise ConfigError("canonical sign patterns have +1 at cell (0, 0)")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True, eq=False)
class FilterSpace:
    """A table of canonical sign patterns: the full space or any subset.

    Row r holds the pattern with canonical index `indices[r]`; `signs` is the
    (len, m*m) float matrix of flattened patterns that the vectorized
    projection routines read.  Build it with enumerate_space,
    reduced_space_from_indices or select_top_filters.
    """

    m: ClassVar[int] = SIDE
    indices: np.ndarray = field(repr=False)  # (N,) int64, row -> canonical index
    signs: np.ndarray = field(repr=False)    # (N, m*m) float64, +-1 rows

    def __len__(self):
        return int(self.indices.size)

    def __getitem__(self, row: int) -> SignPattern:
        cells = self.signs[row].reshape(self.m, self.m).astype(np.int8)
        return SignPattern(cells, int(self.indices[row]))

    def kernels(self, rows, factors):
        """Dense kernels factor * pattern, shaped rows.shape + (m, m)."""
        flat = np.reshape(factors, (-1, 1)) * self.signs[np.reshape(rows, -1)]
        return flat.reshape(np.shape(rows) + (self.m, self.m))


def reduced_space_from_indices(m: int, selected) -> FilterSpace:
    """Pattern table holding the given distinct canonical indices, in order."""
    size = space_size(m)
    indices = np.array(selected, dtype=np.int64)
    if indices.size == 0:
        raise ConfigError("reduced space needs at least one filter")
    if indices.size != np.unique(indices).size:
        raise ConfigError("reduced space indices must be distinct")
    if indices.min() < 0 or indices.max() >= size:
        raise ConfigError(f"canonical index out of range [0, {size}) for m={m}")
    bits = (indices[:, None] >> np.arange(m * m - 1)[None, :]) & 1
    signs = np.empty((indices.size, m * m), dtype=np.float64)
    signs[:, 0] = 1.0
    signs[:, 1:] = bits * 2.0 - 1.0
    indices.setflags(write=False)
    signs.setflags(write=False)
    return FilterSpace(indices, signs)


@dataclass(frozen=True)
class ProjectionResult:
    """Nearest-pattern answer: index, least-squares scale, and residual."""

    index: int
    scale: float
    residual: float


def enumerate_space(m: int) -> FilterSpace:
    """All canonical sign patterns of side m, ordered by canonical index."""
    return reduced_space_from_indices(m, np.arange(space_size(m)))


def _flat_kernel(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (SIDE, SIDE) and w.shape != (SIDE * SIDE,):
        raise DimensionError(f"kernel shape {w.shape} does not match side {SIDE}")
    return w.reshape(-1)


def nearest_filter(w, space) -> ProjectionResult:
    """Pattern in `space` minimizing the least-squares residual to w.

    Ties are broken by the lowest canonical index.
    """
    wf = _flat_kernel(w)
    rows, scales, residuals = project_batch(wf[None, :], space)
    return ProjectionResult(index=int(space.indices[rows[0]]),
                            scale=float(scales[0]),
                            residual=float(residuals[0]))


def project_batch(kernels, space):
    """Nearest pattern for many flat kernels at once.

    kernels is (J, m*m); returns (rows, scales, residuals) where rows index
    into `space` (not canonical indices).  The residual to pattern s is
    |w|^2 - (w . s)^2 / m^2, so the nearest pattern in any space is the one
    with the largest |w . s|; only that pattern's scale and residual are
    computed.  Agrees with nearest_filter on every row, including the
    lowest-canonical-index tie rule.  Work is chunked so the
    (BLOCK, len(space)) intermediate stays small.
    """
    m = space.m
    mm = m * m
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim != 2 or kernels.shape[1] != mm:
        raise DimensionError(f"expected (J, {mm}) kernels, got shape {kernels.shape}")
    if len(space) == 0:
        raise ConfigError("cannot search an empty filter space")
    # scan columns in ascending canonical order so argmax's first-match
    # behavior lands on the lowest index among exact ties
    order = np.argsort(space.indices, kind="stable")
    signs = space.signs[order]
    j = kernels.shape[0]
    rows = np.empty(j, dtype=np.int64)
    scales = np.empty(j)
    residuals = np.empty(j)
    for lo in range(0, j, BLOCK):
        chunk = kernels[lo:lo + BLOCK]
        # einsum, not BLAS: the rounding then does not depend on how many
        # kernels share the call
        dots = np.einsum("jk,nk->jn", chunk, signs)
        pos = np.abs(dots).argmax(axis=1)
        picked = signs[pos]
        scale = (chunk * picked).sum(axis=1) / mm
        rows[lo:lo + BLOCK] = order[pos]
        scales[lo:lo + BLOCK] = scale
        residuals[lo:lo + BLOCK] = ((chunk - scale[:, None] * picked) ** 2).sum(axis=1)
    return rows, scales, residuals


def select_top_filters(usage_counts, nr: int) -> FilterSpace:
    """Keep the nr most-used patterns.

    usage_counts holds one count per canonical index of the full space.
    Descending count; ties resolved toward the lower canonical index.
    """
    counts = np.asarray(usage_counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ConfigError("usage counts must be nonnegative")
    size = space_size(SIDE)
    if counts.shape != (size,):
        raise ConfigError(f"usage histogram must hold {size} counts, got {counts.shape}")
    if nr <= 0:
        raise ConfigError(f"number of selected filters must be positive, got {nr}")
    if nr > counts.size:
        raise ConfigError(f"cannot select {nr} filters from a space of {counts.size}")
    order = np.lexsort((np.arange(counts.size), -counts))
    return reduced_space_from_indices(SIDE, order[:nr])
