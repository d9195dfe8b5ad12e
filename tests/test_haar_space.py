"""Sign-pattern space: enumeration, projection, nearest-filter search."""

import numpy as np
import pytest

from ghaar.errors import ConfigError, DimensionError
from ghaar import haar_space as hs


def brute_nearest(w, signs, indices):
    """Reference search: explicit loop over every pattern."""
    wf = w.reshape(-1)
    best = None
    for row, idx in zip(signs, indices):
        lam = float(wf @ row) / wf.size
        res = float(((wf - lam * row) ** 2).sum())
        if best is None or res < best[2] - 1e-15 or (
                abs(res - best[2]) <= 1e-15 and idx < best[0]):
            best = (idx, lam, res)
    return best


def test_space_sizes():
    assert len(hs.enumerate_space(3)) == 256


def test_side_limits():
    assert hs.SIDE == hs.FilterSpace.m == hs.SignPattern.m == 3
    for m in (1, 2, 4, 5):
        with pytest.raises(ConfigError, match="side must be 3"):
            hs.space_size(m)
        with pytest.raises(ConfigError, match="side must be 3"):
            hs.enumerate_space(m)


def test_all_patterns_canonical_and_distinct():
    space = hs.enumerate_space(3)
    seen = set()
    for p in (space[i] for i in range(len(space))):
        assert p.cells[0, 0] == 1
        assert set(np.unique(p.cells)) <= {-1, 1}
        seen.add(p.cells.tobytes())
    assert len(seen) == len(space)


def test_index_extremes():
    # index 0: +1 only at the anchor; max index: all +1
    cells0 = hs.enumerate_space(3)[0].cells
    assert cells0[0, 0] == 1 and (cells0.reshape(-1)[1:] == -1).all()
    cells_max = hs.enumerate_space(3)[255].cells
    assert (cells_max == 1).all()


def test_nearest_matches_brute_force():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = rng.normal(size=(3, 3))
        got = hs.nearest_filter(w, space)
        idx, lam, res = brute_nearest(w, space.signs, space.indices)
        assert got.index == idx
        assert got.scale == pytest.approx(lam, abs=1e-12)
        assert got.residual == pytest.approx(res, abs=1e-12)
    with pytest.raises(DimensionError):
        hs.nearest_filter(np.zeros((2, 2)), space)


def test_nearest_scale_equivariance():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(11)
    w = rng.normal(size=(3, 3))
    base = hs.nearest_filter(w, space)
    up = hs.nearest_filter(2.0 * w, space)
    assert up.index == base.index
    assert up.scale == pytest.approx(2.0 * base.scale)
    # w and -w share a canonical pattern: residuals are unchanged under
    # negation, only the factor flips sign
    neg = hs.nearest_filter(-w, space)
    assert neg.index == base.index
    assert neg.scale == pytest.approx(-base.scale)
    assert neg.residual == pytest.approx(base.residual)


def test_projection_idempotent():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = space[int(rng.integers(0, 256))]
        k = float(rng.normal()) or 1.0
        w = k * p.cells.astype(np.float64)
        got = hs.nearest_filter(w, space)
        assert got.residual == pytest.approx(0.0, abs=1e-18)
        assert got.index == p.canonical_index
        assert got.scale == pytest.approx(k)
        # reconstruction returns exactly the same kernel; row r of the full
        # space holds canonical index r
        rebuilt = got.scale * space.signs[got.index].reshape(3, 3)
        assert np.allclose(rebuilt, w, atol=1e-12)


def test_scale_is_least_squares_optimal():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(5)
    w = rng.normal(size=(3, 3))
    for p in (space[17], space[200]):
        # in a one-pattern space the nearest filter is p, at its scale
        lam = hs.nearest_filter(
            w, hs.reduced_space_from_indices(3, [p.canonical_index])).scale
        res = ((w.reshape(-1) - lam * p.cells.reshape(-1)) ** 2).sum()
        for eps in (1e-3, -1e-3, 0.1, -0.1):
            perturbed = ((w.reshape(-1) - (lam + eps) * p.cells.reshape(-1)) ** 2).sum()
            assert perturbed > res


def test_zero_kernel_projection():
    space = hs.enumerate_space(3)
    got = hs.nearest_filter(np.zeros((3, 3)), space)
    assert got.scale == 0.0 and got.residual == 0.0
    assert got.index == 0  # every pattern ties at residual 0; lowest index wins


def test_select_top_filters_ranks_by_count():
    counts = np.zeros(256, dtype=np.int64)
    counts[40] = 10
    counts[7] = 10
    counts[200] = 30
    counts[3] = 5
    reduced = hs.select_top_filters(counts, 3)
    assert list(reduced.indices) == [200, 7, 40]  # count desc, index asc on ties
    assert len(reduced) == 3


def test_select_top_filters_all_tied():
    counts = np.ones(256, dtype=np.int64)
    reduced = hs.select_top_filters(counts, 32)
    assert list(reduced.indices) == list(range(32))


def test_select_top_filters_validation():
    with pytest.raises(ConfigError):
        hs.select_top_filters(np.ones(256), 0)
    with pytest.raises(ConfigError):
        hs.select_top_filters(np.ones(256), 257)
    for size in (8, 100, 32768):   # the m=2 and m=4 space sizes, and neither
        with pytest.raises(ConfigError, match="must hold 256 counts"):
            hs.select_top_filters(np.ones(size), 4)
    bad = np.ones(256)
    bad[3] = -1
    with pytest.raises(ConfigError):
        hs.select_top_filters(bad, 4)


def test_reduced_space_round_trip():
    counts = np.arange(256, dtype=np.int64)
    reduced = hs.select_top_filters(counts, 8)
    assert list(reduced.indices) == list(range(255, 247, -1))
    for row, idx in enumerate(reduced.indices):
        assert np.array_equal(reduced.signs[row].reshape(3, 3),
                              hs.enumerate_space(3)[idx].cells.astype(float))
        assert reduced[row].canonical_index == idx


def test_project_batch_agrees_with_single(monkeypatch):
    monkeypatch.setattr(hs, "BLOCK", 7)   # many chunks, the last one short
    rng = np.random.default_rng(21)
    full = hs.enumerate_space(3)
    counts = np.zeros(256, dtype=np.int64)
    counts[[9, 1, 250, 30]] = (4, 3, 2, 1)
    reduced = hs.select_top_filters(counts, 4)
    flat = rng.normal(size=(40, 9))
    flat[5] = 0.0  # exercises the all-tie path
    for space in (full, reduced):
        rows, scales, residuals = hs.project_batch(flat, space)
        for i in range(flat.shape[0]):
            single = hs.nearest_filter(flat[i], space)
            assert int(space.indices[rows[i]]) == single.index, i
            assert scales[i] == single.scale
            assert residuals[i] == single.residual


def test_nearest_in_reduced_space():
    counts = np.zeros(256, dtype=np.int64)
    counts[[255, 0, 60]] = (5, 4, 3)
    reduced = hs.select_top_filters(counts, 3)
    w = np.full((3, 3), 2.5)
    got = hs.nearest_filter(w, reduced)
    assert got.index == 255 and got.scale == pytest.approx(2.5)
    assert got.residual == pytest.approx(0.0, abs=1e-18)


def test_project_batch_tie_rule_with_zero_cells():
    # zero cells make patterns tie exactly; the lowest canonical index wins
    rng = np.random.default_rng(4)
    w = rng.normal(size=(300, 9))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[:60, 0] = 0.0                                # cell (0, 0) zero
    w[60:63] = 0.0
    w[63, 1:] = 0.0                                # only cell (0, 0) nonzero
    w[64:128] = -w[:64]                            # +-w pairs
    full = hs.enumerate_space(3)
    # kernel 0 has a zero anchor, so +-sign(w) with cell (0, 0) set to +1 tie
    sign = np.where(w[0] < 0, -1, 1)
    partners = [int(np.flatnonzero((full.signs == np.r_[1, s[1:]]).all(axis=1))[0])
                for s in (sign, -sign)]
    rest = rng.choice(np.setdiff1d(np.arange(256), partners), 30, replace=False)
    reduced = hs.reduced_space_from_indices(
        3, sorted(np.r_[partners, rest], reverse=True))
    for space in (full, reduced):
        order = np.argsort(space.indices)
        signs, indices = space.signs[order], space.indices[order]
        rows, scales, residuals = hs.project_batch(w, space)
        for i, wf in enumerate(w):
            lam = signs @ wf / 9.0
            res = ((wf[None, :] - lam[:, None] * signs) ** 2).sum(axis=1)
            best = int(np.argmin(res))          # ties resolve to the lowest index
            assert space.indices[rows[i]] == indices[best], i
            assert scales[i] == pytest.approx(lam[best], abs=1e-12)
            assert residuals[i] == pytest.approx(res[best], abs=1e-12)
        assert np.array_equal(rows[64:128], rows[:64])
        assert np.array_equal(scales[64:128], -scales[:64])
        assert np.array_equal(residuals[64:128], residuals[:64])
