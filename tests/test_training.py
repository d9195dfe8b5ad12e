"""Regularizer math, the constrained step, and the two-phase fit."""

import copy

import numpy as np
import pytest

from ghaar.errors import ConfigError, TrainingError
from ghaar import haar_space as hs
from ghaar import nn_core as nn
from ghaar import training as tr


def small_cfg(**kw):
    base = dict(epochs=2, lr=0.05, batch_size=8, phi=0.1, q=8, nr=8,
                window=16, in_channels=1, classes=2,
                trunk_widths=(2, 3, 3, 3), head_widths=(3, 3), bottleneck=2,
                seed=0)
    base.update(kw)
    return tr.TrainConfig(**base)


def toy_data(n=24, seed=0, channels=1, window=16, classes=2):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, channels, window, window)) * 0.3
    labels = rng.integers(0, classes, size=n)
    loc = rng.normal(size=(n, 4)) * 0.1
    loc[labels == 0] = 0.0
    return x, loc, labels


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(q=0)
    with pytest.raises(ConfigError):
        small_cfg(phi=-0.1)
    with pytest.raises(ConfigError):
        small_cfg(lr=0.0)
    with pytest.raises(ConfigError):
        small_cfg(lr_decay=1.5)
    with pytest.raises(ConfigError):
        small_cfg(phase_a_epochs=5)  # exceeds epochs=2
    assert small_cfg(epochs=5).phase_a_epochs == 3


@pytest.mark.parametrize("nr", [0, 257, 300])
def test_reduced_space_size_is_checked_when_built(nr):
    # before phase A trains, not at the census after it
    with pytest.raises(ConfigError, match="reduced-space size"):
        small_cfg(nr=nr)
    assert small_cfg(nr=256).nr == 256


@pytest.mark.parametrize("every", [0, -3])
def test_decay_interval_is_checked_when_built(every):
    # before any sample is read, not at lr_at's division
    with pytest.raises(ConfigError, match="decay interval"):
        small_cfg(decay_every=every)


@pytest.mark.parametrize("key, value", [
    ("phi", np.nan), ("phi", np.inf), ("phi", -0.1), ("q", np.nan),
    ("q", np.inf), ("q", 0), ("lr", np.nan), ("lr", np.inf), ("lr", 0.0)])
def test_training_arguments_must_be_finite_and_in_range(key, value):
    # phi nan once trained exactly as phi 0; each rule is written once and
    # read by the config and by the function the argument reaches:
    # haar_regularizer for the pull, sgd_update for the learning rate
    match = {"phi": "regularizer weight", "q": "sharpness",
             "lr": "learning rate"}[key]
    with pytest.raises(ConfigError, match=match):
        small_cfg(**{key: value})
    with pytest.raises(ConfigError, match=match):
        if key == "lr":
            nn.sgd_update(nn.init_params(small_cfg().network_spec()), {}, value)
        else:
            tr.haar_regularizer(np.zeros((3, 3)), hs.enumerate_space(3),
                                **{"phi": 0.1, "q": 8, key: value})


def test_pattern_side_is_fixed_at_three():
    # every kernel the spec constrains is 3x3, so the side is no field
    assert tr.TrainConfig.m == small_cfg().m == 3
    with pytest.raises(TypeError):
        small_cfg(m=2)


def test_lr_schedule():
    cfg = small_cfg(lr=0.4, lr_decay=0.5, decay_every=10, epochs=2)
    assert cfg.lr_at(0) == 0.4
    assert cfg.lr_at(9) == 0.4
    assert cfg.lr_at(10) == 0.2
    assert cfg.lr_at(25) == 0.1


def test_regularizer_zero_kernel():
    space = hs.enumerate_space(3)
    value, grad = tr.haar_regularizer(np.zeros((3, 3)), space, phi=0.5, q=4)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_regularizer_single_pattern_space_is_exact_residual():
    # with one pattern the soft minimum collapses to phi * residual
    reduced = hs.reduced_space_from_indices(3, [37])
    rng = np.random.default_rng(1)
    w = rng.normal(size=(3, 3))
    single = hs.nearest_filter(w, reduced)
    for phi in (0.3, 2.0):
        value, _ = tr.haar_regularizer(w, reduced, phi=phi, q=5)
        assert value == pytest.approx(phi * single.residual, rel=1e-10)


def test_regularizer_on_manifold_kernel():
    space = hs.enumerate_space(3)
    w = 1.7 * space[90].cells.astype(float)
    value, _ = tr.haar_regularizer(w, space, phi=1.0, q=8)
    # nearest residual is zero so the soft minimum is small and nonnegative
    assert 0.0 <= value < np.log(256) / 8 + 1e-9


def test_regularizer_monotone_in_q_converges_to_min():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.normal(size=(3, 3))
        res_min = hs.nearest_filter(w, space).residual
        values = [tr.haar_regularizer(w, space, phi=1.0, q=q)[0]
                  for q in (1, 2, 4, 8, 16, 32, 64)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
        assert values[-1] >= res_min - 1e-9
        assert values[-1] == pytest.approx(res_min, abs=2e-2)


def test_regularizer_gradient_finite_difference():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(3)
    h = 1e-6
    for q in (1, 8, 32):
        for _ in range(5):
            w = rng.normal(size=(3, 3))
            _, grad = tr.haar_regularizer(w, space, phi=0.7, q=q)
            fd = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    fd[i, j] = (tr.haar_regularizer(wp, space, 0.7, q)[0]
                                - tr.haar_regularizer(wm, space, 0.7, q)[0]) / (2 * h)
            denom = max(np.abs(fd).max(), np.abs(grad).max(), 1e-8)
            assert np.abs(fd - grad).max() / denom < 1e-4, q


def test_regularizer_batch_matches_single():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(4)
    flat = rng.normal(size=(6, 9))
    total, grads = tr._regularizer_batch(flat, space.signs, 0.2, 8)
    singles = [tr.haar_regularizer(flat[i].reshape(3, 3), space, 0.2, 8)
               for i in range(6)]
    assert total == pytest.approx(sum(v for v, _ in singles))
    for i, (_, g) in enumerate(singles):
        assert np.allclose(grads[i].reshape(3, 3), g, atol=1e-12)


def test_unit_pull_is_scale_free_and_skips_zero_rows():
    # the step's pull: the smooth-min on w/|w|, so it cannot shrink w
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(5)
    flat = rng.normal(size=(5, 9))
    flat[2] = 0.0
    value, grad = tr._unit_pull(flat, space.signs, 0.3, 8)
    unit = flat[[0, 1, 3, 4]] / np.linalg.norm(flat[[0, 1, 3, 4]], axis=1)[:, None]
    assert value == pytest.approx(
        tr._regularizer_batch(unit, space.signs, 0.3, 8)[0])
    assert value == pytest.approx(
        tr._unit_pull(7.0 * flat, space.signs, 0.3, 8)[0])
    assert (grad[2] == 0.0).all()
    assert np.abs((grad * flat).sum(axis=1)).max() < 1e-12
    h = 1e-6
    fd = np.zeros_like(flat)
    for idx in np.ndindex(*flat.shape):
        if idx[0] == 2:
            continue
        up, down = flat.copy(), flat.copy()
        up[idx] += h
        down[idx] -= h
        fd[idx] = (tr._unit_pull(up, space.signs, 0.3, 8)[0]
                   - tr._unit_pull(down, space.signs, 0.3, 8)[0]) / (2 * h)
    assert np.abs(fd - grad).max() / np.abs(grad).max() < 1e-5


def test_losses():
    probs = np.array([[0.7, 0.3], [0.2, 0.8]])
    value, grad = tr.cla_loss(probs, [0, 1])
    assert value == pytest.approx(-(np.log(0.7) + np.log(0.8)) / 2)
    assert grad[0, 0] == pytest.approx(-1 / (2 * 0.7))
    assert grad[0, 1] == 0.0
    # degenerate probability is clamped, not inf
    v2, _ = tr.cla_loss(np.array([[1.0, 0.0]]), [1])
    assert np.isfinite(v2)

    pred = np.array([[1.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0]])
    targ = np.zeros((2, 4))
    value, grad = tr.loc_loss(pred, targ, [1, 0])
    assert value == pytest.approx(1.0 / 4)
    assert np.allclose(grad[1], 0.0)
    value0, grad0 = tr.loc_loss(pred, targ, [0, 0])
    assert value0 == 0.0 and np.allclose(grad0, 0.0)


def test_step_keeps_exact_reconstruction():
    cfg = small_cfg(phi=0.05)
    spec = cfg.network_spec()
    space = hs.enumerate_space(3)
    params = tr.constrain_params(nn.init_params(spec, seed=5), space)
    x, loc_t, labels = toy_data(8, seed=5)
    for step in range(5):
        tr.train_step(params, x, loc_t, labels, space, cfg, lr=0.02)
        for name in tr.constrained_layer_names(spec):
            lp = params.layers[name]
            o, c, k, _ = lp.kernels.shape
            rebuilt = (lp.factors.reshape(-1, 1)
                       * space.signs[lp.filter_idx.reshape(-1)]).reshape(o, c, k, k)
            assert np.array_equal(rebuilt, lp.kernels), (step, name)


def test_unconstrained_zero_phi_is_plain_sgd():
    cfg = small_cfg(constrain=False, phi=0.0)
    spec = cfg.network_spec()
    params = nn.init_params(spec, seed=7)
    mirror = copy.deepcopy(params)
    x, loc_t, labels = toy_data(8, seed=7)
    for _ in range(5):
        tr.train_step(params, x, loc_t, labels, hs.enumerate_space(3), cfg, lr=0.03)
        # reference: raw forward/backward/update with the same losses
        loc, probs, cache = nn.forward(mirror, x)
        mask = labels != 0
        _, lg = tr.loc_loss(loc, loc_t, mask)
        _, cg = tr.cla_loss(probs, labels)
        grads = nn.backward(mirror, cache, lg, cg)
        nn.sgd_update(mirror, grads, 0.03)
    for name in params.layers:
        assert np.array_equal(params.layers[name].kernels,
                              mirror.layers[name].kernels), name
        assert np.array_equal(params.layers[name].bias, mirror.layers[name].bias)


def test_loss_decreases_over_steps():
    cfg = small_cfg(phi=0.01)
    spec = cfg.network_spec()
    space = hs.enumerate_space(3)
    params = tr.constrain_params(nn.init_params(spec, seed=9), space)
    x, loc_t, labels = toy_data(32, seed=9)
    losses = [tr.train_step(params, x, loc_t, labels, space, cfg, lr=0.05)["loss"]
              for _ in range(50)]
    first = np.mean(losses[:10])
    last = np.mean(losses[-10:])
    assert last < first


def test_non_finite_raises_training_error():
    cfg = small_cfg(phi=0.0)
    spec = cfg.network_spec()
    space = hs.enumerate_space(3)
    params = tr.constrain_params(nn.init_params(spec, seed=1), space)
    params.layers["conv1"].kernels[0, 0, 0, 0] = np.nan
    x, loc_t, labels = toy_data(4, seed=1)
    with pytest.raises(TrainingError):
        tr.train_step(params, x, loc_t, labels, space, cfg, lr=0.01)


def test_non_finite_loss_stops_the_step_before_backward():
    # the loss check itself, not the gradient check behind it, must fire
    cfg = small_cfg(phi=0.0)
    space = hs.enumerate_space(3)
    params = tr.constrain_params(
        nn.init_params(cfg.network_spec(), seed=1), space)
    params.layers["conv1"].kernels[0, 0, 0, 0] = np.nan
    before = copy.deepcopy(params)
    x, loc_t, labels = toy_data(4, seed=1)
    with pytest.raises(TrainingError, match="non-finite loss"):
        tr.train_step(params, x, loc_t, labels, space, cfg, lr=0.01)
    for name, lp in params.layers.items():
        assert np.array_equal(lp.bias, before.layers[name].bias), name
        assert np.array_equal(lp.kernels, before.layers[name].kernels,
                              equal_nan=True), name


def test_unseeded_constrained_step_raises_before_any_work():
    # constrain_params is the only writer of the pattern form; a step never
    # seeds or rebuilds it, whether no layer or just one lacks it
    cfg = small_cfg()
    space = hs.enumerate_space(3)
    x, loc_t, labels = toy_data(4, seed=1)
    unseeded = nn.init_params(cfg.network_spec(), seed=1)
    partly = tr.constrain_params(nn.init_params(cfg.network_spec(), seed=1),
                                 space)
    partly.layers["conv2"].shadow = None
    for params in (unseeded, partly):
        before = copy.deepcopy(params)
        with pytest.raises(TrainingError, match="no pattern assignment"):
            tr.train_step(params, x, loc_t, labels, space, cfg, lr=0.01)
        for name, lp in params.layers.items():
            was = before.layers[name]
            assert np.array_equal(lp.kernels, was.kernels), name
            assert np.array_equal(lp.bias, was.bias), name
            for key in ("filter_idx", "factors", "shadow"):
                a, b = getattr(lp, key), getattr(was, key)
                assert (a is None) == (b is None), (name, key)
                assert a is None or np.array_equal(a, b), (name, key)


def test_diverging_fit_raises_on_first_failing_step(monkeypatch):
    # a retry reruns the same forward on the same params and batch, so the
    # first TrainingError is final
    outcomes = []
    step = tr.train_step

    def counted(*args):
        try:
            info = step(*args)
        except TrainingError:
            outcomes.append("raised")
            raise
        outcomes.append("ok")
        return info

    monkeypatch.setattr(tr, "train_step", counted)
    x, loc_t, labels = toy_data(24, seed=4)
    with pytest.raises(TrainingError), np.errstate(over="ignore",
                                                   invalid="ignore"):
        tr.fit(x, loc_t, labels, small_cfg(lr=1e300, epochs=4))
    assert outcomes.count("raised") == 1
    assert outcomes[-1] == "raised"


def test_usage_census_counts_slices():
    cfg = small_cfg()
    spec = cfg.network_spec()
    space = hs.enumerate_space(3)
    params = tr.constrain_params(nn.init_params(spec, seed=2), space)
    counts = usage = tr.usage_census(params, space)
    expected = sum(params.layers[n].kernels.shape[0] * params.layers[n].kernels.shape[1]
                   for n in tr.constrained_layer_names(spec))
    assert counts.sum() == expected
    assert counts.shape == (256,)
    # census against a reduced space reports on the canonical axis too
    reduced = hs.select_top_filters(usage, 8)
    small = tr.usage_census(tr.constrain_params(params, reduced), reduced)
    assert small.shape == (256,)
    assert small.sum() == expected
    assert set(np.nonzero(small)[0]) <= set(int(i) for i in reduced.indices)


def test_fit_two_phase_shapes_and_log():
    cfg = small_cfg(epochs=2, phase_a_epochs=1, nr=8)
    x, loc_t, labels = toy_data(24, seed=11)
    params, reduced, rows = tr.fit(x, loc_t, labels, cfg, val=(x, loc_t, labels))
    assert len(reduced) == 8
    assert [r["phase"] for r in rows] == ["A", "B"]
    assert rows[0]["space"] == 256 and rows[1]["space"] == 8
    for r in rows:
        assert np.isfinite(r["loss"])
        assert 0.0 <= r["val_err_cla"] <= 1.0
    # every constrained slice ended snapped onto the reduced space, while the
    # logged residual tracks the off-manifold accumulators
    for name in tr.constrained_layer_names(params.spec):
        lp = params.layers[name]
        assert lp.filter_idx.max() < 8
        sel = reduced.signs[lp.filter_idx.reshape(-1)]
        rebuilt = (lp.factors.reshape(-1, 1) * sel).reshape(lp.kernels.shape)
        assert np.array_equal(rebuilt, lp.kernels)
        assert lp.shadow is not None and lp.shadow.shape == lp.kernels.shape
    assert np.isfinite(rows[-1]["mean_residual"])
    assert rows[-1]["mean_residual"] >= 0.0


def test_fit_logs_phase_b_over_a_full_size_reduced_space():
    # the phase is the fit's, not a guess from the space's size
    cfg = small_cfg(epochs=2, phase_a_epochs=1, nr=256)
    x, loc_t, labels = toy_data(16, seed=12)
    _, reduced, rows = tr.fit(x, loc_t, labels, cfg)
    assert len(reduced) == 256
    assert [r["phase"] for r in rows] == ["A", "B"]


def test_fit_without_phase_a_trains_every_epoch_on_the_reduced_space():
    cfg = small_cfg(epochs=2, phase_a_epochs=0, nr=8)
    x, loc_t, labels = toy_data(16, seed=16)
    params, table, rows = tr.fit(x, loc_t, labels, cfg)
    assert [(r["epoch"], r["phase"], r["space"]) for r in rows] == [
        (0, "B", 8), (1, "B", 8)]
    assert len(table) == 8
    for name in tr.constrained_layer_names(params.spec):
        assert params.layers[name].filter_idx.max() < 8


def test_fit_without_phase_b_still_ships_the_reduced_table():
    # the census and reduction open phase B even when it has no epochs
    cfg = small_cfg(epochs=2, phase_a_epochs=2, nr=8)
    x, loc_t, labels = toy_data(16, seed=17)
    params, table, rows = tr.fit(x, loc_t, labels, cfg)
    assert [(r["epoch"], r["phase"], r["space"]) for r in rows] == [
        (0, "A", 256), (1, "A", 256)]
    assert len(table) == 8
    for name in tr.constrained_layer_names(params.spec):
        lp = params.layers[name]
        assert lp.filter_idx.max() < 8
        assert np.array_equal(table.kernels(lp.filter_idx, lp.factors),
                              lp.kernels)


@pytest.mark.parametrize("train_kw, val_kw, match", [
    (dict(channels=3), {}, "training samples have shape"),
    (dict(window=32), {}, "training samples have shape"),
    (dict(classes=3), {}, "training labels span"),
    ({}, dict(classes=3), "held-out labels span"),
    ({}, dict(n=0), "empty held-out sample set"),
])
def test_fit_refuses_samples_before_the_first_step(monkeypatch, train_kw,
                                                   val_kw, match):
    steps = []
    monkeypatch.setattr(tr, "train_step", lambda *a: steps.append(a))
    x, loc_t, labels = toy_data(**{"n": 12, "seed": 14, **train_kw})
    val = toy_data(**{"n": 12, "seed": 15, **val_kw})
    with pytest.raises(ConfigError, match=match):
        tr.fit(x, loc_t, labels, small_cfg(), val=val)
    assert steps == []


def test_fit_refuses_rgb_samples_for_a_one_channel_network(monkeypatch):
    # the uint8 (N, H, W, 3) patches extract_samples yields
    steps = []
    monkeypatch.setattr(tr, "train_step", lambda *a: steps.append(a))
    x = np.zeros((8, 16, 16, 3), dtype=np.uint8)
    with pytest.raises(ConfigError, match=r"training samples have shape "
                       r"\(3, 16, 16\), the network takes \(1, 16, 16\)"):
        tr.fit(x, np.zeros((8, 4)), np.zeros(8, dtype=int), small_cfg())
    assert steps == []


def test_fit_is_bitwise_reproducible():
    cfg1 = small_cfg(epochs=2, nr=8, seed=33)
    cfg2 = small_cfg(epochs=2, nr=8, seed=33)
    x, loc_t, labels = toy_data(20, seed=33)
    p1, s1, _ = tr.fit(x, loc_t, labels, cfg1)
    p2, s2, _ = tr.fit(x.copy(), loc_t.copy(), labels.copy(), cfg2)
    assert np.array_equal(s1.indices, s2.indices)
    for name in p1.layers:
        assert np.array_equal(p1.layers[name].kernels, p2.layers[name].kernels)
        assert np.array_equal(p1.layers[name].bias, p2.layers[name].bias)


def test_fit_unconstrained_single_phase():
    cfg = small_cfg(constrain=False, phi=0.0, epochs=2)
    x, loc_t, labels = toy_data(16, seed=13)
    params, space, rows = tr.fit(x, loc_t, labels, cfg)
    assert len(space) == 1      # the table it ships with; no record reads it
    assert [r["phase"] for r in rows] == ["A", "A"]
    # the spec says no layer is constrained, so none has a pattern form
    assert tr.constrained_layer_names(params.spec) == []
    assert all(lp.filter_idx is None and lp.shadow is None
               for lp in params.layers.values())


def test_regularizer_pulls_toward_pattern_space():
    # with projection off, a heavy pull should leave kernels much closer to
    # the pattern space than training without it
    x, loc_t, labels = toy_data(24, seed=17)
    space = hs.enumerate_space(3)
    results = {}
    for phi in (0.0, 100.0):
        cfg = small_cfg(constrain=False, phi=phi, q=8)
        params = nn.init_params(cfg.network_spec(), seed=17)
        for _ in range(40):
            tr.train_step(params, x, loc_t, labels, space, cfg, lr=5e-4)
        results[phi] = tr.mean_nearest_residual(params, space)
    assert results[0.0] > 1e-3  # sanity: without the pull there is real distance
    assert results[100.0] < 0.5 * results[0.0]


def test_write_log_csv(tmp_path):
    rows = [{"epoch": 0, "phase": "A", "lr": 0.1, "space": 256,
             "loss": 1.0, "loc": 0.4, "cla": 0.6, "reg": 0.0,
             "err_cla": 0.25, "mean_residual": 0.0,
             "val_err_cla": 0.5, "val_err_loc": 0.1}]
    path = tmp_path / "log.csv"
    tr.write_log_csv(rows, path)
    text = path.read_text().splitlines()
    assert text == ["epoch,phase,lr,space,loss,loc,cla,reg,err_cla,"
                    "mean_residual,val_err_cla,val_err_loc",
                    "0,A,0.1,256,1.0,0.4,0.6,0.0,0.25,0.0,0.5,0.1"]


def test_fit_accepts_uint8_patches():
    cfg = small_cfg(epochs=1, phase_a_epochs=1, nr=8, in_channels=3)
    x, loc_t, labels = toy_data(12, seed=29, channels=3)
    # the same samples as stored uint8 patches (H, W, 3)
    patches = np.transpose((np.clip(x + 0.5, 0, 1) * 255), (0, 2, 3, 1))
    patches = patches.round().astype(np.uint8)
    params, _, rows = tr.fit(patches, loc_t, labels, cfg)
    assert len(rows) == 1 and np.isfinite(rows[0]["loss"])
