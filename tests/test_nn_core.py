"""Dense engine: conv/pool/softmax semantics and gradient correctness."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from ghaar.errors import ConfigError, DimensionError
from ghaar import nn_core as nn


def conv_reference(x, kernels, bias, pad):
    """Direct nested-loop cross-correlation of one (C, H, W) window."""
    c, h, w = x.shape
    o, _, k, _ = kernels.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    out = np.zeros((o, ho, wo))
    for oc in range(o):
        for i in range(ho):
            for j in range(wo):
                acc = bias[oc]
                for ic in range(c):
                    for di in range(k):
                        for dj in range(k):
                            acc += kernels[oc, ic, di, dj] * xp[ic, i + di, j + dj]
                out[oc, i, j] = acc
    return out


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def small_spec(constrained=False):
    return nn.build_network_spec(
        in_channels=2, classes=3, window=16,
        trunk_widths=(3, 4, 4, 5), head_widths=(4, 4), bottleneck=3,
        constrained=constrained)


def conv_cm(x, kernels, bias=None):
    """nn._conv_forward on a channel-major view of an (N, C, H, W) batch,
    returned sample-major."""
    out, _ = nn._conv_forward(x.transpose(1, 0, 2, 3), kernels, bias)
    return out.transpose(1, 0, 2, 3)


def test_conv_matches_reference():
    rng = np.random.default_rng(0)
    for k, pad in ((3, 1), (1, 0)):
        x = rng.normal(size=(3, 6, 6))
        kernels = rng.normal(size=(4, 3, k, k))
        bias = rng.normal(size=4)
        got = conv_cm(x[None], kernels, bias)[0]
        want = conv_reference(x, kernels, bias, pad)
        assert got.shape == want.shape
        assert rel_err(got, want) < 1e-12


def test_conv_batched_equals_per_sample():
    # an odd map: neither batch spans whole tiles of its own
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 2, 5, 7))
    kernels = rng.normal(size=(3, 2, 3, 3))
    bias = rng.normal(size=3)
    batched = conv_cm(x, kernels, bias)
    for i in range(5):
        single = conv_cm(x[i:i + 1], kernels, bias)[0]
        assert same_bits(batched[i], single)


@settings(max_examples=120, deadline=None)
@given(c=st.integers(1, 3), o=st.integers(1, 5), k=st.sampled_from([1, 3]),
       size=st.integers(1, 20), extra=st.tuples(
           st.integers(0, 40), st.integers(0, 40)),
       n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_conv_windows_equals_the_conv_of_each_window(c, o, k, size, extra,
                                                     n, seed):
    # any corners (repeated, touching every edge of the map) and any slice
    # of them: bit for bit the conv of the windows cut out and stacked
    rng = np.random.default_rng(seed)
    h, w = size + extra[0], size + extra[1]
    x = rng.normal(size=(c, h, w))
    kernels, bias = rng.normal(size=(o, c, k, k)), rng.normal(size=o)
    corners = np.stack([rng.integers(0, w - size + 1, n),
                        rng.integers(0, h - size + 1, n)], axis=1)
    corners[0] = (w - size, h - size)
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo + 1, n + 1))
    got = nn.conv_windows(x, kernels, bias, corners, size)(lo, hi)
    cut = np.stack([x[:, y:y + size, x0:x0 + size]
                    for x0, y in corners[lo:hi]], axis=1)
    assert same_bits(got, nn._conv_forward(cut, kernels, bias)[0])


def im2col_reference(x, k, pad):
    """np.pad, then one copy of the sliding-window view: the columns
    (C*k*k, N*Ho*Wo) of a (C, N, H, W) input."""
    c, n = x.shape[:2]
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    view = sliding_window_view(x, (k, k), axis=(2, 3))
    cols = np.ascontiguousarray(view.transpose(0, 4, 5, 1, 2, 3))
    return cols.reshape(c * k * k, -1), view.shape[2], view.shape[3]


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                       st.sampled_from([1, 2, 3, 5]),
                       st.sampled_from([1, 2, 3, 7])),
       k=st.sampled_from([1, 3]), layout=st.sampled_from(["c", "t", "s"]),
       seed=st.integers(0, 2**32 - 1))
def test_im2col_equals_pad_and_window_view(shape, k, layout, seed):
    # contiguous, a channel-major view of a sample-major array (as the
    # layer walk hands conv1 its input), or a strided slice
    rng = np.random.default_rng(seed)
    c, n, h, w = shape
    cells = np.array([0.0, -0.0, 1.5, -2.0, np.inf, np.nan])
    if layout == "t":
        x = rng.choice(cells, size=(n, c, h, w)).transpose(1, 0, 2, 3)
    elif layout == "s":
        x = rng.choice(cells, size=(c, n, 2 * h, w + 1))[:, :, ::2, 1:]
    else:
        x = rng.choice(cells, size=shape)
    # the columns, then zeros up to whole tiles
    got, ho, wo = nn._im2col(x, k, (k - 1) // 2)
    want, *size = im2col_reference(x, k, (k - 1) // 2)
    assert (ho, wo) == tuple(size) == (h, w)
    m = want.shape[1]
    assert got.shape[1] == -(-m // nn._TILE) * nn._TILE
    assert same_bits(got[:, :m], want)
    assert same_bits(got[:, m:], np.zeros((len(got), got.shape[1] - m)))


def test_maxpool_values_and_ties():
    x = np.array([[[[1.0, 2.0, 0.0, 0.0],
                    [3.0, 4.0, 0.0, 0.0],
                    [5.0, 5.0, 7.0, 8.0],
                    [5.0, 5.0, 9.0, 6.0]]]])
    out = nn._maxpool_values(x)
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0].tolist() == [[4.0, 0.0], [5.0, 9.0]]


def test_maxpool_backward_routes_to_first_max():
    x = np.full((1, 1, 2, 2), 2.0)
    dx = nn._maxpool_backward(np.ones((1, 1, 1, 1)), x, nn._maxpool_values(x))
    # all four tie; gradient goes to the first scanned cell only
    assert dx.sum() == 1.0
    assert dx[0, 0, 0, 0] == 1.0


def same_bits(a, b):
    """Equal shapes, NaN where the other is NaN, and every other value
    bitwise equal (so -0.0 differs from 0.0)."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64),
                               b[~nan].view(np.uint64)))


def argmax_pool(x):
    """Oracle 2x2 max pool of an (N, C, H, W) array: (pooled, argmax within
    each block, cells scanned row by row).  argmax takes a tie's first cell
    and a block's first NaN."""
    n, c, h, w = x.shape
    blocks = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = blocks.reshape(n, c, h // 2, w // 2, 4)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def argmax_pool_backward(dout, arg, x_shape):
    """Oracle pool gradient: scatter dout to the argmax cells."""
    n, c, h, w = x_shape
    dflat = np.zeros((n, c, h // 2, w // 2, 4))
    np.put_along_axis(dflat, arg[..., None], dout[..., None], axis=-1)
    blocks = dflat.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return blocks.reshape(n, c, h, w)


# few distinct values, so that blocks often hold ties
POOL_CELLS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
              | st.floats(allow_nan=False))
POOL_INPUTS = arrays(np.float64,
                     st.tuples(st.integers(1, 3), st.integers(1, 3),
                               st.integers(1, 3).map(lambda v: 2 * v)
                               ).map(lambda t: t + t[2:]),
                     elements=POOL_CELLS)
POOL_EXAMPLES = (np.full((1, 1, 2, 2), 2.0),
                 np.array([[[[-0.0, 0.0], [0.0, 0.0]]]]),
                 np.array([[[[0.0, -0.0], [-0.0, -0.0]]]]),
                 np.array([[[[-1.0, -0.0], [0.0, -0.0]]]]),
                 np.array([[[[1.0, np.nan], [3.0, -1.0]]]]),
                 np.array([[[[np.nan, 5.0], [np.inf, np.nan]]]]))


def pool_examples(**fixed):
    """The tie, signed-zero and NaN blocks above as examples of a test."""
    def wrap(test):
        for x in POOL_EXAMPLES:
            test = example(x=x, **fixed)(test)
        return test
    return wrap


@settings(max_examples=150, deadline=None)
@given(x=POOL_INPUTS)
@pool_examples()
def test_inference_pool_equals_argmax_pool(x):
    want, _ = argmax_pool(x)
    assert same_bits(nn._maxpool_values(x), want)
    # through the layer walk of small_spec, whose conv1 hands pool1 x in the
    # corner of its (3, N, 16, 16) map: the plain max with or without a
    # record hook, which receives the pooled map and the pool's input,
    # channel-major; conv2 reads the pooled map either way
    n, c, side = x.shape[:3]
    fed = np.zeros((n, 3, 16, 16))
    fed[:, :c, :side, :side] = x
    relu_fed = np.maximum(fed, 0.0)
    walk_want = argmax_pool(relu_fed)[0].transpose(1, 0, 2, 3)
    pooled = []

    def conv(layer, h):
        if layer.name == "conv1":
            return fed.transpose(1, 0, 2, 3).copy(), None
        if layer.name == "conv2":
            pooled.append(h)
        return np.zeros((layer.out_channels,) + h.shape[1:]), None

    spec = small_spec()
    inputs = np.zeros((n, 2, 16, 16))
    nn.run_network(spec, inputs, conv)
    steps = []
    nn.run_network(spec, inputs, conv, record=steps.append)
    plain, recorded = pooled
    assert same_bits(plain, walk_want)
    assert same_bits(recorded, walk_want)
    layer, shape, out, pool_in = steps[1]
    assert layer.name == "pool1"
    assert shape == (3, n, 16, 16)
    assert same_bits(out, walk_want)
    assert same_bits(pool_in, relu_fed.transpose(1, 0, 2, 3))


@settings(max_examples=150, deadline=None)
@given(x=POOL_INPUTS, seed=st.integers(0, 2**32 - 1))
@pool_examples(seed=0)
def test_maxpool_backward_equals_argmax_scatter(x, seed):
    # gradients with signed zeros, which must keep their bits
    rng = np.random.default_rng(seed)
    n, c, h, w = x.shape
    shape = (n, c, h // 2, w // 2)
    dout = np.where(rng.random(shape) < 0.5,
                    rng.choice([0.0, -0.0, 1.0, -2.5], size=shape),
                    rng.normal(size=shape))
    # as backward calls it: the channel-major record and gradient as they are
    record = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    pooled = nn._maxpool_values(record)
    got = nn._maxpool_backward(dout.transpose(1, 0, 2, 3), record, pooled)
    want = argmax_pool_backward(dout, argmax_pool(x)[1], x.shape)
    assert got.flags.c_contiguous
    assert same_bits(got.transpose(1, 0, 2, 3), want)


def test_softmax_properties():
    rng = np.random.default_rng(2)
    z = rng.normal(size=(6, 4)) * 50
    p = nn.softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert (p > 0).all()
    # shift invariance and overflow safety
    assert np.allclose(nn.softmax(z + 1000.0), p)
    assert nn.softmax(np.array([[0.0, np.log(3.0)]]))[0] == pytest.approx(
        [0.25, 0.75])
    with pytest.raises(DimensionError):
        nn.softmax(np.array([0.0, np.log(3.0)]))
    with pytest.raises(DimensionError):
        nn.softmax(z.reshape(6, 4, 1, 1))


def test_network_shapes():
    spec = nn.build_network_spec()  # stock widths at 48x48
    params = nn.init_params(spec, seed=0)
    loc, probs, _ = nn.forward(params, np.zeros((1, 3, 48, 48)),
                               want_cache=False)
    assert loc.shape == (1, 4)
    assert probs.shape == (1, 3)
    assert probs.sum() == pytest.approx(1.0)
    names = [l.name for l, _ in spec.conv_layers()]
    assert names[:4] == ["conv1", "conv2", "conv3", "conv4"]
    assert spec.shared_trunk[0].out_channels == 64
    assert spec.shared_trunk[-2].out_channels == 256


def test_small_network_batch_forward():
    spec = small_spec()
    params = nn.init_params(spec, seed=3)
    x = np.random.default_rng(4).normal(size=(7, 2, 16, 16))
    loc, probs, cache = nn.forward(params, x)
    assert loc.shape == (7, 4)
    assert probs.shape == (7, 3)
    assert np.allclose(probs.sum(axis=1), 1.0)
    # per-sample forward agrees with the batch
    for i in (0, 3, 6):
        li, pi, _ = nn.forward(params, x[i:i + 1], want_cache=False)
        assert rel_err(li[0], loc[i]) < 1e-12
        assert rel_err(pi[0], probs[i]) < 1e-12
    # a single window is a batch of one: (C, H, W) is refused
    with pytest.raises(DimensionError):
        nn.forward(params, x[0], want_cache=False)


def test_init_deterministic_and_bounded():
    spec = small_spec()
    a = nn.init_params(spec, seed=9)
    b = nn.init_params(spec, seed=9)
    c = nn.init_params(spec, seed=10)
    for name in a.layers:
        assert np.array_equal(a.layers[name].kernels, b.layers[name].kernels)
        assert (a.layers[name].bias == 0).all()
        layer = next(l for l, _ in spec.conv_layers() if l.name == name)
        k = layer.kernel_size
        limit = np.sqrt(6.0 / (layer.in_channels * k * k))
        assert np.abs(a.layers[name].kernels).max() <= limit
    assert not np.array_equal(a.layers["conv1"].kernels, c.layers["conv1"].kernels)


def loss_of(params, x, tl, tc):
    loc, probs, _ = nn.forward(params, x, want_cache=False)
    return ((loc - tl) ** 2).sum() + ((probs - tc) ** 2).sum()


def test_backward_matches_finite_differences():
    spec = small_spec()
    rng = np.random.default_rng(6)
    params = nn.init_params(spec, seed=6)
    x = rng.normal(size=(2, 2, 16, 16))
    tl = rng.normal(size=(2, 4))
    tc = rng.uniform(size=(2, 3))

    loc, probs, cache = nn.forward(params, x)
    grads = nn.backward(params, cache, 2.0 * (loc - tl), 2.0 * (probs - tc))
    assert set(grads) == {l.name for l, _ in spec.conv_layers()}

    h = 1e-6
    for name in ("conv1", "conv3", "loc_conv5_2", "cla_fc1", "cla_out", "loc_out"):
        lp = params.layers[name]
        dw, db = grads[name]
        # probe a handful of kernel entries
        flat = lp.kernels.reshape(-1)
        picks = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        fd = np.zeros(picks.size)
        for j, idx in enumerate(picks):
            old = flat[idx]
            flat[idx] = old + h
            up = loss_of(params, x, tl, tc)
            flat[idx] = old - h
            down = loss_of(params, x, tl, tc)
            flat[idx] = old
            fd[j] = (up - down) / (2 * h)
        assert rel_err(fd, dw.reshape(-1)[picks]) < 1e-4, name
        # and one bias entry
        old = lp.bias[0]
        lp.bias[0] = old + h
        up = loss_of(params, x, tl, tc)
        lp.bias[0] = old - h
        down = loss_of(params, x, tl, tc)
        lp.bias[0] = old
        assert abs((up - down) / (2 * h) - db[0]) / max(abs(db[0]), 1e-8) < 1e-4, name


def test_backward_forms_no_input_gradient(monkeypatch):
    # every conv's input gradient is formed by one conv (of the flipped
    # kernels over its output gradient), except for the trunk's first
    # conv, which reads the network input: nothing reads its gradient
    spec = small_spec()
    rng = np.random.default_rng(8)
    params = nn.init_params(spec, seed=8)
    x = rng.normal(size=(2, spec.in_channels, spec.input_size, spec.input_size))
    tl, tc = rng.normal(size=(2, 4)), rng.uniform(size=(2, 3))
    loc, probs, cache = nn.forward(params, x)
    calls = []
    conv = nn._conv_forward
    monkeypatch.setattr(nn, "_conv_forward",
                        lambda *args: calls.append(args) or conv(*args))
    grads = nn.backward(params, cache, 2.0 * (loc - tl), 2.0 * (probs - tc))
    convs = [l.name for l, _ in spec.conv_layers()]
    assert sorted(grads) == sorted(convs)
    assert len(calls) == len(convs) - 1
    monkeypatch.undo()
    h = 1e-6
    for name in convs:
        lp = params.layers[name]
        old = lp.kernels[0, 0, 0, 0]
        lp.kernels[0, 0, 0, 0] = old + h
        up = loss_of(params, x, tl, tc)
        lp.kernels[0, 0, 0, 0] = old - h
        down = loss_of(params, x, tl, tc)
        lp.kernels[0, 0, 0, 0] = old
        assert rel_err((up - down) / (2 * h), grads[name][0][0, 0, 0, 0]) < 1e-4, name


def sample_major_backward(params, cache, grad_loc, grad_cla):
    """Oracle: backward run sample-major (N, C, H, W) over sample-major
    views of the channel-major records, each dw an einsum over the
    per-sample columns."""
    steps = cache["steps"]
    trunk_end = len(params.spec.shared_trunk)
    loc_end = trunk_end + len(params.spec.loc_head)
    grads = {}

    def conv_back(dout, cols, lp, want_dx):
        n, o = dout.shape[:2]
        dflat = dout.reshape(n, o, -1)
        cols = np.ascontiguousarray(
            cols.reshape(cols.shape[0], n, -1).transpose(1, 0, 2))
        dw = np.einsum("nop,nqp->oq", dflat, cols).reshape(lp.kernels.shape)
        db = dflat.sum(axis=(0, 2))
        if not want_dx:
            return None, dw, db
        flipped = lp.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return conv_cm(dout, np.ascontiguousarray(flipped)), dw, db

    def run_back(lo, hi, dx):
        for i in range(hi - 1, lo - 1, -1):
            layer, x_shape, out, aux = steps[i]
            if out.ndim == 4:
                out = out.transpose(1, 0, 2, 3)
            if layer.kind == "softmax":
                dot = (dx * out).sum(axis=1, keepdims=True)
                dx = out * (dx - dot)
            elif layer.kind == "gap":
                c, n, h, w = x_shape
                dx = np.broadcast_to(dx[:, :, None, None] / (h * w),
                                     (n, c, h, w))
            elif layer.kind == "maxpool":
                dx = nn._maxpool_backward(dx, aux.transpose(1, 0, 2, 3), out)
            else:
                if layer.relu:
                    dx = dx * (out > 0)
                dx, dw, db = conv_back(dx, aux, params.layers[layer.name],
                                       i > 0)
                grads[layer.name] = (dw, db)
        return dx

    d_loc = run_back(trunk_end, loc_end, grad_loc)
    d_cla = run_back(loc_end, len(steps), grad_cla)
    run_back(0, trunk_end, d_loc + d_cla)
    return grads


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_backward_matches_sample_major_oracle(n, seed):
    spec = small_spec()
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed=seed % 1000)
    # ReLU outputs at a coarse step: pool blocks tie, at zero and above
    x = np.maximum(rng.normal(size=(n, spec.in_channels, spec.input_size,
                                    spec.input_size)).round(1), 0.0)
    loc, probs, cache = nn.forward(params, x)
    gl, gc = rng.normal(size=loc.shape), rng.normal(size=probs.shape)
    got = nn.backward(params, cache, gl, gc)
    want = sample_major_backward(params, cache, gl, gc)
    assert sorted(got) == sorted(want)
    for name, pair in want.items():
        for g, w in zip(got[name], pair):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def test_sgd_update_inplace():
    spec = small_spec()
    params = nn.init_params(spec, seed=1)
    before = params.layers["conv1"].kernels.copy()
    grads = {"conv1": (np.ones_like(before), np.ones(3))}
    nn.sgd_update(params, grads, lr=0.5)
    assert np.allclose(params.layers["conv1"].kernels, before - 0.5)
    assert np.allclose(params.layers["conv1"].bias, -0.5)
    with pytest.raises(ConfigError):
        nn.sgd_update(params, grads, lr=0.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        nn.build_network_spec(window=20)
    with pytest.raises(ConfigError):
        nn.build_network_spec(trunk_widths=(8, 8))
    with pytest.raises(ConfigError):
        nn.LayerSpec("bad", "conv", 5, 1, 1)
    with pytest.raises(ConfigError):
        nn.LayerSpec("bad", "conv", 1, 1, 1, constrained=True)
    # detection runs the first conv over whole pyramid bands
    spec = nn.build_network_spec(window=96)
    with pytest.raises(ConfigError, match="opens with maxpool pool0, not a"):
        dataclasses.replace(spec, shared_trunk=(
            (nn.LayerSpec("pool0", "maxpool"),) + spec.shared_trunk))


def test_constrained_flag_marks_3x3_only():
    spec = small_spec(constrained=True)
    for layer, _ in spec.conv_layers():
        if layer.kernel_size == 3:
            assert layer.constrained
        else:
            assert not layer.constrained
