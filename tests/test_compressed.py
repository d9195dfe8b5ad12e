"""Codec round trips, fast-path fidelity, and operation accounting."""

import copy
import functools
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ghaar.errors import ConfigError, DimensionError, FormatError
from ghaar import cli
from ghaar import compressed as cm
from ghaar import haar_space as hs
from ghaar import nn_core as nn
from ghaar import training as tr


def trained_like_params(seed=0, nr=8):
    """Projected (not actually trained) params plus their reduced space."""
    spec = nn.build_network_spec(
        in_channels=2, classes=3, window=16,
        trunk_widths=(3, 4, 4, 4), head_widths=(4, 4), bottleneck=3)
    params = nn.init_params(spec, seed=seed)
    full = hs.enumerate_space(3)
    tr.constrain_params(params, full)
    counts = tr.usage_census(params, full)
    # make sure the census keeps every pattern actually in use
    used = np.nonzero(counts)[0]
    if used.size > nr:
        space = hs.select_top_filters(counts, max(nr, used.size))
    else:
        space = hs.select_top_filters(counts, nr)
    tr.constrain_params(params, space)
    return params, space


def test_haar_conv_step_examples():
    space = hs.enumerate_space(3)
    patch = np.arange(9.0).reshape(3, 3)
    all_plus = space[255]
    counter = cm.OpCounter()
    assert cm.haar_conv_step(all_plus, patch, 1.0, counter) == patch.sum()
    assert cm.haar_conv_step(space[17], patch, 0.0) == 0.0
    assert counter.layers["haar_conv_step"] == {
        "steps": 1, "multiplies": 1, "additions": 8}


def test_haar_conv_step_matches_dense():
    space = hs.enumerate_space(3)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = space[int(rng.integers(0, 256))]
        patch = rng.normal(size=(3, 3))
        k = float(rng.normal())
        fast = cm.haar_conv_step(p, patch, k)
        dense = float((patch * (k * p.cells)).sum())
        worst = max(worst, abs(fast - dense))
    assert worst <= 1e-5


def test_op_counter_monotone():
    c = cm.OpCounter()
    c.record("a", 10, 10, 80)
    c.record("a", 5, 5, 40)
    assert c.layers["a"]["steps"] == 15
    assert c.multiplies == 15 and c.additions == 120
    c.record("b", 1, 9, 8)
    assert c.multiplies == 24


def test_spec_serialization_round_trip():
    spec = nn.build_network_spec(
        in_channels=2, classes=4, window=32,
        trunk_widths=(3, 4, 5, 6), head_widths=(4, 3), bottleneck=2)
    blob = cm.serialize_spec(spec)
    back = cm.parse_spec(blob)
    assert back == spec
    assert cm.serialize_spec(back) == blob
    with pytest.raises(FormatError):
        cm.parse_spec(b"not a spec\n")


def test_expected_size_matches_encoding():
    params, space = trained_like_params(seed=1)
    model = cm.compress(params, space)
    data = cm.encode_model(model)
    assert len(data) == cm.expected_size(params.spec, len(space))


def test_constrained_payload_is_five_bytes_per_kernel():
    spec = nn.build_network_spec()  # stock widths
    size_with = cm.expected_size(spec, 32)
    # one more input channel on conv1 adds exactly 64 records + nothing else
    bigger = nn.build_network_spec(in_channels=4)
    delta = cm.expected_size(bigger, 32) - size_with
    blob_delta = len(cm.serialize_spec(bigger)) - len(cm.serialize_spec(spec))
    assert delta - blob_delta == 64 * cm.RECORD_SIZE


def test_encode_decode_round_trip_bitwise():
    params, space = trained_like_params(seed=2)
    model = cm.compress(params, space)
    data = cm.encode_model(model)
    back = cm.decode_model(data)
    assert back.digest == model.digest
    assert back.spec == model.spec
    assert np.array_equal(back.space.indices, space.indices)
    for name, lp in model.params.layers.items():
        blp = back.params.layers[name]
        assert np.array_equal(lp.kernels, blp.kernels), name
        assert np.array_equal(lp.bias, blp.bias)
        if lp.filter_idx is not None:
            assert np.array_equal(lp.filter_idx, blp.filter_idx)
            assert np.array_equal(lp.factors, blp.factors)
    assert cm.encode_model(back) == data


def test_records_match_an_independent_struct_layout():
    # encode and decode share one record dtype; this is the layout's oracle
    params, space = trained_like_params(seed=3)
    model = cm.compress(params, space)
    data = cm.encode_model(model)
    spec = model.spec
    off = (len(cm.MAGIC) + 1 + 16 + 4 + len(cm.serialize_spec(spec))
           + 1 + 2 + 4 * len(space))
    checked = 0
    for layer, _ in spec.conv_layers():
        lp = model.params.layers[layer.name]
        o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
        if layer.constrained:
            for ref, fac in zip(lp.filter_idx.reshape(-1),
                                lp.factors.reshape(-1)):
                assert data[off:off + 5] == struct.pack("<Bf", int(ref),
                                                        float(fac))
                off += 5
                checked += 1
        else:
            off += 4 * o * c * k * k
        off += 4 * o
    assert off == len(data) and checked > 0


@pytest.mark.parametrize("layer, field, value", [
    ("conv2", "filter_idx", None),          # one past the pattern table
    ("conv2", "factors", 1e300),            # overflows float32
    ("conv2", "bias", 1e300),
    ("cla_out", "kernels", 1e300)])
def test_encode_refuses_what_the_file_cannot_hold(layer, field, value):
    model = cm.compress(*trained_like_params(seed=4))
    array = getattr(model.params.layers[layer], field)
    array.flat[0] = len(model.space) if value is None else value
    with pytest.raises(ConfigError, match=layer):
        cm.encode_model(model)


def test_compress_ships_no_accumulators_and_leaves_params_alone():
    params, space = trained_like_params(seed=5)
    before = copy.deepcopy(params)
    model = cm.compress(params, space)
    for name, lp in params.layers.items():
        was = before.layers[name]
        assert model.params.layers[name].shadow is None, name
        assert np.array_equal(lp.kernels, was.kernels), name
        assert np.array_equal(lp.bias, was.bias), name
        if lp.filter_idx is not None:
            assert np.array_equal(lp.shadow, was.shadow), name
            assert np.array_equal(lp.factors, was.factors), name
            assert np.array_equal(lp.filter_idx, was.filter_idx), name


def test_decode_rejects_corruption():
    params, space = trained_like_params(seed=3)
    data = cm.encode_model(cm.compress(params, space))

    bad = b"X" + data[1:]
    with pytest.raises(FormatError) as err:
        cm.decode_model(bad)
    assert err.value.offset == 0

    with pytest.raises(FormatError):
        cm.decode_model(data[:40])  # truncated inside the spec block

    with pytest.raises(FormatError):
        cm.decode_model(data + b"\x00")  # trailing garbage

    # flip a byte inside the spec text: digest check must fire
    blob_start = 25
    corrupt = bytearray(data)
    corrupt[blob_start + 3] ^= 0xFF
    with pytest.raises(FormatError) as err:
        cm.decode_model(bytes(corrupt))
    assert err.value.offset == 5


def test_decode_rejects_bad_pattern_ref():
    params, space = trained_like_params(seed=4)
    data = bytearray(cm.encode_model(cm.compress(params, space)))
    # first kernel record sits right after the pattern table
    rec_off = 25 + len(cm.serialize_spec(params.spec)) + 3 + 4 * len(space)
    data[rec_off] = 255  # table is far smaller than 256 entries
    with pytest.raises(FormatError) as err:
        cm.decode_model(bytes(data))
    assert err.value.offset == rec_off


def model_bytes_for(spec_text):
    """A model file carrying spec_text as written: a one-pattern table and
    zero weights sized by the layer lines, so only the graph can be wrong."""
    payload = bytearray(struct.pack("<BHI", 3, 1, 0))
    for parts in (line.split() for line in spec_text.splitlines()):
        if parts[:1] == ["layer"] and parts[2] == "conv":
            k, c, o, constrained = (int(p) for p in parts[3:7])
            per_kernel = cm.RECORD_SIZE if constrained else 4 * k * k
            payload += bytes(per_kernel * o * c + 4 * o)
    blob = spec_text.encode("utf-8")
    return (cm.MAGIC + bytes([cm.VERSION]) + hashlib.sha256(blob).digest()[:16]
            + struct.pack("<I", len(blob)) + blob + bytes(payload))


# trained_like_params' trunk as serialize_spec writes it
TRUNK_LINES = "".join(
    f"layer conv{i} conv 3 {c} {o} 1 1\nlayer pool{i} maxpool 0 0 0 0 0\n"
    for i, (c, o) in enumerate(((2, 3), (3, 4), (4, 4), (4, 4)), start=1))
LOC_GAP = "layer loc_gap gap 0 0 0 0 0\n"
CLA_TAIL = "layer cla_gap gap 0 0 0 0 0\nlayer cla_softmax softmax 0 0 0 0 0\n"


@pytest.mark.parametrize("edits, message", [
    # conv1 yields 3 channels, conv2 says it takes 5
    ([("conv2 conv 3 3 4", "conv2 conv 3 5 4")], "takes 5 channels, gets 3"),
    # 24 -> 12 -> 6 -> 3 at pool4
    ([("input 2 16", "input 2 24")], "pool4 cannot pool a 3x3 map"),
    ([("layer conv2 conv", "layer conv1 conv")], "repeated layer name"),
    ([("loc_out conv 1 3 4", "loc_out conv 1 3 3")], "loc head yields 3"),
    ([("classes 3", "classes 4")], "cla head yields 3 values for 4"),
    ([("input 2 16", "input 2")], "not the canonical text"),
    ([("input 2 16", "input 2 0")], "input needs channels and a size"),
    ([("classes 3", "classes 0"), ("cla_out conv 1 3 3", "cla_out conv 1 3 0")],
     "channels must be >= 1"),
    ([("layer loc_gap", "layer loc_gap2"),
      ("layer loc_fc1", "layer loc_gap gap 0 0 0 0 0\nlayer loc_fc1")],
     "loc_gap: gap outside a head's tail"),
    ([(LOC_GAP, "")], "loc head does not end in global averaging"),
    ([(CLA_TAIL, "layer cla_gap gap 0 0 0 0 0\n")],
     "cla head does not end in averaging and softmax"),
    ([(CLA_TAIL, "layer cla_softmax softmax 0 0 0 0 0\n"
                 "layer cla_gap gap 0 0 0 0 0\n")],
     "cla head does not end in averaging and softmax"),
    ([("layer pool4", "layer conv4_gap gap 0 0 0 0 0\nlayer pool4")],
     "conv4_gap: gap outside a head's tail"),
    ([(LOC_GAP, "layer loc_softmax softmax 0 0 0 0 0\n" + LOC_GAP)],
     "loc_softmax: softmax outside a head's tail"),
    ([(TRUNK_LINES, "")], "the shared trunk has no layers"),
    ([("section trunk\n", "section trunk\nlayer pool0 maxpool 0 0 0 0 0\n")],
     "the shared trunk opens with maxpool pool0, not a conv"),
    # texts of a valid graph that serialize_spec would not write, so
    # re-encoding them would give other bytes
    ([("classes 3\n", "classes 3\n\n")], "not the canonical text"),
    ([("layer conv1 conv", "layer conv1  conv")], "not the canonical text"),
    ([("conv1 conv 3 2 3 1 1", "conv1 conv 3 2 3 1 2")], "not the canonical text"),
    # serialize_spec is the only grammar: any other text is one refusal
    ([("ghaar-net 1", "ghaar-net 2")], "not the canonical text"),
    ([("layer conv1", "layer c\u00f6nv1")], "not the canonical text"),
    ([("section loc\n", "section aux\n")], "not the canonical text"),
    ([("layer conv1 conv", "lay conv1 conv")], "not the canonical text"),
    ([("conv1 conv 3 2 3 1 1", "conv1 conv 3 2 3 1")], "not the canonical text"),
    ([("section trunk\n", "layer x maxpool 0 0 0 0 0\nsection trunk\n")],
     "not the canonical text"),
    ([("classes 3\n", "")], "not the canonical text"),
], ids=["channel-chain", "odd-pool", "repeated-name", "loc-width",
        "classes-width", "short-header", "empty-input", "zero-width-conv",
        "conv-after-gap", "no-loc-gap", "no-cla-softmax",
        "softmax-before-gap", "gap-in-trunk", "softmax-in-loc-head",
        "empty-trunk", "pool-first", "blank-line", "doubled-space", "flag-2",
        "wrong-signature", "non-ascii", "unknown-section",
        "unknown-directive", "seven-field-layer", "layer-before-section",
        "no-classes-line"])
def test_decode_refuses_specs_that_cannot_run(tmp_path, capsys, edits,
                                              message):
    spec = trained_like_params()[0].spec
    text = cm.serialize_spec(spec).decode("ascii")
    assert cm.decode_model(model_bytes_for(text)).spec == spec
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    with pytest.raises(FormatError, match=f"bad spec block: .*{message}") as err:
        cm.decode_model(model_bytes_for(text))
    assert err.value.offset == 25
    path = tmp_path / "spec.ghnw"
    path.write_bytes(model_bytes_for(text))
    assert cli.main(["inspect-model", "-m", str(path)]) == 4
    assert "format error: bad spec block" in capsys.readouterr().err


@pytest.mark.parametrize("table, reason", [
    (b"", "at least one filter"),
    (struct.pack("<I", 256), "out of range"),
    (struct.pack("<2I", 5, 5), "must be distinct"),
], ids=["zero-count", "index-256", "repeated-index"])
def test_decode_refuses_a_bad_pattern_table(tmp_path, capsys, table, reason):
    text = cm.serialize_spec(trained_like_params()[0].spec)
    data = model_bytes_for(text.decode("ascii"))
    table_off = 25 + len(text) + 3           # after the side and the count
    assert data[table_off - 2:table_off + 4] == struct.pack("<HI", 1, 0)
    data = (data[:table_off - 2] + struct.pack("<H", len(table) // 4) + table
            + data[table_off + 4:])
    with pytest.raises(FormatError, match=f"bad pattern table: .*{reason}") as err:
        cm.decode_model(data)
    assert err.value.offset == table_off
    path = tmp_path / "table.ghnw"
    path.write_bytes(data)
    assert cli.main(["inspect-model", "-m", str(path)]) == 4
    assert "format error: bad pattern table" in capsys.readouterr().err


@pytest.mark.parametrize("side", [2, 4])
def test_decode_refuses_a_pattern_side_other_than_3(side):
    spec = nn.build_network_spec(
        in_channels=2, classes=3, window=16, trunk_widths=(3, 4, 4, 4),
        head_widths=(4, 4), bottleneck=3, constrained=False)
    text = cm.serialize_spec(spec)
    data = bytearray(model_bytes_for(text.decode("ascii")))
    side_off = 25 + len(text)
    assert data[side_off] == 3 and cm.decode_model(bytes(data)).spec == spec
    data[side_off] = side
    with pytest.raises(FormatError, match=f"pattern side {side} is not 3") as err:
        cm.decode_model(bytes(data))
    assert err.value.offset == side_off


@functools.lru_cache(maxsize=None)
def fuzz_model_bytes():
    params, space = trained_like_params(seed=3)
    return cm.encode_model(cm.compress(params, space))


# (kind, position, argument); positions wrap around the current length
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, 10**6),
              st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=4))
@example(mutations=[("truncate", 0, None)])
@example(mutations=[("flip", 4, 1)])                  # version
@example(mutations=[("flip", 22, 0x80)])              # spec length
@example(mutations=[("flip", 665, 0xFF)])             # pattern count
@example(mutations=[("flip", 1040, 0x7F)])            # second record's ref
@example(mutations=[("flip", 1044, 0x7F)])            # its factor's top byte
@example(mutations=[("insert", 1036, b"\x00")])       # shifts every record
@example(mutations=[("truncate", 1038, None)])        # inside the first factor
def test_decode_mutated_bytes_raises_only_format_error(mutations):
    data = bytearray(fuzz_model_bytes())
    for kind, pos, arg in mutations:
        pos %= len(data) + 1
        if kind == "flip" and pos < len(data):
            data[pos] ^= arg
        elif kind == "insert":
            data[pos:pos] = arg
        elif kind == "truncate":
            del data[pos:]
    try:
        cm.decode_model(bytes(data))
    except FormatError:
        pass


# one stored float32 of each kind: a constrained factor, a bias, a 1x1 kernel
STORED_VALUES = {
    "factor": lambda p: (p.layers["conv2"].factors, (1, 2)),
    "bias": lambda p: (p.layers["loc_fc1"].bias, (1,)),
    "kernel": lambda p: (p.layers["cla_out"].kernels, (1, 0, 0, 0)),
}


@pytest.mark.parametrize("where", sorted(STORED_VALUES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_decode_rejects_non_finite_values(where, value):
    params, space = trained_like_params(seed=8)
    array, at = STORED_VALUES[where](params)
    array[at] = 1234.5  # marker, so the test finds its bytes
    data = bytearray(cm.encode_model(cm.compress(params, space)))
    marker = struct.pack("<f", 1234.5)
    assert data.count(marker) == 1
    off = data.find(marker)
    data[off:off + 4] = struct.pack("<f", value)
    with pytest.raises(FormatError) as err:
        cm.decode_model(bytes(data))
    assert err.value.offset == off


@pytest.mark.parametrize("where", sorted(STORED_VALUES))
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])  # 1e39 > float32 max
def test_compress_rejects_non_finite_values(where, value):
    params, space = trained_like_params(seed=8)
    array, at = STORED_VALUES[where](params)
    array[at] = value
    with pytest.raises(ConfigError):
        cm.compress(params, space)


def test_compress_requires_assignments():
    spec = nn.build_network_spec(
        in_channels=1, classes=2, window=16,
        trunk_widths=(2, 2, 2, 2), head_widths=(2, 2), bottleneck=2)
    params = nn.init_params(spec, seed=0)
    space = hs.select_top_filters(np.ones(256, dtype=np.int64), 8)
    with pytest.raises(ConfigError):
        cm.compress(params, space)


def test_fast_path_matches_dense_outputs():
    params, space = trained_like_params(seed=5)
    model = cm.compress(params, space)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 2, 16, 16))
    loc_f, probs_f = cm.forward_fast(model, x)
    loc_d, probs_d = cm.forward_dense(model, x)
    assert np.abs(loc_f - loc_d).max() <= 1e-4
    assert np.abs(probs_f - probs_d).max() <= 1e-4
    # batch-of-one calls agree with themselves across repeats
    l1, p1 = cm.forward_fast(model, x[:1])
    l2, p2 = cm.forward_fast(model, x[:1])
    assert np.array_equal(l1, l2) and np.array_equal(p1, p2)


def test_routes_agree_bitwise_without_constrained_layers():
    # with no constrained layer every route runs the same dense layers
    spec = nn.build_network_spec(
        in_channels=2, classes=3, window=16, trunk_widths=(3, 4, 4, 4),
        head_widths=(4, 4), bottleneck=3, constrained=False)
    model = cm.compress(nn.init_params(spec, seed=9), hs.enumerate_space(3))
    x = np.random.default_rng(9).normal(size=(5, 2, 16, 16))
    for xs in (x, x[2:3]):
        loc, probs, _ = nn.forward(model.params, xs, want_cache=False)
        for route in (cm.forward_fast, cm.forward_dense):
            loc_r, probs_r = route(model, xs)
            assert loc_r.shape == loc.shape and probs_r.shape == probs.shape
            assert np.array_equal(loc_r, loc) and np.array_equal(probs_r, probs)
    for bad in (x[:, :1], x[:, :, :8, :8], x[2], x[0, 0], x[None]):
        for route in (cm.forward_fast, cm.forward_dense,
                      lambda m, xs: nn.forward(m.params, xs, want_cache=False)):
            with pytest.raises(DimensionError):
                route(model, bad)


def test_training_and_detection_run_one_forward():
    # on constrained layers too: the cached forward training runs, the
    # uncached one, and the dense detection route give the same bits
    spec = nn.build_network_spec(
        in_channels=2, classes=3, window=16, trunk_widths=(3, 4, 4, 4),
        head_widths=(4, 4), bottleneck=3)
    space = hs.enumerate_space(3)
    model = cm.compress(
        tr.constrain_params(nn.init_params(spec, seed=11), space), space)
    x = np.random.default_rng(11).normal(size=(6, 2, 16, 16))
    loc, probs, cache = nn.forward(model.params, x)
    routes = (nn.forward(model.params, x, want_cache=False)[:2],
              cm.forward_dense(model, x))
    for loc_r, probs_r in routes:
        for a, b in ((loc_r, loc), (probs_r, probs)):
            assert a.shape == b.shape
            assert (np.ascontiguousarray(a).tobytes()
                    == np.ascontiguousarray(b).tobytes())
    # a recorded pool step carries its pooled output and its channel-major
    # input, the activated output of the conv before it
    steps = cache["steps"]
    pools = [i for i, (layer, *_) in enumerate(steps)
             if layer.kind == "maxpool"]
    assert len(pools) == 4
    for i in pools:
        _, shape, pooled, pool_in = steps[i]
        assert pool_in.shape == shape
        assert np.array_equal(pool_in, steps[i - 1][2])
        assert pooled.tobytes() == nn._maxpool_values(pool_in).tobytes()


def test_one_multiply_per_constrained_step():
    params, space = trained_like_params(seed=6)
    model = cm.compress(params, space)
    x = np.random.default_rng(6).normal(size=(1, 2, 16, 16))
    fast = cm.OpCounter()
    cm.forward_fast(model, x, fast)
    dense = cm.OpCounter()
    cm.forward_dense(model, x, dense)
    for layer, _ in model.spec.conv_layers():
        f = fast.layers[layer.name]
        d = dense.layers[layer.name]
        assert f["steps"] == d["steps"], layer.name
        if layer.constrained:
            assert f["multiplies"] == f["steps"]
            assert d["multiplies"] == 9 * d["steps"]
        else:
            assert f["multiplies"] == d["multiplies"]
    # exact step count for the first layer: 16*16 positions, 3 out, 2 in
    assert fast.layers["conv1"]["steps"] == 16 * 16 * 3 * 2


def one_layer_model(c, o, side, assign, factors, seed):
    """The smallest detector around one constrained 3x3 conv, conv1, as a
    compressed model: each head is a 1x1 output conv and its tail.

    assign: "one" puts every kernel on one pattern, "distinct" gives every
    (o, c) its own pattern, "random" draws patterns with repeats.
    factors: "random", "zero" (all factors 0) or "some_zero".
    """
    rng = np.random.default_rng(seed)
    layer = nn.LayerSpec("conv1", "conv", 3, c, o, constrained=True)
    spec = nn.NetworkSpec(
        input_size=side, in_channels=c, classes=2, shared_trunk=(layer,),
        loc_head=(nn.LayerSpec("loc_out", "conv", 1, o, 4),
                  nn.LayerSpec("loc_gap", "gap")),
        cla_head=(nn.LayerSpec("cla_out", "conv", 1, o, 2),
                  nn.LayerSpec("cla_gap", "gap"),
                  nn.LayerSpec("cla_softmax", "softmax")))
    space = hs.reduced_space_from_indices(3, rng.permutation(256))
    if assign == "one":
        idx = np.full((o, c), int(rng.integers(256)))
    elif assign == "distinct":
        idx = rng.permutation(256)[:o * c].reshape(o, c)
    else:
        idx = rng.integers(0, 256, size=(o, c))
    fac = rng.normal(size=(o, c))
    if factors == "zero":
        fac[:] = 0.0
    elif factors == "some_zero":
        fac[rng.random((o, c)) < 0.5] = 0.0
    # compress rebuilds the dense kernels from idx and fac
    layers = {"conv1": nn.LayerParams(
        np.zeros((o, c, 3, 3)), rng.normal(size=o), idx, fac)}
    for name, width in (("loc_out", 4), ("cla_out", 2)):
        layers[name] = nn.LayerParams(rng.normal(size=(width, o, 1, 1)),
                                      rng.normal(size=width))
    return cm.compress(nn.ModelParams(spec, layers), space)


@settings(max_examples=60, deadline=None)
@given(c=st.integers(1, 12), o=st.integers(1, 12), side=st.integers(1, 7),
       batch=st.sampled_from([1, 3]),
       assign=st.sampled_from(["one", "distinct", "random"]),
       factors=st.sampled_from(["random", "zero", "some_zero"]),
       seed=st.integers(0, 2**32 - 1))
@example(c=5, o=7, side=4, batch=2, assign="one", factors="random", seed=0)
@example(c=12, o=12, side=4, batch=2, assign="distinct", factors="random", seed=1)
@example(c=4, o=6, side=5, batch=2, assign="random", factors="zero", seed=2)
@example(c=1, o=8, side=6, batch=2, assign="random", factors="random", seed=3)
@example(c=64, o=64, side=4, batch=2, assign="random", factors="some_zero", seed=5)
def test_fast_conv_matches_dense_and_counts(c, o, side, batch, assign,
                                            factors, seed):
    model = one_layer_model(c, o, side, assign, factors, seed)
    x = np.random.default_rng(seed).normal(size=(batch, c, side, side))
    # conv1 on both routes, on the channel-major input the walk hands it
    layer, lp = model.spec.shared_trunk[0], model.params.layers["conv1"]
    out_f = cm._conv_fast(x.transpose(1, 0, 2, 3), lp, model.space, layer)
    out_d, _ = nn._conv_forward(x.transpose(1, 0, 2, 3), lp.kernels, lp.bias)
    assert out_f.shape == out_d.shape == (o, batch, side, side)
    assert np.abs(out_f - out_d).max() <= 1e-12
    fast, dense = cm.OpCounter(), cm.OpCounter()
    cm.forward_fast(model, x, fast)
    cm.forward_dense(model, x, dense)
    steps = batch * side * side * o * c
    assert fast.layers["conv1"] == {
        "steps": steps, "multiplies": steps, "additions": 8 * steps}
    assert dense.layers["conv1"] == {
        "steps": steps, "multiplies": 9 * steps, "additions": 8 * steps}
    # the 1x1 head convs run densely on both routes
    assert fast.layers == dense.layers | {"conv1": fast.layers["conv1"]}


def test_storage_report_arithmetic():
    spec = nn.build_network_spec()  # stock widths
    report = cm.storage_report(spec, nr=32)
    by_name = {l["name"]: l for l in report["layers"]}
    assert by_name["conv2"]["kernels"] == 64 * 128
    assert by_name["conv2"]["compressed_bytes"] == 64 * 128 * 5
    assert by_name["conv2"]["dense_bytes"] == 64 * 128 * 36
    assert by_name["conv2"]["ratio"] == 36 / 5 == 7.2
    for l in report["layers"]:
        if l["constrained"]:
            assert l["ratio"] == 7.2
        else:
            assert l["ratio"] == 1.0
    assert report["file_bytes"] == cm.expected_size(spec, 32)


def test_paper_trunk_arithmetic():
    # the published trunk dims: five 3x3 stages of 3*64, 64*128, 128*256,
    # 256*256 and 256*128 kernels
    dims = [(3, 64), (64, 128), (128, 256), (256, 256), (256, 128)]
    kernels = sum(i * o for i, o in dims)
    assert kernels == 139456
    dense_bytes = 4 * 3 * 3   # one float32 3x3 kernel
    assert kernels * dense_bytes == 5020416
    assert kernels * cm.RECORD_SIZE == 697280
    assert (kernels * dense_bytes) / (kernels * cm.RECORD_SIZE) == 7.2
