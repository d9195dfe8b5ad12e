"""Compressed model codec, the dense route detection runs on, and the
one-multiply path that witnesses the paper's arithmetic.

A constrained 3x3 kernel is stored as 5 bytes: a 1-byte reference into the
model's pattern table plus a little-endian float32 factor.  The kernel's
response is the factor times a signed window sum, so each kernel
application can cost one multiplication.  forward_fast computes the
signed sum of each distinct (input channel, pattern) pair once and shares
it between every output channel that uses that pair; one factor GEMM then
applies the multiplies.  That GEMM's inner dimension is Q, the layer's
number of pairs, which is at or above the dense GEMM's 9*C on most layers,
so in numpy forward_fast is about 1.7x slower than forward_dense on the
same decoded kernels: one multiply per step is an arithmetic count, not a
speed.  Detection therefore runs the dense route, with its first trunk
conv run once over each band of the image pyramid rather than once per
window (nn_core.conv_windows): forward_dense_from runs the rest of
forward_dense on that conv's output, and forward_dense on the cropped
windows stays the per-window reference it equals bit for bit, at any
batch size: every conv GEMM spans whole tiles (nn_core._im2col).  1x1
layers and all biases are stored as raw little-endian float32.

File layout (all integers little-endian):

    magic "GHNW" | version u8 | digest 16B | spec_len u32 | spec text
    space: side u8 (always 3) | count u16 | count x u32 canonical indices
    per conv layer, topological order:
        constrained: O*C x (ref u8, factor f32), then O x f32 bias
        otherwise:   O*C*k*k x f32 kernel, then O x f32 bias

The digest is the first 16 bytes of SHA-256 over the spec text, so a model
cannot be loaded against a different architecture unnoticed.  The spec
text is exactly what serialize_spec writes, and the table a non-empty list
of distinct indices below 256 (reduced_space_from_indices' rule).
"""

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError
from . import haar_space as hs
from . import nn_core as nn

MAGIC = b"GHNW"
VERSION = 1
RECORD = np.dtype([("ref", "u1"), ("fac", "<f4")])   # one constrained kernel
RECORD_SIZE = RECORD.itemsize                          # 5 bytes


class OpCounter:
    """Monotone tally of arithmetic per layer.

    The tallies are arithmetic counts computed from layer shapes (steps,
    and the multiplies and additions each step costs on its route), not
    operations measured while the arrays are computed.
    """

    def __init__(self):
        self.layers = {}

    def record(self, layer, steps, multiplies, additions):
        slot = self.layers.setdefault(
            layer, {"steps": 0, "multiplies": 0, "additions": 0})
        slot["steps"] += steps
        slot["multiplies"] += multiplies
        slot["additions"] += additions

    @property
    def multiplies(self):
        return sum(s["multiplies"] for s in self.layers.values())

    @property
    def additions(self):
        return sum(s["additions"] for s in self.layers.values())

    @property
    def steps(self):
        return sum(s["steps"] for s in self.layers.values())

    def per_step_multiplies(self, layer):
        slot = self.layers[layer]
        return slot["multiplies"] / slot["steps"]


@dataclass
class CompressedModel:
    """Decoded deployable model (compress decodes what it would store).

    params holds dense float64 kernels rebuilt from the stored form, so the
    dense engine can run the same network as an oracle; constrained layers
    additionally carry their (pattern row, factor) assignment.
    """
    spec: nn.NetworkSpec
    space: hs.FilterSpace
    params: nn.ModelParams
    digest: bytes


def serialize_spec(spec: nn.NetworkSpec) -> bytes:
    """Canonical text form of the layer graph; the digest is taken over it."""
    lines = [f"ghaar-net {VERSION}",
             f"input {spec.in_channels} {spec.input_size}",
             f"classes {spec.classes}"]
    for section, seq in (("trunk", spec.shared_trunk),
                         ("loc", spec.loc_head),
                         ("cla", spec.cla_head)):
        lines.append(f"section {section}")
        for l in seq:
            lines.append(f"layer {l.name} {l.kind} {l.kernel_size} "
                         f"{l.in_channels} {l.out_channels} "
                         f"{int(l.constrained)} {int(l.relu)}")
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_spec(blob: bytes, base_offset: int = 0) -> nn.NetworkSpec:
    """The layer graph whose serialize_spec text is exactly blob, so
    decode -> encode gives back the same bytes.  A graph that cannot run
    keeps NetworkSpec's or LayerSpec's reason; any other text is refused
    as not canonical."""
    def fail(msg):
        raise FormatError(f"bad spec block: {msg}", offset=base_offset)

    try:
        _, (_, c, size), (_, classes), *rest = (
            line.split() for line in blob.decode("ascii").splitlines())
        sections, layers = {}, []      # a layer before any section is lost
        for words in rest:
            if words[:1] == ["section"]:
                layers = sections[words[1]] = []
            else:
                _, name, kind, k, ci, co, con, relu = words
                layers.append(nn.LayerSpec(name, kind, int(k), int(ci),
                                           int(co), con == "1", relu == "1"))
        spec = nn.NetworkSpec(
            input_size=int(size), in_channels=int(c), classes=int(classes),
            shared_trunk=tuple(sections["trunk"]),
            loc_head=tuple(sections["loc"]), cla_head=tuple(sections["cla"]))
    except ConfigError as exc:      # a graph that cannot run
        fail(str(exc))
    except (ValueError, LookupError):
        spec = None
    if spec is None or serialize_spec(spec) != blob:
        fail("not the canonical text of a layer graph")
    return spec


def _digest(text: bytes) -> bytes:
    """The file's check on its spec text: the first 16 bytes of SHA-256."""
    return hashlib.sha256(text).digest()[:16]


def expected_size(spec: nn.NetworkSpec, nr: int) -> int:
    """Exact byte size of an encoded model, computed without encoding."""
    total = len(MAGIC) + 1 + 16 + 4 + len(serialize_spec(spec))
    total += 1 + 2 + 4 * nr
    for layer, _ in spec.conv_layers():
        o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
        if layer.constrained:
            total += RECORD_SIZE * o * c + 4 * o
        else:
            total += 4 * o * c * k * k + 4 * o
    return total


def _stored(values, layer, what):
    """values as the float32 the file carries; each must stay finite."""
    with np.errstate(over="ignore"):
        out = values.astype("<f4")
    if not np.isfinite(out).all():
        raise ConfigError(f"layer {layer.name}: non-finite {what} "
                          "cannot be stored as float32")
    return out


def compress(params: nn.ModelParams, space) -> CompressedModel:
    """The deployable model: trained parameters at their stored precision.

    It is what encode_model writes for params and space, decoded back:
    factors, biases and 1x1 kernels are rounded to float32 and constrained
    kernels rebuilt from the rounded factor, so the dense oracle and the
    fast path see the numbers the file carries.  No training accumulator
    ships, and params is left untouched.  Raises ConfigError, as
    encode_model does, on what the file cannot hold.
    """
    return decode_model(_encode(params.spec, space, params))


def encode_model(model) -> bytes:
    """Serialize a CompressedModel.

    Raises ConfigError on a constrained layer without an assignment or
    with a reference outside the table, or a value not finite in float32.
    """
    return _encode(model.spec, model.space, model.params)


def _encode(spec, space, params) -> bytes:
    blob = serialize_spec(spec)
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out += _digest(blob)
    out += struct.pack("<I", len(blob))
    out += blob
    out.append(hs.SIDE)
    out += struct.pack("<H", len(space))
    out += np.asarray(space.indices, dtype="<u4").tobytes()
    for layer, _ in spec.conv_layers():
        lp = params.layers[layer.name]
        if layer.constrained:
            refs = lp.filter_idx
            if refs is None:
                raise ConfigError(
                    f"layer {layer.name} has no pattern assignment; "
                    "train with the constraint before compressing")
            if refs.min() < 0 or refs.max() >= len(space):
                raise ConfigError(f"layer {layer.name} references patterns "
                                  "outside the table")
            recs = np.empty(refs.shape, dtype=RECORD)
            recs["ref"] = refs
            recs["fac"] = _stored(lp.factors, layer, "factors")
            out += recs.tobytes()
        else:
            out += _stored(lp.kernels, layer, "kernels").tobytes()
        out += _stored(lp.bias, layer, "bias").tobytes()
    return bytes(out)


class _Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise FormatError(f"file truncated reading {what}", offset=self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt, what):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))

    def floats(self, n, what):
        """n float32 values as float64; each must be finite."""
        start = self.pos
        values = np.frombuffer(self.take(4 * n, what), dtype="<f4")
        return _finite(values.astype(np.float64), start, 4, what)


def _finite(values, offset, stride, what):
    """values, or FormatError at the first non-finite one (values[i] is
    stored at offset + i * stride)."""
    finite = np.isfinite(values)
    if not finite.all():
        raise FormatError(f"non-finite value in {what}",
                          offset=offset + int(np.argmin(finite)) * stride)
    return values


def decode_model(data: bytes) -> CompressedModel:
    cur = _Cursor(data)
    if cur.take(4, "magic") != MAGIC:
        raise FormatError("bad magic", offset=0)
    (version,) = cur.unpack("<B", "version")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    digest = cur.take(16, "digest")
    (spec_len,) = cur.unpack("<I", "spec length")
    spec_start = cur.pos
    blob = cur.take(spec_len, "spec block")
    if _digest(blob) != digest:
        raise FormatError("spec digest mismatch", offset=5)
    spec = parse_spec(blob, base_offset=spec_start)

    (m,) = cur.unpack("<B", "pattern side")
    if m != hs.SIDE:
        raise FormatError(f"pattern side {m} is not {hs.SIDE}",
                          offset=cur.pos - 1)
    (nr,) = cur.unpack("<H", "pattern count")
    idx_off = cur.pos
    indices = np.frombuffer(cur.take(4 * nr, "pattern table"), dtype="<u4")
    try:     # refuses an empty, repeated or out-of-range table
        space = hs.reduced_space_from_indices(m, indices.astype(np.int64))
    except ConfigError as exc:
        raise FormatError(f"bad pattern table: {exc}", offset=idx_off)

    params = nn.ModelParams(spec)
    for layer, _ in spec.conv_layers():
        o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
        if layer.constrained:
            rec_off = cur.pos
            raw = cur.take(RECORD_SIZE * o * c, f"{layer.name} records")
            recs = np.frombuffer(raw, dtype=RECORD).reshape(o, c)
            refs = recs["ref"].astype(np.int64)
            if refs.max() >= nr:
                bad = int(np.argmax(refs >= nr))
                raise FormatError(
                    f"layer {layer.name} pattern reference out of range",
                    offset=rec_off + bad * RECORD_SIZE)
            facs = _finite(recs["fac"].astype(np.float64), rec_off + 1,
                           RECORD_SIZE, f"{layer.name} factors")
            lp = nn.LayerParams(space.kernels(refs, facs), None, refs, facs)
        else:
            lp = nn.LayerParams(
                kernels=cur.floats(o * c * k * k, f"{layer.name} kernels")
                .reshape(o, c, k, k),
                bias=None)
        lp.bias = cur.floats(o, f"{layer.name} bias")
        params.layers[layer.name] = lp
    if cur.pos != len(data):
        raise FormatError("trailing bytes after model payload", offset=cur.pos)
    return CompressedModel(spec, space, params, digest)


def haar_conv_step(pattern, patch, k, counter=None):
    """Response of one constrained kernel at one position.

    Sums the +1 cells, subtracts the -1 cells, and multiplies once by the
    factor.
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.shape != pattern.cells.shape:
        raise DimensionError(f"patch {patch.shape} vs pattern {pattern.cells.shape}")
    flat = patch.reshape(-1)
    sign = pattern.cells.reshape(-1)
    plus = flat[sign > 0].sum()
    minus_idx = sign < 0
    s = plus - flat[minus_idx].sum() if minus_idx.any() else plus
    if counter is not None:
        n = flat.size
        counter.record("haar_conv_step", steps=1, multiplies=1, additions=n - 1)
    return float(k * s)


def _conv_fast(x, lp, space, layer):
    """Constrained conv layer via shared signed window sums; channel-major
    (C, N, H, W) in, (O, N, H, W) out, like nn_core._conv_forward.

    The layer uses Q distinct (input channel, pattern) pairs.  Each pair's
    signed window sum is computed once, as one small GEMM per input channel
    (that channel's used sign rows times its k*k rows of the im2col
    matrix, a plain slice).  The factors are scattered into an (O, Q)
    matrix, so a second GEMM applies every kernel's single multiply and
    sums over input channels.
    """
    c, n = x.shape[:2]
    o, k = layer.out_channels, layer.kernel_size
    kk = k * k
    cols, ho, wo = nn._im2col(x, k, (k - 1) // 2)
    # pair key c*nr + pattern; np.unique sorts the pairs by channel
    keys = np.arange(c) * len(space) + lp.filter_idx
    pairs, pair_of = np.unique(keys, return_inverse=True)
    bounds = np.searchsorted(pairs, np.arange(c + 1) * len(space))
    patterns = pairs % len(space)
    sums = np.empty((pairs.size, cols.shape[1]))
    for ch in range(c):
        lo, hi = bounds[ch], bounds[ch + 1]
        sums[lo:hi] = space.signs[patterns[lo:hi]] @ cols[ch * kk:(ch + 1) * kk]
    scatter = np.zeros((o, pairs.size))
    scatter[np.arange(o)[:, None], pair_of.reshape(o, c)] = lp.factors
    out = np.ascontiguousarray((scatter @ sums)[:, :n * ho * wo])
    out += lp.bias[:, None]
    return out.reshape(o, n, ho, wo)


def _run(model, x, counter, fast, first=None):
    """run_network with _conv_fast on constrained layers when fast is set
    and the dense conv otherwise; tallies each conv into the counter from
    its output shape.  first, when given, is the output of the trunk's
    first layer, a conv, already computed for the batch: it stands in for
    that conv, and x only sizes the batch."""
    def conv(layer, x):
        lp = model.params.layers[layer.name]
        k2 = layer.kernel_size ** 2
        if first is not None and layer is model.spec.shared_trunk[0]:
            out, aux = first, None
            per_step = k2
        elif fast and layer.constrained:
            out, aux = _conv_fast(x, lp, model.space, layer), None
            per_step = 1
        else:
            out, aux = nn._conv_forward(x, lp.kernels, lp.bias)
            per_step = k2
        if counter is not None:
            steps = out.size * layer.in_channels
            counter.record(layer.name, steps=steps, multiplies=steps * per_step,
                           additions=steps * (k2 - 1))
        return out, aux

    return nn.run_network(model.spec, x, conv)


def forward_fast(model: CompressedModel, x, counter=None):
    """Network function of the compressed model via the one-multiply path.

    Each constrained layer computes its (input channel, pattern) signed sums
    once, then applies every factor in one GEMM (see _conv_fast); other
    layers run densely.  Matches nn_core.forward on the reconstructed dense
    weights up to the rounding difference between factored and elementwise
    accumulation.  The counter receives shape-derived tallies: 1 multiply
    per constrained step, k*k per dense step.
    """
    return _run(model, x, counter, fast=True)


def forward_dense(model: CompressedModel, x, counter=None):
    """Dense-route oracle on the same reconstructed weights, with dense
    operation accounting."""
    return _run(model, x, counter, fast=False)


def forward_dense_from(model: CompressedModel, first, counter=None):
    """forward_dense of a batch whose first trunk conv output, (O, N, H, W)
    channel-major, is given: the rest of the network runs on it, and the
    counter tallies that conv as forward_dense would."""
    spec = model.spec
    n = first.shape[1]
    shape = (n, spec.in_channels, spec.input_size, spec.input_size)
    # the input no layer reads; it gives run_network the batch's shape
    return _run(model, np.broadcast_to(0.0, shape), counter, fast=False,
                first=first)


def storage_report(spec: nn.NetworkSpec, nr: int = 32):
    """Per-layer bytes under dense-float32 vs compressed storage.

    Kernel payloads only, excluding biases, plus a grand total including
    bias and file overhead; for constrained 3x3 layers the per-kernel ratio
    is 36/5.
    """
    layers = []
    for layer, _ in spec.conv_layers():
        o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
        kernels = o * c
        dense = 4 * k * k * kernels
        packed = RECORD_SIZE * kernels if layer.constrained else dense
        layers.append({
            "name": layer.name, "kernel_size": k, "kernels": kernels,
            "constrained": layer.constrained,
            "dense_bytes": dense, "compressed_bytes": packed,
            "ratio": dense / packed,
        })
    dense_total = sum(l["dense_bytes"] for l in layers)
    packed_total = sum(l["compressed_bytes"] for l in layers)
    constrained_kernels = sum(l["kernels"] for l in layers if l["constrained"])
    return {
        "layers": layers,
        "constrained_kernels": constrained_kernels,
        "dense_kernel_bytes": dense_total,
        "compressed_kernel_bytes": packed_total,
        "kernel_ratio": dense_total / packed_total,
        "file_bytes": expected_size(spec, nr),
    }
