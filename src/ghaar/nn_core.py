"""Dense convolutional network engine.

Plain numpy, float64, stride-1 convolutions via im2col.  This is the
training substrate and the reference path the compressed inference is
checked against.  Inputs are (N, C, H, W) batches; a single window is a
batch of one.

Inside the layer walk (run_network) activations are channel-major,
(C, N, H, W): the im2col matrix (C*k*k, N*H*W) is built in one copy, and
the conv GEMM's (O, N*H*W) output is the next layer's input as it is.  The
public functions keep the (N, C, H, W) contract and transpose (as views)
at their edges.  Every conv GEMM spans whole _TILE-column tiles, so a
window's outputs are the same bits whatever batch it runs in.  A recording walk keeps every step's output, plus a
conv's im2col columns or a pool's input, and backward runs channel-major
on those records as they are: a conv's weight gradient is one GEMM of its
output gradient against its recorded columns, and its input gradient the
forward conv of the flipped kernels.  There is one 2x2 max pool: forward
takes the max of the four strided block cells, and backward routes each
gradient to the first of those cells that holds it.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DimensionError
from .haar_space import SIDE
from .windows import DEFAULT_WS

DEFAULT_TRUNK = (64, 128, 256, 256)
DEFAULT_HEAD = (128, 128)
DEFAULT_BOTTLENECK = 64
# the layer kinds each head ends in: one box and one class distribution per
# window
HEAD_TAILS = {"loc": ("gap",), "cla": ("gap", "softmax")}


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str                  # conv | maxpool | gap | softmax
    kernel_size: int = 0
    in_channels: int = 0
    out_channels: int = 0
    constrained: bool = False
    relu: bool = False

    def __post_init__(self):
        if self.kind not in ("conv", "maxpool", "gap", "softmax"):
            raise ConfigError(f"unknown layer kind {self.kind!r}")
        if self.constrained and self.kernel_size != SIDE:
            raise ConfigError(f"layer {self.name}: only {SIDE}x{SIDE} kernels "
                              "can be constrained")
        if self.kind == "conv" and self.kernel_size not in (1, 3):
            raise ConfigError(f"layer {self.name}: kernel size must be 1 or 3")
        if self.kind == "conv" and min(self.in_channels,
                                       self.out_channels) < 1:
            raise ConfigError(f"layer {self.name}: channels must be >= 1")


@dataclass(frozen=True)
class NetworkSpec:
    """Two-headed detector graph: shared trunk, localization and class heads."""

    input_size: int
    in_channels: int
    classes: int               # including background at label 0
    shared_trunk: tuple
    loc_head: tuple
    cla_head: tuple

    def __post_init__(self):
        """ConfigError unless the graph is a detector: unique names, a trunk
        that opens with a conv, each layer fed what it takes, even maps at
        every pool, and 4 loc and `classes` cla channels from convs and
        pools ending in HEAD_TAILS."""
        seen = set()
        for layer in self.shared_trunk + self.loc_head + self.cla_head:
            if layer.name in seen:
                raise ConfigError(f"repeated layer name {layer.name!r}")
            seen.add(layer.name)
        if min(self.in_channels, self.input_size) < 1:
            raise ConfigError("input needs channels and a size")
        if not self.shared_trunk:
            raise ConfigError("the shared trunk has no layers")
        first = self.shared_trunk[0]
        if first.kind != "conv":
            raise ConfigError(f"the shared trunk opens with {first.kind} "
                              f"{first.name}, not a conv")

        def walk(seq, channels, size):
            for layer in seq:
                if layer.kind == "conv":
                    if layer.in_channels != channels:
                        raise ConfigError(
                            f"layer {layer.name} takes {layer.in_channels} "
                            f"channels, gets {channels}")
                    channels = layer.out_channels
                elif layer.kind == "maxpool":
                    if size % 2:
                        raise ConfigError(f"layer {layer.name} cannot pool "
                                          f"a {size}x{size} map")
                    size //= 2
                else:
                    raise ConfigError(f"layer {layer.name}: {layer.kind} "
                                      "outside a head's tail")
            return channels, size

        def body(head, seq, what):
            tail = HEAD_TAILS[head]
            if tuple(layer.kind for layer in seq[-len(tail):]) != tail:
                raise ConfigError(f"{head} head does not end in {what}")
            return seq[:-len(tail)]

        trunk = walk(self.shared_trunk, self.in_channels, self.input_size)
        loc, _ = walk(body("loc", self.loc_head, "global averaging"), *trunk)
        cla, _ = walk(body("cla", self.cla_head, "averaging and softmax"),
                      *trunk)
        if loc != 4:
            raise ConfigError(f"loc head yields {loc} values, not 4")
        if cla != self.classes:
            raise ConfigError(f"cla head yields {cla} values for "
                              f"{self.classes} classes")

    def conv_layers(self):
        """(LayerSpec, branch) for every conv, in topological order."""
        out = []
        for branch, seq in (("trunk", self.shared_trunk),
                            ("loc", self.loc_head),
                            ("cla", self.cla_head)):
            out.extend((layer, branch) for layer in seq if layer.kind == "conv")
        return out


def build_network_spec(in_channels=3, classes=3, window=DEFAULT_WS,
                       trunk_widths=DEFAULT_TRUNK, head_widths=DEFAULT_HEAD,
                       bottleneck=DEFAULT_BOTTLENECK, constrained=True):
    """Construct the default architecture at configurable widths.

    Four conv+pool trunk stages reduce a `window`-sized input to a 3x3 map
    when window == 48; each head runs two 3x3 convs, a 1x1 bottleneck, and
    a 1x1 output conv followed by global averaging.  3x3 convs (and only
    those) are eligible for the sign-pattern constraint.
    """
    if len(trunk_widths) != 4:
        raise ConfigError("trunk needs exactly 4 stage widths")
    if len(head_widths) != 2:
        raise ConfigError("each head needs exactly 2 conv widths")
    trunk = []
    prev = in_channels
    for i, width in enumerate(trunk_widths, start=1):
        trunk.append(LayerSpec(f"conv{i}", "conv", 3, prev, width,
                               constrained=constrained, relu=True))
        trunk.append(LayerSpec(f"pool{i}", "maxpool"))
        prev = width

    def head(tag, outputs):
        return (
            LayerSpec(f"{tag}_conv5_1", "conv", 3, prev, head_widths[0],
                      constrained=constrained, relu=True),
            LayerSpec(f"{tag}_conv5_2", "conv", 3, head_widths[0], head_widths[1],
                      constrained=constrained, relu=True),
            LayerSpec(f"{tag}_fc1", "conv", 1, head_widths[1], bottleneck, relu=True),
            LayerSpec(f"{tag}_out", "conv", 1, bottleneck, outputs),
        ) + tuple(LayerSpec(f"{tag}_{kind}", kind) for kind in HEAD_TAILS[tag])

    return NetworkSpec(
        input_size=window, in_channels=in_channels, classes=classes,
        shared_trunk=tuple(trunk), loc_head=head("loc", 4),
        cla_head=head("cla", classes))


@dataclass
class LayerParams:
    kernels: np.ndarray              # (O, C, k, k) float64
    bias: np.ndarray                 # (O,) float64
    filter_idx: np.ndarray = None    # (O, C) int64, constrained layers only
    factors: np.ndarray = None       # (O, C) float64, constrained layers only
    shadow: np.ndarray = None        # (O, C, k, k) training accumulator, set
                                     # by constrain_params; never shipped

    @property
    def trained(self):
        """The accumulator where the layer keeps one, else the kernels."""
        return self.kernels if self.shadow is None else self.shadow


@dataclass
class ModelParams:
    spec: NetworkSpec
    layers: dict = field(default_factory=dict)  # name -> LayerParams


def init_params(spec: NetworkSpec, seed: int = 0) -> ModelParams:
    """He-uniform kernels (ReLU gain), zero biases, deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = ModelParams(spec)
    for layer, _branch in spec.conv_layers():
        k, ci, co = layer.kernel_size, layer.in_channels, layer.out_channels
        # fan-in scaling with ReLU gain keeps activation variance roughly
        # constant through the deep narrow stack; Glorot shrinks it ~2x per
        # stage here and the class logits never separate
        limit = np.sqrt(6.0 / (ci * k * k))
        kernels = rng.uniform(-limit, limit, size=(co, ci, k, k))
        params.layers[layer.name] = LayerParams(kernels, np.zeros(co))
    return params


def _as_batch(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise DimensionError(f"expected an (N, C, H, W) batch, got shape {x.shape}")
    return x


# A GEMM may compute the columns of its last, partial tile in another
# order than its full tiles (OpenBLAS 0.3.31 on a SkylakeX core does, for
# the last 1-4 of every 8), so every conv GEMM spans whole tiles of this
# many columns: an output column's bits do not depend on the others.
_TILE = 16


def _im2col(x, k, pad):
    """(C, N, H, W) -> (tiles, Ho, Wo) for stride-1 windows: the columns
    (C*k*k, N*Ho*Wo), then zeros up to whole _TILE-column tiles.

    Row c*k*k + i*k + j holds input channel c shifted by kernel cell (i, j);
    the columns run over windows, then positions.  Each shifted slice is
    copied once into the tiles and only the border strips it does not
    reach, and the tail, are zeroed (no padded copy of x).
    """
    c, n, h, w = x.shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    m = n * ho * wo
    tiles = np.empty((c * k * k, -(-m // _TILE) * _TILE))
    tiles[:, m:] = 0.0
    cols = tiles[:, :m].reshape(c, k, k, n, ho, wo)
    for i in range(k):
        r0, r1 = max(0, pad - i), min(ho, h + pad - i)
        for j in range(k):
            c0, c1 = max(0, pad - j), min(wo, w + pad - j)
            cell = cols[:, i, j]
            cell[..., r0:r1, c0:c1] = x[..., r0 + i - pad:r1 + i - pad,
                                        c0 + j - pad:c1 + j - pad]
            if r0:
                cell[..., :r0, :] = 0.0
            if r1 < ho:
                cell[..., r1:, :] = 0.0
            if c0:
                cell[..., :c0] = 0.0
            if c1 < wo:
                cell[..., c1:] = 0.0
    return tiles, ho, wo


def _conv_forward(x, kernels, bias):
    """(C, N, H, W) conv via im2col; returns ((O, N, H, W) output, the
    (C*k*k, N*H*W) im2col columns).  Zero padding keeps a 3x3 output
    same-sized; 1x1 kernels get none.  The GEMM spans whole tiles; the
    output is its first N*H*W columns, contiguous whatever the tail."""
    o, c, k, _ = kernels.shape
    n = x.shape[1]
    tiles, ho, wo = _im2col(x, k, (k - 1) // 2)
    m = n * ho * wo
    out = np.ascontiguousarray((kernels.reshape(o, c * k * k) @ tiles)[:, :m])
    if bias is not None:
        out += bias[:, None]
    return out.reshape(o, n, ho, wo), tiles[:, :m]


def _conv_backward(dout, cols, lp: LayerParams, want_dx):
    """Channel-major dout (O, N, H, W) and the forward's (C*k*k, N*H*W)
    columns -> (dx, dw, db): dw is one GEMM against the columns, db the
    row sums, and dx the channel-major (C, N, H, W) conv of the flipped
    kernels over dout, or None unless want_dx."""
    dflat = dout.reshape(dout.shape[0], -1)
    dw = (dflat @ cols.T).reshape(lp.kernels.shape)
    db = dflat.sum(axis=1)
    if not want_dx:
        return None, dw, db
    flipped = lp.kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _conv_forward(dout, flipped, None)[0], dw, db


def conv_windows(x, kernels, bias, corners, size):
    """read(lo, hi): the conv of the size x size windows lo..hi-1 of the
    channel-major (C, H, W) map x whose top-left pixels are the (N, 2)
    integer corners (x, y), each window zero-padded on its own, as the
    (O, hi - lo, size, size) array _conv_forward gives on those windows cut
    out and stacked, bit for bit.

    The conv runs once over x, and a window reads from that the values
    whose taps stay inside it.  On its 1-px ring a 3x3 kernel's taps pass
    the window and must read zeros, so each ring value comes from a conv
    over a zero-padded slab instead.  A top-ring value but the corners is
    the same for every window whose top row is that row of x: the conv of
    that row and the next, padded above.  So each edge is one conv over
    2-px slabs, one per distinct row or column of the corners, and each
    corner a cell of the conv of the window's (up to) 2x2 pixels there.
    Each value is so the GEMM column _conv_forward computes for it.
    """
    c = x.shape[0]

    def conv(slabs):
        return _conv_forward(slabs, kernels, bias)[0]

    blocks = sliding_window_view(conv(x[:, None])[:, 0], (size, size),
                                 axis=(1, 2))
    xs, ys = corners[:, 0], corners[:, 1]
    # corners top-left, top-right, bottom-left, bottom-right: the conv of
    # each window's q x q pixels there holds the corner at flat cell 0..3
    q = min(size, 2)
    ci = np.array([0, 0, size - 1, size - 1])
    cj = np.array([0, size - 1, 0, size - 1])
    qy = (ys[:, None] + ci - (q - 1) * (ci > 0))[..., None, None]
    qx = (xs[:, None] + cj - (q - 1) * (cj > 0))[..., None, None]
    span = np.arange(q)
    quads = x[:, qy + span[:, None], qx + span].reshape(c, -1, q, q)
    corner = conv(quads).reshape(-1, len(xs), 4, q * q)
    corner = corner[:, :, np.arange(4), np.arange(4) % (q * q)]
    if size > 2:
        def runs(lines):
            # (O, lines, L) conv outputs -> every run of size - 2 along L
            return sliding_window_view(lines, size - 2, axis=2)

        rows, row_of = np.unique(ys, return_inverse=True)
        cols, col_of = np.unique(xs, return_inverse=True)
        near, far = np.arange(2), np.arange(size - 2, size)
        top = runs(conv(x[:, rows[:, None] + near])[:, :, 0])
        bottom = runs(conv(x[:, rows[:, None] + far])[:, :, 1])
        left = runs(conv(x[:, :, cols[:, None] + near]
                         .transpose(0, 2, 1, 3))[..., 0])
        right = runs(conv(x[:, :, cols[:, None] + far]
                          .transpose(0, 2, 1, 3))[..., 1])

    def read(lo, hi):
        wx, wy = xs[lo:hi], ys[lo:hi]
        got = blocks[:, wy, wx]
        if size > 2:
            row, col = row_of[lo:hi], col_of[lo:hi]
            got[:, :, 0, 1:-1] = top[:, row, wx + 1]
            got[:, :, -1, 1:-1] = bottom[:, row, wx + 1]
            got[:, :, 1:-1, 0] = left[:, col, wy + 1]
            got[:, :, 1:-1, -1] = right[:, col, wy + 1]
        got[:, :, ci, cj] = corner[:, lo:hi]
        return got

    return read


def _maxpool_values(x):
    """2x2 max over the last two axes as a max of the four block cells.

    np.maximum(later, earlier) keeps its second argument on a tie, so a
    tied block (signed zeros included) yields its first cell's value, in
    the order (0,0), (0,1), (1,0), (1,1); a block holding a NaN yields NaN.
    """
    out = np.maximum(x[..., ::2, 1::2], x[..., ::2, ::2])
    np.maximum(x[..., 1::2, ::2], out, out=out)
    np.maximum(x[..., 1::2, 1::2], out, out=out)
    return out


def _maxpool_backward(dout, x, out):
    """Route each pooled gradient to the first cell of its 2x2 block, in
    _maxpool_values' order, that holds the max (in a NaN block, its first
    NaN).  x is the pool's input and out its output, shaped like dout; the
    last two axes are pooled.  dx is a fresh C-contiguous array shaped
    like x.
    """
    dx = np.zeros(x.shape)
    free = np.ones(out.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        cell = x[..., i::2, j::2]
        hit = (cell == out) | np.isnan(cell)
        hit &= free
        free &= ~hit
        dx[..., i::2, j::2] = np.where(hit, dout, 0.0)
    return dx


def softmax(logits):
    """Stable softmax over each row of an (N, C) array."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise DimensionError(f"softmax takes (N, C) rows, got shape {z.shape}")
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def run_network(spec: NetworkSpec, x, conv, record=None):
    """Run the two-headed network with a given conv implementation.

    x is an (N, C, H, W) batch.  Inside, activations are channel-major
    (C, N, H, W) up to global averaging, which yields (N, C) rows.
    conv(layer, x) receives the channel-major input and returns a fresh
    (O, N, H, W) pre-activation, which ReLU then overwrites in place, plus
    an aux.  Pooling (the plain 2x2 max), averaging and softmax are applied
    here, with or without record, which receives one
    (layer, input shape, output, aux) step per layer: the input shape is
    the channel-major one ((C, N, H, W), or (N, C) after averaging); output
    is what the step hands on (a conv's activated output, the pooled map,
    the averaged rows, the probabilities); aux is the conv's aux or the
    pool's channel-major input, else None.  Returns the (N, 4) loc rows and
    the (N, classes) probs rows.
    """
    x = _as_batch(x)
    if x.shape[1:] != (spec.in_channels, spec.input_size, spec.input_size):
        raise DimensionError(
            f"input shape {x.shape[1:]} does not match spec "
            f"({spec.in_channels}, {spec.input_size}, {spec.input_size})")

    def step(layer, x):
        aux = None
        if layer.kind == "conv":
            out, aux = conv(layer, x)
            if layer.relu:
                np.maximum(out, 0.0, out=out)
        elif layer.kind == "maxpool":
            out, aux = _maxpool_values(x), x
        elif layer.kind == "gap":
            out = x.mean(axis=(2, 3)).T
        else:
            out = softmax(x)
        if record is not None:
            record((layer, x.shape, out, aux))
        return out

    def run(seq, x):
        for layer in seq:
            x = step(layer, x)
        return x

    trunk = run(spec.shared_trunk, x.transpose(1, 0, 2, 3))
    return run(spec.loc_head, trunk), run(spec.cla_head, trunk)


def forward(params: ModelParams, x, want_cache=True):
    """Run the two-headed network on the dense weights.

    Returns (loc, probs, cache): loc is (N, 4), probs is (N, classes).  The
    cache holds every intermediate needed by backward(); pass
    want_cache=False for inference-only calls.
    """
    def conv(layer, x):
        lp = params.layers[layer.name]
        return _conv_forward(x, lp.kernels, lp.bias)

    steps = [] if want_cache else None
    loc, probs = run_network(params.spec, x, conv,
                             None if steps is None else steps.append)
    return loc, probs, None if steps is None else {"steps": steps}


def backward(params: ModelParams, cache, grad_loc, grad_cla):
    """Gradients of sum(grad_loc * loc) + sum(grad_cla * probs) w.r.t. params.

    grad_cla is taken against the post-softmax probabilities.  Returns a
    dict name -> (dkernels, dbias) matching the parameter shapes: parameter
    gradients only.  A conv at step 0 reads the network input and forms no
    input gradient, since nothing reads it.  Gradients flow channel-major
    ((C, N, H, W) maps, (N, C) rows after averaging) over the forward
    records as they are.  A pool routes each gradient to the first cell of
    its block that holds the recorded output, found in its recorded input.
    """
    if cache is None or "steps" not in cache:
        raise ConfigError("backward needs the cache from a matching forward call")
    steps = cache["steps"]
    trunk_end = len(params.spec.shared_trunk)
    loc_end = trunk_end + len(params.spec.loc_head)
    grads = {}

    def run_back(lo, hi, dx):
        dx = np.asarray(dx, dtype=np.float64)
        for i in range(hi - 1, lo - 1, -1):
            layer, x_shape, out, aux = steps[i]
            if layer.kind == "softmax":
                dot = (dx * out).sum(axis=1, keepdims=True)
                dx = out * (dx - dot)
            elif layer.kind == "gap":
                h, w = x_shape[2:]
                dx = np.broadcast_to(dx.T[:, :, None, None] / (h * w), x_shape)
            elif layer.kind == "maxpool":
                dx = _maxpool_backward(dx, aux, out)
            else:
                if layer.relu:
                    dx = dx * (out > 0)
                lp = params.layers[layer.name]
                dx, dw, db = _conv_backward(dx, aux, lp, want_dx=i > 0)
                grads[layer.name] = (dw, db)
        return dx

    d_loc = run_back(trunk_end, loc_end, grad_loc)
    d_cla = run_back(loc_end, len(steps), grad_cla)
    run_back(0, trunk_end, d_loc + d_cla)
    return grads


def check_lr(lr):
    """ConfigError unless the learning rate is finite and positive."""
    if not 0 < lr < np.inf:
        raise ConfigError(f"learning rate must be in (0, inf), got {lr}")


def sgd_update(params: ModelParams, grads, lr: float):
    """In-place w <- w - lr*g for every bias and LayerParams.trained (the
    accumulator where a layer keeps one) with a gradient."""
    check_lr(lr)
    for name, (dw, db) in grads.items():
        lp = params.layers[name]
        w = lp.trained
        w -= lr * dw
        lp.bias -= lr * db
    return params
