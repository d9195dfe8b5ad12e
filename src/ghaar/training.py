"""Constrained training loop.

Every eligible 3x3 kernel slice the network actually runs with sits on the
sign-pattern manifold w = pattern * factor.  Training keeps a full-precision
accumulator per constrained slice alongside that projected form: a step runs
detection's forward, then backward, through the projected kernels, applies
the gradients straight through to the accumulators (plus the smooth-min
pull toward the pattern space, evaluated on the accumulator's unit rows), then
re-projects each accumulator onto its nearest pattern to refresh the
(pattern, factor) form.
The network spec alone says which layers are constrained.  constrain_params
is the single writer of their form (the shadow accumulator, filter_idx,
factors and kernels): a step requires it to have seeded every constrained
layer, and its readers (step, census, compress) never derive it again.
Projecting the accumulator instead of the projected weight itself is what
lets gradient components orthogonal to the current pattern accumulate until
they flip it; re-projecting the projected weight discards them and training
stalls at the class prior.  fit trains phase A against the full pattern
space, then phase B, opened by a usage census of the popular patterns,
against the reduced space the compressed model will ship with.
"""

import csv
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, TrainingError
from . import haar_space as hs
from . import nn_core as nn
from .ppm import normalize_image
from .windows import DEFAULT_WS

EVAL_BATCH = 256        # held-out windows per forward call


def check_pull(phi, q):
    """ConfigError unless phi is in [0, inf) and q in [1, inf)."""
    if not 1 <= q < np.inf:
        raise ConfigError(f"sharpness must be in [1, inf), got {q}")
    if not 0 <= phi < np.inf:
        raise ConfigError(f"regularizer weight must be in [0, inf), got {phi}")


@dataclass
class TrainConfig:
    epochs: int = 10
    phase_a_epochs: int = None   # default: half the epochs, rounded up
    lr: float = 0.01
    lr_decay: float = 0.5
    decay_every: int = 10
    batch_size: int = 32
    phi: float = 0.1             # regularizer weight
    q: int = 8                   # smooth-min sharpness
    nr: int = 32                 # reduced-space size
    m: ClassVar[int] = hs.SIDE   # pattern side: every constrained kernel is 3x3
    loss_weights: tuple = (1.0, 1.0)   # (localization, classification)
    seed: int = 0
    constrain: bool = True       # network_spec's flag; the spec decides
    window: int = DEFAULT_WS
    in_channels: int = 3
    classes: int = 3
    trunk_widths: tuple = nn.DEFAULT_TRUNK
    head_widths: tuple = nn.DEFAULT_HEAD
    bottleneck: int = nn.DEFAULT_BOTTLENECK

    def __post_init__(self):
        check_pull(self.phi, self.q)
        nn.check_lr(self.lr)
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be >= 1")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr decay must be in (0, 1], got {self.lr_decay}")
        if self.decay_every < 1:
            raise ConfigError(f"lr decay interval must be >= 1 epoch, "
                              f"got {self.decay_every}")
        if not (len(self.loss_weights) == 2 and sum(self.loss_weights) > 0
                and all(0 <= w < np.inf for w in self.loss_weights)):
            raise ConfigError(f"loss weights must be two finite values >= 0 "
                              f"with a positive sum, got {self.loss_weights}")
        if self.phase_a_epochs is None:
            self.phase_a_epochs = (self.epochs + 1) // 2
        if not 0 <= self.phase_a_epochs <= self.epochs:
            raise ConfigError("first-phase epochs must fit inside the total")
        if not 1 <= self.nr <= hs.space_size(self.m):
            raise ConfigError(f"reduced-space size must be in [1, "
                              f"{hs.space_size(self.m)}], got {self.nr}")
        self.network_spec()     # refuse a graph that cannot run, up front

    def network_spec(self):
        return nn.build_network_spec(
            in_channels=self.in_channels, classes=self.classes,
            window=self.window, trunk_widths=self.trunk_widths,
            head_widths=self.head_widths, bottleneck=self.bottleneck,
            constrained=self.constrain)

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** (epoch // self.decay_every)


def _logsumexp_rows(a):
    mx = a.max(axis=1, keepdims=True)
    return mx[:, 0] + np.log(np.exp(a - mx).sum(axis=1))


def _regularizer_batch(flat, signs, phi: float, q: int):
    """Smooth-min distance to the pattern space, summed over kernel rows.

    flat is (J, m*m), signs (N, m*m).  Returns (value, grad) with grad shaped
    like flat.  The per-row value is a soft minimum over the per-pattern
    least-squares residuals; as q grows it approaches phi times the true
    nearest-pattern residual from above.
    """
    mm = flat.shape[1]
    scales = flat @ signs.T / mm                      # (J, N)
    sq = (flat * flat).sum(axis=1, keepdims=True)     # |w|^2
    residuals = np.maximum(sq - scales * scales * mm, 0.0)
    a = -residuals
    lse_q = _logsumexp_rows(q * a)
    lse_q1 = _logsumexp_rows((q + 1) * a)
    value = phi * (lse_q - lse_q1).sum()
    p_q = np.exp(q * a - lse_q[:, None])
    p_q1 = np.exp((q + 1) * a - lse_q1[:, None])
    c = (q + 1) * p_q1 - q * p_q                      # (J, N)
    grad = 2.0 * phi * (c.sum(axis=1, keepdims=True) * flat - (c * scales) @ signs)
    return value, grad


def haar_regularizer(w, space, phi: float, q: int):
    """(value, grad) of the smooth-min pull for one m x m kernel."""
    check_pull(phi, q)
    flat = hs._flat_kernel(w)
    value, grad = _regularizer_batch(flat[None, :], space.signs, phi, q)
    return float(value), grad[0].reshape(np.asarray(w).shape)


def constrained_layer_names(spec):
    return [layer.name for layer, _ in spec.conv_layers() if layer.constrained]


def constrain_params(params, space):
    """Snap every eligible kernel slice onto its nearest pattern, in place.

    The pre-projection values are kept (seeded on first call) as the
    per-layer full-precision accumulators that later steps update; the
    projection always reads the accumulator, so repeated calls are stable
    and a space change re-projects the accumulated weights, not the
    already-projected ones.
    """
    mm = space.m * space.m
    for name in constrained_layer_names(params.spec):
        lp = params.layers[name]
        if lp.shadow is None:
            lp.shadow = lp.kernels.copy()
        o, c = lp.shadow.shape[:2]
        flat = lp.shadow.reshape(o * c, mm)
        rows, scales, _ = hs.project_batch(flat, space)
        lp.filter_idx = rows.reshape(o, c)
        lp.factors = scales.reshape(o, c)
        lp.kernels = space.kernels(lp.filter_idx, lp.factors)
    return params


def loc_loss(pred, target, mask):
    """Mean squared offset error over the masked (foreground) rows."""
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    mask = np.atleast_1d(mask).astype(bool)
    n = int(mask.sum())
    if n == 0:
        return 0.0, np.zeros_like(pred)
    diff = (pred - target) * mask[:, None]
    value = float((diff * diff).sum() / (4 * n))
    grad = 2.0 * diff / (4 * n)
    return value, grad


def cla_loss(probs, labels):
    """Mean cross-entropy against integer labels; gradient is w.r.t. probs."""
    probs = np.atleast_2d(probs)
    labels = np.atleast_1d(labels).astype(int)
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    value = float(-np.log(np.maximum(picked, 1e-12)).mean())
    grad = np.zeros_like(probs)
    grad[np.arange(n), labels] = -1.0 / (n * np.maximum(picked, 1e-12))
    return value, grad


def _pulled(params):
    """(name, trained weights) of every 3x3 conv, the ones the smooth-min
    pull acts on."""
    return [(layer.name, params.layers[layer.name].trained)
            for layer, _ in params.spec.conv_layers()
            if layer.kernel_size == hs.SIDE]


def _unit_pull(flat, signs, phi: float, q: int):
    """The smooth-min pull on the unit rows w/|w| of flat (J, m*m).

    On raw rows the residual scales with |w|^2, so the cheapest way down
    is w -> 0; on unit rows it is a smooth-min of 1 - cos^2 between w and
    the patterns, and leaves the scale to the factor.  The gradient is
    mapped back through w/|w|: (g - (g.u)u) / |w|, orthogonal to w.  Zero
    rows have no direction and get no pull.  Returns (value, grad) like
    _regularizer_batch.
    """
    norm = np.sqrt((flat * flat).sum(axis=1))
    live = norm > 0
    unit = flat[live] / norm[live, None]
    value, g = _regularizer_batch(unit, signs, phi, q)
    grad = np.zeros_like(flat)
    grad[live] = (g - (g * unit).sum(axis=1, keepdims=True) * unit) \
        / norm[live, None]
    return value, grad


def train_step(params, x, loc_target, labels, space, cfg: TrainConfig, lr: float):
    """One SGD step over a batch, constrained where params.spec says so.

    constrain_params, the single writer of the pattern form, must have
    seeded every layer the spec constrains (none in an unconstrained spec),
    else TrainingError before any work.  Returns a dict with the batch
    losses.  Raises TrainingError when the loss or a gradient goes
    non-finite; both checks run before any weight is updated.
    """
    constrained = constrained_layer_names(params.spec)
    for name in constrained:
        if params.layers[name].shadow is None:
            raise TrainingError(f"layer {name} has no pattern assignment "
                                "yet; run constrain_params first")
    loc, probs, cache = nn.forward(params, x)
    mask = np.asarray(labels) != 0
    lv, lg = loc_loss(loc, loc_target, mask)
    cv, cg = cla_loss(probs, labels)
    w_loc, w_cla = cfg.loss_weights
    total = w_loc * lv + w_cla * cv
    reg_value = 0.0
    if not np.isfinite(total):
        raise TrainingError(f"non-finite loss {total}")
    grads = nn.backward(params, cache, w_loc * lg, w_cla * cg)
    if cfg.phi > 0:
        mm = space.m * space.m
        for name, base in _pulled(params):
            o, c, k, _ = base.shape
            rv, rg = _unit_pull(base.reshape(o * c, mm), space.signs,
                                cfg.phi, cfg.q)
            reg_value += rv
            dw, db = grads[name]
            grads[name] = (dw + rg.reshape(o, c, k, k), db)
    for name, (dw, db) in grads.items():
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise TrainingError(f"non-finite gradient in layer {name}")
    # straight-through: gradients taken through the projected kernels land
    # on the accumulators, then the projection refreshes the form from them
    nn.sgd_update(params, grads, lr)
    constrain_params(params, space)
    err = float((probs.argmax(axis=1) != np.asarray(labels)).mean())
    return {"loss": total + reg_value, "loc": lv, "cla": cv, "reg": reg_value,
            "err_cla": err}


def mean_nearest_residual(params, space) -> float:
    """Average nearest-pattern residual over the slices the pull acts on.

    Measured on the full-precision accumulators where training keeps them
    (the projected kernels sit on the manifold by construction, residual 0);
    this is the pre-projection distance the smooth-min pull acts on.
    """
    mm = space.m * space.m
    chunks = [hs.project_batch(base.reshape(-1, mm), space)[2]
              for _, base in _pulled(params)]
    if not chunks:
        return 0.0
    return float(np.concatenate(chunks).mean())


def usage_census(params, space) -> np.ndarray:
    """How many kernel slices each pattern of space holds: a count of the
    filter_idx that constrain_params wrote, so params must be constrained
    against space."""
    counts = np.zeros(len(space), dtype=np.int64)
    for name in constrained_layer_names(params.spec):
        counts += np.bincount(params.layers[name].filter_idx.ravel(),
                              minlength=len(space))
    # report against canonical indices, not row order
    out = np.zeros(hs.space_size(space.m), dtype=np.int64)
    out[np.asarray(space.indices)] = counts
    return out


def _as_batch(x, idx):
    """Slice samples out of the store as float64 network input.

    uint8 patch stacks shaped (N, H, W, 3) are normalized on the fly so the
    full set never has to exist in float form; float arrays pass through.
    """
    sel = x[idx]
    if sel.dtype == np.uint8:
        return normalize_image(sel)
    return np.asarray(sel, dtype=np.float64)


def evaluate_windows(params, x, loc_t, labels):
    """Window-level error rates on a held-out sample set."""
    labels = np.asarray(labels)
    loc_t = np.asarray(loc_t, dtype=np.float64)
    wrong = 0
    loc_sq = 0.0
    npos = 0
    for lo in range(0, x.shape[0], EVAL_BATCH):
        sl = slice(lo, lo + EVAL_BATCH)
        loc, probs, _ = nn.forward(params, _as_batch(x, sl), want_cache=False)
        pred = probs.argmax(axis=1)
        wrong += int((pred != labels[sl]).sum())
        mask = labels[sl] != 0
        if mask.any():
            d = loc[mask] - loc_t[sl][mask]
            loc_sq += float((d * d).sum())
            npos += int(mask.sum())
    return {"val_err_cla": wrong / x.shape[0],
            "val_err_loc": loc_sq / (4 * npos) if npos else 0.0}


def _check_samples(x, labels, cfg, what):
    """ConfigError unless there are samples, each is one network input, and
    every label names one of the classes."""
    if x.shape[0] == 0:
        raise ConfigError(f"cannot fit on an empty {what} sample set")
    shape = _as_batch(x, slice(0, 1)).shape[1:]
    want = (cfg.in_channels, cfg.window, cfg.window)
    if shape != want:
        raise ConfigError(f"{what} samples have shape {shape}, the network "
                          f"takes {want}")
    if labels.min() < 0 or labels.max() >= cfg.classes:
        raise ConfigError(f"{what} labels span {labels.min()}.."
                          f"{labels.max()}, outside the {cfg.classes} classes")


def fit(x, loc_target, labels, cfg: TrainConfig, val=None, progress=None):
    """Constrained training over a list of phases, one log row per epoch
    holding the mean of its train_step dicts.

    Phase A trains cfg.phase_a_epochs against the full pattern space; phase
    B opens, even with no epochs left, with a usage census that keeps the
    cfg.nr busiest patterns, and trains the rest against that reduced space.
    Returns (params, table, log_rows), table being the pattern table the
    model ships with: the reduced space, or, for a spec without constrained
    layers (one phase A), a one-entry table no record references.
    ConfigError before the first step when a sample or label does not fit
    the network, in x or in val.
    """
    x = np.asarray(x)      # _as_batch converts each batch to network input
    loc_target = np.asarray(loc_target, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.shape[0] != loc_target.shape[0] or x.shape[0] != labels.shape[0]:
        raise ConfigError("sample arrays disagree on length")
    _check_samples(x, labels, cfg, "training")
    if val is not None:
        _check_samples(np.asarray(val[0]), np.asarray(val[2]), cfg, "held-out")
    spec = cfg.network_spec()
    rng = np.random.default_rng(cfg.seed)
    params = nn.init_params(spec, seed=cfg.seed)
    space = hs.enumerate_space(cfg.m)
    constrained = bool(constrained_layer_names(spec))
    phases = ((("A", cfg.phase_a_epochs),
               ("B", cfg.epochs - cfg.phase_a_epochs))
              if constrained else (("A", cfg.epochs),))
    rows = []
    for phase, epochs in phases:
        if phase == "B":
            space = hs.select_top_filters(usage_census(params, space), cfg.nr)
        constrain_params(params, space)
        for _ in range(epochs):
            lr = cfg.lr_at(len(rows))
            batches = np.array_split(rng.permutation(len(x)), range(
                cfg.batch_size, len(x), cfg.batch_size))
            # positional: perfbench's trace reads the space as args[4]
            infos = [train_step(params, _as_batch(x, idx), loc_target[idx],
                                labels[idx], space, cfg, lr)
                     for idx in batches]
            row = {"epoch": len(rows), "phase": phase, "lr": lr,
                   "space": len(space)}
            row.update({k: sum(info[k] for info in infos) / len(infos)
                        for k in infos[0]})
            row["mean_residual"] = mean_nearest_residual(params, space)
            if val is not None:
                row.update(evaluate_windows(params, *val))
            rows.append(row)
            if progress is not None:
                progress(row)
    if not constrained:
        space = hs.reduced_space_from_indices(cfg.m, [0])
    return params, space, rows


def write_log_csv(rows, path):
    """fit's rows as they are: one line per epoch, the row keys as columns
    (val_err_cla and val_err_loc only when a held-out set ran)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
