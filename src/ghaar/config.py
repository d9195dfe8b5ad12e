"""Key-value configuration files.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored, later occurrences of a key win.  Values stay strings until a typed
getter pulls them out.  List-valued keys hold whitespace-separated items
(e.g. `trunk_widths = 64 128 256 256`).

Defaults live in the library, not here: a key the file leaves out keeps the
default of the TrainConfig or SynthSettings field, or of the extract_samples
or detect_image argument, that it sets.  parse_config refuses a key outside
KNOWN_KEYS, the keys some command reads, so a misspelt key cannot fall back
to its default unnoticed.
"""

from __future__ import annotations

import math
from dataclasses import fields

from .errors import ConfigError
from .pipeline import DETECT_NMS_IOU, DETECT_SCORE_THRESH, MEAN_SHIFT_BANDWIDTH
from .training import TrainConfig
from .synth import SynthSettings
from .windows import DEFAULT_RATIO, DEFAULT_STRIDE_FRAC, CameraModel, SceneRanges

def parse_config_text(text, origin="<config>"):
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{ln}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"{origin}:{ln}: empty key")
        out[key] = value
    return out


def parse_config(path):
    """A config file's keys and values; ConfigError names every key in it
    that no command reads."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    cfg = parse_config_text(text, origin=str(path))
    unknown = sorted(cfg.keys() - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key "
                          + ", ".join(repr(k) for k in unknown))
    return cfg


def _get(cfg, key, default, cast, what):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{key}' is not {what}: {cfg[key]!r}")


def _finite(s):
    value = float(s)
    if not math.isfinite(value):
        raise ValueError(s)
    return value


def get_float(cfg, key, default=None):
    return _get(cfg, key, default, _finite, "a finite number")


def get_int(cfg, key, default=None):
    return _get(cfg, key, default, lambda s: int(s, 0), "an integer")


def get_bool(cfg, key, default=None):
    def cast(s):
        s = s.lower()
        if s in ("true", "yes", "1", "on"):
            return True
        if s in ("false", "no", "0", "off"):
            return False
        raise ValueError(s)
    return _get(cfg, key, default, cast, "a boolean")


def get_int_tuple(cfg, key, default=None):
    return _get(cfg, key, default,
                lambda s: tuple(int(p) for p in s.split()),
                "a list of integers")


def get_float_tuple(cfg, key, default=None):
    return _get(cfg, key, default,
                lambda s: tuple(_finite(p) for p in s.split()),
                "a list of numbers, all finite")


def camera_from_config(cfg) -> CameraModel:
    return CameraModel(
        m11=get_float(cfg, "m11"), m22=get_float(cfg, "m22"),
        m13=get_float(cfg, "m13", 0.0), m23=get_float(cfg, "m23", 0.0),
        m14=get_float(cfg, "m14", 0.0), m24=get_float(cfg, "m24", 0.0),
        m34=get_float(cfg, "m34", 0.0))


def ranges_from_config(cfg) -> SceneRanges:
    return SceneRanges(
        x3d_min=get_float(cfg, "x3d_min"), x3d_max=get_float(cfg, "x3d_max"),
        y3d_min=get_float(cfg, "y3d_min"), y3d_max=get_float(cfg, "y3d_max"),
        d3d=get_float(cfg, "d3d"))


_GEOMETRY_KEYS = tuple(f.name for cls in (CameraModel, SceneRanges)
                       for f in fields(cls))


def geometry_from_config(cfg):
    """(camera, ranges) for perspective pruning, or (None, None) when the
    file sets no camera or range key.  A file that sets any of them needs
    every required one: ConfigError names the first missing key."""
    if not any(key in cfg for key in _GEOMETRY_KEYS):
        return None, None
    return camera_from_config(cfg), ranges_from_config(cfg)


def _set_keys(cfg, getters):
    """{key: typed value} for the keys of getters that the file sets."""
    return {key: get(cfg, key) for key, get in getters.items() if key in cfg}


# config key -> typed getter; each key names a TrainConfig field, except
# ws (the window field) and loss_w_loc/loss_w_cla (the loss_weights pair).
# in_channels is no key: train extracts RGB samples, so only 3 can run
_TRAIN_KEYS = dict(
    epochs=get_int, phase_a_epochs=get_int, lr=get_float, lr_decay=get_float,
    decay_every=get_int, batch_size=get_int, phi=get_float, q=get_int,
    nr=get_int, constrain=get_bool, classes=get_int,
    trunk_widths=get_int_tuple, head_widths=get_int_tuple,
    bottleneck=get_int)

_SYNTH_KEYS = dict(
    n_images=get_int, image_w=get_int, image_h=get_int, ws=get_int,
    max_objects=get_int, size_lo=get_float, size_hi=get_float, tries=get_int,
    split=dict.get, color_margin=get_int)   # split stays a string

_EXTRACT_KEYS = dict(n_jitter=get_int, jitter_frac=get_float,
                     bg_ratio=get_float, flip=get_bool)

# config key -> (detect_image argument, its default)
_DETECT_KEYS = dict(
    stride_frac=("stride_frac", DEFAULT_STRIDE_FRAC),
    pyramid_ratio=("ratio", DEFAULT_RATIO),
    score_thresh=("score_thresh", DETECT_SCORE_THRESH),
    bandwidth_frac=("bandwidth_frac", MEAN_SHIFT_BANDWIDTH),
    nms_iou=("nms_iou", DETECT_NMS_IOU))

# every key some command reads: the builders' keys, seed and the loss
# weights (train), and bands (eval)
KNOWN_KEYS = frozenset(
    _GEOMETRY_KEYS + tuple(_TRAIN_KEYS) + tuple(_SYNTH_KEYS)
    + tuple(_EXTRACT_KEYS) + tuple(_DETECT_KEYS)
    + ("seed", "loss_w_loc", "loss_w_cla", "bands"))


def train_config_from_config(cfg, seed=None) -> TrainConfig:
    """An explicit seed beats the file's `seed` key."""
    kw = _set_keys(cfg, _TRAIN_KEYS)
    if "ws" in cfg:
        kw["window"] = get_int(cfg, "ws")
    if "loss_w_loc" in cfg or "loss_w_cla" in cfg:
        w_loc, w_cla = TrainConfig.loss_weights
        kw["loss_weights"] = (get_float(cfg, "loss_w_loc", w_loc),
                              get_float(cfg, "loss_w_cla", w_cla))
    if seed is not None:
        kw["seed"] = seed
    elif "seed" in cfg:
        kw["seed"] = get_int(cfg, "seed")
    return TrainConfig(**kw)


def synth_settings_from_config(cfg) -> SynthSettings:
    return SynthSettings(**_set_keys(cfg, _SYNTH_KEYS))


def extract_params_from_config(cfg):
    """Keyword arguments for extract_samples."""
    return _set_keys(cfg, _EXTRACT_KEYS)


def detect_settings_from_config(cfg):
    """Keyword arguments for detect_image: window grid and refinement."""
    return {arg: get_float(cfg, key, default)
            for key, (arg, default) in _DETECT_KEYS.items()}
