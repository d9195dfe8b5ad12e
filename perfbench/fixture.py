"""The detection model fixture, stored as plain arrays.

The file holds the pattern table (canonical indices), and per conv layer
either the pattern references and factors (constrained 3x3 layers) or the
dense kernels (1x1 layers), plus the biases.  Every float is a float32
value written as JSON, so reading it back is exact.  The model bytes are
rebuilt through the package's own codec (`reduced_space_from_indices` ->
`compress` -> `encode_model`), so a codec version change does not make the
fixture stale.
"""

import json
import os

import numpy as np

from ghaar import compressed as cm
from ghaar import haar_space as hs
from ghaar import nn_core as nn

FIXTURE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "fixture_model.json")
FORMAT = "ghaar-perfbench-fixture 1"


def _f32_list(a):
    return [float(v) for v in np.asarray(a, dtype=np.float32).reshape(-1)]


def model_to_fixture(model, settings):
    """JSON-ready dict of a CompressedModel plus its training settings."""
    spec = model.spec
    layers = {}
    for layer, _ in spec.conv_layers():
        lp = model.params.layers[layer.name]
        entry = {"bias": _f32_list(lp.bias)}
        if layer.constrained:
            entry["refs"] = [int(v) for v in lp.filter_idx.reshape(-1)]
            entry["factors"] = _f32_list(lp.factors)
        else:
            entry["kernels"] = _f32_list(lp.kernels)
        layers[layer.name] = entry
    return {
        "format": FORMAT,
        "settings": settings,
        "m": int(model.space.m),
        "pattern_indices": [int(i) for i in model.space.indices],
        "layers": layers,
    }


def network_spec(settings):
    return nn.build_network_spec(
        in_channels=3, classes=3, window=settings["window"],
        trunk_widths=tuple(settings["trunk_widths"]),
        head_widths=tuple(settings["head_widths"]),
        bottleneck=settings["bottleneck"], constrained=True)


def load_fixture(path=FIXTURE_PATH):
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} file")
    return data


def fixture_model_bytes(data):
    """Encoded model bytes rebuilt from the fixture arrays."""
    spec = network_spec(data["settings"])
    space = hs.reduced_space_from_indices(data["m"], data["pattern_indices"])
    params = nn.ModelParams(spec)
    for layer, _ in spec.conv_layers():
        entry = data["layers"][layer.name]
        o, c, k = layer.out_channels, layer.in_channels, layer.kernel_size
        bias = np.array(entry["bias"], dtype=np.float64)
        if layer.constrained:
            refs = np.array(entry["refs"], dtype=np.int64).reshape(o, c)
            factors = np.array(entry["factors"], dtype=np.float64).reshape(o, c)
            kernels = (factors.reshape(-1, 1) * space.signs[refs.reshape(-1)])
            params.layers[layer.name] = nn.LayerParams(
                kernels.reshape(o, c, k, k), bias, refs, factors)
        else:
            kernels = np.array(entry["kernels"], dtype=np.float64)
            params.layers[layer.name] = nn.LayerParams(
                kernels.reshape(o, c, k, k), bias)
    return cm.encode_model(cm.compress(params, space))
