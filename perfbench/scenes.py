"""Scene geometry and training settings shared by the workloads and the
fixture script.

The README geometry: 160x120 frames, a 32px window, stride 0.3 of the
window, pyramid ratio 1.4, and the README camera and world ranges.  The
crowd geometry keeps the world ranges and scales the camera to a 1024x768
frame.

The detection workloads draw objects with the fixture's colour margin, the
distribution the fixture model was trained on; the train workload uses the
README scenes as they are.
"""

from ghaar import synth as sy
from ghaar import training as tr
from ghaar.windows import CameraModel, SceneRanges

WS = 32
STRIDE_FRAC = 0.3
RATIO = 1.4

README_CAMERA = CameraModel(m11=240.0, m22=240.0, m13=80.0, m23=60.0)
CROWD_CAMERA = CameraModel(m11=1536.0, m22=1536.0, m13=512.0, m23=384.0)
# object colours of the fixture's training scenes: 35 levels clear of the
# background band
FIXTURE_COLOR_MARGIN = 35

RANGES = SceneRanges(x3d_min=-2.8, x3d_max=2.8, y3d_min=-2.0, y3d_max=2.0,
                     d3d=1.0)

# extract_samples settings of the README training run (the CLI defaults)
EXTRACT = dict(ws=WS, ratio=RATIO, n_jitter=2, jitter_frac=0.15,
               bg_ratio=3.0, flip=False)


def readme_scenes(n_images, split="train", color_margin=0):
    return sy.SynthSettings(n_images=n_images, image_w=160, image_h=120,
                            ws=WS, max_objects=2, split=split,
                            color_margin=color_margin)


def crowd_scenes(n_images):
    return sy.SynthSettings(n_images=n_images, image_w=1024, image_h=768,
                            ws=WS, max_objects=40, split="crowd",
                            color_margin=FIXTURE_COLOR_MARGIN)


def readme_train_config(**overrides):
    """TrainConfig of the README quickstart; keyword overrides win."""
    kw = dict(epochs=10, lr=0.1, batch_size=64, phi=0.1, q=8, nr=32,
              window=WS, trunk_widths=(6, 12, 12, 12), head_widths=(12, 12),
              bottleneck=8)
    kw.update(overrides)
    return tr.TrainConfig(**kw)
