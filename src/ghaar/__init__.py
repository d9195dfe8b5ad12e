"""Sign-pattern-constrained detection networks.

Training keeps every 3x3 kernel a scaled plus/minus-one pattern, and the
compressed model stores each kernel as one pattern reference plus one
float32 factor (5 bytes).  Detection runs the dense route on the decoded
kernels, the fastest one measured in numpy; the one-multiply path (signed
accumulation, then a single multiply per step) is kept as the witness of
the paper's arithmetic.  Sliding windows come from an image pyramid pruned
by perspective geometry.
"""

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    GhaarError,
    TrainingError,
)
from .haar_space import (
    FilterSpace,
    SignPattern,
    enumerate_space,
    nearest_filter,
    project_batch,
    select_top_filters,
    space_size,
)
from .nn_core import NetworkSpec, ModelParams, build_network_spec, init_params
from .training import TrainConfig, fit, haar_regularizer, usage_census
from .compressed import (
    CompressedModel,
    OpCounter,
    compress,
    decode_model,
    encode_model,
    forward_dense,
    forward_fast,
    storage_report,
)
from .windows import (
    CameraModel,
    SceneRanges,
    Window,
    build_pyramid,
    coverage_verify,
    final_windows,
    implied_3d,
    sliding_windows,
)
from .pipeline import (
    Detection,
    EvalReport,
    GroundTruthBox,
    decode_outputs,
    detect_image,
    encode_target,
    evaluate,
    iou,
    mean_shift_refine,
    nms,
)
from .synth import DatasetManifest, extract_samples, load_manifest, synth_generate

__version__ = "0.1.0"
