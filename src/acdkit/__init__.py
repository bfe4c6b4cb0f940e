"""Anomalous change detection for co-registered single-band image pairs.

Detection of rare, significant changes between two images of the same
scene, ignoring pervasive scene-wide changes.  Provides a pixelwise
differencing baseline, a joint-Gaussian log density ratio detector with
patch and co-occurrence-texture feature augmentation, dual-mask ROC
evaluation, and a deterministic synthetic scene generator for benchmarks.
"""

from .detectors import DETECTOR_NAMES, run_detector
from .errors import (
    AcdError,
    BadConfig,
    BadOffset,
    BadPatchSize,
    DimensionMismatch,
    EmptyClass,
    FormatError,
    GridMismatch,
    IoError,
    MaskInconsistent,
    NotFound,
    SingularCovariance,
)
from .evaluate import (
    RocBand,
    RocCurve,
    pauc,
    render_loglog_svg,
    roc,
    write_roc_csv,
)
from .features import (
    FeatureStack,
    QuantizedRaster,
    glcm_features,
    identity_features,
    patch_features,
    quantize,
)
from .hacd import (
    AnomalyMap,
    HacdModel,
    diff_score,
    fit_hacd,
    hacd_score,
    load_model,
    save_model,
    score_map,
)
from .raster import (
    CoregisteredPair,
    GroundTruth,
    Raster,
    load_ground_truth,
    load_raster,
    make_pair,
    save_raster,
)
from .synth import SceneConfig, config_from_json, config_to_json, generate_scene, scene_suite

__version__ = "0.1.0"
