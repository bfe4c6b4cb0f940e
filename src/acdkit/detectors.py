"""Named detector pipelines over a co-registered raster pair."""

from __future__ import annotations

from .errors import BadConfig
from .features import (  # noqa: F401  glcm/identity/patch_features: bench/spans.py traces them here
    DEFAULT_LEVELS,
    DEFAULT_OFFSETS,
    DEFAULT_PATCH,
    GlcmCounts,
    PatchWindows,
    glcm_features,
    identity_features,
    patch_features,
    quantize,
)
from .hacd import AnomalyMap, Features, HacdModel, diff_score, fit_hacd, score_map
from .raster import CoregisteredPair, Raster

DETECTOR_NAMES = ("diff", "hacd", "patch-hacd", "glcm-hacd")


def _features(name: str, r: Raster, patch: int, levels: int, offsets) -> Features:
    if name == "glcm-hacd":
        # each epoch is quantized against its own quantiles, so a global
        # monotone intensity change between epochs is already neutralized;
        # streamed: fit and score divide each row's integer pair counts
        return GlcmCounts(quantize(r, levels), patch, offsets)
    # hacd is the 1x1 patch; streamed: fit and score read only the padded
    # rows' windows and cut no patch vectors
    return PatchWindows(r, 1 if name == "hacd" else patch)


def run_detector(
    name: str,
    pair: CoregisteredPair,
    patch: int = DEFAULT_PATCH,
    levels: int = DEFAULT_LEVELS,
    offsets: tuple[tuple[int, int], ...] = DEFAULT_OFFSETS,
    ridge: float | None = None,
) -> tuple[AnomalyMap, HacdModel | None]:
    """Run one named detector; HACD variants also return the fitted model.

    Names: "diff", "hacd", "patch-hacd", "glcm-hacd".
    """
    if name == "diff":
        return diff_score(pair), None
    if name not in DETECTOR_NAMES:
        raise BadConfig(f"unknown detector {name!r}, expected one of {DETECTOR_NAMES}")
    fx = _features(name, pair.t0, patch, levels, offsets)
    fy = _features(name, pair.t1, patch, levels, offsets)
    model = fit_hacd(fx, fy, ridge=ridge)
    return score_map(model, fx, fy), model
