"""Named detector pipelines over a co-registered raster pair."""

from __future__ import annotations

import numpy as np

from .errors import BadConfig
from .features import (  # noqa: F401  glcm/patch_features: bench/spans.py traces them here
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
    if name == "hacd":
        return identity_features(r)
    if name == "patch-hacd":
        # streamed: scoring cuts each tile's patches from the padded raster,
        # and the (unmasked) fit reads only its rows' windows
        return PatchWindows(r, patch)
    # glcm-hacd: each epoch is quantized against its own quantiles, so a
    # global monotone intensity change between epochs is already neutralized;
    # streamed: fit and score divide each tile's integer pair counts
    return GlcmCounts(quantize(r, levels), patch, offsets)


def run_detector(
    name: str,
    pair: CoregisteredPair,
    patch: int = DEFAULT_PATCH,
    levels: int = DEFAULT_LEVELS,
    offsets: tuple[tuple[int, int], ...] = DEFAULT_OFFSETS,
    ridge: float | None = None,
    fit_mask: np.ndarray | None = None,
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
    model = fit_hacd(fx, fy, ridge=ridge, fit_mask=fit_mask)
    return score_map(model, fx, fy), model
