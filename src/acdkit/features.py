"""Per-pixel feature extraction: intensities, patches, unordered-pair GLCMs.

Every extractor maps a Raster (or QuantizedRaster) to float64 vectors, one
per pixel on the same grid.  `identity_features`, `patch_features` and
`glcm_features` return a FeatureStack, which holds every vector;
`PatchWindows` holds only the padded raster and cuts the patch vectors one
row tile at a time.  Both offer ``fill(r0, r1, out)``, which is all the
HACD tile loop reads.  Borders are handled by mirror padding (reflection
without repeating the edge sample), so the output grid always equals the
input grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadOffset, BadPatchSize
from .raster import Raster

DEFAULT_PATCH = 11
DEFAULT_LEVELS = 8
DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (1, -1))


@dataclass(frozen=True, eq=False)
class FeatureStack:
    """Per-pixel feature vectors; ``data`` has shape (height, width, dim)."""

    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=np.float64)
        if a.ndim != 3 or a.shape[2] < 1:
            raise ValueError(f"feature data must be (h, w, dim), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("feature stack contains non-finite values")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def fill(self, r0: int, r1: int, out: np.ndarray) -> None:
        """Write the vectors of rows r0:r1 into ``out``, shape ((r1-r0)*width, dim)."""
        out[...] = self.data[r0:r1].reshape(-1, self.dim)


@dataclass(frozen=True, eq=False)
class QuantizedRaster:
    """Integer level map in [0, levels); ``data`` has shape (height, width)."""

    levels: int
    data: np.ndarray

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        a = np.ascontiguousarray(np.asarray(self.data, dtype=np.int32))
        if a.ndim != 2:
            raise ValueError(f"level data must be 2-D, got {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= self.levels):
            raise ValueError("level values must lie in [0, levels)")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


def identity_features(r: Raster) -> FeatureStack:
    """dim-1 stack holding each pixel's own intensity."""
    return FeatureStack(r.data.astype(np.float64)[:, :, np.newaxis])


def _check_patch(patch: int, height: int, width: int) -> int:
    if patch < 1 or patch % 2 == 0:
        raise BadPatchSize(f"patch side must be odd and >= 1, got {patch}")
    if patch > 2 * min(width, height) - 1:
        raise BadPatchSize(
            f"patch {patch} too large for {width}x{height} grid (mirror padding undefined)"
        )
    return (patch - 1) // 2


class PatchWindows:
    """Patch features that are cut from the raster one row tile at a time.

    Holds only the mirror-padded raster; ``fill`` writes the same vectors
    ``patch_features`` would hold, so fit and score can stream them
    without an O(pixels x dim) stack.
    """

    def __init__(self, r: Raster, patch: int = DEFAULT_PATCH):
        pad = _check_patch(patch, r.height, r.width)
        self.height, self.width = r.height, r.width
        self.patch = patch
        self.dim = patch * patch
        self._padded = np.pad(r.data.astype(np.float64), pad, mode="reflect")

    def fill(self, r0: int, r1: int, out: np.ndarray) -> None:
        """Write the vectors of rows r0:r1 into ``out``, shape ((r1-r0)*width, dim)."""
        p = self.patch
        # output rows r0:r1 read padded rows r0 : r1 + 2*pad
        windows = np.lib.stride_tricks.sliding_window_view(self._padded[r0 : r1 + p - 1], (p, p))
        out.reshape(r1 - r0, self.width, p, p, copy=False)[...] = windows


def patch_features(r: Raster, patch: int = DEFAULT_PATCH) -> FeatureStack:
    """Row-major flattening of the mirror-padded patch centered at each pixel."""
    windows = PatchWindows(r, patch)
    data = np.empty((r.height, r.width, windows.dim))
    windows.fill(0, r.height, data.reshape(-1, windows.dim))
    return FeatureStack(data)


def quantize(r: Raster, levels: int = DEFAULT_LEVELS) -> QuantizedRaster:
    """Equal-probability (quantile) binning of the whole raster into ``levels``.

    Level assignment is done in rank space: a pixel's level is
    floor(levels * count_less / n), capped at levels-1, where count_less is
    the number of strictly smaller pixel values in the raster.  All equal
    values share a level, the result depends only on the rank order of the
    intensities, and requantizing a level map reproduces it.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    flat = r.data.ravel()
    n = flat.size
    sorted_vals = np.sort(flat)
    count_less = np.searchsorted(sorted_vals, flat, side="left").astype(np.int64)
    lev = np.minimum(levels * count_less // n, levels - 1).astype(np.int32)
    return QuantizedRaster(levels, lev.reshape(r.data.shape))


def _window_sums(a: np.ndarray, win_h: int, win_w: int, out_h: int, out_w: int) -> np.ndarray:
    """Sum of ``a`` over every win_h x win_w window whose top-left corner is
    (r, c), for r < out_h, c < out_w, via one summed-area table.  Integer and
    boolean input is summed exactly in int64; float input in float64."""
    sat = np.zeros((a.shape[0] + 1, a.shape[1] + 1), dtype=np.result_type(a.dtype, np.int64))
    sat[1:, 1:] = a
    np.cumsum(sat, axis=0, out=sat)
    np.cumsum(sat, axis=1, out=sat)
    return (
        sat[win_h : win_h + out_h, win_w : win_w + out_w]
        - sat[win_h : win_h + out_h, :out_w]
        - sat[:out_h, win_w : win_w + out_w]
        + sat[:out_h, :out_w]
    )


def glcm_features(
    q: QuantizedRaster,
    patch: int = DEFAULT_PATCH,
    offsets: tuple[tuple[int, int], ...] = DEFAULT_OFFSETS,
) -> FeatureStack:
    """Per-pixel histogram of unordered level pairs: the symmetric gray-level
    co-occurrence matrix without its duplicate cells.

    For each pixel the mirror-padded level patch centered there is scanned
    once per offset (dy, dx): every in-patch pair (level[i, j],
    level[i+dy, j+dx]) is counted in the cell {a, b} of its two levels,
    a <= b, and the counts are summed over offsets and divided by the number
    of pairs scanned.  The L*(L+1)/2 cells are in ``np.triu_indices(L)``
    order and sum to 1.  Cell {a, b} equals the symmetric L x L matrix's
    entry (a, a) when a == b and (a, b) + (b, a) otherwise.

    Args:
        q: quantized raster with L = q.levels.
        patch: odd patch side length.
        offsets: non-empty (dy, dx) displacements, each component smaller
            than ``patch`` in magnitude.

    Raises:
        BadPatchSize: even/zero patch or patch too large for the grid.
        BadOffset: empty offset list or an offset that leaves no in-patch pairs.
    """
    pad = _check_patch(patch, q.height, q.width)
    if not offsets:
        raise BadOffset("at least one (dy, dx) offset is required")
    for dy, dx in offsets:
        if abs(dy) >= patch or abs(dx) >= patch:
            raise BadOffset(f"offset ({dy}, {dx}) does not fit in a {patch}x{patch} patch")

    lvl = q.levels
    h, w = q.height, q.width
    padded = np.pad(q.data, pad, mode="reflect") if pad else q.data

    # cell_of[a, b] = cell_of[b, a] = position of {min, max} in triu order
    upper = np.triu_indices(lvl)
    cell_of = np.zeros((lvl, lvl), dtype=np.intp)
    cell_of[upper] = cell_of[upper[::-1]] = np.arange(upper[0].size)

    # Pair counts per pixel, accumulated cell by cell.  The window of pair
    # positions for the patch at (r, c) is the (patch-|dy|) x (patch-|dx|)
    # block of the shifted-cell image whose top-left corner is (r, c), so
    # each cell reduces to one summed-area-table pass.
    out = np.zeros((h, w, upper[0].size))
    total = 0
    for dy, dx in offsets:
        r0, c0 = max(0, -dy), max(0, -dx)
        r1 = padded.shape[0] - max(0, dy)
        c1 = padded.shape[1] - max(0, dx)
        cells = cell_of[padded[r0:r1, c0:c1], padded[r0 + dy : r1 + dy, c0 + dx : c1 + dx]]
        win_h, win_w = patch - abs(dy), patch - abs(dx)
        total += win_h * win_w
        for c in np.unique(cells):
            out[:, :, c] += _window_sums(cells == c, win_h, win_w, h, w)

    # Every pixel sees the same pair geometry (mirror padding), so the
    # normalizer is the constant sum_offsets (patch-|dy|)(patch-|dx|).
    out /= float(total)
    return FeatureStack(out)
