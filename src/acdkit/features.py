"""Per-pixel feature extraction: intensities, patches, unordered-pair GLCMs.

Every extractor maps a Raster (or QuantizedRaster) to float64 vectors, one
per pixel on the same grid.  A feature source offers ``rows()``, which
yields each output row's (width, dim) vectors in order; that is what the
HACD score reads, and the fit unless both sources are `PatchWindows` of
one size.  `FeatureStack` holds every vector.  Two streamed
sources hold less: `PatchWindows` keeps only the padded raster and yields
strided views of its windows, and `GlcmCounts` keeps the integer pair
counts and divides one row at a time.  `patch_features` and
`glcm_features` collect those rows into a FeatureStack.  Borders are
handled by mirror padding (reflection without repeating the edge sample),
so the output grid always equals the input grid.
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

    def rows(self):
        return iter(self.data)


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
    """Patch features that are read from the mirror-padded raster on demand.

    Holds only the padded raster, never an O(pixels x dim) stack.
    ``row_windows`` exposes the padded rows the patches are cut from, which
    a fit of two same-size sources reads instead of ``rows()``.
    """

    def __init__(self, r: Raster, patch: int = DEFAULT_PATCH):
        pad = _check_patch(patch, r.height, r.width)
        self.height, self.width = r.height, r.width
        self.patch = patch
        self.dim = patch * patch
        # padded before the cast: the float32 temporary is the smaller one
        self._padded = np.pad(r.data, pad, mode="reflect").astype(np.float64)

    def rows(self):
        """Yield each output row's patch vectors as a (width, p*p) strided view.

        Output rows go in blocks of p.  The windows of a block's (at most
        2p-1) padded rows are copied once, column-major, into a (width,
        2p-1, p) buffer, so pixel c's patch at block row t is the p*p
        contiguous floats ``buf[c, t:t+p]``: a view with unit inner stride,
        which BLAS reads in place.  Each padded row is copied about twice
        instead of once per patch row (p times).
        """
        h, w, p = self.height, self.width, self.patch
        windows = self.row_windows()
        buf = np.empty((w, 2 * p - 1, p))
        for r0 in range(0, h, p):
            r1 = min(r0 + p, h)
            buf[:, : r1 - r0 + p - 1] = windows[r0 : r1 + p - 1].transpose(1, 0, 2)
            for t in range(r1 - r0):
                yield buf[:, t : t + p].reshape(w, p * p, copy=False)

    def row_windows(self) -> np.ndarray:
        """Read-only (height + patch - 1, width, patch) view: [b, c, j] = padded[b, c + j].

        Patch row i of the vectors of output row r is ``row_windows()[r + i]``.
        """
        return np.lib.stride_tricks.sliding_window_view(self._padded, self.patch, axis=1)


def _stack(src) -> FeatureStack:
    """Every row of the feature source ``src``, collected into a FeatureStack."""
    data = np.empty((src.height, src.width, src.dim))
    for r, row in enumerate(src.rows()):
        data[r] = row
    return FeatureStack(data)


def patch_features(r: Raster, patch: int = DEFAULT_PATCH) -> FeatureStack:
    """Row-major flattening of the mirror-padded patch centered at each pixel."""
    return _stack(PatchWindows(r, patch))


def quantize(r: Raster, levels: int = DEFAULT_LEVELS) -> QuantizedRaster:
    """Equal-probability (quantile) binning of the whole raster into ``levels``.

    Level assignment is done in rank space: a pixel's level is
    floor(levels * count_less / n), capped at levels-1, where count_less is
    the number of strictly smaller pixel values in the raster.  All equal
    values share a level, the result depends only on the rank order of the
    intensities, and requantizing a level map reproduces it.
    """
    flat = r.data.ravel()
    n = flat.size
    sorted_vals = np.sort(flat)
    count_less = np.searchsorted(sorted_vals, flat, side="left").astype(np.int64)
    lev = np.minimum(levels * count_less // n, levels - 1).astype(np.int32)
    return QuantizedRaster(levels, lev.reshape(r.data.shape))


class GlcmCounts:
    """Unordered-pair GLCM counts that are divided into features one row at a time.

    ``counts`` holds every pixel's pair counts as unsigned integers,
    pixel-major, shape (height * width, L(L+1)/2); each pixel's counts sum
    to ``total``, the number of pairs scanned per pixel.  ``rows()`` divides
    one image row of counts by ``total`` into a reused buffer, which gives
    the vectors ``glcm_features`` holds bit for bit without a float64
    stack.  See ``glcm_features`` for the cells and the arguments.
    """

    def __init__(
        self,
        q: QuantizedRaster,
        patch: int = DEFAULT_PATCH,
        offsets: tuple[tuple[int, int], ...] = DEFAULT_OFFSETS,
    ):
        pad = _check_patch(patch, q.height, q.width)
        if not offsets:
            raise BadOffset("at least one (dy, dx) offset is required")
        for dy, dx in offsets:
            if abs(dy) >= patch or abs(dx) >= patch:
                raise BadOffset(f"offset ({dy}, {dx}) does not fit in a {patch}x{patch} patch")

        lvl = q.levels
        h, w = self.height, self.width = q.height, q.width
        self.dim = lvl * (lvl + 1) // 2
        # Every pixel sees the same pair geometry (mirror padding), so each
        # pixel scans the constant sum_offsets (patch-|dy|)(patch-|dx|) pairs,
        # and no count can exceed it: uint16 unless that does not hold it.
        self.total = sum((patch - abs(dy)) * (patch - abs(dx)) for dy, dx in offsets)
        dtype = np.promote_types(np.min_scalar_type(self.total), np.uint16)
        padded = np.pad(q.data, pad, mode="reflect") if pad else q.data

        # cell_of[a, b] = cell_of[b, a] = position of {min, max} in triu order
        upper = np.triu_indices(lvl)
        cell_of = np.zeros((lvl, lvl), dtype=np.intp)
        cell_of[upper] = cell_of[upper[::-1]] = np.arange(self.dim)

        # The pairs counted for the patch at (r, c) under offset (dy, dx) are
        # the (patch-|dy|) x (patch-|dx|) block of that offset's cell image
        # whose top-left corner is (r, c).  So each offset's one-hot cell
        # image becomes one pixel-major summed-area table, and four corners
        # of it give every pixel's block counts for all cells at once.  The
        # table is kept in the count dtype: its entries wrap, but sums and
        # differences are exact modulo 2**bits and every block count is at
        # most total, so the corners come out exact.
        ph, pw = padded.shape
        table = np.empty((ph + 1, pw + 1, self.dim), dtype)
        counts = np.zeros((h, w, self.dim), dtype)
        for dy, dx in offsets:
            r0, c0 = max(0, -dy), max(0, -dx)
            r1, c1 = ph - max(0, dy), pw - max(0, dx)
            cells = cell_of[padded[r0:r1, c0:c1], padded[r0 + dy : r1 + dy, c0 + dx : c1 + dx]]
            win_h, win_w = patch - abs(dy), patch - abs(dx)
            ch, cw = cells.shape  # h + win_h - 1, w + win_w - 1
            table.fill(0)
            np.put_along_axis(table[1 : ch + 1, 1 : cw + 1], cells[:, :, np.newaxis], 1, axis=2)
            # row by row and column by column: np.cumsum along either leading
            # axis of this 3-D table is several times slower
            for i in range(2, ch + 1):
                table[i] += table[i - 1]
            for j in range(2, cw + 1):
                table[: ch + 1, j] += table[: ch + 1, j - 1]
            counts += table[win_h : win_h + h, win_w : win_w + w]
            counts -= table[win_h : win_h + h, :w]
            counts -= table[:h, win_w : win_w + w]
            counts += table[:h, :w]
        self.counts = counts.reshape(h * w, self.dim)
        self.counts.setflags(write=False)

    def rows(self):
        buf = np.empty((self.width, self.dim))
        for row in self.counts.reshape(self.height, self.width, self.dim):
            np.divide(row, float(self.total), out=buf)
            yield buf


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
    return _stack(GlcmCounts(q, patch, offsets))
