import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit import (
    BadOffset,
    BadPatchSize,
    QuantizedRaster,
    Raster,
    glcm_features,
    identity_features,
    make_pair,
    patch_features,
    quantize,
    run_detector,
)
from acdkit.features import DEFAULT_OFFSETS, GlcmCounts, PatchWindows


def _raster(a):
    return Raster(np.asarray(a, dtype=np.float32))


def _reflect_index(i, n):
    # fold an out-of-range index back into [0, n) without repeating the edge
    period = 2 * (n - 1)
    i = abs(i) % period
    return period - i if i >= n else i


def test_identity_features():
    r = _raster([[1, 2], [3, 4]])
    fs = identity_features(r)
    assert fs.dim == 1
    assert fs.data[:, :, 0].tolist() == [[1, 2], [3, 4]]
    assert fs.data.dtype == np.float64


def test_identity_single_pixel():
    assert identity_features(_raster([[7]])).data.tolist() == [[[7.0]]]


def test_patch_one_equals_identity_bitwise():
    rng = np.random.default_rng(0)
    r = _raster(rng.normal(size=(6, 5)))
    a = patch_features(r, 1).data
    b = identity_features(r).data
    assert a.tobytes() == b.tobytes()


def test_patch_one_rows_are_views_of_the_raster():
    # no block buffer is reused at patch 1, so every row stays valid after
    # the next one is asked for, and each row's bytes are the raster row's
    r = _raster(np.random.default_rng(1).normal(size=(5, 4)))
    rows = list(PatchWindows(r, 1).rows())
    assert all(row.shape == (4, 1) and row.flags.c_contiguous for row in rows)
    # the views are read-only: a caller writing into one would change the
    # source of every later pass
    assert not any(row.flags.writeable for row in rows)
    assert np.stack(rows)[:, :, 0].tobytes() == r.data.astype(np.float64).tobytes()


@pytest.mark.parametrize("patch", [1, 3])
def test_patch_windows_hold_the_raster_in_float32(patch):
    # the padded raster stays in the raster's float32, 4 B per pixel, and at
    # patch 1, where nothing is padded, it is the raster's own array
    r = _raster(np.random.default_rng(2).normal(size=(6, 5)))
    windows = PatchWindows(r, patch).row_windows()
    assert windows.dtype == np.float32 and not windows.flags.writeable
    assert np.shares_memory(windows, r.data) == (patch == 1)


def test_patch_constant_raster():
    fs = patch_features(_raster(np.full((12, 13), 2.5)), 11)
    assert fs.dim == 121
    assert np.all(fs.data == 2.5)


def test_patch_center_is_plain_window():
    r = _raster(np.arange(1, 10).reshape(3, 3))
    fs = patch_features(r, 3)
    assert fs.data[1, 1].tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_patch_mirror_border_matches_index_oracle():
    # independent oracle: explicit reflected-index enumeration
    rng = np.random.default_rng(1)
    src = rng.normal(size=(4, 5))
    fs = patch_features(_raster(src), 5)
    src64 = src.astype(np.float32).astype(np.float64)
    for py, px in [(0, 0), (0, 4), (3, 0), (3, 4), (1, 2)]:
        expect = [
            src64[_reflect_index(py + dy, 4), _reflect_index(px + dx, 5)]
            for dy in range(-2, 3)
            for dx in range(-2, 3)
        ]
        assert fs.data[py, px].tolist() == expect


def test_patch_corner_hand_value():
    fs = patch_features(_raster(np.arange(1, 10).reshape(3, 3)), 3)
    assert fs.data[0, 0].tolist() == [5, 4, 5, 2, 1, 2, 5, 4, 5]


def test_interior_patches_copy_the_window():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(9, 9)).astype(np.float32)
    fs = patch_features(_raster(src), 5)
    win = src[2:7, 3:8].astype(np.float64).ravel()
    assert np.array_equal(fs.data[4, 5], win)


@pytest.mark.parametrize("patch", [0, 2, 4, -3])
def test_patch_rejects_even_or_nonpositive(patch):
    with pytest.raises(BadPatchSize):
        patch_features(_raster(np.zeros((5, 5))), patch)


def test_patch_rejects_oversize():
    with pytest.raises(BadPatchSize):
        patch_features(_raster(np.zeros((3, 8))), 7)  # limit is 2*3-1 = 5


def test_quantize_examples():
    assert quantize(_raster([[1, 2], [3, 4]]), 2).data.ravel().tolist() == [0, 0, 1, 1]
    assert np.all(quantize(_raster(np.ones((4, 4))), 5).data == 0)
    assert np.all(quantize(_raster([[3, 1], [2, 9]]), 1).data == 0)


def test_quantize_levels_are_balanced():
    rng = np.random.default_rng(3)
    q = quantize(_raster(rng.normal(size=(40, 40))), 8)
    counts = np.bincount(q.data.ravel(), minlength=8)
    assert counts.min() == counts.max() == 200


def test_quantize_is_rank_invariant():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(17, 23))
    q1 = quantize(_raster(vals), 6)
    q2 = quantize(_raster(np.exp(vals / 2)), 6)  # strictly monotone transform
    assert np.array_equal(q1.data, q2.data)


def test_quantize_idempotent_on_level_maps():
    rng = np.random.default_rng(5)
    q1 = quantize(_raster(rng.normal(size=(30, 30))), 7)
    q2 = quantize(_raster(q1.data.astype(np.float32)), 7)
    assert np.array_equal(q1.data, q2.data)


def test_quantize_ties_share_levels():
    q = quantize(_raster([[1, 1], [1, 2]]), 4)
    ones = q.data.ravel()[:3]
    assert len(set(ones.tolist())) == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_quantize_equals_searchsorted_count_less_property(data):
    # many ties and both signed zeros: a pixel's level comes from the number
    # of strictly smaller values, -0.0 and 0.0 being equal
    h = data.draw(st.integers(1, 12), label="h")
    w = data.draw(st.integers(1, 12), label="w")
    levels = data.draw(st.integers(1, 9), label="levels")
    value = st.one_of(st.sampled_from([-2.5, -0.0, 0.0, 0.5, 3.0]),
                      st.floats(-4, 4, width=32))
    pixels = data.draw(st.lists(value, min_size=h * w, max_size=h * w), label="pixels")
    r = _raster(np.array(pixels).reshape(h, w))
    flat = r.data.ravel()
    count_less = np.searchsorted(np.sort(flat), flat, side="left")
    expect = np.minimum(levels * count_less // flat.size, levels - 1)
    assert np.array_equal(quantize(r, levels).data.ravel(), expect)


def _glcm_reference(q, patch, offsets):
    """Symmetric L x L co-occurrence matrix per pixel, shape (h, w, L, L).

    The full-matrix extraction glcm_features used before it dropped the
    duplicate cells: ordered pair counts per code, symmetrized by adding
    the transpose and normalized by twice the number of pairs scanned.
    """
    lvl, h, w = q.levels, q.height, q.width
    pad = (patch - 1) // 2
    padded = np.pad(q.data, pad, mode="reflect") if pad else q.data
    counts = np.zeros((h, w, lvl, lvl), dtype=np.int64)
    total = 0
    for dy, dx in offsets:
        r0, c0 = max(0, -dy), max(0, -dx)
        r1 = padded.shape[0] - max(0, dy)
        c1 = padded.shape[1] - max(0, dx)
        first = padded[r0:r1, c0:c1]
        second = padded[r0 + dy : r1 + dy, c0 + dx : c1 + dx]
        codes = first.astype(np.int64) * lvl + second
        win_h, win_w = patch - abs(dy), patch - abs(dx)
        total += 2 * win_h * win_w
        for code in np.unique(codes):
            windows = np.lib.stride_tricks.sliding_window_view(codes == code, (win_h, win_w))
            hits = windows[:h, :w].sum(axis=(2, 3), dtype=np.int64)
            counts[:, :, code // lvl, code % lvl] += hits
    sym = counts + counts.transpose(0, 1, 3, 2)
    return sym.astype(np.float64) / float(total)


def _fold(m):
    # cell {a, b} of the unordered histogram, in np.triu_indices order
    a, b = np.triu_indices(m.shape[-1])
    return np.where(a == b, m[..., a, b], m[..., a, b] + m[..., b, a])


def _assert_folded_reference(q, patch, offsets):
    fs = glcm_features(q, patch, offsets)
    assert fs.dim == q.levels * (q.levels + 1) // 2
    expect = _fold(_glcm_reference(q, patch, offsets))
    assert fs.data.tobytes() == expect.tobytes()


def test_glcm_constant_patch():
    q = QuantizedRaster(2, np.zeros((5, 5), np.int32))
    fs = glcm_features(q, 3, ((0, 1),))
    assert fs.dim == 3
    assert fs.data[2, 2].tolist() == [1.0, 0.0, 0.0]


def test_glcm_checkerboard_hand_count():
    cb = np.indices((3, 3)).sum(axis=0) % 2
    q = QuantizedRaster(2, cb.astype(np.int32))
    fs = glcm_features(q, 3, ((0, 1),))
    # six horizontal pairs, each {0, 1}: all mass in cell (0, 1)
    assert fs.data[1, 1].tolist() == [0.0, 1.0, 0.0]


def test_glcm_probability_vector():
    rng = np.random.default_rng(6)
    q = QuantizedRaster(4, rng.integers(0, 4, size=(20, 20)).astype(np.int32))
    fs = glcm_features(q, 5)
    sums = fs.data.sum(axis=2)
    assert np.all(fs.data >= 0)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_glcm_symmetry():
    # the symmetric matrix folds onto its upper triangle with nothing lost,
    # and reversing every offset scans the same unordered pairs
    rng = np.random.default_rng(7)
    q = QuantizedRaster(3, rng.integers(0, 3, size=(12, 12)).astype(np.int32))
    offsets = ((0, 1), (1, 0), (2, -1))
    _assert_folded_reference(q, 5, offsets)
    reversed_ = tuple((-dy, -dx) for dy, dx in offsets)
    assert glcm_features(q, 5, reversed_).data.tobytes() == glcm_features(q, 5, offsets).data.tobytes()


# 23 levels make 276 cells, more than a uint8 cell image holds
@pytest.mark.parametrize("levels", [1, 2, 3, 8, 23])
@pytest.mark.parametrize("patch", [1, 3, 5, 11])
def test_glcm_equals_folded_reference(levels, patch):
    rng = np.random.default_rng(100 * levels + patch)
    q = QuantizedRaster(levels, rng.integers(0, levels, size=(23, 17)).astype(np.int32))
    # a 1x1 patch admits only the zero offset
    _assert_folded_reference(q, patch, DEFAULT_OFFSETS if patch > 1 else ((0, 0),))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_glcm_equals_folded_reference_property(data):
    h = data.draw(st.integers(1, 8), label="h")
    w = data.draw(st.integers(1, 8), label="w")
    levels = data.draw(st.integers(1, 5), label="levels")
    patch = data.draw(st.sampled_from(range(1, 2 * min(h, w), 2)), label="patch")
    comp = st.integers(-(patch - 1), patch - 1)
    offsets = tuple(data.draw(st.lists(st.tuples(comp, comp), min_size=1, max_size=3),
                              label="offsets"))
    cells = data.draw(st.lists(st.integers(0, levels - 1), min_size=h * w, max_size=h * w),
                      label="levels map")
    q = QuantizedRaster(levels, np.array(cells, dtype=np.int32).reshape(h, w))
    _assert_folded_reference(q, patch, offsets)


def _oracle_stack(kind, r, q, patch, offsets):
    """The whole (h, w, dim) stack of one source kind, built without rows()."""
    if kind == "identity":
        return r.data.astype(np.float64)[:, :, np.newaxis]
    if kind == "patch":
        padded = np.pad(r.data.astype(np.float64), (patch - 1) // 2, mode="reflect")
        windows = np.lib.stride_tricks.sliding_window_view(padded, (patch, patch))
        return windows.reshape(r.height, r.width, patch * patch)
    return _fold(_glcm_reference(q, patch, offsets))


@pytest.mark.parametrize("kind", ["identity", "patch", "glcm"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rows_equal_feature_stack_rows_property(kind, data):
    # heights start at the mirror-padding minimum (patch + 1) / 2, below one
    # block of patch rows, and reach three blocks with a ragged last one
    patch = data.draw(st.sampled_from([1, 3, 5, 7]), label="patch")
    h = data.draw(st.integers((patch + 1) // 2, 3 * patch + 2), label="h")
    w = data.draw(st.integers((patch + 1) // 2, 8), label="w")
    levels = data.draw(st.integers(1, 8), label="levels")
    comp = st.integers(-(patch - 1), patch - 1)
    offsets = tuple(data.draw(st.lists(st.tuples(comp, comp), min_size=1, max_size=4),
                              label="offsets"))
    cells = data.draw(st.lists(st.integers(0, levels - 1), min_size=h * w, max_size=h * w),
                      label="levels map")
    q = QuantizedRaster(levels, np.array(cells, dtype=np.int32).reshape(h, w))
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    r = _raster(np.random.default_rng(seed).normal(size=(h, w)))
    if kind == "identity":
        src = stack = identity_features(r)
    elif kind == "patch":
        src, stack = PatchWindows(r, patch), patch_features(r, patch)
    else:
        src, stack = GlcmCounts(q, patch, offsets), glcm_features(q, patch, offsets)
        assert src.dim == levels * (levels + 1) // 2
    # each row is only valid until the next one is asked for, so copy it
    rows = [np.array(row) for row in src.rows()]
    expect = _oracle_stack(kind, r, q, patch, offsets)
    assert len(rows) == h
    assert all(row.shape == (w, src.dim) for row in rows)
    assert np.stack(rows).tobytes() == expect.tobytes()
    assert stack.data.tobytes() == expect.tobytes()
    # a second pass starts afresh and yields the same bytes
    assert np.stack([np.array(row) for row in src.rows()]).tobytes() == expect.tobytes()
    if kind == "patch":
        # a column range yields those columns of every row
        c0 = data.draw(st.integers(0, w - 1), label="c0")
        c1 = data.draw(st.integers(c0 + 1, w), label="c1")
        part = np.stack([np.array(row) for row in src.rows(c0, c1)])
        assert part.tobytes() == expect[:, c0:c1].tobytes()
    if kind == "glcm":
        _assert_exact_counts(np.stack(rows), src.total)


def _assert_exact_counts(rows, total):
    """Every pixel's divided row is integer counts that sum to ``total``."""
    counts = np.rint(rows * total)
    assert np.all(counts.sum(axis=-1) == total)
    assert (counts / total).tobytes() == rows.tobytes()


def test_glcm_counts_wider_than_uint16():
    # 129x129 patch, default offsets: 2 * 129 * 128 + 2 * 128 * 128 = 65 792
    # pairs per pixel, more than uint16 holds
    rng = np.random.default_rng(11)
    q = QuantizedRaster(2, rng.integers(0, 2, size=(65, 65)).astype(np.int32))
    src = GlcmCounts(q, 129)
    assert src.total == 65792
    rows = np.stack([np.array(row) for row in src.rows()])
    _assert_exact_counts(rows, src.total)
    expect = _fold(_glcm_reference(q, 129, DEFAULT_OFFSETS))[31:34]
    assert rows[31:34].tobytes() == expect.tobytes()
    # a constant map puts every pair in cell {0, 0}
    flat = GlcmCounts(QuantizedRaster(2, np.zeros((65, 65), np.int32)), 129)
    flat_rows = np.stack([np.array(row) for row in flat.rows()])
    assert np.all(flat_rows[..., 0] * flat.total == 65792) and not flat_rows[..., 1:].any()


def test_glcm_monotone_intensity_invariance():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=(16, 16))
    f1 = glcm_features(quantize(_raster(vals), 5), 5)
    f2 = glcm_features(quantize(_raster(vals**3), 5), 5)
    assert np.array_equal(f1.data, f2.data)


def test_glcm_default_parameters():
    rng = np.random.default_rng(9)
    q = quantize(_raster(rng.normal(size=(24, 24))), 8)
    fs = glcm_features(q)
    assert fs.dim == 36


def test_glcm_bad_offset():
    q = QuantizedRaster(2, np.zeros((8, 8), np.int32))
    with pytest.raises(BadOffset):
        glcm_features(q, 3, ())
    with pytest.raises(BadOffset):
        glcm_features(q, 3, ((0, 3),))


def test_glcm_bad_patch():
    q = QuantizedRaster(2, np.zeros((8, 8), np.int32))
    with pytest.raises(BadPatchSize):
        glcm_features(q, 4)


def test_glcm_joint_covariance_rank():
    # every level pair occurs, so the only null directions of the unridged
    # joint covariance are the two epochs' sum-to-1 constraints
    rng = np.random.default_rng(10)
    t0 = rng.normal(size=(40, 40)).astype(np.float32)
    t1 = rng.normal(size=(40, 40)).astype(np.float32)
    _, model = run_detector("glcm-hacd", make_pair(Raster(t0), Raster(t1)))
    d = model.d_x + model.d_y
    assert d == 72
    cov = model.cov - model.ridge * np.eye(d)
    assert np.linalg.matrix_rank(cov, hermitian=True) == d - 2
