import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import acdkit.features
import acdkit.hacd
import acdkit.threads
from acdkit import (
    DETECTOR_NAMES,
    DimensionMismatch,
    FeatureStack,
    FormatError,
    GridMismatch,
    HacdModel,
    Raster,
    SingularCovariance,
    diff_score,
    fit_hacd,
    glcm_features,
    hacd_score,
    identity_features,
    load_model,
    make_pair,
    patch_features,
    quantize,
    run_detector,
    save_model,
    score_map,
)
from acdkit.features import DEFAULT_PATCH, GlcmCounts, PatchWindows
from acdkit.threads import (
    FIT_TILE_WIDTH,
    SCORE_TILE_WIDTH,
    fit_tiles,
    one_blas_thread,
    score_tiles,
)


def _stack(a):
    return FeatureStack(np.asarray(a, dtype=np.float64))


def _random_model(rng, dx, dy, scale=1.0):
    d = dx + dy
    a = rng.normal(size=(d, d))
    cov = a @ a.T + d * np.eye(d)
    return HacdModel.from_covariance(rng.normal(size=dx), rng.normal(size=dy), scale * cov)


def density_ratio_oracle(m, x, y):
    """Direct evaluation of -log(P12 / (P1 * P2)) from the three densities."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    z = np.concatenate([x, y])
    p12 = multivariate_normal.pdf(z, mean=np.concatenate([m.mean_x, m.mean_y]), cov=m.cov)
    p1 = multivariate_normal.pdf(x, mean=m.mean_x, cov=m.cov[:m.d_x, :m.d_x])
    p2 = multivariate_normal.pdf(y, mean=m.mean_y, cov=m.cov[m.d_x:, m.d_x:])
    return float(-np.log(p12 / (p1 * p2)))


def test_hand_value_at_the_means():
    m = HacdModel.from_covariance([0.0], [0.0], [[1.0, 0.5], [0.5, 1.0]])
    got = hacd_score(m, [0.0], [0.0])
    assert got == pytest.approx(0.5 * math.log(0.75), abs=1e-12)
    assert got == pytest.approx(-0.143841, abs=5e-7)


def test_hand_value_off_the_means():
    m = HacdModel.from_covariance([0.0], [0.0], [[1.0, 0.5], [0.5, 1.0]])
    got = hacd_score(m, [2.0], [-2.0])
    assert abs(got - density_ratio_oracle(m, 2.0, -2.0)) <= 1e-9


def test_oracle_equivalence_random_models():
    rng = np.random.default_rng(11)
    for dx, dy in [(1, 1), (2, 2), (1, 2)]:
        for _ in range(50):
            m = _random_model(rng, dx, dy)
            x = rng.normal(size=dx) * 2
            y = rng.normal(size=dy) * 2
            assert abs(hacd_score(m, x, y) - density_ratio_oracle(m, x, y)) <= 1e-9


def test_independent_model_scores_zero():
    rng = np.random.default_rng(12)
    cov = np.zeros((4, 4))
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2))
    cov[:2, :2] = a @ a.T + 2 * np.eye(2)
    cov[2:, 2:] = b @ b.T + 2 * np.eye(2)
    m = HacdModel.from_covariance(rng.normal(size=2), rng.normal(size=2), cov)
    assert np.max(m.rho) <= 1e-10
    assert abs(m.log_det_const) <= 1e-10
    for _ in range(200):
        assert abs(hacd_score(m, rng.normal(size=2), rng.normal(size=2))) <= 1e-10


def test_fit_matches_two_pass_covariance_oracle():
    rng = np.random.default_rng(13)
    n = 40_000
    x = rng.normal(size=n)
    y = 0.5 * x + math.sqrt(0.75) * rng.normal(size=n)
    fx = _stack(x.reshape(200, 200, 1))
    fy = _stack(y.reshape(200, 200, 1))
    m = fit_hacd(fx, fy, ridge=0.0)

    # independent two-pass oracle over the stacked samples
    z = np.stack([x, y], axis=1)
    mean = z.mean(axis=0)
    centered = z - mean
    cov = centered.T @ centered / n
    assert np.allclose(m.cov, cov, atol=1e-12)
    assert np.allclose(np.concatenate([m.mean_x, m.mean_y]), mean, atol=1e-12)
    # and the fitted values are near the generating parameters
    assert m.cov[0, 1] == pytest.approx(0.5, abs=0.02)
    assert m.cov[0, 0] == pytest.approx(1.0, abs=0.03)


def test_fit_independent_features_gives_vanishing_correlations():
    rng = np.random.default_rng(14)
    norms = []
    for n_side in (20, 60, 180):
        x = rng.normal(size=(n_side, n_side, 1))
        y = rng.normal(size=(n_side, n_side, 1))
        m = fit_hacd(_stack(x), _stack(y), ridge=0.0)
        norms.append(np.max(m.rho))
    assert norms[2] < norms[0]
    assert norms[2] < 0.05


def test_rank_deficient_needs_ridge():
    # 4 pixels, joint dimension 6: singular without regularization
    rng = np.random.default_rng(15)
    fx = _stack(rng.normal(size=(2, 2, 3)))
    fy = _stack(rng.normal(size=(2, 2, 3)))
    with pytest.raises(SingularCovariance):
        fit_hacd(fx, fy, ridge=0.0)
    m = fit_hacd(fx, fy, ridge=1e-3)
    assert np.all(np.isfinite(m.canon_x)) and np.all(np.isfinite(m.canon_y))
    assert np.max(m.rho) < 1.0


def test_perfectly_correlated_epochs_raise():
    # the joint Cholesky passes, but the canonical correlation rounds to 1
    eps = 3e-16
    with pytest.raises(SingularCovariance, match="perfectly correlated"):
        HacdModel([0.0], [0.0], np.array([[1 + eps, 1.0], [1.0, 1 + eps]]))


def test_default_ridge_is_trace_scaled():
    rng = np.random.default_rng(16)
    fx = _stack(rng.normal(size=(40, 40, 2)))
    fy = _stack(rng.normal(size=(40, 40, 2)))
    m = fit_hacd(fx, fy)
    assert m.ridge == pytest.approx(1e-6 * np.trace(m.cov - m.ridge * np.eye(4)) / 4, rel=1e-6)


def test_mean_shift_invariance():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(30, 30, 2))
    y = rng.normal(size=(30, 30, 2)) + 0.4 * x
    m1 = fit_hacd(_stack(x), _stack(y), ridge=0.0)
    s1 = score_map(m1, _stack(x), _stack(y)).scores
    shifted = x + np.array([3.0, -7.0])
    m2 = fit_hacd(_stack(shifted), _stack(y), ridge=0.0)
    s2 = score_map(m2, _stack(shifted), _stack(y)).scores
    assert np.max(np.abs(s1 - s2)) <= 1e-8


def test_invertible_feature_map_invariance():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(24, 24, 3))
    y = rng.normal(size=(24, 24, 3)) + 0.3 * x
    m1 = fit_hacd(_stack(x), _stack(y), ridge=0.0)
    s1 = score_map(m1, _stack(x), _stack(y)).scores
    a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    xa = x @ a.T
    m2 = fit_hacd(_stack(xa), _stack(y), ridge=0.0)
    s2 = score_map(m2, _stack(xa), _stack(y)).scores
    assert np.max(np.abs(s1 - s2)) <= 1e-6 * max(1.0, np.max(np.abs(s1)))


def test_score_map_matches_pointwise_scores():
    rng = np.random.default_rng(20)
    m = _random_model(rng, 2, 2)
    x = rng.normal(size=(3, 4, 2))
    y = rng.normal(size=(3, 4, 2))
    amap = score_map(m, _stack(x), _stack(y))
    assert amap.scores.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            assert amap.scores[i, j] == pytest.approx(hacd_score(m, x[i, j], y[i, j]), abs=1e-12)


def test_score_map_single_pixel():
    rng = np.random.default_rng(21)
    m = _random_model(rng, 1, 1)
    amap = score_map(m, _stack([[[0.3]]]), _stack([[[-0.2]]]))
    assert amap.scores[0, 0] == pytest.approx(hacd_score(m, [0.3], [-0.2]), abs=1e-12)


def test_score_map_grid_and_dim_checks():
    rng = np.random.default_rng(22)
    m = _random_model(rng, 1, 1)
    with pytest.raises(GridMismatch):
        score_map(m, _stack(np.zeros((2, 2, 1))), _stack(np.zeros((3, 2, 1))))
    with pytest.raises(DimensionMismatch):
        score_map(m, _stack(np.zeros((2, 2, 2))), _stack(np.zeros((2, 2, 1))))
    with pytest.raises(DimensionMismatch):
        hacd_score(m, [1.0, 2.0], [0.0])


def test_fit_grid_mismatch():
    with pytest.raises(GridMismatch):
        fit_hacd(_stack(np.zeros((2, 2, 1))), _stack(np.zeros((2, 3, 1))))


def test_model_rejects_asymmetric_covariance():
    with pytest.raises(SingularCovariance):
        HacdModel([0.0], [0.0], np.array([[1.0, 0.3], [0.1, 1.0]]))


def test_diff_score_values_and_symmetry():
    t0 = Raster(np.array([[1, 2]], np.float32))
    t1 = Raster(np.array([[3, 1]], np.float32))
    d = diff_score(make_pair(t0, t1))
    assert d.scores.tolist() == [[2, 1]]
    d_swapped = diff_score(make_pair(t1, t0))
    assert np.array_equal(d.scores, d_swapped.scores)
    assert np.all(d.scores >= 0)


def test_diff_identical_images_is_zero():
    r = Raster(np.arange(6, dtype=np.float32).reshape(2, 3))
    assert np.all(diff_score(make_pair(r, r)).scores == 0)


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    m = _random_model(rng, 2, 1)
    path = str(tmp_path / "model.json")
    save_model(m, path)
    back = load_model(path)
    assert np.array_equal(back.cov, m.cov)
    assert np.array_equal(back.mean_x, m.mean_x)
    assert back.ridge == m.ridge
    x, y = rng.normal(size=2), rng.normal(size=1)
    assert hacd_score(back, x, y) == hacd_score(m, x, y)


def _one_dumps(m: HacdModel) -> str:
    """save_model's document as one json.dumps call, the reference bytes."""
    doc = {"d_x": m.d_x, "d_y": m.d_y, "mean_x": m.mean_x.tolist(),
           "mean_y": m.mean_y.tolist(), "cov": m.cov.ravel().tolist(), "ridge": m.ridge}
    return json.dumps(doc, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("dims", [(1, 2), (3, 1)])
def test_save_model_streams_the_bytes_of_one_json_dumps(tmp_path, dims):
    dx, dy = dims
    d = dx + dy
    edges = [-0.0, 5e-324, 1e300]
    cov = 2.0 * np.eye(d)
    cov[0, 0] = 1e300
    cov[0, 1] = cov[1, 0] = -0.0
    cov[1, 2] = cov[2, 1] = 5e-324
    m = HacdModel(np.array((edges * 2)[:dx]), np.array(edges[::-1][:dy]), cov, ridge=0.5)
    path = tmp_path / "model.json"
    save_model(m, str(path))
    text = path.read_text()
    assert text == _one_dumps(m)
    assert all(repr(v) in text for v in edges)


def test_save_model_transient_does_not_grow_with_d_squared(tmp_path, traced_peak):
    # the covariance is formatted one row at a time: about 47 KB at d = 242
    # (one row's floats and text, the file buffer), where the document built
    # whole took 7.2 MB
    rng = np.random.default_rng(5)
    m = _random_model(rng, 121, 121)
    path = tmp_path / "model.json"
    _, peak = traced_peak(save_model, m, str(path))
    assert path.read_text() == _one_dumps(m)
    assert peak <= 1024 * (m.d_x + m.d_y)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
    # up to the float64 overflow edge: entries above half the range
    # (about 9e307) overflow when the covariance is symmetrised
    scale=st.one_of(st.sampled_from([1e-300, 1.0, 1e300, 8.9e307, 8.99e307, 9e307, 1.7e308]),
                    st.floats(1e-300, 1.79e308)),
    asymmetry=st.sampled_from([0.0, 1e-13]),
    mean=_finite,
    ridge=_finite,
)
def test_a_model_that_constructs_survives_save_and_load(
        tmp_path_factory, dims, seed, scale, asymmetry, mean, ridge):
    dx, dy = dims
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dx + dy, dx + dy))
    cov = a @ a.T + np.eye(dx + dy)
    cov = cov / np.abs(cov).max() * (1.0 - asymmetry)
    cov[0, -1] += asymmetry  # within the symmetry tolerance; symmetrising rounds it
    try:
        m = HacdModel(np.full(dx, mean), rng.normal(size=dy), cov * scale, ridge=ridge)
    except SingularCovariance:
        return
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    save_model(m, path)
    back = load_model(path)
    for name in ("mean_x", "mean_y", "cov"):
        assert getattr(back, name).tobytes() == getattr(m, name).tobytes(), name
    assert np.float64(back.ridge).tobytes() == np.float64(m.ridge).tobytes()


@pytest.mark.parametrize("edit", [
    None,
    lambda doc: doc.pop("ridge"),
    lambda doc: doc["cov"].pop(),
    lambda doc: (doc["mean_x"].pop(), doc["mean_y"].append(0.0)),
    lambda doc: doc["cov"].__setitem__(0, float("nan")),
    lambda doc: doc.__setitem__("ridge", float("nan")),
    lambda doc: doc.__setitem__("d_y", True),
    lambda doc: doc.__setitem__("d_y", "1"),
    lambda doc: doc.__setitem__("d_x", 2.5),
], ids=["truncated", "missing-key", "cov-length", "mean-length", "nan-cov", "nan-ridge",
        "bool-dim", "string-dim", "fraction-dim"])
def test_bad_model_file_is_format_error(tmp_path, edit):
    path = tmp_path / "model.json"
    save_model(_random_model(np.random.default_rng(23), 2, 1), str(path))
    text = path.read_text(encoding="utf-8")
    if edit is None:
        text = text[: len(text) // 2]
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_model(str(path))


@pytest.mark.parametrize("mean_x,cov", [
    ([0.0], [[np.nan, 0.0], [0.0, 1.0]]),
    ([0.0], [[np.inf, 0.0], [0.0, 1.0]]),
    ([0.0], [[1.0, -np.inf], [-np.inf, 1.0]]),
    ([np.nan], [[1.0, 0.0], [0.0, 1.0]]),
], ids=["nan-cov", "inf-cov", "minus-inf-cov", "nan-mean"])
def test_non_finite_model_is_singular_covariance(mean_x, cov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularCovariance, match="non-finite"):
            HacdModel(np.array(mean_x), np.zeros(1), np.array(cov))


@pytest.mark.parametrize("build,ridge", [
    (HacdModel.from_covariance, np.inf),
    (HacdModel.from_covariance, -np.inf),
    (HacdModel.from_covariance, np.nan),
    (HacdModel, np.inf),
    (HacdModel, -np.inf),
    (HacdModel, np.nan),
], ids=["inf", "-inf", "nan", "direct-inf", "direct--inf", "direct-nan"])
def test_non_finite_ridge_is_singular_covariance(build, ridge):
    # a model built directly must refuse it too: save_model would write a
    # bare NaN, which is not JSON, and load_model would refuse the file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularCovariance, match="ridge"):
            build(np.zeros(1), np.zeros(1), np.eye(2), ridge=ridge)


def test_scoring_is_deterministic_across_calls():
    rng = np.random.default_rng(24)
    m = _random_model(rng, 3, 3)
    x = _stack(rng.normal(size=(50, 40, 3)))
    y = _stack(rng.normal(size=(50, 40, 3)))
    a = score_map(m, x, y).scores
    b = score_map(m, x, y).scores
    assert a.tobytes() == b.tobytes()


# --- streamed tile loop against the materialised reference -----------------

def _textured_pair(height, width, seed=30):
    rng = np.random.default_rng(seed)
    t0 = rng.gamma(4.0, size=(height, width)).astype(np.float32)
    t1 = (0.8 * t0 + rng.normal(scale=0.3, size=(height, width))).astype(np.float32)
    return make_pair(Raster(t0), Raster(t1))


def _explicit_q_scores(cov, mean, d_x, z):
    """0.5 * (z - mean)' Q (z - mean) + k for each row of z, with Q and k
    built from the covariance by explicit inverses and determinants."""
    cov = np.asarray(cov)
    q = np.linalg.inv(cov)
    q[:d_x, :d_x] -= np.linalg.inv(cov[:d_x, :d_x])
    q[d_x:, d_x:] -= np.linalg.inv(cov[d_x:, d_x:])
    logdet = [np.linalg.slogdet(c)[1] for c in (cov, cov[:d_x, :d_x], cov[d_x:, d_x:])]
    zc = z - mean
    return 0.5 * np.einsum("nd,nd->n", zc @ q, zc) + 0.5 * (logdet[0] - logdet[1] - logdet[2])


def _reference_run(name, pair, patch, levels):
    """Build both full stacks, fit with two passes over the concatenated
    vectors and score every pixel in one block with the explicit Q form."""
    if name == "diff":
        return np.abs(pair.t1.data.astype(np.float64) - pair.t0.data.astype(np.float64))
    extract = {
        "hacd": identity_features,
        "patch-hacd": lambda r: patch_features(r, patch),
        "glcm-hacd": lambda r: glcm_features(quantize(r, levels), patch),
    }[name]
    fx, fy = extract(pair.t0), extract(pair.t1)
    z = np.concatenate([fx.data.reshape(-1, fx.dim), fy.data.reshape(-1, fy.dim)], axis=1)
    mean = z.mean(axis=0)
    centered = z - mean
    cov = centered.T @ centered / z.shape[0]
    cov += acdkit.hacd.DEFAULT_RIDGE_SCALE * np.trace(cov) / z.shape[1] * np.eye(z.shape[1])
    s = _explicit_q_scores(cov, mean, fx.dim, z)
    return s.reshape(pair.t0.height, pair.t0.width)


def _assert_close_scores(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("name", DETECTOR_NAMES)
@pytest.mark.parametrize(
    "shape",
    [
        # explicit ids: the ids these cases had when they also set a tile size
        pytest.param((23, 17), id="shape0-88"),  # four blocks of 5 patch rows and a ragged one
        pytest.param((3, 1000), id="shape1-None"),  # wide, and fewer rows than one patch
    ],
)
def test_streamed_detector_matches_materialised_reference(name, shape):
    height, width = shape
    pair = _textured_pair(height, width)
    amap, _ = run_detector(name, pair, patch=5, levels=4)
    _assert_close_scores(amap.scores, _reference_run(name, pair, 5, 4))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 12),
    width=st.integers(1, 9),
    dx=st.integers(1, 3),
    dy=st.integers(1, 3),
    spread=st.booleans(),
    zero_rows=st.integers(0, 2),
)
def test_merged_tile_moments_match_numpy_cov(seed, height, width, dx, dy, spread, zero_rows):
    # a large offset is where a naive sum-of-squares update loses digits; with
    # spread, x and y sit at opposite offsets that also differ by coordinate,
    # which only a per-coordinate shift takes out.  Zero-filled (no-data)
    # leading rows of a 100x taller grid leave a first row unlike the rest;
    # raw sums about its mean lose about height * 1e-16 of the covariance,
    # which is then about 1e8 / height, so the tolerance is 1e-13 of it
    rng = np.random.default_rng(seed)
    if zero_rows:
        height *= 100
    off_x, off_y = 1e4, 1e4
    if spread:
        off_x, off_y = 1e4 + 1e3 * np.arange(dx), -1e4 - 1e3 * np.arange(dy)
    x = off_x + rng.normal(size=(height, width, dx))
    y = off_y + rng.normal(size=(height, width, dy)) + 0.5 * x[:, :, :1]
    x[:zero_rows], y[:zero_rows] = 0.0, 0.0
    m = fit_hacd(_stack(x), _stack(y), ridge=1.0)
    z = np.concatenate([x.reshape(-1, dx), y.reshape(-1, dy)], axis=1)
    np.testing.assert_allclose(
        np.concatenate([m.mean_x, m.mean_y]), z.mean(axis=0), rtol=1e-12, atol=0
    )
    want = np.atleast_2d(np.cov(z, rowvar=False, bias=True))
    atol = 1e-13 * np.abs(want).max() if zero_rows else 1e-12
    np.testing.assert_allclose(m.cov - np.eye(dx + dy), want, rtol=0, atol=atol)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 9),
    width=st.integers(1, 7),
    dx=st.integers(1, 4),
    dy=st.integers(1, 4),
)
def test_canonical_scores_match_explicit_q_form(seed, height, width, dx, dy):
    rng = np.random.default_rng(seed)
    d = dx + dy
    a = rng.normal(size=(d, d))
    cov = a @ a.T + 0.1 * d * np.eye(d)
    mean = rng.normal(size=d)
    m = HacdModel(mean[:dx], mean[dx:], cov)
    z = mean + 3.0 * rng.normal(size=(height * width, d))
    want = _explicit_q_scores(cov, mean, dx, z)
    got = score_map(m, _stack(z[:, :dx].reshape(height, width, dx)),
                    _stack(z[:, dx:].reshape(height, width, dy))).scores.ravel()
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-9 * scale
    for i in (0, z.shape[0] - 1):
        assert abs(hacd_score(m, z[i, :dx], z[i, dx:]) - want[i]) <= 1e-9 * scale


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    patch=st.sampled_from([1, 3, 5, 7]),
    extra=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    offset=st.sampled_from([0.0, 1e4]),
    zero_rows=st.integers(0, 5),
)
def test_row_gram_patch_moments_match_numpy_cov(seed, patch, extra, offset, zero_rows):
    # grids start at the mirror-padding minimum (patch + 1) / 2, so height <
    # patch occurs, where the rows that end some blocks' sums come before
    # the rows that start others.  Zero-filled (no-data) leading rows of a
    # 100x taller grid at offset 1e4 make the first padded rows unlike the
    # rest; the covariance is then about 1e8 / height and the tolerance 1e-13
    # of it
    height, width = ((patch + 1) // 2 + e for e in extra)
    rng = np.random.default_rng(seed)
    if zero_rows:
        height, offset = height * 100, 1e4
    t0 = offset + rng.normal(size=(height, width))
    t1 = offset + rng.normal(size=(height, width)) + 0.5 * t0
    t0[:zero_rows], t1[:zero_rows] = 0.0, 0.0
    r0, r1 = Raster(t0.astype(np.float32)), Raster(t1.astype(np.float32))
    m = fit_hacd(PatchWindows(r0, patch), PatchWindows(r1, patch), ridge=1.0)
    z = np.concatenate([patch_features(r, patch).data.reshape(height * width, -1)
                        for r in (r0, r1)], axis=1)
    np.testing.assert_allclose(
        np.concatenate([m.mean_x, m.mean_y]), z.mean(axis=0), rtol=1e-12, atol=1e-12
    )
    want = np.atleast_2d(np.cov(z, rowvar=False, bias=True))
    atol = 1e-13 * np.abs(want).max() if zero_rows else 1e-12
    np.testing.assert_allclose(m.cov - np.eye(z.shape[1]), want, rtol=0, atol=atol)


def test_row_gram_fit_matches_tile_loop_fit():
    # one moment routine, two feeds: the detector's PatchWindows pass their
    # padded-row windows, the patch_features stacks their rows
    pair = _textured_pair(61, 47, seed=35)
    rows, rows_model = run_detector("patch-hacd", pair)
    x, y = (patch_features(r, DEFAULT_PATCH) for r in (pair.t0, pair.t1))
    tiled_model = fit_hacd(x, y)
    tiled = score_map(tiled_model, x, y)
    for got, want in ((rows_model.mean_x, tiled_model.mean_x),
                      (rows_model.mean_y, tiled_model.mean_y),
                      (rows_model.cov, tiled_model.cov)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert rows_model.ridge == pytest.approx(tiled_model.ridge, rel=1e-12)
    _assert_close_scores(rows.scores, tiled.scores)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    patch=st.sampled_from([1, 3, 5, 7]),
    extra_rows=st.integers(0, 30),
    extra_cols=st.integers(0, 6),
)
def test_patch_window_scores_match_stack_scores(seed, patch, extra_rows, extra_cols):
    # heights start at the mirror-padding minimum (patch + 1) / 2, below the
    # patch and so below one block of patch rows, and reach several blocks
    # with a ragged last one
    height = (patch + 1) // 2 + extra_rows
    width = (patch + 1) // 2 + extra_cols
    pair = _textured_pair(height, width, seed=seed)
    x, y = PatchWindows(pair.t0, patch), PatchWindows(pair.t1, patch)
    m = fit_hacd(x, y, ridge=1.0)
    want = score_map(m, patch_features(pair.t0, patch), patch_features(pair.t1, patch))
    _assert_close_scores(score_map(m, x, y).scores, want.scores)


def test_unmasked_patch_detector_cuts_no_patches(monkeypatch):
    def refuse(src):
        raise AssertionError("a feature stack was built")

    pair = _textured_pair(40, 23, seed=36)
    want = _reference_run("patch-hacd", pair, 5, 4)
    monkeypatch.setattr(acdkit.features, "_stack", refuse)
    amap, _ = run_detector("patch-hacd", pair, patch=5)
    _assert_close_scores(amap.scores, want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    patch=st.sampled_from([3, 5, 7, 9, 11]),
    extra_rows=st.integers(0, 12),
    # below, at and above one tile; above it the last tile is ragged
    # unless the width is a multiple of the tile
    width=st.one_of(st.integers(6, SCORE_TILE_WIDTH - 1), st.just(SCORE_TILE_WIDTH),
                    st.integers(SCORE_TILE_WIDTH + 1, 3 * SCORE_TILE_WIDTH)),
)
def test_column_tile_scores_do_not_depend_on_tile_threads(seed, patch, extra_rows, width):
    height = (patch + 1) // 2 + extra_rows
    pair = _textured_pair(height, width, seed=seed)
    x, y = PatchWindows(pair.t0, patch), PatchWindows(pair.t1, patch)
    m = fit_hacd(x, y, ridge=1.0)
    score = acdkit.hacd._scorer(m)
    got = {}
    with one_blas_thread():
        for threads in (1, 2):
            got[threads] = np.empty((height, width))
            score_tiles(score, x, y, got[threads], threads)
    assert got[1].tobytes() == got[2].tobytes()
    want = score_map(m, patch_features(pair.t0, patch), patch_features(pair.t1, patch))
    _assert_close_scores(got[1], want.scores)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    patch=st.sampled_from([1, 3, 5]),
    extra_rows=st.integers(0, 6),
    # below, at and above one tile of 8 columns; above it the last tile is
    # ragged unless the width is a multiple of 8
    width=st.one_of(st.integers(3, 7), st.just(8), st.integers(9, 30)),
)
def test_merged_fit_tiles_match_one_untiled_pass(seed, patch, extra_rows, width):
    # a common offset of 1e4 is where a naive merge of raw sums loses digits
    height = (patch + 1) // 2 + extra_rows
    rng = np.random.default_rng(seed)
    t0 = 1e4 + rng.normal(size=(height, width))
    t1 = 1e4 + rng.normal(size=(height, width)) + 0.5 * t0
    x, y = (PatchWindows(Raster(t.astype(np.float32)), patch) for t in (t0, t1))
    want_mean, want_cov = acdkit.hacd._moments(
        x.row_windows(), y.row_windows(), patch, height, width)
    with mock.patch.object(acdkit.threads, "FIT_TILE_WIDTH", 8):
        mean, cov = fit_tiles(acdkit.hacd._moments, x, y, 2)
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=0)
    assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    patch=st.sampled_from([3, 5, 11]),
    extra_rows=st.integers(0, 8),
    width=st.one_of(st.integers(6, FIT_TILE_WIDTH - 1), st.just(FIT_TILE_WIDTH),
                    st.integers(FIT_TILE_WIDTH + 1, 3 * FIT_TILE_WIDTH)),
)
def test_column_tile_fit_does_not_depend_on_tile_threads(seed, patch, extra_rows, width):
    pair = _textured_pair((patch + 1) // 2 + extra_rows, width, seed=seed)
    x, y = PatchWindows(pair.t0, patch), PatchWindows(pair.t1, patch)
    with one_blas_thread():
        got = [fit_tiles(acdkit.hacd._moments, x, y, threads) for threads in (1, 2, 3)]
    for mean, cov in got[1:]:
        assert (mean.tobytes(), cov.tobytes()) == (got[0][0].tobytes(), got[0][1].tobytes())


def _tiled_case(seed):
    """(model, x, y) of a patch-3 pair three score tiles and two fit tiles
    wide, the last one ragged."""
    pair = _textured_pair(9, 2 * SCORE_TILE_WIDTH + 88, seed=seed)
    x, y = PatchWindows(pair.t0, 3), PatchWindows(pair.t1, 3)
    return fit_hacd(x, y, ridge=1.0), x, y


@pytest.mark.parametrize("in_caller", [True, False], ids=["caller-raises", "other-raises"])
def test_score_pins_blas_to_one_thread_and_restores_it(monkeypatch, assert_task_count,
                                                       in_caller):
    # a silent fallback would only cost speed, so finding NumPy's OpenBLAS
    # is asserted; the count is set to 2 so that the pin changes it even
    # where the process started at one thread
    calls = acdkit.threads._blas()
    assert calls is not None, "NumPy's OpenBLAS thread calls were not found"
    get, set_, _ = calls
    before = get()
    set_(2)
    try:
        with one_blas_thread() as threads:
            assert (threads, get()) == (2, 1)
            with one_blas_thread() as inner:
                assert (inner, get()) == (2, 1)
            assert get() == 1
        assert get() == 2
        # a product on two threads starts the pool; leaving a pin stops it,
        # so that no pool thread spins on
        tasks = len(os.listdir("/proc/self/task"))
        np.ones((400, 400)) @ np.ones((400, 400))
        assert_task_count(tasks + 1)
        with one_blas_thread():
            pass
        assert_task_count(tasks)

        # one thread's first tile raises while the other still has rows to
        # score or sum, which the call must wait for; the pair is two fit
        # tiles wide.  A GlcmCounts fit sums on the calling thread alone
        m, x, y = _tiled_case(seed=38)
        assert SCORE_TILE_WIDTH < FIT_TILE_WIDTH < x.width
        pair = _textured_pair(9, 40, seed=38)
        glcm = [GlcmCounts(quantize(r, 4), 3) for r in (pair.t0, pair.t1)]
        caller, raised, counts = threading.get_ident(), threading.Event(), set()

        def failing(f, anywhere=False):
            def call(*args):
                counts.add(get())
                if anywhere or (threading.get_ident() == caller) == in_caller:
                    raised.set()
                    raise ValueError("a tile failed")
                raised.wait(timeout=30)
                time.sleep(0.01)
                return f(*args)
            return call

        scorer, moments = acdkit.hacd._scorer, acdkit.hacd._moments
        for name, fake, run in [
            ("_scorer", lambda model: failing(scorer(model)), lambda: score_map(m, x, y)),
            ("_moments", failing(moments), lambda: fit_hacd(x, y)),
            ("_moments", failing(moments, anywhere=True), lambda: fit_hacd(*glcm)),
        ]:
            raised.clear()
            alive = threading.active_count()
            with monkeypatch.context() as patched:
                patched.setattr(acdkit.hacd, name, fake)
                with pytest.raises(ValueError, match="a tile failed"):
                    run()
            assert get() == 2
            assert threading.active_count() == alive
        assert counts == {1}
    finally:
        set_(before)


def test_concurrent_pins_keep_one_thread_and_restore_the_count():
    # more threads than cores, switching often: a lost update of the pin's
    # depth would restore the count inside another thread's scope, or leave
    # it at one afterwards
    get = acdkit.threads._blas()[0]
    before, seen = get(), []

    def enter_and_leave():
        for _ in range(2000):
            with one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert len(seen) == 8 * 2000 and set(seen) == {1}
    assert (get(), acdkit.threads._depth) == (before, 0)


def test_building_a_model_leaves_the_blas_threads_alone(src_env, assert_task_count):
    # only the calls that run a detector's BLAS pin it: a model built
    # directly neither loads acdkit.threads nor stops the pool that a
    # two-thread product started
    code = ("import sys, acdkit\n"
            "acdkit.HacdModel.from_covariance([0.0], [0.0], [[1.0, 0.5], [0.5, 1.0]])\n"
            "print('acdkit.threads' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True,
                           text=True, check=True)
    assert child.stdout == "False\n"
    get, set_, _ = acdkit.threads._blas()
    before = get()
    set_(2)
    try:
        with one_blas_thread():
            pass
        tasks = len(os.listdir("/proc/self/task"))
        np.ones((400, 400)) @ np.ones((400, 400))
        assert_task_count(tasks + 1)
        _random_model(np.random.default_rng(41), 3, 2)
        assert get() == 2
        assert_task_count(tasks + 1)
    finally:
        set_(before)


def test_fit_and_load_factor_above_256_dims_alike_at_one_and_two_threads(tmp_path):
    # with 289 dims per epoch a model's factorisations follow the BLAS
    # count in their last bits, so fit_hacd and load_model must build
    # theirs inside their pins
    pair = _textured_pair(40, 40, seed=42)
    x, y = PatchWindows(pair.t0, 17), PatchWindows(pair.t1, 17)
    assert x.dim > 256
    get, set_, _ = acdkit.threads._blas()
    before, models = get(), []
    try:
        for count in (1, 2):
            set_(count)
            fitted = fit_hacd(x, y)
            path = str(tmp_path / f"model{count}.json")
            save_model(fitted, path)
            models += [fitted, load_model(path)]
    finally:
        set_(before)
    for name in ("canon_x", "canon_y", "rho", "cov"):
        fit1, load1, fit2, load2 = (getattr(m, name).tobytes() for m in models)
        assert fit1 == fit2, name
        assert load1 == load2, name


def test_score_without_blas_handle_runs_on_the_calling_thread(monkeypatch):
    m, x, y = _tiled_case(seed=39)
    want = score_map(m, x, y).scores
    idents, scorer = set(), acdkit.hacd._scorer

    def watched(model):
        f = scorer(model)

        def score(xs, ys):
            idents.add(threading.get_ident())
            return f(xs, ys)
        return score

    monkeypatch.setattr(acdkit.threads, "_blas", lambda: None)
    monkeypatch.setattr(acdkit.hacd, "_scorer", watched)
    got = score_map(m, x, y).scores
    assert idents == {threading.get_ident()}
    assert got.tobytes() == want.tobytes()


def test_mixed_patch_sizes_fit_and_score_through_tiles():
    pair = _textured_pair(29, 19, seed=37)
    x, y = PatchWindows(pair.t0, 5), PatchWindows(pair.t1, 3)
    sx, sy = patch_features(pair.t0, 5), patch_features(pair.t1, 3)
    m, want = fit_hacd(x, y), fit_hacd(sx, sy)
    assert (m.d_x, m.d_y) == (25, 9)
    assert np.max(np.abs(m.cov - want.cov)) <= 1e-12 * np.max(np.abs(want.cov))
    _assert_close_scores(score_map(m, x, y).scores, score_map(want, sx, sy).scores)


def _detector_peak_bytes(traced_peak, name, height, width, seed):
    """tracemalloc peak of running detector ``name`` on a textured pair."""
    return traced_peak(run_detector, name, _textured_pair(height, width, seed=seed))[1]


def test_patch_detector_memory_does_not_grow_with_pixels_times_dim(traced_peak):
    # the score peak holds the float32 padded rasters (8.6 B per pixel at
    # width 128) and the float64 score map (8), and the 256-row grid peaks
    # in its fit's fixed buffers instead, so the difference reads about 12.4
    # B per pixel; float64 padded rasters add 8.6 more, and a 121-dim
    # float64 stack of either epoch at least 968
    small = _detector_peak_bytes(traced_peak, "patch-hacd", 256, 128, seed=33)
    large = _detector_peak_bytes(traced_peak, "patch-hacd", 1024, 128, seed=33)
    assert (large - small) / (768 * 128) <= 16


def test_hacd_detector_holds_no_copy_of_the_rasters(traced_peak):
    # at patch 1 the sources are the rasters themselves, so the float64
    # score map and its finiteness mask (9 B per pixel) are all that grows;
    # a float64 copy of either raster adds 8
    small = _detector_peak_bytes(traced_peak, "hacd", 256, 128, seed=33)
    large = _detector_peak_bytes(traced_peak, "hacd", 1024, 128, seed=33)
    assert (large - small) / (768 * 128) <= 12


def test_diff_score_holds_one_float64_plane(traced_peak):
    # the float64 difference, taken absolute in place, and AnomalyMap's
    # finiteness mask come to 9 B per pixel; a second float64 plane adds 8
    side = 512
    pair = _textured_pair(side, side, seed=36)
    amap, peak = traced_peak(diff_score, pair)
    want = np.abs(pair.t1.data.astype(np.float64) - pair.t0.data.astype(np.float64))
    assert amap.scores.tobytes() == want.tobytes()
    assert peak <= 9 * side * side + 4096


def test_glcm_detector_memory_does_not_grow_with_pixels_times_cells(traced_peak):
    # quantize's sort order and ranks, the cell images and the score map
    # grow by a few words per pixel; a uint16 count stack of 36 cells per
    # pixel, of either epoch, would add 72 bytes per pixel
    small = _detector_peak_bytes(traced_peak, "glcm-hacd", 256, 128, seed=35)
    large = _detector_peak_bytes(traced_peak, "glcm-hacd", 1024, 128, seed=35)
    assert (large - small) / (768 * 128) <= 36


def test_glcm_detector_holds_no_float64_stack(traced_peak):
    # the detector holds per-pixel cell images and quantize's transients,
    # a few words per pixel, so a float64 (h, w, 36) stack of either epoch
    # breaks the budget
    height, width = 512, 256
    peak = _detector_peak_bytes(traced_peak, "glcm-hacd", height, width, seed=34)
    assert peak < height * width * 36 * 8
