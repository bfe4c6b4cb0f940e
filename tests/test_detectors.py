import numpy as np
import pytest

from acdkit import (
    BadConfig,
    FeatureStack,
    Raster,
    fit_hacd,
    glcm_features,
    identity_features,
    make_pair,
    quantize,
    run_detector,
    score_map,
)


def _pair(seed=50, side=40):
    rng = np.random.default_rng(seed)
    t0 = rng.normal(loc=4.0, size=(side, side)).astype(np.float32)
    t1 = (t0 + rng.normal(scale=0.1, size=(side, side))).astype(np.float32)
    return make_pair(Raster(t0), Raster(t1))


def test_unknown_detector():
    with pytest.raises(BadConfig):
        run_detector("ratio", _pair())


def test_hacd_is_identity_feature_composition():
    # the detector reads each pixel as a 1x1 patch; model and scores must
    # equal, bit for bit, those of the dim-1 identity stacks
    pair = _pair()
    fx, fy = identity_features(pair.t0), identity_features(pair.t1)
    for ridge in (0.0, None):
        amap, model = run_detector("hacd", pair, ridge=ridge)
        m = fit_hacd(fx, fy, ridge=ridge)
        assert amap.scores.tobytes() == score_map(m, fx, fy).scores.tobytes()
        for name in ("mean_x", "mean_y", "cov"):
            assert getattr(model, name).tobytes() == getattr(m, name).tobytes(), (ridge, name)


@pytest.mark.parametrize("name", ["hacd", "patch-hacd", "glcm-hacd"])
def test_detectors_build_no_feature_stack(monkeypatch, name):
    def refuse(self):
        raise AssertionError("a FeatureStack was built")

    monkeypatch.setattr(FeatureStack, "__post_init__", refuse)
    run_detector(name, _pair(), patch=5, levels=4)


def test_glcm_detector_quantizes_each_epoch_separately():
    # GLCM vectors sum to 1, so their covariance is singular by construction
    # and the default trace-scaled ridge must carry the fit.  The detector
    # streams integer counts; the model and scores must equal, bit for bit,
    # those fitted on the float64 stacks glcm_features returns.
    pair = _pair()
    fx = glcm_features(quantize(pair.t0, 4), 7)
    fy = glcm_features(quantize(pair.t1, 4), 7)
    amap, model = run_detector("glcm-hacd", pair, patch=7, levels=4)
    m = fit_hacd(fx, fy)
    assert model.cov.tobytes() == m.cov.tobytes()
    assert model.mean_x.tobytes() == m.mean_x.tobytes()
    assert model.mean_y.tobytes() == m.mean_y.tobytes()
    assert amap.scores.tobytes() == score_map(m, fx, fy).scores.tobytes()


def test_diff_has_no_model():
    amap, model = run_detector("diff", _pair())
    assert model is None
    assert np.all(amap.scores >= 0)


def test_patch_detector_dim():
    _, model = run_detector("patch-hacd", _pair(side=24), patch=5)
    assert model.d_x == model.d_y == 25
