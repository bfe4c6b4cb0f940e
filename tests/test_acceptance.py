"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report lines.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import acdkit
from acdkit import (
    AnomalyMap,
    FeatureStack,
    GroundTruth,
    HacdModel,
    QuantizedRaster,
    fit_hacd,
    generate_scene,
    glcm_features,
    hacd_score,
    make_pair,
    roc,
    run_detector,
    scene_suite,
    score_map,
)
from acdkit.cli import main as cli_main


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _oracle(m, x, y):
    z = np.concatenate([np.atleast_1d(x), np.atleast_1d(y)])
    p12 = multivariate_normal.pdf(z, mean=np.concatenate([m.mean_x, m.mean_y]), cov=m.cov)
    p1 = multivariate_normal.pdf(np.atleast_1d(x), mean=m.mean_x, cov=m.cov_xx)
    p2 = multivariate_normal.pdf(np.atleast_1d(y), mean=m.mean_y, cov=m.cov_yy)
    return float(-np.log(p12 / (p1 * p2)))


def test_criterion_1_density_ratio_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (1, 2):
        for _ in range(500):
            a = rng.normal(size=(2 * d, 2 * d))
            cov = a @ a.T + 2 * d * np.eye(2 * d)
            m = HacdModel.from_covariance(rng.normal(size=d), rng.normal(size=d), cov)
            x = 2.0 * rng.normal(size=d)
            y = 2.0 * rng.normal(size=d)
            worst = max(worst, abs(hacd_score(m, x, y) - _oracle(m, x, y)))
    elapsed = time.perf_counter() - t0
    _report(1, "density-ratio oracle",
            worst <= 1e-9 and elapsed < 5.0,
            f"max_abs_err={worst:.3e} runtime={elapsed:.2f}s")


def test_criterion_2_independence_zero():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(4):
        dx, dy = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cov = np.zeros((dx + dy, dx + dy))
        a = rng.normal(size=(dx, dx))
        b = rng.normal(size=(dy, dy))
        cov[:dx, :dx] = a @ a.T + dx * np.eye(dx)
        cov[dx:, dx:] = b @ b.T + dy * np.eye(dy)
        m = HacdModel.from_covariance(rng.normal(size=dx), rng.normal(size=dy), cov)
        x = FeatureStack(rng.normal(size=(50, 50, dx)) * 3)
        y = FeatureStack(rng.normal(size=(50, 50, dy)) * 3)
        worst = max(worst, float(np.abs(score_map(m, x, y).scores).max()))
    elapsed = time.perf_counter() - t0
    _report(2, "independence zero",
            worst <= 1e-10 and elapsed < 1.0,
            f"max_abs_score={worst:.3e} over 10^4 inputs, runtime={elapsed:.2f}s")


def _pauc_table(scene_name, detectors):
    cfg = scene_suite()[scene_name]
    t0r, t1r, gt = generate_scene(cfg)
    pair = make_pair(t0r, t1r)
    out = {}
    for det in detectors:
        amap, _ = run_detector(det, pair)
        out[det] = roc(amap, gt, fpr_max=0.01).pauc_inner
    return out


def test_criterion_3_paper_ordering_on_textured():
    t0 = time.perf_counter()
    p = _pauc_table("textured", ("diff", "hacd", "patch-hacd", "glcm-hacd"))
    elapsed = time.perf_counter() - t0
    margins = {
        "patch-diff": p["patch-hacd"] - p["diff"],
        "patch-hacd": p["patch-hacd"] - p["hacd"],
        "glcm-diff": p["glcm-hacd"] - p["diff"],
        "glcm-hacd": p["glcm-hacd"] - p["hacd"],
    }
    ok = all(v >= 0.002 for v in margins.values()) and elapsed < 60.0
    detail = " ".join(f"{k}={v:.4f}" for k, v in margins.items())
    _report(3, "feature augmentation beats pixel detectors",
            ok, f"{detail} runtime={elapsed:.1f}s")


def test_criterion_4_low_dimensionality_finding():
    t0 = time.perf_counter()
    p = _pauc_table("simple-additive", ("diff", "hacd"))
    elapsed = time.perf_counter() - t0
    gap = abs(p["hacd"] - p["diff"])
    _report(4, "1-D joint model ~ differencing",
            gap <= 0.003 and elapsed < 30.0,
            f"|pauc(hacd)-pauc(diff)|={gap:.5f} runtime={elapsed:.1f}s")


def test_criterion_5_glcm_probability_vectors():
    rng = np.random.default_rng(1005)
    side = 320  # 102400 pixels -> >= 1e5 patch GLCMs
    q = QuantizedRaster(8, rng.integers(0, 8, size=(side, side)).astype(np.int32))
    fs = glcm_features(q)
    sums = fs.data.sum(axis=2)
    nonneg = bool(np.all(fs.data >= 0.0))
    max_dev = float(np.abs(sums - 1.0).max())
    _report(5, "GLCM probability vectors",
            nonneg and max_dev <= 1e-12,
            f"n={side * side} max|sum-1|={max_dev:.2e} nonneg={nonneg}")


def test_criterion_6_roc_correctness():
    amap = AnomalyMap(np.array([[0.9, 0.8], [0.2, 0.1]]))
    gt = GroundTruth(np.array([[True, True], [False, False]]),
                     np.array([[True, True], [False, False]]))
    band = roc(amap, gt, fpr_max=0.01)
    c = band.inner_curve
    fixture_ok = (
        c.thresholds.tolist() == [math.inf, 0.9, 0.8, 0.2, 0.1]
        and c.fpr.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]
        and c.tpr.tolist() == [0.0, 0.5, 1.0, 1.0, 1.0]
        and abs(band.pauc_inner - 0.01) < 1e-15
    )

    rng = np.random.default_rng(1006)
    mono_ok = True
    tested = 0
    while tested < 1000:
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        scores = np.round(rng.normal(size=(h, w)), 1)
        outer = rng.random((h, w)) < 0.4
        inner = outer & (rng.random((h, w)) < 0.7)
        if not inner.any() or outer.all():
            continue
        tested += 1
        b = roc(AnomalyMap(scores), GroundTruth(inner, outer))
        for cur in (b.inner_curve, b.outer_curve):
            if np.any(np.diff(cur.fpr) < 0) or np.any(np.diff(cur.tpr) < 0):
                mono_ok = False
    _report(6, "ROC fixture and monotonicity",
            fixture_ok and mono_ok,
            f"fixture={fixture_ok} monotone_on_{tested}_random_pairs={mono_ok}")


def _artifact_digest(tmp_path, tag):
    """Synth a small scene, detect, eval; return digests of every artifact."""
    scene_cfg = str(tmp_path / "cfg.json")
    if not os.path.exists(scene_cfg):
        with open(scene_cfg, "w") as fh:
            json.dump({"width": 64, "height": 64, "seed": 7,
                       "anomaly_rect": [20, 20, 18, 16],
                       "anomaly_texture_gain": 2.5, "noise_sigma": 0.12}, fh)
    out = str(tmp_path / f"run-{tag}")
    scene_dir = os.path.join(out, "scene")
    assert cli_main(["synth", "--config", scene_cfg, "--out", scene_dir]) == 0
    det_dir = os.path.join(out, "det")
    assert cli_main(["detect", "--detector", "glcm-hacd",
                     "--t0", os.path.join(scene_dir, "t0"),
                     "--t1", os.path.join(scene_dir, "t1"),
                     "--out", det_dir]) == 0
    ev_dir = os.path.join(out, "ev")
    assert cli_main(["eval", "--map", os.path.join(det_dir, "anomaly"),
                     "--inner", os.path.join(scene_dir, "inner"),
                     "--outer", os.path.join(scene_dir, "outer"),
                     "--out", ev_dir]) == 0
    return _tree_digest(out)


def _tree_digest(out):
    digests = {}
    for root, _, files in os.walk(out):
        for f in sorted(files):
            p = os.path.join(root, f)
            rel = os.path.relpath(p, out)
            digests[rel] = hashlib.sha256(open(p, "rb").read()).hexdigest()
    return digests


def test_criterion_7_determinism_across_runs_and_threads(tmp_path):
    results = [_artifact_digest(tmp_path, tag) for tag in ("r1", "r2", "r3", "r4")]
    same = all(r == results[0] for r in results[1:])
    kinds = sorted({os.path.splitext(k)[1] for k in results[0]})
    _report(7, "bitwise determinism across runs",
            same and len(results[0]) >= 10,
            f"{len(results[0])} artifacts x 4 runs, types={kinds}")


def _scene(tmp_path, side=192, seed=7, height=None) -> str:
    """A 192x192 textured scene on disk, or one ``side`` wide and ``height``
    (default ``side``) high with the anomaly scaled; at 192 the patch GEMMs
    are wide enough for OpenBLAS to split them across threads."""
    height = height or side
    with open(tmp_path / "scene.json", "w") as fh:
        json.dump({"width": side, "height": height, "seed": seed,
                   "anomaly_rect": [side * 70 // 192, height * 60 // 192,
                                    side * 40 // 192, height * 32 // 192],
                   "anomaly_texture_gain": 2.5, "noise_sigma": 0.15}, fh)
    scene_dir = str(tmp_path / "scene")
    assert cli_main(["synth", "--config", str(tmp_path / "scene.json"),
                     "--out", scene_dir]) == 0
    return scene_dir


def _tree_at_blas_threads(tmp_path, src_env, argv) -> dict:
    """{threads: _tree_digest of the output}: ``acdkit <argv> --out ...`` in
    child processes whose BLAS runs on one and on two threads."""
    results = {}
    for threads in ("1", "2"):
        env = dict(src_env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = str(tmp_path / f"threads-{threads}")
        proc = subprocess.run([sys.executable, "-m", "acdkit.cli", *argv, "--out", out],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results[threads] = _tree_digest(out)
    return results


def test_criterion_7_determinism_across_blas_thread_counts(tmp_path, src_env):
    # `acdkit run` with every detector at one and at two BLAS threads
    scene_dir = _scene(tmp_path)
    with open(tmp_path / "run.json", "w") as fh:
        json.dump({"scene": {k: os.path.join(scene_dir, k)
                             for k in ("t0", "t1", "inner", "outer")},
                   "detectors": list(acdkit.DETECTOR_NAMES)}, fh)
    results = _tree_at_blas_threads(tmp_path, src_env, ["run", str(tmp_path / "run.json")])
    differ = sorted(k for k in results["1"] if results["1"][k] != results["2"].get(k))
    _report(7, "bitwise determinism across BLAS thread counts",
            results["1"] == results["2"] and len(results["1"]) >= 20,
            f"{len(results['1'])} artifacts at 1 and 2 threads, differing={differ}")


def test_glcm_model_on_uint16_cells_does_not_depend_on_blas_threads(tmp_path, src_env):
    """23 grey levels make 276 GLCM cells, more than a uint8 cell image
    holds, so the counts run on uint16 cells, and a model 276 wide per
    epoch, past the width up to which OpenBLAS's GEMMs give the same bits
    at every thread count (256).  Every output file, the map too, must
    have the same bytes at one and two BLAS threads: the model's
    factorisations and the score run on one BLAS thread.  Without that
    pin, on this scene (the smallest of the sizes searched where it
    shows) the anomaly map differed at one pixel by one f32 ulp.  The fit
    runs on one BLAS thread too; ``--patch 23`` is checked below."""
    scene_dir = _scene(tmp_path, side=144, seed=18)
    results = _tree_at_blas_threads(tmp_path, src_env, [
        "detect", "--detector", "glcm-hacd", "--levels", "23", "--patch", "5",
        "--t0", os.path.join(scene_dir, "t0"), "--t1", os.path.join(scene_dir, "t1")])
    assert len(results["1"]) == 3 and results["1"] == results["2"]


def test_patch_23_detection_does_not_depend_on_blas_threads(tmp_path, src_env):
    """``--patch 23`` makes a model 529 wide per epoch.  While the fit's
    products ran on every BLAS thread, ``model.json`` differed between one
    and two threads on this 32-wide, 512-high scene, and on a 512x512 one,
    where the anomaly map differed too; it showed at heights of 480 and
    512, not at 449 or below nor on squares from 192 to 448.  The fit runs
    on one BLAS thread, in column tiles of a fixed width."""
    scene_dir = _scene(tmp_path, side=32, height=512)
    results = _tree_at_blas_threads(tmp_path, src_env, [
        "detect", "--detector", "patch-hacd", "--patch", "23",
        "--t0", os.path.join(scene_dir, "t0"), "--t1", os.path.join(scene_dir, "t1")])
    differ = sorted(k for k in results["1"] if results["1"][k] != results["2"].get(k))
    _report(7, "bitwise determinism across BLAS thread counts at --patch 23",
            results["1"] == results["2"] and len(results["1"]) == 3,
            f"{len(results['1'])} artifacts at 1 and 2 threads, differing={differ}")


def test_criterion_8_invertible_transform_invariance():
    rng = np.random.default_rng(1008)
    x = rng.normal(size=(64, 64, 4))
    y = rng.normal(size=(64, 64, 4)) + 0.4 * x
    fx, fy = FeatureStack(x), FeatureStack(y)
    m1 = fit_hacd(fx, fy, ridge=0.0)
    s1 = score_map(m1, fx, fy).scores

    a = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
    assert abs(np.linalg.det(a)) > 1e-6
    fxa = FeatureStack(x @ a.T)
    m2 = fit_hacd(fxa, fy, ridge=0.0)
    s2 = score_map(m2, fxa, fy).scores

    rel = float(np.max(np.abs(s2 - s1)) / np.max(np.abs(s1)))
    _report(8, "invertible feature-map invariance",
            rel <= 1e-6, f"max_rel_change={rel:.3e}")
