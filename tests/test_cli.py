import contextlib
import dataclasses
import glob
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from acdkit import (
    AnomalyMap,
    Raster,
    SceneConfig,
    diff_score,
    generate_scene,
    load_ground_truth,
    load_model,
    load_raster,
    make_pair,
    render_loglog_svg,
    roc,
    run_detector,
    save_raster,
)
import acdkit.cli
import acdkit.errors
import acdkit.evaluate
import acdkit.threads
from acdkit.cli import main


def _write_scene_files(tmp_path, side=48):
    """Tiny deterministic pair + masks on disk; returns the path dict."""
    rng = np.random.default_rng(99)
    t0 = rng.normal(loc=4.0, size=(side, side)).astype(np.float32)
    t1 = t0 + rng.normal(scale=0.05, size=(side, side)).astype(np.float32)
    t1[10:20, 12:26] += 2.0
    inner = np.zeros((side, side), np.float32)
    inner[12:18, 14:24] = 1.0
    outer = np.zeros((side, side), np.float32)
    outer[8:22, 10:28] = 1.0
    paths = {}
    for name, arr in (("t0", t0), ("t1", t1), ("inner", inner), ("outer", outer)):
        base = str(tmp_path / name)
        save_raster(Raster(arr), base)
        paths[name] = base
    return paths


def test_detect_diff_identical_images_zero_map(tmp_path):
    r = Raster(np.full((6, 7), 3.0, np.float32))
    base = str(tmp_path / "same")
    save_raster(r, base)
    out = str(tmp_path / "out")
    rc = main(["detect", "--detector", "diff", "--t0", base, "--t1", base, "--out", out])
    assert rc == 0
    amap = load_raster(os.path.join(out, "anomaly"))
    assert np.all(amap.data == 0.0)
    assert not os.path.exists(os.path.join(out, "model.json"))


def test_detect_hacd_matches_library(tmp_path):
    paths = _write_scene_files(tmp_path)
    out = str(tmp_path / "out")
    rc = main(["detect", "--detector", "hacd", "--t0", paths["t0"],
               "--t1", paths["t1"], "--out", out])
    assert rc == 0
    pair = make_pair(load_raster(paths["t0"]), load_raster(paths["t1"]))
    expect, model = run_detector("hacd", pair)
    got = load_raster(os.path.join(out, "anomaly"))
    assert np.array_equal(got.data, expect.scores.astype(np.float32))
    assert os.path.exists(os.path.join(out, "model.json"))


def test_detect_flags_override_config(tmp_path):
    paths = _write_scene_files(tmp_path)
    cfg = {"detector": "diff", "t0": paths["t0"], "t1": paths["t1"]}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = str(tmp_path / "out")
    rc = main(["detect", "--config", cfg_path, "--out", out])
    assert rc == 0
    pair = make_pair(load_raster(paths["t0"]), load_raster(paths["t1"]))
    got = load_raster(os.path.join(out, "anomaly"))
    assert np.array_equal(got.data, diff_score(pair).scores.astype(np.float32))


def test_detect_custom_glcm_flags(tmp_path):
    paths = _write_scene_files(tmp_path, side=32)
    out = str(tmp_path / "out")
    rc = main(["detect", "--detector", "glcm-hacd", "--t0", paths["t0"],
               "--t1", paths["t1"], "--patch", "5", "--levels", "4",
               "--offsets", "0,1;1,0", "--out", out])
    assert rc == 0
    pair = make_pair(load_raster(paths["t0"]), load_raster(paths["t1"]))
    expect, _ = run_detector("glcm-hacd", pair, patch=5, levels=4,
                             offsets=((0, 1), (1, 0)))
    got = load_raster(os.path.join(out, "anomaly"))
    assert np.array_equal(got.data, expect.scores.astype(np.float32))


def test_detect_missing_input_is_exit_2(tmp_path, capsys):
    rc = main(["detect", "--detector", "diff", "--t0", str(tmp_path / "nope"),
               "--t1", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "NotFound" in err and "nope" in err


@pytest.mark.parametrize("detector", ["hacd", "patch-hacd", "glcm-hacd"])
def test_detect_ridge_that_overflows_the_covariance_is_exit_2(tmp_path, capsys, detector):
    # 1e308 on the diagonal overflows when the covariance is symmetrised:
    # the fit refuses it instead of writing a model load_model refuses
    paths = _write_scene_files(tmp_path)
    out = tmp_path / "o"
    rc = main(["detect", "--detector", detector, "--ridge", "1e308", "--t0", paths["t0"],
               "--t1", paths["t1"], "--out", str(out)])
    assert rc == 2
    assert "error SingularCovariance" in capsys.readouterr().err
    assert not (out / "model.json").exists()


def test_detect_dimension_mismatch_names_error(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    save_raster(Raster(np.zeros((2, 2), np.float32)), a)
    save_raster(Raster(np.zeros((3, 2), np.float32)), b)
    rc = main(["detect", "--detector", "diff", "--t0", a, "--t1", b,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "DimensionMismatch" in capsys.readouterr().err


def test_eval_writes_all_outputs(tmp_path):
    paths = _write_scene_files(tmp_path)
    det_out = str(tmp_path / "det")
    assert main(["detect", "--detector", "diff", "--t0", paths["t0"],
                 "--t1", paths["t1"], "--out", det_out]) == 0
    eval_out = str(tmp_path / "ev")
    rc = main(["eval", "--map", os.path.join(det_out, "anomaly"),
               "--inner", paths["inner"], "--outer", paths["outer"],
               "--out", eval_out])
    assert rc == 0
    for name in ("roc.csv", "roc.svg", "summary.json"):
        assert os.path.exists(os.path.join(eval_out, name))
    with open(os.path.join(eval_out, "summary.json")) as fh:
        summary = json.load(fh)
    for key in ("pauc_inner", "pauc_outer", "auc_inner", "auc_outer",
                "n_pos_inner", "n_pos_outer", "n_neg"):
        assert key in summary
    assert summary["n_pos_inner"] == 60
    assert summary["n_pos_outer"] == 14 * 18
    assert summary["n_neg"] == 48 * 48 - 14 * 18


def test_eval_perfect_map_pauc(tmp_path):
    scores = np.zeros((10, 10), np.float32)
    inner = np.zeros((10, 10), np.float32)
    scores[3:6, 3:6] = 5.0
    inner[3:6, 3:6] = 1.0
    mp, ip = str(tmp_path / "m"), str(tmp_path / "i")
    save_raster(Raster(scores), mp)
    save_raster(Raster(inner), ip)
    out = str(tmp_path / "ev")
    assert main(["eval", "--map", mp, "--inner", ip, "--out", out]) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["pauc_inner"] == pytest.approx(0.01, abs=1e-12)
    assert summary["pauc_inner"] == summary["pauc_outer"]


def test_eval_constant_map_still_writes_summary(tmp_path):
    mp, ip = str(tmp_path / "m"), str(tmp_path / "i")
    save_raster(Raster(np.ones((4, 4), np.float32)), mp)
    inner = np.zeros((4, 4), np.float32)
    inner[1:3, 1:3] = 1.0
    save_raster(Raster(inner), ip)
    out = str(tmp_path / "ev")
    assert main(["eval", "--map", mp, "--inner", ip, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_eval_missing_mask_names_path(tmp_path, capsys):
    mp = str(tmp_path / "m")
    save_raster(Raster(np.ones((4, 4), np.float32)), mp)
    missing = str(tmp_path / "missing_mask")
    rc = main(["eval", "--map", mp, "--inner", missing, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing_mask" in err


def test_synth_named_scene_round_trip(tmp_path):
    out = str(tmp_path / "scene")
    rc = main(["synth", "textured", "--out", out])
    assert rc == 0
    for name in ("t0", "t1", "inner", "outer"):
        load_raster(os.path.join(out, name))
    assert os.path.exists(os.path.join(out, "scene.json"))
    # bitwise stable across runs
    out2 = str(tmp_path / "scene2")
    assert main(["synth", "textured", "--out", out2]) == 0
    for name in ("t0", "t1"):
        b1 = Path(out, name + ".r32").read_bytes()
        b2 = Path(out2, name + ".r32").read_bytes()
        assert b1 == b2


def test_synth_unknown_scene_is_exit_2(tmp_path, capsys):
    rc = main(["synth", "woodstock", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "BadConfig" in capsys.readouterr().err


def test_synth_bad_rect_config_is_exit_2(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({"width": 32, "height": 32, "anomaly_rect": [30, 30, 10, 10]}, fh)
    rc = main(["synth", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    # a range error, like a type error, names the file it came from
    assert "BadConfig" in err and cfg_path in err and "anomaly_rect" in err


def test_synth_integral_float_seed_equals_its_integer(tmp_path):
    cfg_path = str(tmp_path / "scene.json")
    with open(cfg_path, "w") as fh:
        json.dump({"width": 24, "height": 24, "background_corr_len": 2,
                   "anomaly_rect": [4, 4, 10, 10], "anomaly_texture_gain": 2.0}, fh)
    outs = [tmp_path / "int", tmp_path / "float"]
    for out, seed in zip(outs, ("7", "7.0")):
        assert main(["synth", "--config", cfg_path, "--seed", seed, "--out", str(out)]) == 0
    files = sorted(os.listdir(outs[0]))
    assert files == sorted(os.listdir(outs[1])) and "t1.r32" in files
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


_SMALL_SCENE = {"width": 16, "height": 16, "background_corr_len": 2, "anomaly_rect": [3, 3, 8, 8]}


@pytest.mark.parametrize("doc", [
    {"width": "abc"},
    {"noise_sigma": "0.1"},
    {"anomaly_rect": [1, 2, "x", 4]},
    {"pervasive_patches": [[1, 2, 3]]},
    {"width": 100.5},
    {"seed": 1.5},
    {"anomaly_rect": [208, 176, 80.5, 64]},
    {"pervasive_patches": [[1, 2, 3, 4, "x"]]},
    {"pervasive_patches": 5},
    {"noise_sigma": float("nan")},
    {"height": True},
    {"speckle": "no"},
    [1, 2],
    # finite values whose scene leaves float32 (a cast) or float64 (an add,
    # and a Python float square); each is refused without a warning
    {**_SMALL_SCENE, "pervasive_gain": 1e300},
    {**_SMALL_SCENE, "anomaly_offset": 1e308, "pervasive_offset": 1e308},
    {**_SMALL_SCENE, "anomaly_texture_gain": 1e200},
], ids=["width-string", "sigma-string", "rect-string", "patch-short", "width-fractional",
        "seed-fractional", "rect-fractional", "patch-gain-string", "patches-not-list",
        "sigma-nan", "height-bool", "speckle-string", "not-an-object",
        "gain-overflows-float32", "offsets-overflow-float64", "texture-gain-overflows"])
def test_malformed_scene_config_is_exit_2(tmp_path, capsys, doc):
    cfg_path = str(tmp_path / "scene.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["synth", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "error BadConfig" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "detect"])
def test_config_that_is_not_utf8_is_exit_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe{")
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "error BadConfig" in capsys.readouterr().err


def test_run_pipeline_with_explicit_paths(tmp_path):
    paths = _write_scene_files(tmp_path)
    out = str(tmp_path / "run")
    cfg = {
        "scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
        "detectors": ["diff", "hacd"],
        "out": out,
    }
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["run", cfg_path]) == 0
    league = Path(out, "league.csv").read_text().strip().splitlines()
    assert league[0] == "detector,pauc_inner,pauc_outer,auc_inner,auc_outer"
    assert len(league) == 3
    combined = Path(out, "roc.svg").read_text()
    assert combined.count("<polyline") == 4
    for det in ("diff", "hacd"):
        for name in ("anomaly.r32", "roc.csv", "roc.svg", "summary.json"):
            assert os.path.exists(os.path.join(out, det, name))


def test_run_matches_detect_plus_eval(tmp_path):
    # run and eval evaluate a map with one function; run reads the masks
    # once for every map, eval once per map
    detectors = ["diff", "hacd", "patch-hacd", "glcm-hacd"]
    paths = _write_scene_files(tmp_path)
    run_out = str(tmp_path / "run")
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
                   "detectors": detectors, "out": run_out}, fh)
    assert main(["run", cfg_path]) == 0

    for det in detectors:
        det_out = str(tmp_path / "det" / det)
        assert main(["detect", "--detector", det, "--t0", paths["t0"],
                     "--t1", paths["t1"], "--out", det_out]) == 0
        ev_out = str(tmp_path / "ev" / det)
        assert main(["eval", "--map", os.path.join(det_out, "anomaly"),
                     "--inner", paths["inner"], "--outer", paths["outer"],
                     "--out", ev_out]) == 0
        for out, name in [(det_out, "anomaly.r32"), (det_out, "anomaly.json"),
                          (ev_out, "roc.csv"), (ev_out, "roc.svg"), (ev_out, "summary.json")]:
            a = Path(out, name).read_bytes()
            b = Path(run_out, det, name).read_bytes()
            assert a == b, (det, name)


def test_run_combined_plot_is_the_plot_of_the_recomputed_bands(tmp_path):
    # run keeps each evaluation's plot points, not its band; the combined
    # roc.svg must be the plot of the bands that roc recomputes from the
    # written maps, on a grid with more distinct scores than a polyline draws
    detectors = ["diff", "hacd", "patch-hacd", "glcm-hacd"]
    paths = _write_scene_files(tmp_path, side=80)
    out = tmp_path / "run"
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
                   "detectors": detectors, "out": str(out)}, fh)
    assert main(["run", cfg_path]) == 0
    gt = load_ground_truth(paths["inner"], paths["outer"], (80, 80))
    bands = {det: roc(AnomalyMap(load_raster(str(out / det / "anomaly")).data.astype(np.float64)),
                      gt)
             for det in detectors}
    assert bands["diff"].inner_curve.fpr.size > acdkit.evaluate._SVG_MAX_POINTS
    render_loglog_svg(bands, str(tmp_path / "expected.svg"))
    assert (out / "roc.svg").read_bytes() == (tmp_path / "expected.svg").read_bytes()


def _run_files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file()}


def test_run_bytes_do_not_depend_on_the_worker_count(tmp_path):
    paths = _write_scene_files(tmp_path)
    scene = {k: paths[k] for k in ("t0", "t1", "inner", "outer")}
    detectors = ["diff", "hacd", "patch-hacd", "glcm-hacd"]

    def run(chosen):
        out = tmp_path / str(len(chosen))
        (tmp_path / "run.json").write_text(json.dumps({"scene": scene, "detectors": chosen}))
        assert main(["run", str(tmp_path / "run.json"), "--out", str(out)]) == 0
        return _run_files(out)

    every = run(detectors)
    assert len(every) == 25  # 5 (diff) or 6 files per detector, roc.svg, league.csv
    # one detector or three: each detector's files are the same, since each
    # map and each evaluation depend on that detector alone
    for chosen in (["hacd"], ["glcm-hacd", "diff", "patch-hacd"]):
        files = run(chosen)
        mine = {p: b for p, b in files.items() if p.split(os.sep)[0] in chosen}
        assert mine == {p: b for p, b in every.items() if p.split(os.sep)[0] in chosen}
        assert len(files) == len(mine) + 2, chosen  # and roc.svg, league.csv


def test_run_under_a_foreign_main_module_matches_a_plain_run(tmp_path, src_env):
    # under `python -m cProfile -m acdkit.cli` the CLI module is not
    # sys.modules["__main__"], and run's outputs and stderr stay the same
    paths = _write_scene_files(tmp_path)
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
                   "detectors": ["diff", "hacd"]}, fh)
    prof = ["-m", "cProfile", "-o", str(tmp_path / "run.prof")]
    for name, pre in (("plain", []), ("profiled", prof)):
        proc = subprocess.run([sys.executable, *pre, "-m", "acdkit.cli", "run", cfg_path,
                               "--out", str(tmp_path / name)],
                              env=src_env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and not proc.stderr, (name, proc.stderr)
    plain, profiled = _run_files(tmp_path / "plain"), _run_files(tmp_path / "profiled")
    assert "league.csv" in plain
    assert profiled == plain


def test_cli_as_main_is_not_imported_again(tmp_path, src_env):
    # `python -m acdkit.cli` runs the module once, as __main__: no module
    # of the package, and not its own __main__ block, imports acdkit.cli
    missing = str(tmp_path / "missing")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "acdkit.cli", "eval",
                           "--map", missing, "--inner", missing, "--out", str(tmp_path / "o")],
                          env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "error NotFound" in proc.stderr, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "acdkit.evaluate" in imported
    assert "acdkit.cli" not in imported


def test_cli_imports_no_network_or_mail_modules(src_env):
    # the SVG writer escapes labels by hand, so html's entity tables are
    # never loaded; xml.sax.saxutils would pull in urllib.request and with
    # it http.client, email, ssl and socket
    code = ("import sys, acdkit.cli\n"
            "print(sorted({'html', 'urllib.request', 'http.client', 'email', 'ssl', 'socket'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_imports_no_pool_or_thread_module_until_a_command_needs_it(tmp_path, src_env):
    # acdkit.threads is imported when a command starts, to pin BLAS to one
    # thread, not by importing acdkit.cli; synth, detect with every
    # detector, eval and run in one process load no multiprocessing
    paths = _write_scene_files(tmp_path, side=24)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(_SMALL_SCENE))
    commands = [["synth", "--config", str(scene), "--out", str(tmp_path / "scene")]]
    commands += [["detect", "--detector", name, "--patch", "3", "--t0", paths["t0"],
                  "--t1", paths["t1"], "--out", str(tmp_path / name)]
                 for name in ("diff", "hacd", "patch-hacd", "glcm-hacd")]
    commands += [["eval", "--map", str(tmp_path / "hacd" / "anomaly"), "--inner", paths["inner"],
                  "--out", str(tmp_path / "ev")]]
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
                               "detectors": ["diff", "hacd"]}))
    commands += [["run", str(run), "--out", str(tmp_path / "run")]]
    code = ("import sys, acdkit.cli\n"
            "print(sorted({'multiprocessing', 'acdkit.threads'} & set(sys.modules)))\n"
            f"for argv in {commands!r}:\n"
            "    assert acdkit.cli.main(argv) == 0, argv\n"
            "print(sorted({'multiprocessing', 'acdkit.threads'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['acdkit.threads']"]


def test_run_empty_inner_mask_in_a_worker_is_exit_2(tmp_path, capsys):
    # the evaluation of the first map raises EmptyClass, which exits 2 as in
    # eval, once every detector has run; no league is written
    paths = _write_scene_files(tmp_path)
    save_raster(Raster(np.zeros((48, 48), np.float32)), paths["inner"])
    out = tmp_path / "o"
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
                   "detectors": ["diff", "hacd", "patch-hacd"], "out": str(out)}, fh)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "error EmptyClass" in err and "inner curve has no positive pixels" in err
    assert not (out / "league.csv").exists()


def _children() -> set[int]:
    """The pids of this process's children, zombies too, from /proc."""
    found = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with contextlib.suppress(FileNotFoundError):
            found.update(map(int, Path(path).read_text().split()))
    return found


def test_run_starts_no_child_process(tmp_path, monkeypatch):
    # run detects and evaluates in its own process: no child exists while a
    # detector runs or while a map is evaluated
    before, seen = _children(), []

    def probe(function):
        def probed(*args):
            seen.append(_children() - before)
            return function(*args)
        return probed

    monkeypatch.setattr(acdkit.cli, "_detect_pair", probe(acdkit.cli._detect_pair))
    monkeypatch.setattr(acdkit.cli, "evaluate_map", probe(acdkit.cli.evaluate_map))
    paths = _write_scene_files(tmp_path)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
        "detectors": ["diff", "hacd"], "out": str(tmp_path / "o")}))
    assert main(["run", str(cfg_path)]) == 0
    assert seen == [set()] * 4


def test_run_refuses_masks_off_the_scene_grid(tmp_path, capsys):
    # scene path masks are loaded on the rasters' grid, after the rasters
    # and before any detector runs
    paths = _write_scene_files(tmp_path)
    for key in ("inner", "outer"):
        save_raster(Raster(np.zeros((40, 48), np.float32)), paths[key])
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "scene": {k: paths[k] for k in ("t0", "t1", "inner", "outer")},
        "detectors": ["diff"], "out": str(tmp_path / "o")}))
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "error DimensionMismatch" in err and "is 48x40, expected 48x48" in err
    assert not (tmp_path / "o" / "diff").exists()


def test_run_league_ranks_texture_detectors_first(tmp_path):
    # quarter-size copy of the textured benchmark: texture-aware detectors
    # must outrank the per-pixel ones in league.csv
    scene_cfg = str(tmp_path / "scene.json")
    with open(scene_cfg, "w") as fh:
        json.dump({"width": 256, "height": 256, "seed": 202,
                   "background_corr_len": 8, "anomaly_rect": [104, 88, 56, 44],
                   "anomaly_texture_gain": 2.5, "noise_sigma": 0.15}, fh)
    scene_dir = str(tmp_path / "scene")
    assert main(["synth", "--config", scene_cfg, "--out", scene_dir]) == 0
    out = str(tmp_path / "run")
    run_cfg = str(tmp_path / "run.json")
    with open(run_cfg, "w") as fh:
        json.dump({"scene": {k: os.path.join(scene_dir, k)
                             for k in ("t0", "t1", "inner", "outer")},
                   "detectors": ["diff", "hacd", "patch-hacd", "glcm-hacd"],
                   "out": out}, fh)
    assert main(["run", run_cfg]) == 0
    rows = Path(out, "league.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    order = [r.split(",")[0] for r in rows]
    assert set(order[:2]) == {"patch-hacd", "glcm-hacd"}
    assert set(order[2:]) == {"diff", "hacd"}


def test_run_requires_detectors(tmp_path, capsys):
    cfg_path = str(tmp_path / "r.json")
    with open(cfg_path, "w") as fh:
        json.dump({"scene": "textured", "out": str(tmp_path / "o")}, fh)
    assert main(["run", cfg_path]) == 2
    assert "BadConfig" in capsys.readouterr().err


def test_run_refuses_a_detector_listed_twice(tmp_path, capsys):
    cfg_path = str(tmp_path / "r.json")
    out = tmp_path / "o"
    with open(cfg_path, "w") as fh:
        json.dump({"scene": "simple-additive", "detectors": ["diff", "hacd", "diff"],
                   "out": str(out)}, fh)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "BadConfig" in err and "'diff'" in err
    assert not out.exists()


@pytest.mark.parametrize("key,in_scene", [
    ("t0", True), ("t0", False), ("outer", True), ("outer", False), ("out", False),
], ids=["t0-scene-object", "t0-top-level", "outer-scene-object", "outer-top-level",
        "out-top-level"])
def test_run_refuses_a_path_that_is_not_a_string(tmp_path, capsys, monkeypatch, key, in_scene):
    monkeypatch.chdir(tmp_path)  # a number taken as a directory name lands here
    paths = _write_scene_files(tmp_path, side=16)
    cfg = {"detectors": ["diff"], "out": str(tmp_path / "o")}
    cfg.update({"scene": paths} if in_scene else paths)
    (cfg["scene"] if in_scene else cfg)[key] = 5
    cfg_path = str(tmp_path / "r.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "error BadConfig" in err and repr(key) in err and "Traceback" not in err
    assert not (tmp_path / "5").exists()


def test_detect_refuses_a_path_that_is_not_a_string(tmp_path, capsys):
    paths = _write_scene_files(tmp_path, side=16)
    cfg_path = str(tmp_path / "d.json")
    with open(cfg_path, "w") as fh:
        json.dump({"detector": "diff", "t0": True, "t1": paths["t1"]}, fh)
    assert main(["detect", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error BadConfig" in err and "'t0'" in err


@pytest.mark.parametrize("key", ["roc_fpr_max", "inner", "outer"])
def test_detect_refuses_a_key_it_does_not_read(tmp_path, capsys, key):
    paths = _write_scene_files(tmp_path, side=16)
    value = {"roc_fpr_max": 0.01, "inner": paths["inner"], "outer": 7}[key]
    cfg_path = str(tmp_path / "d.json")
    with open(cfg_path, "w") as fh:
        json.dump({"detector": "diff", "t0": paths["t0"], "t1": paths["t1"], key: value}, fh)
    out = tmp_path / "o"
    assert main(["detect", "--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error BadConfig" in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("extra,named", [
    ({"detector": "glcm-hacd"}, "detector"),
    ({"seed": 9}, "seed"),
    ({"scene": "textured", "t0": "{t0}"}, "t0"),
    ({"t1": "{t1}"}, "t1"),
], ids=["detector", "seed-beside-path-object", "path-beside-suite-name", "path-given-twice"])
def test_run_refuses_an_option_it_would_ignore(tmp_path, capsys, extra, named):
    paths = _write_scene_files(tmp_path, side=16)
    out = tmp_path / "o"
    cfg = {"scene": paths, "detectors": ["diff"], "out": str(out)}
    cfg.update((k, v.format(**paths) if isinstance(v, str) else v) for k, v in extra.items())
    cfg_path = str(tmp_path / "r.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "error BadConfig" in err and repr(named) in err
    assert not out.exists()


def test_run_takes_paths_split_between_scene_object_and_top_level(tmp_path):
    paths = _write_scene_files(tmp_path, side=16)
    configs = {
        "object": {"scene": paths},
        "split": {"scene": {"t0": paths["t0"], "t1": paths["t1"]},
                  "inner": paths["inner"], "outer": paths["outer"]},
    }
    for name, cfg in configs.items():
        cfg_path = str(tmp_path / f"{name}.json")
        with open(cfg_path, "w") as fh:
            json.dump({**cfg, "detectors": ["diff"], "out": str(tmp_path / name)}, fh)
        assert main(["run", cfg_path]) == 0
    for rel in ("league.csv", os.path.join("diff", "summary.json")):
        assert (tmp_path / "split" / rel).read_bytes() == (tmp_path / "object" / rel).read_bytes()


@pytest.mark.parametrize("command", [
    ["synth", "textured", "--seed", str(2**64)],
    ["run", "{cfg}"],
], ids=["synth-flag", "run-config"])
def test_seed_of_2_64_or_more_is_refused(tmp_path, capsys, command):
    # the generator keys on the seed's low 64 bits, so a larger seed would
    # alias a smaller one
    cfg_path = tmp_path / "r.json"
    cfg_path.write_text(json.dumps({"scene": "textured", "seed": 1e300, "detectors": ["diff"]}))
    out = tmp_path / "o"
    argv = [arg.format(cfg=cfg_path) for arg in command] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error BadConfig" in err and "seed" in err
    assert not out.exists()


def test_convert_round_trip(tmp_path):
    r = Raster((np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0))
    base = str(tmp_path / "r")
    save_raster(r, base)
    txt = str(tmp_path / "dump.txt")
    assert main(["convert", base, txt]) == 0
    first = Path(txt).read_text().splitlines()
    assert first[0] == "4 3"
    back = str(tmp_path / "back")
    assert main(["convert", txt, back]) == 0
    assert load_raster(back) == r


def test_main_stops_the_blas_pool_before_the_command(tmp_path):
    # a pool thread left from an earlier product would spin beside the
    # command's own work; the count is set to 2 so that a product starts
    # the pool even where the process started at one thread
    calls = acdkit.threads._blas()
    assert calls is not None, "NumPy's OpenBLAS thread calls were not found"
    get, set_, _ = calls
    before = get()
    set_(2)
    try:
        with acdkit.threads.one_blas_thread():
            pass
        tasks = len(os.listdir("/proc/self/task"))
        np.ones((400, 400)) @ np.ones((400, 400))
        assert len(os.listdir("/proc/self/task")) == tasks + 1
        base = str(tmp_path / "r")
        save_raster(Raster(np.ones((2, 3), np.float32)), base)
        assert main(["convert", base, str(tmp_path / "dump.txt")]) == 0
        assert len(os.listdir("/proc/self/task")) == tasks
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("command,outcome", [
    ("synth", 0), ("detect-hacd", 0), ("detect-patch-hacd", 0), ("eval", 0), ("run", 0),
    ("convert", 0), ("convert-missing", 2), ("convert-raising", 3),
])
def test_every_command_runs_on_one_blas_thread(tmp_path, monkeypatch, command, outcome):
    # the detector stages' pins nest inside the command's, so the pool is
    # not started again between them; main leaves the count and the threads
    # as it found them, on an error too
    get, set_, _ = acdkit.threads._blas()
    paths = _write_scene_files(tmp_path, side=24)
    scene, run = tmp_path / "scene.json", tmp_path / "run.json"
    scene.write_text(json.dumps(_SMALL_SCENE))
    run.write_text(json.dumps({"scene": paths, "detectors": ["diff", "hacd"]}))
    out = str(tmp_path / "o")
    argv = {
        "synth": ["synth", "--config", str(scene), "--out", out],
        "detect-hacd": ["detect", "--detector", "hacd", "--t0", paths["t0"], "--t1", paths["t1"],
                        "--out", out],
        "detect-patch-hacd": ["detect", "--detector", "patch-hacd", "--patch", "3",
                              "--t0", paths["t0"], "--t1", paths["t1"], "--out", out],
        "eval": ["eval", "--map", paths["t1"], "--inner", paths["inner"], "--out", out],
        "run": ["run", str(run), "--out", out],
        "convert": ["convert", paths["t0"], out],
        "convert-missing": ["convert", str(tmp_path / "missing"), out],
        "convert-raising": ["convert", paths["t0"], out],
    }[command]
    name = "cmd_" + argv[0]
    cmd, counts = getattr(acdkit.cli, name), []

    def pinned(args):
        counts.append(get())
        if command == "convert-raising":
            raise RuntimeError("a fault inside the command")
        return cmd(args)

    monkeypatch.setattr(acdkit.cli, name, pinned)  # build_parser reads it when called
    before = get()
    set_(2)
    try:
        with acdkit.threads.one_blas_thread():
            pass
        tasks = len(os.listdir("/proc/self/task"))
        assert main(argv) == outcome
        assert counts == [1]
        assert get() == 2
        assert len(os.listdir("/proc/self/task")) == tasks
    finally:
        set_(before)


@pytest.mark.parametrize("ext", [".r32", ".json"])
def test_convert_accepts_either_sidecar_path(tmp_path, ext):
    r = Raster((np.arange(6, dtype=np.float32).reshape(2, 3) / 3.0))
    base = str(tmp_path / "r")
    save_raster(r, base)
    via_base, via_file = str(tmp_path / "base.txt"), str(tmp_path / "file.txt")
    assert main(["convert", base, via_base]) == 0
    assert main(["convert", base + ext, via_file]) == 0
    assert Path(via_file).read_text() == Path(via_base).read_text()


@pytest.mark.parametrize("ext", [".r32", ".json"])
def test_eval_accepts_either_sidecar_path(tmp_path, ext):
    paths = _write_scene_files(tmp_path)
    det_out = str(tmp_path / "det")
    assert main(["detect", "--detector", "diff", "--t0", paths["t0"],
                 "--t1", paths["t1"], "--out", det_out]) == 0
    outs = {}
    for label, map_path in (("base", "anomaly"), ("file", "anomaly" + ext)):
        outs[label] = str(tmp_path / label)
        assert main(["eval", "--map", os.path.join(det_out, map_path),
                     "--inner", paths["inner"], "--out", outs[label]]) == 0
    for name in ("roc.csv", "roc.svg", "summary.json"):
        with open(os.path.join(outs["base"], name), "rb") as a, \
                open(os.path.join(outs["file"], name), "rb") as b:
            assert a.read() == b.read()
    # the plot is labeled by the map's stem, not by the sidecar file name
    assert ">anomaly<" in Path(outs["file"], "roc.svg").read_text()


def test_convert_missing_source(tmp_path, capsys):
    rc = main(["convert", str(tmp_path / "ghost"), str(tmp_path / "out.txt")])
    assert rc == 2
    assert "NotFound" in capsys.readouterr().err


@pytest.mark.parametrize("src,name", [
    ("r", "r.json"),  # an R32 raster whose header is not UTF-8
    ("dump.txt", "dump.txt"),  # a pixel dump that is not UTF-8
], ids=["raster-header", "text-dump"])
def test_convert_non_utf8_is_format_error(tmp_path, capsys, src, name):
    save_raster(Raster(np.zeros((1, 1), np.float32)), str(tmp_path / "r"))
    (tmp_path / "dump.txt").write_bytes(b"1 1\n\xff\xfe\n")
    (tmp_path / "r.json").write_bytes(b"\xff\xfe{}")
    rc = main(["convert", str(tmp_path / src), str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and name in err


@pytest.mark.parametrize("value", ["nan", "inf", "1e39"])
def test_convert_dump_value_that_is_not_a_finite_float32_names_the_dump(tmp_path, capsys, value):
    # 1e39 is finite as a Python float but beyond float32's range
    (tmp_path / "dump.txt").write_text(f"2 1\n{value} 1.5\n")
    assert main(["convert", str(tmp_path / "dump.txt"), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and "dump.txt" in err


@pytest.mark.parametrize("dump,message", [
    ("\n  \n", "empty pixel dump"),
    ("2 x\n1 2\n", "bad pixel dump"),
    ("2 2\n1 2\n", "does not match declared 2x2"),
], ids=["blank", "header-not-integer", "rows-missing"])
def test_convert_malformed_dump_is_format_error(tmp_path, capsys, dump, message):
    (tmp_path / "dump.txt").write_text(dump)
    assert main(["convert", str(tmp_path / "dump.txt"), str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "FormatError" in err and "dump.txt" in err and message in err


@pytest.mark.parametrize("command", [
    ["synth", "simple-additive"],
    ["detect", "--detector", "diff", "--t0", "{t0}", "--t1", "{t1}"],
    ["eval", "--map", "{t0}", "--inner", "{inner}"],
])
def test_out_onto_a_file_is_io_error(tmp_path, capsys, command):
    paths = _write_scene_files(tmp_path, side=16)
    out = tmp_path / "taken"
    out.write_text("")
    rc = main([arg.format(**paths) for arg in command] + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "IoError" in err and str(out) in err


@pytest.mark.parametrize("command,fields,flags", [
    ("eval", None, ["--fpr-max", "0"]),
    ("run", {"roc_fpr_max": 0}, []),
    ("detect", {"glcm_offsets": [[0]]}, []),
    ("detect", {"patch": "abc"}, []),
    ("run", {"scene": "textured", "seed": "x"}, []),
    ("detect", {"glcm_levels": 0}, []),
    ("detect", {}, ["--offsets", "0,1;2"]),
    ("detect", {}, ["--ridge", "nan"]),
    ("detect", {"patch": 3.9}, []),
    ("detect", {"glcm_levels": 2.5}, []),
    ("run", {"scene": "textured", "seed": 0.5}, []),
    ("detect", {"glcm_offsets": [[0, 1.5]]}, []),
    ("detect", {"glcm_levels": True}, []),
    ("detect", {"patch": "5"}, []),
    ("detect", {"glcm_offsets": [[0, "1"], [1, 0]]}, []),
    ("detect", {"ridge": True}, []),
    ("run", {"scene": "textured", "seed": "7"}, []),
    ("detect", {}, ["--offsets", "0,1;1,x"]),
    ("detect", {}, ["--patch", "abc"]),
    ("detect", {}, ["--levels", "4.5"]),
    ("detect", {}, ["--ridge", "x"]),
    ("detect", {}, ["--detector", "nope"]),
    ("detect", {}, ["--offsets", ""]),
    ("detect", {}, ["--offsets", "0,1;"]),
    ("eval", None, ["--fpr-max", "abc"]),
    # argparse's usage errors; a None command means the flags are the whole argv
    ("detect", {}, ["--ridge"]),
    ("detect", {}, ["--ridge", "-1e-3"]),
    ("detect", {}, ["--nope", "1"]),
    (None, None, ["eval", "--map", "m", "--out", "o"]),
    (None, None, ["nope"]),
    (None, None, []),
    ("run", {"detectors": []}, []),
    ("run", {"scene": {"t2": "x"}}, []),
    (None, None, ["synth", "--out", "o"]),
    (None, None, ["synth", "textured", "--config", "c.json", "--out", "o"]),
], ids=["eval-fpr-max-0", "run-fpr-max-0", "offsets-not-pairs", "patch-not-int",
        "seed-not-int", "levels-0", "offsets-flag-not-pairs", "ridge-nan",
        "patch-fractional", "levels-fractional", "seed-fractional", "offsets-fractional",
        "levels-bool", "patch-string", "offsets-string-component", "ridge-bool",
        "seed-numeric-string", "offsets-flag-not-integer", "patch-flag-not-number",
        "levels-flag-fractional", "ridge-flag-not-number", "detector-flag-unknown",
        "offsets-flag-empty", "offsets-flag-empty-pair", "eval-fpr-max-flag-not-number",
        "ridge-flag-no-value", "ridge-flag-dash-value", "flag-unknown",
        "eval-inner-flag-missing", "command-unknown", "command-missing",
        "detectors-empty", "scene-path-key-unknown", "synth-scene-missing",
        "synth-scene-and-config"])
def test_malformed_option_is_exit_2(tmp_path, capsys, command, fields, flags):
    paths = _write_scene_files(tmp_path, side=16)
    out = str(tmp_path / "o")
    if command is None:
        argv = []
    elif command == "eval":
        argv = ["eval", "--map", paths["t0"], "--inner", paths["inner"], "--out", out]
    else:
        cfg = {"t0": paths["t0"], "t1": paths["t1"], **fields}
        if command == "run":
            cfg = {"detectors": ["diff"], "inner": paths["inner"], **cfg}
        else:
            cfg["detector"] = "glcm-hacd"
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        argv = ["run", cfg_path] if command == "run" else ["detect", "--config", cfg_path]
        argv += ["--out", out]
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    assert "error BadConfig" in err
    if "seed" in (fields or {}):
        # run's seed cases also put paths beside the suite name; the bad
        # value must be what is refused
        assert "seed" in err


def test_bad_flags_are_read_in_the_parser_order():
    # not in the order of the keys given, which for a set follows the hash seed
    args = acdkit.cli.build_parser().parse_args(["detect", "--ridge", "y", "--patch", "x"])
    with pytest.raises(acdkit.errors.BadConfig, match="^--patch must be a number, got 'x'$"):
        acdkit.cli._flags(args, ["ridge", "patch"])


@pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"]])
def test_help_is_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: acdkit" in capsys.readouterr().out


def test_integral_float_options_equal_their_integers(tmp_path):
    paths = _write_scene_files(tmp_path, side=32)
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({"detector": "glcm-hacd", "t0": paths["t0"], "t1": paths["t1"],
                   "patch": 5.0, "glcm_levels": 4.0, "glcm_offsets": [[0.0, 1.0], [1, 0]]}, fh)
    out_cfg = str(tmp_path / "cfg")
    assert main(["detect", "--config", cfg_path, "--out", out_cfg]) == 0
    # flag numbers follow the config rule: 5.0 means 5
    for patch, levels in (("5", "4"), ("5.0", "4.0")):
        out_flags = str(tmp_path / f"flags-{patch}")
        assert main(["detect", "--detector", "glcm-hacd", "--t0", paths["t0"], "--t1", paths["t1"],
                     "--patch", patch, "--levels", levels, "--offsets", "0,1;1,0",
                     "--out", out_flags]) == 0
        for name in ("anomaly.r32", "model.json"):
            with open(os.path.join(out_cfg, name), "rb") as a, \
                    open(os.path.join(out_flags, name), "rb") as b:
                assert a.read() == b.read(), (patch, name)


# flag text from the extremes; "true" and "0x10" are no numbers, " 5 " and
# "1_0" are (int() and float() take them)
_FLAG_TEXTS = ["0", "-0.0", "1e308", "-1e308", "5e-324", str(2**63), "nan", "inf", "-inf",
               "true", "", "abc", "0x10", " 5 ", "1_0"]


def _at_most_nine(text: str) -> bool:
    try:
        return float(text) <= 9
    except ValueError:
        return True


_TEXT = st.sampled_from(_FLAG_TEXTS) | st.integers(-3, 9).map(str)
# a well-formed large --patch or --levels allocates without bound (ROADMAP
# item 7, pinned by test_detect_too_large_for_memory_is_exit_2)
_SMALL_TEXT = _TEXT.filter(_at_most_nine)
_PAIR_TEXT = st.lists(st.tuples(_TEXT, _TEXT).map(",".join), min_size=1, max_size=2).map(";".join)
_FLAG_STRATEGIES = {
    "detect": {"--detector": st.sampled_from(["diff", "hacd", "patch-hacd", "glcm-hacd"]) | _TEXT,
               "--patch": _SMALL_TEXT, "--levels": _SMALL_TEXT,
               "--ridge": _TEXT | st.floats(0, 1).map(repr), "--offsets": _PAIR_TEXT | _TEXT},
    "eval": {"--fpr-max": _TEXT | st.floats(0, 1).map(repr)},
    "synth": {"--seed": _TEXT},
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_flag_text_is_exit_0_or_2_with_readable_outputs(tmp_path, data):
    paths = _write_scene_files(tmp_path, side=16)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"width": 16, "height": 16, "background_corr_len": 2,
                                 "anomaly_rect": [3, 3, 8, 8]}))
    command = data.draw(st.sampled_from(sorted(_FLAG_STRATEGIES)), label="command")
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    argv = {"detect": ["detect", "--detector", "glcm-hacd", "--t0", paths["t0"],
                       "--t1", paths["t1"], "--patch", "3"],
            "eval": ["eval", "--map", paths["t0"], "--inner", paths["inner"]],
            "synth": ["synth", "--config", str(scene)]}[command] + ["--out", str(out)]
    for flag, text in _FLAG_STRATEGIES[command].items():
        # a flag is left out twice as often as given, so that some runs succeed
        text = data.draw(st.one_of(st.none(), st.none(), text), label=flag)
        if text is not None:
            # argparse takes "-1e308" after a space for an option, a usage error
            spaced = data.draw(st.booleans(), label=f"{flag} spaced")
            argv += [flag, text] if spaced else [f"{flag}={text}"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), err.getvalue()
    event(f"{command} exit {rc}")
    if rc == 2:
        assert err.getvalue().startswith("error "), err.getvalue()
        name = err.getvalue().split()[1].rstrip(":")
        assert issubclass(getattr(acdkit.errors, name), acdkit.errors.AcdError)
        return
    written = sorted(os.listdir(out))
    assert written
    for name in written:
        path = str(out / name)
        if name == "model.json":
            load_model(path)
        elif name.endswith(".r32"):
            load_raster(path)
        elif name.endswith(".json") and name[:-5] + ".r32" not in written:
            with open(path) as fh:
                json.load(fh)


# config values of every JSON type, the extremes among them; "x" names no
# file or suite scene
_SCALARS = (st.sampled_from([True, False, None, "", "x", -0.0, 5e-324, 1e308, -1e308,
                             2**63, -2**63, 0.5])
            | st.integers(-3, 9))
_VALUES = _SCALARS | st.lists(_SCALARS | st.lists(_SCALARS, max_size=3), max_size=3)
# the keys drawn for each command's config; detect's out and run's are
# config paths, synth's a flag
_CONFIG_KEYS = {
    "detect": ["patch", "glcm_levels", "glcm_offsets", "ridge", "t0", "t1", "out"],
    "run": [*acdkit.cli._OPTIONS, "t0", "t1", "inner", "outer", "out", "scene"],
    "synth": [f.name for f in dataclasses.fields(SceneConfig)],
}
# these keys at a large integral value allocate without bound (ROADMAP item 7)
_SIZES = {("detect", "glcm_levels"), ("synth", "width"), ("synth", "height")}


def _is_large(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 64


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_config_value_is_exit_0_or_2_with_readable_outputs(tmp_path, monkeypatch, data):
    """Up to three keys of a ``detect --config``, a ``run`` config (``diff``
    alone) or a ``synth --config`` scene take a drawn value; the others keep
    a valid one on a 24x20 scene.  A large glcm_levels or grid side is left
    out: it would allocate without bound in this process, and
    test_detect_too_large_for_memory_is_exit_2,
    test_detect_glcm_levels_past_int64_is_exit_2 and
    test_synth_grid_side_past_int64_is_exit_2 pin those in a child under
    RLIMIT_AS."""
    scene = {**_SMALL_SCENE, "width": 24, "height": 20, "anomaly_rect": [4, 4, 10, 8]}
    paths = tmp_path / "inputs"
    if not paths.exists():
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        assert main(["synth", "--config", str(tmp_path / "scene.json"), "--out", str(paths)]) == 0
    command = data.draw(st.sampled_from(sorted(_CONFIG_KEYS)), label="command")
    inputs = {k: str(paths / k) for k in ("t0", "t1", "inner", "outer")}
    cfg = {"detect": {"detector": data.draw(st.sampled_from(acdkit.DETECTOR_NAMES),
                                            label="detector"),
                      "t0": inputs["t0"], "t1": inputs["t1"], "out": "o"},
           "run": {**inputs, "detectors": ["diff"], "out": "o"},
           "synth": scene}[command]
    keys = data.draw(st.lists(st.sampled_from(_CONFIG_KEYS[command]), unique=True, max_size=3),
                     label="keys")
    for key in keys:
        value = _VALUES
        if (command, key) in _SIZES:
            value = _VALUES.filter(lambda v: not _is_large(v))
        cfg[key] = data.draw(value, label=key)
    cfg_path = str(tmp_path / "cfg.json")
    Path(cfg_path).write_text(json.dumps(cfg))
    # outputs, at any relative path a config names, land in a new directory
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    argv = {"detect": ["detect", "--config", cfg_path],
            "run": ["run", cfg_path],
            "synth": ["synth", "--config", cfg_path, "--out", "o"]}[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), err.getvalue()
    event(f"{command} exit {rc}")
    if rc == 2:
        assert err.getvalue().startswith("error "), err.getvalue()
        name = err.getvalue().split()[1].rstrip(":")
        assert issubclass(getattr(acdkit.errors, name), acdkit.errors.AcdError)
        return
    written = sorted(p for p in work.rglob("*") if p.is_file())
    assert written
    for path in written:
        if path.name == "model.json":
            load_model(str(path))
        elif path.suffix == ".r32":
            load_raster(str(path))
        elif path.suffix == ".json" and not path.with_suffix(".r32").exists():
            json.loads(path.read_text())


def _main_under_rlimit_as(src_env, argv) -> subprocess.CompletedProcess:
    """``acdkit <argv>`` in a child that sets a 1.5 GB RLIMIT_AS on itself."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, resource.getrlimit("
            "resource.RLIMIT_AS)[1]))\n"
            "from acdkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=src_env, capture_output=True, text=True, timeout=120)


@pytest.mark.xfail(strict=True, reason="no memory plan before allocating (ROADMAP item 7)")
def test_detect_too_large_for_memory_is_exit_2(tmp_path, src_env):
    """A well-formed option whose work exceeds the memory the process may use
    should leave as exit 2 with a named AcdError.  It does not yet: nothing
    plans memory before allocating, so --levels 20000 (200 010 000 GLCM
    cells) on a 16x16 pair exits 3 with NumPy's _ArrayMemoryError under a
    1.5 GB RLIMIT_AS, which the child sets on itself."""
    paths = _write_scene_files(tmp_path, side=16)
    proc = _main_under_rlimit_as(src_env, [
        "detect", "--detector", "glcm-hacd", "--levels", "20000", "--t0", paths["t0"],
        "--t1", paths["t1"], "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error ")


@pytest.mark.xfail(strict=True, reason="no memory plan before allocating (ROADMAP item 7)")
@pytest.mark.parametrize("levels", [2**63, 1e308], ids=["2**63", "1e308"])
def test_detect_glcm_levels_past_int64_is_exit_2(tmp_path, src_env, levels):
    """A config's glcm_levels of 2**63 or 1e308 is an integer >= 1, so it
    passes the option check, and glcm-hacd exits 3 with an OverflowError at
    ``lev_sorted *= levels`` in features.quantize.  A memory plan would
    refuse its levels (levels + 1) / 2 GLCM cells first, with exit 2."""
    paths = _write_scene_files(tmp_path, side=16)
    cfg_path = tmp_path / "d.json"
    cfg_path.write_text(json.dumps({"detector": "glcm-hacd", "glcm_levels": levels,
                                    "t0": paths["t0"], "t1": paths["t1"]}))
    proc = _main_under_rlimit_as(src_env, ["detect", "--config", str(cfg_path),
                                           "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error ")


@pytest.mark.xfail(strict=True, reason="no memory plan before allocating (ROADMAP item 7)")
@pytest.mark.parametrize("key,side", [("width", 2**63), ("height", 1e308)],
                         ids=["width-2**63", "height-1e308"])
def test_synth_grid_side_past_int64_is_exit_2(tmp_path, src_env, key, side):
    """A scene config's width or height of 2**63 or 1e308 makes a valid
    SceneConfig, and synth exits 3 with NumPy's "ValueError: Maximum allowed
    dimension exceeded" where rng._blocks makes the background field's
    output array.  A memory plan would refuse the grid first, with exit 2."""
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps({**_SMALL_SCENE, key: side}))
    proc = _main_under_rlimit_as(src_env, ["synth", "--config", str(cfg_path),
                                           "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error ")


def test_run_suite_scene_without_seed_uses_the_suite_seed(tmp_path):
    cfg_path = str(tmp_path / "run.json")
    with open(cfg_path, "w") as fh:
        json.dump({"scene": "textured", "detectors": ["diff"]}, fh)
    run_out, synth_out = str(tmp_path / "run"), str(tmp_path / "synth")
    assert main(["run", cfg_path, "--out", run_out]) == 0
    assert main(["synth", "textured", "--out", synth_out]) == 0
    with open(os.path.join(run_out, "scene", "t0.r32"), "rb") as a, \
            open(os.path.join(synth_out, "t0.r32"), "rb") as b:
        assert a.read() == b.read()


def test_cli_annotations_resolve():
    # every name used in an annotation of the CLI module must be importable
    functions = [f for _, f in inspect.getmembers(acdkit.cli, inspect.isfunction)
                 if f.__module__ == "acdkit.cli"]
    assert functions
    for f in functions:
        typing.get_type_hints(f)


@pytest.mark.parametrize("module", ["acdkit", "acdkit.cli"])
def test_runtime_imports_no_scipy(tmp_path, module, src_env):
    # numpy is the only runtime dependency (scipy is a test-only oracle):
    # importing the module, and for the CLI a synth and a four-detector run
    # in the same process, loads no top-level module outside the standard
    # library but numpy and acdkit, beyond what the bare interpreter had
    # loaded (site .pth hooks)
    commands = []
    if module == "acdkit.cli":
        scene, run = tmp_path / "scene.json", tmp_path / "run.json"
        scene.write_text(json.dumps({"width": 48, "height": 48, "background_corr_len": 4,
                                     "anomaly_rect": [16, 16, 12, 10],
                                     "anomaly_texture_gain": 2.5}))
        run.write_text(json.dumps({
            "scene": {k: str(tmp_path / "scene" / k) for k in ("t0", "t1", "inner", "outer")},
            "detectors": ["diff", "hacd", "patch-hacd", "glcm-hacd"]}))
        commands = [["synth", "--config", str(scene), "--out", str(tmp_path / "scene")],
                    ["run", str(run), "--out", str(tmp_path / "run")]]
    code = ("import sys\n"
            "bare = {m.partition('.')[0] for m in sys.modules}\n"
            f"import {module}\n"
            f"for argv in {commands!r}:\n"
            "    assert acdkit.cli.main(argv) == 0\n"
            "added = {m.partition('.')[0] for m in sys.modules} - bare\n"
            "print(sorted(added - set(sys.stdlib_module_names)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['acdkit', 'numpy']"
