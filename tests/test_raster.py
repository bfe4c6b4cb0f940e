import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from acdkit import (
    AnomalyMap,
    DimensionMismatch,
    FormatError,
    GroundTruth,
    HacdModel,
    IoError,
    MaskInconsistent,
    NotFound,
    Raster,
    config_from_json,
    config_to_json,
    load_ground_truth,
    load_model,
    load_raster,
    make_pair,
    render_loglog_svg,
    roc,
    save_model,
    save_raster,
    scene_suite,
    write_roc_csv,
)
from acdkit.cli import build_parser
from acdkit.raster import write_text


def _write_r32(base, width, height, payload: bytes, header=None):
    header = header or {
        "magic": "R32", "width": width, "height": height,
        "dtype": "f32le", "order": "row-major",
    }
    with open(base + ".json", "w") as fh:
        json.dump(header, fh)
    with open(base + ".r32", "wb") as fh:
        fh.write(payload)


def test_load_known_bytes(tmp_path):
    base = str(tmp_path / "a")
    _write_r32(base, 2, 2, struct.pack("<4f", 1, 2, 3, 4))
    r = load_raster(base)
    assert (r.width, r.height) == (2, 2)
    assert r.data.tolist() == [[1, 2], [3, 4]]


def test_round_trip_identity(tmp_path):
    rs = [
        Raster(np.array([[0.0]], np.float32)),
        Raster(np.zeros((2, 3), np.float32)),
        Raster(np.arange(12, dtype=np.float32).reshape(3, 4) / 7),
    ]
    for i, r in enumerate(rs):
        base = str(tmp_path / f"r{i}")
        save_raster(r, base)
        back = load_raster(base)
        assert back == r
        # bit-for-bit payload
        assert back.data.tobytes() == r.data.tobytes()


def test_round_trip_random_property(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(25):
        h, w = rng.integers(1, 9, size=2)
        scale = 10.0 ** float(rng.integers(-3, 4))
        r = Raster((rng.normal(size=(h, w)) * scale).astype(np.float32))
        base = str(tmp_path / f"p{i}")
        save_raster(r, base)
        assert load_raster(base) == r


def test_load_accepts_either_sidecar_name(tmp_path):
    base = str(tmp_path / "x")
    save_raster(Raster(np.ones((1, 2), np.float32)), base)
    assert load_raster(base + ".r32") == load_raster(base + ".json") == load_raster(base)


def test_payload_length_mismatch(tmp_path):
    base = str(tmp_path / "short")
    _write_r32(base, 2, 2, b"\x00" * 12)
    with pytest.raises(FormatError):
        load_raster(base)


def test_nan_payload_rejected(tmp_path):
    base = str(tmp_path / "nan")
    _write_r32(base, 2, 2, struct.pack("<4f", 1, float("nan"), 3, 4))
    with pytest.raises(FormatError):
        load_raster(base)


def test_bad_magic_rejected(tmp_path):
    base = str(tmp_path / "magic")
    _write_r32(base, 1, 1, struct.pack("<f", 0.0),
               header={"magic": "TIF", "width": 1, "height": 1,
                       "dtype": "f32le", "order": "row-major"})
    with pytest.raises(FormatError):
        load_raster(base)


@pytest.mark.parametrize("field,value,message", [
    ("dtype", "f64le", "unsupported dtype/order"),
    ("width", 0, "width/height must be positive integers"),
])
def test_bad_header_field_rejected(tmp_path, field, value, message):
    base = str(tmp_path / "bad")
    _write_r32(base, 1, 1, struct.pack("<f", 0.0),
               header={"magic": "R32", "width": 1, "height": 1,
                       "dtype": "f32le", "order": "row-major", field: value})
    with pytest.raises(FormatError, match=message):
        load_raster(base)


def test_missing_file(tmp_path):
    with pytest.raises(NotFound):
        load_raster(str(tmp_path / "nope"))


def test_non_utf8_header_is_format_error(tmp_path):
    base = str(tmp_path / "r")
    _write_r32(base, 1, 1, struct.pack("<f", 0.0))
    with open(base + ".json", "wb") as fh:
        fh.write(b"\xff\xfe{}")
    with pytest.raises(FormatError, match=re.escape(base + ".json")):
        load_raster(base)


# --- the file boundary: every reader and writer, library and CLI ------------

def _cli(argv):
    """Run one acdkit command and let its AcdError propagate."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def _inputs(tmp_path):
    """An 8x8 raster pair and inner mask on disk; returns their base paths."""
    rng = np.random.default_rng(5)
    paths = {}
    for name, arr in (("t0", rng.normal(size=(8, 8))), ("t1", rng.normal(size=(8, 8))),
                      ("inner", np.eye(8))):
        paths[name] = str(tmp_path / name)
        save_raster(Raster(arr.astype(np.float32)), paths[name])
    return paths


def _band():
    mask = np.eye(3, dtype=bool)
    return roc(AnomalyMap(np.arange(9.0).reshape(3, 3)), GroundTruth(mask, mask))


def _in_missing_dir(write):
    """A case calling ``write(tmp_path, path)`` with a path whose directory
    does not exist."""
    def case(tmp_path):
        path = str(tmp_path / "no" / "such" / "dir" / "f")
        return path, lambda: write(tmp_path, path)
    return case


def _blocked(tmp_path, name):
    """The CLI creates its output directory ``out`` itself, so its write of
    ``out/name`` is made to fail by a directory already named so."""
    (tmp_path / "out" / name).mkdir(parents=True)
    return str(tmp_path / "out"), str(tmp_path / "out" / name)


def _summary_case(tmp_path):
    paths = _inputs(tmp_path)
    out, target = _blocked(tmp_path, "summary.json")
    return target, lambda: _cli(["eval", "--map", paths["t0"], "--inner", paths["inner"],
                                 "--out", out])


def _league_case(tmp_path):
    paths = _inputs(tmp_path)
    out, target = _blocked(tmp_path, "league.csv")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"detectors": ["diff"], "out": out, **paths}))
    return target, lambda: _cli(["run", str(config)])


_WRITERS = {
    "save_raster": _in_missing_dir(
        lambda tmp_path, path: save_raster(Raster(np.zeros((1, 1), np.float32)), path)),
    "save_model": _in_missing_dir(
        lambda tmp_path, path: save_model(HacdModel(np.zeros(1), np.zeros(1), np.eye(2)), path)),
    "config_to_json": _in_missing_dir(
        lambda tmp_path, path: config_to_json(scene_suite()["textured"], path)),
    "write_roc_csv": _in_missing_dir(lambda tmp_path, path: write_roc_csv(_band(), path)),
    "render_loglog_svg": _in_missing_dir(
        lambda tmp_path, path: render_loglog_svg({"x": _band()}, path)),
    "convert-dump": _in_missing_dir(
        lambda tmp_path, path: _cli(["convert", _inputs(tmp_path)["t0"], path])),
    "summary.json": _summary_case,
    "league.csv": _league_case,
}


@pytest.mark.parametrize("case", _WRITERS.values(), ids=_WRITERS.keys())
def test_unwritable_directory(tmp_path, case):
    path, write = case(tmp_path)
    with pytest.raises(IoError, match=re.escape(path)):
        write()


def _failing_chunks():
    yield "threshold,fpr\n"  # a header-only file would look finished
    raise ValueError("bad chunk")


def test_chunk_error_leaves_no_file(tmp_path):
    path = tmp_path / "roc.csv"
    with pytest.raises(ValueError, match="bad chunk"):
        write_text(str(path), _failing_chunks())
    assert not path.exists()
    # a link at the path is not removed
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    path.symlink_to(target)
    with pytest.raises(ValueError, match="bad chunk"):
        write_text(str(path), _failing_chunks())
    assert path.is_symlink()


def test_write_past_the_file_size_limit_leaves_no_file(tmp_path, src_env):
    # the OS refuses the write itself (EFBIG under RLIMIT_FSIZE, which the
    # child sets on itself; Python ignores SIGXFSZ)
    path = str(tmp_path / "big.txt")
    code = ("import resource, sys\n"
            "from acdkit.errors import IoError\n"
            "from acdkit.raster import write_text\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit("
            "resource.RLIMIT_FSIZE)[1]))\n"
            "try:\n"
            "    write_text(sys.argv[1], ['x' * 1000 + '\\n'] * 100)\n"
            "except IoError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    proc = subprocess.run([sys.executable, "-c", code, path], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"IoError cannot write {path}:")
    assert not os.path.exists(path)


def test_raster_save_past_the_file_size_limit_leaves_no_sidecar(tmp_path, src_env):
    # the payload (256 KiB) passes the 64 KiB limit; its header must not be
    # left behind beside a truncated payload
    base = str(tmp_path / "m")
    code = ("import resource, sys\n"
            "import numpy as np\n"
            "from acdkit.errors import IoError\n"
            "from acdkit.raster import Raster, save_raster\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (65536, resource.getrlimit("
            "resource.RLIMIT_FSIZE)[1]))\n"
            "try:\n"
            "    save_raster(Raster(np.ones((256, 256), np.float32)), sys.argv[1])\n"
            "except IoError as exc:\n"
            "    print(type(exc).__name__, exc)\n")
    proc = subprocess.run([sys.executable, "-c", code, base], env=src_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"IoError cannot write {base}.r32:")
    assert os.listdir(tmp_path) == []
    with pytest.raises(NotFound):
        load_raster(base)


def test_raster_save_whose_header_write_fails_leaves_no_payload(tmp_path):
    # a directory at the header's name fails the header write after the
    # payload was written, which must then go too
    base = str(tmp_path / "m")
    os.mkdir(base + ".json")
    with pytest.raises(IoError, match=f"cannot write {re.escape(base)}.json"):
        save_raster(Raster(np.ones((4, 4), np.float32)), base)
    assert os.listdir(tmp_path) == ["m.json"]


@pytest.mark.parametrize("read", [
    load_raster,
    load_model,
    config_from_json,
    lambda path: _cli(["synth", "--config", path, "--out", path + ".out"]),
    lambda path: _cli(["detect", "--config", path]),
    lambda path: _cli(["run", path]),
], ids=["load_raster", "load_model", "config_from_json", "synth-config", "detect-config",
        "run-config"])
def test_missing_file_is_not_found(tmp_path, read):
    path = str(tmp_path / "nope.json")
    with pytest.raises(NotFound, match=re.escape(path)):
        read(path)


def test_raster_rejects_nonfinite_in_memory():
    with pytest.raises(FormatError):
        Raster(np.array([[np.inf]], np.float32))


def test_make_pair():
    a = Raster(np.zeros((2, 2), np.float32))
    b = Raster(np.ones((2, 2), np.float32))
    pair = make_pair(a, b)
    assert pair.t0 == a and pair.t1 == b
    same = make_pair(a, a)
    assert same.t0 == same.t1


def test_make_pair_dimension_mismatch():
    a = Raster(np.zeros((2, 2), np.float32))
    b = Raster(np.zeros((2, 3), np.float32))
    with pytest.raises(DimensionMismatch):
        make_pair(a, b)


def _mask_raster(mask):
    return Raster(mask.astype(np.float32))


def test_ground_truth_single_mask(tmp_path):
    m = np.zeros((3, 4), bool)
    m[1, 1:3] = True
    base = str(tmp_path / "m")
    save_raster(_mask_raster(m), base)
    gt = load_ground_truth(base, None, (4, 3))
    assert np.array_equal(gt.inner, gt.outer)
    assert np.array_equal(gt.inner, m)


def test_ground_truth_subset_violation(tmp_path):
    inner = np.zeros((2, 2), bool)
    inner[0, 0] = True
    outer = np.zeros((2, 2), bool)
    outer[1, 1] = True
    pi, po = str(tmp_path / "i"), str(tmp_path / "o")
    save_raster(_mask_raster(inner), pi)
    save_raster(_mask_raster(outer), po)
    with pytest.raises(MaskInconsistent):
        load_ground_truth(pi, po, (2, 2))


def test_ground_truth_wrong_grid(tmp_path):
    base = str(tmp_path / "g")
    save_raster(_mask_raster(np.zeros((2, 2), bool)), base)
    with pytest.raises(DimensionMismatch):
        load_ground_truth(base, None, (3, 3))
    # without a grid the inner mask's own grid is the one the outer must have
    assert load_ground_truth(base, base).shape == (2, 2)
    other = str(tmp_path / "h")
    save_raster(_mask_raster(np.zeros((2, 3), bool)), other)
    with pytest.raises(DimensionMismatch, match="is 3x2, expected 2x2"):
        load_ground_truth(base, other)


def test_mask_values_must_be_binary(tmp_path):
    base = str(tmp_path / "half")
    save_raster(Raster(np.full((2, 2), 0.5, np.float32)), base)
    with pytest.raises(FormatError):
        load_ground_truth(base, None, (2, 2))


def test_subset_relation_is_exact_acceptance_rule(tmp_path):
    # random mask pairs: construction succeeds iff inner is a subset of outer
    rng = np.random.default_rng(3)
    for i in range(50):
        inner = rng.random((5, 6)) < 0.3
        outer = rng.random((5, 6)) < 0.5
        subset = bool(np.all(outer[inner]))
        pi, po = str(tmp_path / f"i{i}"), str(tmp_path / f"o{i}")
        save_raster(_mask_raster(inner), pi)
        save_raster(_mask_raster(outer), po)
        if subset:
            gt = load_ground_truth(pi, po, (6, 5))
            assert np.array_equal(gt.inner, inner)
        else:
            with pytest.raises(MaskInconsistent):
                load_ground_truth(pi, po, (6, 5))


def test_ground_truth_type_checks_subset_directly():
    with pytest.raises(MaskInconsistent):
        GroundTruth(np.ones((2, 2), bool), np.zeros((2, 2), bool))


def test_header_bytes_stable(tmp_path):
    r = Raster(np.zeros((2, 3), np.float32))
    b1, b2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    save_raster(r, b1)
    save_raster(r, b2)
    for ext in (".json", ".r32"):
        with open(b1 + ext, "rb") as f1, open(b2 + ext, "rb") as f2:
            assert f1.read() == f2.read()
