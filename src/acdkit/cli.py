"""Command-line pipeline runner.

Subcommands:
    detect   run one detector on a raster pair, write the anomaly map
    eval     score an anomaly map against ground-truth masks
    synth    generate a named or configured synthetic scene
    run      detect + eval for several detectors, with a combined plot:
             every detector runs, then every map is evaluated
    convert  R32 raster <-> plain-text pixel dump

``eval`` and ``run`` evaluate a map with one function,
``acdkit.evaluate.evaluate_map``.

Exit codes: 0 success, 2 user/data error (the diagnostic names the
originating error class), 3 internal invariant violation.  Option
precedence is flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import os
import sys
import traceback

from .detectors import DETECTOR_NAMES, run_detector
from .errors import AcdError, BadConfig, FormatError, NotFound
from .evaluate import DEFAULT_FPR_MAX, evaluate_map, write_loglog_svg
# bench/spans.py traces these three here
from .evaluate import render_loglog_svg, roc, write_roc_csv  # noqa: F401
from .features import DEFAULT_LEVELS, DEFAULT_OFFSETS, DEFAULT_PATCH
from .hacd import save_model
from .raster import (
    CoregisteredPair,
    Raster,
    _base_path,
    load_ground_truth,
    load_raster,
    make_dir,
    make_pair,
    read_json,
    read_text,
    save_raster,
    write_text,
)
from .synth import (
    SceneConfig,
    _real,
    config_from_json,
    config_to_json,
    generate_scene,
    scene_suite,
)

# the config keys each command reads
_DETECT_KEYS = {"detector", "patch", "glcm_levels", "glcm_offsets", "ridge", "t0", "t1", "out"}
_RUN_KEYS = (_DETECT_KEYS - {"detector"}) | {
    "roc_fpr_max", "inner", "outer", "detectors", "scene", "seed"}
_SCENE_PATHS = ("t0", "t1", "inner", "outer")


def _count(text: str) -> int | float:
    """int() keeps every digit; other numbers are floats, taken if integral ('5.0' is 5)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _pairs(text: str) -> list[list[int | float]]:
    """'0,1;1,0' as [[0, 1], [1, 0]]; an empty part does not parse."""
    return [[_count(v) for v in part.split(",")] for part in text.split(";")]


def _number(integer: bool, expected: str, valid=lambda v: True):
    """The check of a numeric option: a real number by the rule scene configs use (not a
    bool or a string, and an integer where the option counts something) that ``valid`` takes."""
    def check(key: str, value):
        try:
            number = _real(key, value, integer=True) if integer else float(_real(key, value))
        except (BadConfig, OverflowError):
            number = None
        if number is None or not valid(number):
            raise BadConfig(f"{key} must be {expected}, got {value!r}")
        return number
    return check


def _offset_pairs(key: str, value) -> tuple[tuple[int, int], ...]:
    """``value`` as a non-empty tuple of integer (dy, dx) pairs, or BadConfig."""
    try:
        pairs = tuple(tuple(_real(key, v, integer=True) for v in (dy, dx)) for dy, dx in value)
    except (TypeError, ValueError, BadConfig):
        pairs = ()
    if not pairs:
        raise BadConfig(f"{key} must be a non-empty list of dy,dx pairs, got {value!r}")
    return pairs


# one row per option, in the order _options checks them; a None default leaves it unset
_Option = collections.namedtuple("_Option", "default flag metavar read check help")
_OPTIONS = {
    "patch": _Option(DEFAULT_PATCH, "--patch", None, _count, _number(True, "an integer"),
                     "odd patch side length (default {default})"),
    "glcm_levels": _Option(DEFAULT_LEVELS, "--levels", "L", _count,
                           _number(True, "an integer >= 1", lambda v: v >= 1),
                           "GLCM grey levels (default {default})"),
    "ridge": _Option(None, "--ridge", None, float, _number(False, "a finite number"),
                     "covariance ridge epsilon"),
    "roc_fpr_max": _Option(DEFAULT_FPR_MAX, "--fpr-max", "FPR", float,
                           _number(False, "a number in (0, 1]", lambda v: 0.0 < v <= 1.0),
                           "pAUC limit (default {default})"),
    "seed": _Option(None, "--seed", None, _count, _number(True, "an integer"),
                    "override the config seed"),
    "glcm_offsets": _Option(DEFAULT_OFFSETS, "--offsets", "DY,DX;...", _pairs, _offset_pairs,
                            "GLCM offsets"),
}


def _flags(args: argparse.Namespace, keys) -> dict:
    """The given flags among ``keys`` as option values, checked by _options; read in
    the parser's order, so a bad flag named does not follow a set's hash order."""
    flags = {}
    for key, text in vars(args).items():
        if key in keys and text is not None:
            option = _OPTIONS.get(key)
            try:
                flags[key] = option.read(text) if option else text
            except ValueError:
                expected = "pairs 'dy,dx;dy,dx;...'" if key == "glcm_offsets" else "a number"
                raise BadConfig(f"{option.flag} must be {expected}, got {text!r}") from None
    return flags


def _options(config: dict, flags: dict) -> dict:
    """Defaults < config < flags (a null config value is unset), converted and checked
    once, so a bad flag and a bad config field fail alike."""
    cfg = {k: o.default for k, o in _OPTIONS.items() if o.default is not None}
    cfg.update((k, v) for src in (config, flags) for k, v in src.items() if v is not None)
    cfg.update((k, o.check(k, cfg[k])) for k, o in _OPTIONS.items() if k in cfg)
    for key in (*_SCENE_PATHS, "out"):
        if not isinstance(cfg.get(key, ""), str):
            raise BadConfig(f"path {key!r} must be a string, got {cfg[key]!r}")
    if not isinstance(cfg.get("scene", ""), (str, dict)):
        raise BadConfig("scene must be a suite name or a path object")
    if "detectors" in cfg and not (isinstance(cfg["detectors"], list) and cfg["detectors"]):
        raise BadConfig(f"detectors must be a non-empty list, got {cfg['detectors']!r}")
    names = cfg.get("detectors", []) + ([cfg["detector"]] if "detector" in cfg else [])
    for i, name in enumerate(names):
        if name not in DETECTOR_NAMES:
            raise BadConfig(f"unknown detector {name!r}, expected one of {DETECTOR_NAMES}")
        if name in names[:i]:
            raise BadConfig(f"detector {name!r} is listed more than once")
    return cfg


def _require(cfg: dict, key: str) -> object:
    if not cfg.get(key):
        raise BadConfig(f"required option {key!r} missing (flag or config)")
    return cfg[key]


def _map_base(out_dir: str) -> str:
    """The base path of the anomaly map that detection writes into ``out_dir``."""
    return os.path.join(out_dir, "anomaly")


def _detect_pair(cfg: dict, pair: CoregisteredPair, out_dir: str) -> None:
    """Run cfg's detector on ``pair``, write its map (and model) into out_dir."""
    amap, model = run_detector(cfg["detector"], pair, patch=cfg["patch"], levels=cfg["glcm_levels"],
                               offsets=cfg["glcm_offsets"], ridge=cfg.get("ridge"))
    make_dir(out_dir)
    save_raster(Raster(amap.scores), _map_base(out_dir))
    if model is not None:
        save_model(model, os.path.join(out_dir, "model.json"))


def cmd_detect(args: argparse.Namespace) -> int:
    config = read_json(args.config, BadConfig, _DETECT_KEYS) if args.config else {}
    cfg = _options(config, _flags(args, _DETECT_KEYS))
    out_dir = _require(cfg, "out")
    _require(cfg, "detector")
    pair = make_pair(load_raster(_require(cfg, "t0")), load_raster(_require(cfg, "t1")))
    _detect_pair(cfg, pair, out_dir)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    fpr_max = _options({}, _flags(args, ["roc_fpr_max"]))["roc_fpr_max"]
    evaluate_map(args.map, args.out, (args.inner, args.outer), fpr_max)
    return 0


def _write_scene(cfg: SceneConfig, out_dir: str) -> None:
    """Synthesise the scene of ``cfg`` and its masks into ``out_dir``."""
    t0, t1, gt = generate_scene(cfg)
    make_dir(out_dir)
    save_raster(t0, os.path.join(out_dir, "t0"))
    save_raster(t1, os.path.join(out_dir, "t1"))
    save_raster(Raster(gt.inner), os.path.join(out_dir, "inner"))
    save_raster(Raster(gt.outer), os.path.join(out_dir, "outer"))
    config_to_json(cfg, os.path.join(out_dir, "scene.json"))


def _resolve_scene_config(name_or_none: str | None, config_path: str | None) -> SceneConfig:
    if (name_or_none is None) == (config_path is None):
        raise BadConfig("give exactly one of a scene name or --config")
    if config_path is not None:
        return config_from_json(config_path)
    suite = scene_suite()
    if name_or_none not in suite:
        raise BadConfig(f"unknown scene {name_or_none!r}, expected one of {sorted(suite)}")
    return suite[name_or_none]


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_scene_config(args.scene, args.config)
    _write_scene(dataclasses.replace(cfg, **_flags(args, ["seed"])), args.out)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Detect with every listed detector in order, then evaluate each map
    as ``eval`` does; write the combined roc.svg and league.csv from the
    plot points and summaries of the evaluations."""
    config = read_json(args.config, BadConfig, _RUN_KEYS)
    # a scene path object gives the same keys as the top level
    paths = config.get("scene") if isinstance(config.get("scene"), dict) else {}
    if unknown := set(paths) - set(_SCENE_PATHS):
        raise BadConfig(f"unknown scene path keys {sorted(unknown)}")
    cfg = _options({**config, **paths}, _flags(args, ["out"]))
    if clash := set(paths) & set(config):
        raise BadConfig(f"paths {sorted(clash)} are both in the scene object and at the top level")
    suite = isinstance(cfg.get("scene"), str)
    if suite and (clash := set(_SCENE_PATHS) & set(cfg)):
        raise BadConfig(f"paths {sorted(clash)} are given beside a suite scene name")
    if not suite and "seed" in cfg:
        raise BadConfig("'seed' applies only to a suite scene name, not to scene paths")
    out_dir = _require(cfg, "out")
    detectors = _require(cfg, "detectors")

    if suite:
        scene_cfg = _resolve_scene_config(cfg["scene"], None)
        if "seed" in cfg:
            scene_cfg = dataclasses.replace(scene_cfg, seed=cfg["seed"])
        scene_dir = os.path.join(out_dir, "scene")
        cfg.update((k, os.path.join(scene_dir, k)) for k in _SCENE_PATHS)
        _write_scene(scene_cfg, scene_dir)
    t0, t1, inner = (_require(cfg, k) for k in ("t0", "t1", "inner"))
    pair = make_pair(load_raster(t0), load_raster(t1))
    grid = (pair.t0.width, pair.t0.height)
    # masks off the grid fail before any detector runs; they are loaded again
    # once the pair is dropped, so that detection's peak does not hold them
    load_ground_truth(inner, cfg.get("outer"), grid)
    dirs = [os.path.join(out_dir, name) for name in detectors]
    for name, d in zip(detectors, dirs):
        _detect_pair({**cfg, "detector": name}, pair, d)
    del pair
    truth = load_ground_truth(inner, cfg.get("outer"), grid)
    outcomes = [evaluate_map(_map_base(d), d, truth, cfg["roc_fpr_max"]) for d in dirs]

    points = {name: p for name, (p, _) in zip(detectors, outcomes)}
    rows = [(name, s["pauc_inner"], s["pauc_outer"], s["auc_inner"], s["auc_outer"])
            for name, (_, s) in zip(detectors, outcomes)]

    write_loglog_svg(points, os.path.join(out_dir, "roc.svg"))
    rows.sort(key=lambda r: (-r[1], r[0]))
    lines = ["detector,pauc_inner,pauc_outer,auc_inner,auc_outer"]
    lines += [f"{r[0]},{r[1]!r},{r[2]!r},{r[3]!r},{r[4]!r}" for r in rows]
    write_text(os.path.join(out_dir, "league.csv"), "\n".join(lines) + "\n")
    return 0


def _dump_lines(r: Raster):
    yield f"{r.width} {r.height}\n"
    for row in r.data:
        yield " ".join(map(repr, row.tolist())) + "\n"


def _parse_text(path: str) -> Raster:
    lines = [ln for ln in read_text(path, FormatError).splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty pixel dump")
    try:
        width, height = (int(v) for v in lines[0].split())
        rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise FormatError(f"{path}: bad pixel dump: {exc}") from exc
    if len(rows) != height or any(len(row) != width for row in rows):
        raise FormatError(f"{path}: dump does not match declared {width}x{height}")
    try:
        return Raster(rows)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cmd_convert(args: argparse.Namespace) -> int:
    base = _base_path(args.src)
    if os.path.isfile(base + ".r32") and os.path.isfile(base + ".json"):
        write_text(args.dst, _dump_lines(load_raster(args.src)))
    elif os.path.isfile(args.src):
        save_raster(_parse_text(args.src), args.dst)
    else:
        raise NotFound(f"no raster or pixel dump at {args.src}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line with BadConfig, so a usage error exits 2
    naming its class like any other; subparsers are built from this class too."""

    def error(self, message: str):
        raise BadConfig(f"{self.prog}: {message}")


def _add_options(parser: argparse.ArgumentParser, *keys: str) -> None:
    for key in keys:
        o = _OPTIONS[key]
        parser.add_argument(o.flag, dest=key, metavar=o.metavar,
                            help=o.help.format(default=o.default))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="acdkit",
        description="Anomalous change detection on co-registered single-band image pairs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="run one detector on a raster pair")
    d.add_argument("--config", help="JSON config; flags override its fields")
    d.add_argument("--t0", help="base-epoch raster (R32 base path)")
    d.add_argument("--t1", help="second-epoch raster")
    d.add_argument("--detector", help=f"one of {', '.join(DETECTOR_NAMES)}")
    _add_options(d, "patch", "glcm_levels", "glcm_offsets", "ridge")
    d.add_argument("--out", help="output directory")
    d.set_defaults(func=cmd_detect)

    e = sub.add_parser("eval", help="evaluate an anomaly map against masks")
    e.add_argument("--map", required=True, help="anomaly map (R32 base path)")
    e.add_argument("--inner", required=True, help="inner truth mask")
    e.add_argument("--outer", help="outer truth mask (defaults to inner)")
    _add_options(e, "roc_fpr_max")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("synth", help="generate a synthetic benchmark scene")
    s.add_argument("scene", nargs="?", help="suite scene name")
    s.add_argument("--config", help="SceneConfig JSON instead of a name")
    _add_options(s, "seed")
    s.add_argument("--out", required=True, help="output directory")
    s.set_defaults(func=cmd_synth)

    r = sub.add_parser("run", help="full pipeline: detect + eval per detector")
    r.add_argument("config", help="run config JSON")
    r.add_argument("--out", help="output directory (overrides config)")
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("convert", help="R32 <-> plain-text pixel dump")
    c.add_argument("src")
    c.add_argument("dst")
    c.set_defaults(func=cmd_convert)
    return p


def main(argv: list[str] | None = None) -> int:
    from .threads import one_blas_thread

    try:
        args = build_parser().parse_args(argv)
        # entering the pin stops the pool that importing NumPy started, which
        # would spin beside synthesis, I/O and evaluation; the detector
        # stages' own pins nest inside it, so it is not started again
        with one_blas_thread():
            return args.func(args)
    except AcdError as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
