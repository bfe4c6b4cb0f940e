"""Command-line pipeline runner.

Subcommands:
    detect   run one detector on a raster pair, write the anomaly map
    eval     score an anomaly map against ground-truth masks
    synth    generate a named or configured synthetic scene
    run      detect + eval for several detectors, with a combined plot;
             evaluation runs in worker processes forked before the scene
             is synthesised or loaded
    convert  R32 raster <-> plain-text pixel dump

``eval`` and ``run``'s workers evaluate a map with one function,
``acdkit.evaluate.evaluate_map``.

Exit codes: 0 success, 2 user/data error (the diagnostic names the
originating error class), 3 internal invariant violation.  Option
precedence is flags > config file > defaults.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import mmap
import os
import sys
import traceback

import numpy as np

from .detectors import DETECTOR_NAMES, run_detector
from .errors import AcdError, BadConfig, DimensionMismatch, FormatError, NotFound
from .evaluate import (
    _CELL_WIDTH,
    DEFAULT_FPR_MAX,
    _format_rates,
    class_counts,
    evaluate_map,
    shared_rate_tables,
    write_loglog_svg,
)
# bench/spans.py traces these three here
from .evaluate import render_loglog_svg, roc, write_roc_csv  # noqa: F401
from .features import DEFAULT_LEVELS, DEFAULT_OFFSETS, DEFAULT_PATCH
from .hacd import save_model
from .raster import (
    CoregisteredPair,
    GroundTruth,
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
    scene_truth,
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


def _detect_pair(cfg: dict, pair: CoregisteredPair, out_dir: str) -> str:
    """Run cfg's detector on ``pair``, write its map (and model) into out_dir.

    Returns the base path of the written anomaly map.
    """
    amap, model = run_detector(cfg["detector"], pair, patch=cfg["patch"], levels=cfg["glcm_levels"],
                               offsets=cfg["glcm_offsets"], ridge=cfg.get("ridge"))
    make_dir(out_dir)
    map_base = os.path.join(out_dir, "anomaly")
    save_raster(Raster(amap.scores), map_base)
    if model is not None:
        save_model(model, os.path.join(out_dir, "model.json"))
    return map_base


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


def _write_scene(cfg: SceneConfig, out_dir: str) -> GroundTruth:
    """Synthesise the scene of ``cfg`` into ``out_dir``; returns its masks."""
    t0, t1, gt = generate_scene(cfg)
    make_dir(out_dir)
    save_raster(t0, os.path.join(out_dir, "t0"))
    save_raster(t1, os.path.join(out_dir, "t1"))
    save_raster(Raster(gt.inner), os.path.join(out_dir, "inner"))
    save_raster(Raster(gt.outer), os.path.join(out_dir, "outer"))
    config_to_json(cfg, os.path.join(out_dir, "scene.json"))
    return gt


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


def _share_rate_tables(counts) -> dict[int, np.ndarray]:
    """Blank rate tables of each nonzero count in ``counts`` (an empty class
    has no rates), laid out in one anonymous mapping that the processes
    forked after it share; making them touches no page."""
    sizes = {n: (n + 1) * _CELL_WIDTH for n in sorted(set(counts) - {0})}
    whole = np.frombuffer(mmap.mmap(-1, sum(sizes.values())), np.uint8)
    parts = np.split(whole, np.cumsum(list(sizes.values()))[:-1])
    return {n: part.reshape(n + 1, _CELL_WIDTH) for n, part in zip(sizes, parts)}


def _fill_rate_tables(tables, turns, barrier) -> None:
    """Pool initializer of ``run``'s workers: take one of ``turns``, format
    the slice of every table in ``tables`` given by the order in which the
    worker reaches ``barrier``, and once every other worker's slice is
    formatted too, read them as this process's ``shared_rate_tables``.  A
    worker that Pool starts in place of a dead one finds no turn left, so
    it never formats a slice or reads a blank one."""
    turns.acquire()
    part, parts = barrier.wait(), barrier.parties
    for n, table in tables.items():
        _format_rates(table, n, (n + 1) * part // parts, (n + 1) * (part + 1) // parts)
    barrier.wait()
    shared_rate_tables.update(tables)


def cmd_run(args: argparse.Namespace) -> int:
    """Fork min(detectors, usable CPUs) evaluation workers once the options
    are checked and the masks are known, before the scene is synthesised or
    loaded; they format the run's rate tables while this process detects
    with every listed detector in order, then evaluate the persisted maps;
    write the combined roc.svg and league.csv from the plot points and
    summaries they return; no ROC band reaches this process."""
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
    t0, t1, inner = (_require(cfg, k) for k in ("t0", "t1", "inner"))
    # every map of the run is scored on these masks, so their class counts,
    # and with them the rate tables of roc.csv, are known before the fork; a
    # suite scene's masks are made again with the scene, so that these do
    # not sit beside the synthesis peak
    if suite:
        counts = class_counts(scene_truth(scene_cfg))
    else:
        gt = load_ground_truth(inner, cfg.get("outer"))
        counts = class_counts(gt)

    # The workers fork here, in Pool's constructor, from the post-import
    # heap: no scene, map or detector state is resident yet, so none of it
    # raises their peak.  Together they first format the run's rate tables,
    # in a mapping that this process never touches, beside the synthesis
    # and detection here, and only then take an evaluation.  The pool's
    # modules are imported here so that other commands do not load them;
    # leaving the block, by an error too, terminates and joins the workers.
    import multiprocessing

    workers = min(len(detectors), len(os.sched_getaffinity(0)))
    others = set(multiprocessing.active_children())
    ctx = multiprocessing.get_context("fork")
    turns = ctx.Semaphore(0)
    with ctx.Pool(workers, _fill_rate_tables,
                  (_share_rate_tables(counts), turns, ctx.Barrier(workers))) as pool:
        procs = set(multiprocessing.active_children()) - others
        # the turns are given only now, so a worker that dies in its fill is
        # among procs
        for _ in range(workers):
            turns.release()
        if suite:
            gt = _write_scene(scene_cfg, scene_dir)
        pair = make_pair(load_raster(t0), load_raster(t1))
        if gt.shape != pair.shape:
            raise DimensionMismatch(f"mask {inner} is {gt.shape[1]}x{gt.shape[0]}, "
                                    f"expected {pair.t0.width}x{pair.t0.height}")
        # detection stays in this process, where the patch fits' and
        # scores' tile threads have every core
        map_bases = [_detect_pair({**cfg, "detector": name}, pair, os.path.join(out_dir, name))
                     for name in detectors]
        # Each evaluation is evaluate_map, as in eval: a pure function of its
        # persisted f32 map, and the shared tables hold the bytes of eval's
        # own, so the per-detector outputs are byte-identical to detect +
        # eval composed for any worker count; each task carries gt, and
        # get() raises a worker's AcdError here again.
        evaluate = functools.partial(evaluate_map, truth=gt, fpr_max=cfg["roc_fpr_max"])
        pending = pool.starmap_async(evaluate, zip(map_bases, map(os.path.dirname, map_bases)))
        # Pool replaces a worker that dies mid-task (say, killed for its
        # memory) but never finishes that task, and a worker that dies in
        # its fill leaves its slice of the tables blank for the others, so
        # watch the workers, until the results are taken, instead of waiting
        # forever
        while True:
            if dead := [p.exitcode for p in procs if p.exitcode is not None]:
                raise RuntimeError(f"an evaluation worker exited with code {dead[0]}")
            if pending.ready():
                break
            pending.wait(0.5)
        results = pending.get()

    points = {name: p for name, (p, _) in zip(detectors, results)}
    rows = [(name, s["pauc_inner"], s["pauc_outer"], s["auc_inner"], s["auc_outer"])
            for name, (_, s) in zip(detectors, results)]

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
    try:
        args = build_parser().parse_args(argv)
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
