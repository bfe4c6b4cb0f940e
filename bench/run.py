#!/usr/bin/env python3
"""acdkit benchmark: drive the public CLI on generated scenes and report metrics.

Run from a checkout of the repository (the program is imported from src/):

    python3 bench/run.py --workload suite-league --seed 0 --seconds 20 --trace 0

Workloads (one client, closed loop: each invocation starts only after the
previous one exited; default thread settings):

    suite-league  `acdkit run`, all four detectors, on the three suite scenes
    eval-heavy    `acdkit run`, diff and hacd only, on the three suite scenes
    detect-large  `acdkit detect --detector patch-hacd` on a 1024x1024 scene

Seed 0 keeps the suite seeds (101/202/303, and 202 for detect-large); any
other seed replaces every scene seed.  Run workloads cycle through the
scenes starting at scene ``seed % 3``.

--trace 0 runs each invocation as a fresh `python3 -m acdkit.cli` process
for --seconds and reports the end-to-end metrics.  --trace 1 runs each
invocation once that way, untraced, and once in this process through
acdkit.cli.main with every layer wrapped in spans (bench/spans.py), and
reports the per-layer metrics.  Either way every invocation's outputs are
checked, and the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units come from
BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SCENES = ("simple-additive", "textured", "cluttered")
ALL_DETECTORS = ("diff", "hacd", "patch-hacd", "glcm-hacd")
SETUP_REPEATS = 3
# Stop starting invocations when the next one would end after this many
# seconds of the loop, so that a run ends within its 180 s limit.
LOOP_LIMIT_S = 120.0
INVOCATION_TIMEOUT_S = 150.0

# detect-large: the textured scene at 1024x1024, anomaly rectangle scaled x2.
LARGE_SIDE = 1024
LARGE_RECT = (416, 352, 160, 128)
LARGE_DETECTOR = "patch-hacd"
LARGE_DIM = 121  # patch-hacd feature dim per epoch at the default 11x11 patch


@dataclass(frozen=True)
class Invocation:
    key: str  # invocations with one key must write identical artefacts
    args: tuple[str, ...]  # CLI arguments before --out
    expected: tuple[str, ...]  # artefacts relative to the output directory
    league: tuple[str, ...]  # detectors whose league.csv pAUC is recomputed


@dataclass
class Result:
    invocation: Invocation
    out: str
    wall_s: float
    rc: int
    peak_rss_mb: float = 0.0
    stderr: str = ""
    problems: list[str] = dataclasses.field(default_factory=list)


def run_artefacts(detectors) -> tuple[str, ...]:
    files = ["league.csv", "roc.svg", "scene/scene.json"]
    files += [f"scene/{k}.{ext}" for k in ("t0", "t1", "inner", "outer") for ext in ("r32", "json")]
    for det in detectors:
        files += [f"{det}/{f}" for f in ("anomaly.r32", "anomaly.json", "roc.csv", "roc.svg",
                                         "summary.json")]
        if det != "diff":
            files.append(f"{det}/model.json")
    return tuple(files)


def setup_run_workload(detectors, seed: int, inputs: str) -> list[Invocation]:
    """Write one `acdkit run` config per suite scene; the program synthesizes it."""
    os.makedirs(inputs, exist_ok=True)
    invocations = []
    for scene in SCENES:
        cfg = {"scene": scene, "detectors": list(detectors)}
        if seed:
            cfg["seed"] = seed
        path = os.path.join(inputs, f"{scene}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        invocations.append(Invocation(scene, ("run", path), run_artefacts(detectors), detectors))
    return invocations


def setup_detect_large(seed: int, inputs: str) -> list[Invocation]:
    """Synthesize the 1024x1024 textured pair and write it as R32 rasters."""
    from acdkit import generate_scene, save_raster, scene_suite

    cfg = dataclasses.replace(scene_suite()["textured"], width=LARGE_SIDE, height=LARGE_SIDE,
                              anomaly_rect=LARGE_RECT)
    if seed:
        cfg = dataclasses.replace(cfg, seed=seed)
    t0, t1, _ = generate_scene(cfg)
    os.makedirs(inputs, exist_ok=True)
    save_raster(t0, os.path.join(inputs, "t0"))
    save_raster(t1, os.path.join(inputs, "t1"))
    args = ("detect", "--detector", LARGE_DETECTOR, "--t0", os.path.join(inputs, "t0"),
            "--t1", os.path.join(inputs, "t1"))
    return [Invocation("large", args, ("anomaly.r32", "anomaly.json", "model.json"), ())]


WORKLOADS = {
    "suite-league": lambda seed, inputs: setup_run_workload(ALL_DETECTORS, seed, inputs),
    "eval-heavy": lambda seed, inputs: setup_run_workload(("diff", "hacd"), seed, inputs),
    "detect-large": setup_detect_large,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], stderr_path: str) -> tuple[float, int, float]:
    """Run one process to completion; return (wall s, exit code, peak RSS MB)."""
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


def set_up(workload: str, seed: int, run_dir: str, env) -> tuple[list[Invocation], list[float], list[float]]:
    """Write the inputs and warm the import SETUP_REPEATS times.

    Returns the invocations, each set-up's wall time and each warm-up import's
    wall time (a fresh interpreter importing acdkit.cli).
    """
    setup_times, import_times = [], []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        invocations = WORKLOADS[workload](seed, os.path.join(run_dir, f"inputs{i}"))
        wall, rc, _ = spawn([sys.executable, "-c", "import acdkit.cli"], env,
                            os.path.join(run_dir, f"import{i}.err"))
        if rc != 0:
            raise RuntimeError(f"warm-up import of acdkit.cli exited {rc}")
        setup_times.append(time.perf_counter() - start)
        import_times.append(wall)
    return invocations, setup_times, import_times


def closed_loop(invocations, first: int, seconds: float, run_one) -> None:
    """Call run_one(invocation, k) for k = 0, 1, ..., each after the previous returned.

    Cycles through ``invocations`` from index ``first`` and starts no call
    after ``seconds`` have passed; the first call always runs.
    """
    begin = time.perf_counter()
    k, last = 0, 0.0
    while True:
        elapsed = time.perf_counter() - begin
        if k and elapsed >= seconds:
            break
        if k and elapsed + last > LOOP_LIMIT_S:
            break
        start = time.perf_counter()
        run_one(invocations[(first + k) % len(invocations)], k)
        last = time.perf_counter() - start
        k += 1


# ---------------------------------------------------------------- checks


def digest_tree(out: str) -> dict[str, str]:
    digests = {}
    for dirpath, _, files in os.walk(out):
        for name in files:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(path, out)] = h.hexdigest()
    return digests


def read_league(out: str) -> dict[str, tuple[float, float]]:
    with open(os.path.join(out, "league.csv"), newline="", encoding="utf-8") as fh:
        return {r["detector"]: (float(r["pauc_inner"]), float(r["pauc_outer"]))
                for r in csv.DictReader(fh)}


def check_league(out: str, detectors) -> list[str]:
    """Recompute each league.csv pAUC with public roc from the written map and masks."""
    import numpy as np
    from acdkit import AnomalyMap, load_ground_truth, load_raster, roc

    league = read_league(out)
    if sorted(league) != sorted(detectors):
        return [f"league.csv lists {sorted(league)}, expected {sorted(detectors)}"]
    problems = []
    gt = None
    for det in detectors:
        raster = load_raster(os.path.join(out, det, "anomaly"))
        if gt is None:
            gt = load_ground_truth(os.path.join(out, "scene", "inner"),
                                   os.path.join(out, "scene", "outer"),
                                   (raster.width, raster.height))
        band = roc(AnomalyMap(raster.data.astype(np.float64)), gt)
        if (band.pauc_inner, band.pauc_outer) != league[det]:
            problems.append(f"{det}: league.csv pAUC {league[det]} != recomputed "
                            f"{(band.pauc_inner, band.pauc_outer)}")
    return problems


def check_model(out: str) -> list[str]:
    from acdkit import load_model

    model = load_model(os.path.join(out, "model.json"))
    if (model.d_x, model.d_y) != (LARGE_DIM, LARGE_DIM):
        return [f"model.json has d_x, d_y = {model.d_x}, {model.d_y}, expected {LARGE_DIM}"]
    return []


def check_results(results: list[Result]) -> None:
    """Fill each result's problems; an invocation with any problem counts as failed."""
    first_digests: dict[str, dict[str, str]] = {}
    for r in results:
        if r.rc != 0:
            r.problems.append(f"exit code {r.rc}: {r.stderr.strip()[-300:]}")
            continue
        missing = [p for p in r.invocation.expected if not os.path.isfile(os.path.join(r.out, p))]
        if missing:
            r.problems.append(f"missing artefacts {missing}")
            continue
        try:
            if r.invocation.league:
                r.problems += check_league(r.out, r.invocation.league)
            else:
                r.problems += check_model(r.out)
        except Exception as exc:  # a malformed artefact is a failed check, not a crash
            r.problems.append(f"output check raised {type(exc).__name__}: {exc}")
        digests = digest_tree(r.out)
        earlier = first_digests.setdefault(r.invocation.key, digests)
        if digests != earlier:
            changed = sorted(k for k in set(digests) | set(earlier)
                             if digests.get(k) != earlier.get(k))
            r.problems.append(f"artefacts differ from an earlier repeat: {changed[:5]}")


# ---------------------------------------------------------------- runs


def run_process(inv: Invocation, out: str, env) -> Result:
    """One CLI invocation as a fresh `python3 -m acdkit.cli` process."""
    err = out + ".err"
    wall, rc, rss = spawn([sys.executable, "-m", "acdkit.cli", *inv.args, "--out", out], env, err)
    with open(err, encoding="utf-8", errors="replace") as fh:
        return Result(inv, out, wall, rc, rss, fh.read())


def timed_run(workload, seed, seconds, run_dir, env):
    """--trace 0: one fresh process per invocation; end-to-end metrics."""
    invocations, setup_times, _ = set_up(workload, seed, run_dir, env)
    results: list[Result] = []

    def run_one(inv: Invocation, k: int) -> None:
        results.append(run_process(inv, os.path.join(run_dir, f"out{k}"), env))

    closed_loop(invocations, seed % len(invocations), seconds, run_one)
    check_results(results)
    walls = [r.wall_s for r in results]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
    }
    print(f"{workload} seed {seed}: {len(results)} invocations "
          f"({', '.join(r.invocation.key for r in results)})")
    print(f"  invocation walls s: {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"  set-up walls s: {', '.join(f'{t:.3f}' for t in setup_times)}")
    for r in results:
        if r.invocation.league and not r.problems:
            for det, (inner, _) in sorted(read_league(r.out).items()):
                print(f"  pauc.{r.invocation.key}.{det} {inner!r} (pauc_inner, FPR <= 0.01)")
    return results, metrics


def traced_run(workload, seed, seconds, run_dir, env):
    """--trace 1: per-layer metrics from in-process traced invocations.

    Each traced invocation follows the same invocation run untraced as a
    fresh process.  The tracing overhead is the traced wall plus the
    fresh-interpreter import time, minus the untraced process's wall.
    """
    from spans import Tracer, layer_metrics

    invocations, _, import_times = set_up(workload, seed, run_dir, env)
    startup = statistics.median(import_times)
    tracer = Tracer()
    results: list[Result] = []
    overheads: list[float] = []

    def run_pair(inv: Invocation, k: int) -> None:
        untraced = run_process(inv, os.path.join(run_dir, f"out{k}-untraced"), env)
        out = os.path.join(run_dir, f"out{k}-traced")
        start = time.perf_counter()
        rc = tracer.run_main(k, [*inv.args, "--out", out])
        traced = Result(inv, out, time.perf_counter() - start, rc)
        results.extend((untraced, traced))
        overheads.append(traced.wall_s + startup - untraced.wall_s)

    closed_loop(invocations, seed % len(invocations), seconds, run_pair)
    check_results(results)
    metrics = layer_metrics(tracer)
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = statistics.mean(overheads)
    print_trace_report(workload, tracer, results, metrics)
    return results, metrics


def print_trace_report(workload, tracer, pairs, metrics) -> None:
    root = tracer.roots()[0]
    spans = [s for s in tracer.spans if s.invocation == root.invocation]
    by_name: dict[str, float] = {}
    for s in spans:
        key = "cli.main (self)" if s.parent is None else s.name
        by_name[key] = by_name.get(key, 0.0) + s.self_s
    print(f"{workload}: traced invocation 0 ({pairs[1].invocation.key}), "
          f"self time by layer function:")
    for name, value in sorted(by_name.items(), key=lambda kv: -kv[1]):
        print(f"  {name:42s} {value:9.4f} s  {100 * value / root.duration:5.1f} %")
    print(f"  {'sum of self times':42s} {sum(by_name.values()):9.4f} s")
    print(f"  {'traced wall (root span)':42s} {root.duration:9.4f} s")
    print(f"  {'fresh-interpreter import (cli.startup_s)':42s} {metrics['cli.startup_s']:9.4f} s"
          " (paid by each CLI process, not in the span)")
    print(f"  tracing overhead: traced wall + start-up - untraced process wall, mean over "
          f"{len(pairs) // 2} pair(s): {metrics['trace.overhead_s']:.4f} s; time in the"
          f" tracer's own code per invocation: {metrics['trace.bookkeeping_s']:.4f} s")
    print("  peak_alloc_mb is tracemalloc's peak inside the span; buffers OpenBLAS"
          " allocates internally are not seen.")
    print("  gflop, mb_out, mb_read, mb_written and csv_rows are computed from shapes,"
          " not measured.")


THREAD_ENV_VARS = ("ACDKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")


def machine_facts() -> dict:
    """Where a run was measured: cores, RAM, library versions, thread settings."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "acdkit", "cli.py")):
        print(f"error: no acdkit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, SRC)

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        run = traced_run if args.trace else timed_run
        results, values = run(args.workload, args.seed, args.seconds, run_dir, child_env())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(WORK)

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": float(values.pop(m["name"], 0.0)), "unit": m["unit"]}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    failed = [r for r in results if r.problems]
    print(f"machine: {json.dumps(machine_facts())}")
    for r in failed:
        print(f"FAILED {r.invocation.key}: {'; '.join(r.problems)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
