"""In-memory span tracer around acdkit's layer functions.

The tracer rebinds names in the modules that call each layer
(``acdkit.cli``, ``acdkit.detectors``, ``acdkit.raster``) to wrappers, so
nothing in the program changes.  Every wrapped call records a span: layer
module, function, start, end, parent span and invocation id, plus counts
taken at the same boundary.  Spans stay in memory; ``layer_metrics`` turns
them into the per-layer metrics named in BENCHMARK.json.

Peak allocation is read with ``tracemalloc``, started and stopped around
each ``features`` and ``hacd`` fit/score span only, so the string-heavy CSV
writer is not slowed by it.  It sees NumPy buffers but not memory that
OpenBLAS allocates internally.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import acdkit.cli
import acdkit.detectors
import acdkit.raster

# Functions whose spans are reported once per detector.
PER_DETECTOR = {"run_detector", "fit_hacd", "score_map", "save_model", "roc", "write_roc_csv"}


def _fit_gflop(n: int, d: int) -> float:
    # computed: mean pass n*d, centering n*d, scatter z'z 2*n*d^2
    return (2 * n * d * d + 2 * n * d) / 1e9


def _score_gflop(n: int, d: int) -> float:
    # computed: centering n*d, z @ Q 2*n*d^2, row dot products 2*n*d
    return (2 * n * d * d + 3 * n * d) / 1e9


def _stack_facts(args, kwargs, stack) -> dict:
    # computed: bytes of the returned array, h*w*dim*itemsize
    return {"mb_out": stack.data.size * stack.data.itemsize / 1e6}


def _fit_facts(args, kwargs, model) -> dict:
    x, y = args[0], args[1]
    mask = kwargs.get("fit_mask", args[3] if len(args) > 3 else None)
    n = x.height * x.width if mask is None else int(np.count_nonzero(mask))
    return {"gflop": _fit_gflop(n, model.d_x + model.d_y), "model": model}


def _score_facts(args, kwargs, amap) -> dict:
    model = args[0]
    return {"gflop": _score_gflop(amap.scores.size, model.d_x + model.d_y)}


def _csv_facts(args, kwargs, result) -> dict:
    path = args[1]
    return {
        "csv_rows": args[0].inner_curve.thresholds.size + 1,  # plus the header
        "csv_mb": os.path.getsize(path) / 1e6,
    }


def _read_facts(args, kwargs, raster) -> dict:
    return {"mb_read": raster.width * raster.height * 4 / 1e6}  # computed R32 payload


def _write_facts(args, kwargs, result) -> dict:
    raster = args[0]
    return {"mb_written": raster.width * raster.height * 4 / 1e6}  # computed R32 payload


# (calling module, attribute, layer, facts, trace allocations)
TARGETS = (
    (acdkit.cli, "generate_scene", "synth", None, False),
    (acdkit.cli, "load_raster", "raster", _read_facts, False),
    (acdkit.raster, "load_raster", "raster", _read_facts, False),
    (acdkit.cli, "save_raster", "raster", _write_facts, False),
    (acdkit.cli, "run_detector", "detectors", None, False),
    (acdkit.detectors, "identity_features", "features", _stack_facts, True),
    (acdkit.detectors, "patch_features", "features", _stack_facts, True),
    (acdkit.detectors, "quantize", "features", _stack_facts, True),
    (acdkit.detectors, "glcm_features", "features", _stack_facts, True),
    (acdkit.detectors, "fit_hacd", "hacd", _fit_facts, True),
    (acdkit.detectors, "score_map", "hacd", _score_facts, True),
    (acdkit.detectors, "diff_score", "hacd", None, False),
    (acdkit.cli, "save_model", "hacd", None, False),
    (acdkit.cli, "roc", "evaluate", None, False),
    (acdkit.cli, "write_roc_csv", "evaluate", _csv_facts, False),
    (acdkit.cli, "render_loglog_svg", "evaluate", None, False),
)

LAYERS = ("cli", "synth", "raster", "detectors", "features", "hacd", "evaluate")


@dataclass
class Span:
    layer: str
    function: str
    invocation: int
    parent: int | None
    detector: str | None
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    @property
    def name(self) -> str:
        if self.function in PER_DETECTOR:
            return f"{self.layer}.{self.function}.{self.detector}"
        return f"{self.layer}.{self.function}"


class Tracer:
    """Records spans for calls made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.bookkeeping_s = 0.0  # time spent in the tracer's own code, outside the calls
        self._stack: list[int] = []
        self._invocation = 0
        self._detector: str | None = None

    def _call(self, layer, fn, facts, memory, args, kwargs):
        entered = time.perf_counter()
        name = fn.__name__
        if name == "run_detector":
            self._detector = args[0]
        # Calls outside a detector span (evaluation, model saving) belong to
        # the detector that ran last in this invocation.
        span = Span(layer, name, self._invocation,
                    self._stack[-1] if self._stack else None, self._detector)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        owns_tracemalloc = memory and not tracemalloc.is_tracing()
        if owns_tracemalloc:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.errors[layer] += 1
            raise
        finally:
            span.end = time.perf_counter()
            if owns_tracemalloc:
                span.facts["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
            self._stack.pop()
            if span.parent is not None:
                self.spans[span.parent].children_s += span.duration
        if facts is not None:
            span.facts.update(facts(args, kwargs, result))
        self.bookkeeping_s += (span.start - entered) + (time.perf_counter() - span.end)
        return result

    def _wrap(self, layer, fn, facts, memory):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(layer, fn, facts, memory, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, layer, facts, memory in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, facts, memory))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run_main(self, invocation: int, argv: list[str]) -> int:
        """Run ``acdkit.cli.main(argv)`` as the root span of one invocation."""
        self._invocation = invocation
        self._detector = None
        with self.installed():
            return self._call("cli", acdkit.cli.main, None, False, (argv,), {})

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]


def _model_diagnostics(model) -> tuple[float, float]:
    """Numerical rank share of the unregularized covariance, condition of the used one."""
    d = model.d_x + model.d_y
    sample_cov = model.cov - model.ridge * np.eye(d)
    return np.linalg.matrix_rank(sample_cov, hermitian=True) / d, float(np.linalg.cond(model.cov))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-invocation means of self time and counts, keyed by metric name.

    Peaks are maxima over all spans; model facts are means over the fits.
    Fit diagnostics are computed here, after the traced invocations ended.
    """
    n_inv = max(1, len(tracer.roots()))
    sums: Counter = Counter()
    peaks: dict[str, float] = {}
    facts: dict[str, list[float]] = {}
    for span in tracer.spans:
        name = span.name
        if span.parent is None:
            sums["cli.main.self_s"] += span.self_s
        elif span.function == "run_detector":
            sums[name + ".s"] += span.duration  # parent span: includes its children
        else:
            sums[name + ".s"] += span.self_s
        for key, value in span.facts.items():
            if key == "peak_alloc_mb":
                peaks[f"{name}.{key}"] = max(value, peaks.get(f"{name}.{key}", 0.0))
            elif key == "model":
                rank_frac, cond = _model_diagnostics(value)
                for fact, v in (("dim", value.d_x + value.d_y), ("rank_frac", rank_frac),
                                ("cond", cond)):
                    facts.setdefault(f"{name}.{fact}", []).append(float(v))
            elif span.layer == "raster":
                sums[f"raster.{key}"] += value
            else:
                sums[f"{name}.{key}"] += value
    metrics = {k: v / n_inv for k, v in sums.items()}
    for name in list(metrics):
        if name.endswith(".gflop"):
            seconds = sums[name[: -len("gflop")] + "s"]
            metrics[name + "_per_s"] = sums[name] / seconds if seconds > 0 else 0.0
    metrics.update(peaks)
    metrics.update({k: sum(v) / len(v) for k, v in facts.items()})
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = float(tracer.errors[layer])
    metrics["trace.bookkeeping_s"] = tracer.bookkeeping_s / n_inv
    return metrics
