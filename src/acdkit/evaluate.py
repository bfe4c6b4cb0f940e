"""Dual-mask ROC curves, partial AUC, CSV export, log-log SVG plots, and
the evaluation of one persisted anomaly map (``evaluate_map``).

A plot is drawn in two steps: ``plot_points`` reduces a band to the
vertices its polylines draw (at most ``_SVG_MAX_POINTS`` + 1 per curve),
and ``write_loglog_svg`` writes named vertices as SVG.  ``evaluate_map``
returns the vertices, not the band, so ``run``'s workers send its parent
a few thousand points per map whatever the map's size.

A detector is evaluated against both ground-truth masks at once.  The
outer curve treats every outer-mask pixel as positive; the inner curve
treats only inner-mask pixels as positive and drops the ambiguous
outer-minus-inner band entirely.  Negatives are the complement of the
outer mask for both curves, so the two curves bracket the ROC curve of
the unknown exact truth.
"""

from __future__ import annotations

import json
import mmap
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass, GridMismatch
from .hacd import AnomalyMap
from .raster import GroundTruth, _base_path, load_ground_truth, load_raster, make_dir, write_text

DEFAULT_FPR_MAX = 0.01
DEFAULT_FPR_FLOOR = 1e-5

# cap on polyline vertices per curve when rendering
_SVG_MAX_POINTS = 4096
# roc.csv rows formatted per block, bounding the cells held in memory
_CSV_CHUNK_ROWS = 4096
# longest float64 repr, e.g. -2.2250738585072014e-308
_CELL_WIDTH = 24

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Operating points sorted by descending threshold.

    ``thresholds[0]`` is +inf (nothing detected, fpr = tpr = 0); each later
    threshold is a distinct score value and detection means score >=
    threshold, so all equally-scored pixels change class together.  The
    final point is always (1, 1).
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(np.asarray(self.thresholds, dtype=np.float64))
        f = np.ascontiguousarray(np.asarray(self.fpr, dtype=np.float64))
        p = np.ascontiguousarray(np.asarray(self.tpr, dtype=np.float64))
        if not (t.shape == f.shape == p.shape) or t.ndim != 1 or t.size < 2:
            raise ValueError("thresholds/fpr/tpr must be 1-D, equal length >= 2")
        if np.any(np.diff(f) < 0) or np.any(np.diff(p) < 0):
            raise ValueError("fpr and tpr must be non-decreasing")
        for a in (t, f, p):
            a.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "fpr", f)
        object.__setattr__(self, "tpr", p)

    @property
    def points(self) -> list[tuple[float, float, float]]:
        return list(zip(self.thresholds.tolist(), self.fpr.tolist(), self.tpr.tolist()))


@dataclass(frozen=True, eq=False)
class RocBand:
    """Inner- and outer-truth curves of one anomaly map, with partial AUCs.

    The counts are the curves' class sizes: tpr_inner, tpr_outer and both
    fpr columns are multiples of 1/n_pos_inner, 1/n_pos_outer and 1/n_neg.
    """

    inner_curve: RocCurve
    outer_curve: RocCurve
    pauc_inner: float
    pauc_outer: float
    fpr_max: float
    n_pos_inner: int
    n_pos_outer: int
    n_neg: int

    def __post_init__(self):
        if min(self.n_pos_inner, self.n_pos_outer, self.n_neg) < 1:
            raise ValueError("class counts must be >= 1")


# a band's inner and outer curves as the (2, k) fpr/tpr vertices plotted
PlotPoints = tuple[np.ndarray, np.ndarray]


def class_counts(gt: GroundTruth) -> tuple[int, int, int]:
    """(n_pos_inner, n_pos_outer, n_neg) of every band on ``gt``.

    Negatives are the complement of the OUTER mask for both curves; the
    ambiguous outer-minus-inner ring is therefore in neither class of the
    inner curve (not inner-positive, not a negative).
    """
    n_outer = int(np.count_nonzero(gt.outer))
    return int(np.count_nonzero(gt.inner)), n_outer, gt.outer.size - n_outer


def roc(amap: AnomalyMap, gt: GroundTruth, fpr_max: float = DEFAULT_FPR_MAX) -> RocBand:
    """Compute the dual-mask ROC band of an anomaly map.

    Thresholds are the distinct score values of the map (shared by both
    curves).  Raises GridMismatch when map and masks disagree and
    EmptyClass when a curve would have no positives or no negatives.
    """
    return _roc(amap.scores, gt, fpr_max)


def _roc(scores: np.ndarray, gt: GroundTruth, fpr_max: float) -> RocBand:
    """roc of a finite float32 or float64 score array.  Sorting float32
    scores gives the order and ties of their float64 values, and widening
    only the thresholds gives the same values, so no float64 map is made."""
    if scores.shape != gt.shape:
        raise GridMismatch(
            f"anomaly map {scores.shape} does not match masks {gt.shape}"
        )
    n_inner, n_outer, n_neg = class_counts(gt)
    for label, n_pos in (("inner", n_inner), ("outer", n_outer)):
        if n_pos == 0:
            raise EmptyClass(f"{label} curve has no positive pixels")
        if n_neg == 0:
            raise EmptyClass(f"{label} curve has no negative pixels")
    scores = scores.ravel()
    inner = gt.inner.ravel()
    outer = gt.outer.ravel()

    # a tie group's counts are read at its last index, whatever the order
    # inside it, so the sort need not be stable
    order = np.argsort(-scores).astype(np.int64, copy=False)
    s = scores[order]
    # last index of each tie group of equal scores
    group_ends = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    thresholds = np.concatenate([[np.inf], s[group_ends]])
    del s  # freed before the rate columns are built, which lowers roc's peak
    # the one group whose order shows is 0.0 with -0.0: its threshold is the
    # zero at the highest raster index, as a stable sort would end it
    if (zero := np.flatnonzero(thresholds == 0)).size:
        thresholds[zero] = scores[np.flatnonzero(scores == 0)[-1]]

    # each class in score order, one byte per pixel; then the order's 8-byte
    # buffer holds each class's running count in turn, as float64: counts
    # below 2**53 are exact, so each rate is the same quotient k / n as with
    # integer counts, and each column is written where it is kept
    members = [m[order] for m in (~outer, inner, outer)]
    running = order.view(np.float64)
    del order

    def rate(ranked: np.ndarray, n: int) -> np.ndarray:
        running[...] = ranked
        np.cumsum(running, out=running)
        column = np.empty(thresholds.size)
        column[0] = 0.0
        # mode "clip" writes into out directly, where "raise" buffers it
        np.take(running, group_ends, out=column[1:], mode="clip")
        column[1:] /= n
        return column

    # both curves share the thresholds and the negatives' fpr column
    fpr, tpr_inner, tpr_outer = map(rate, members, (n_neg, n_inner, n_outer))
    del members, group_ends, running  # freed before the curves check their columns
    inner_curve = RocCurve(thresholds, fpr, tpr_inner)
    outer_curve = RocCurve(thresholds, fpr, tpr_outer)
    return RocBand(
        inner_curve,
        outer_curve,
        pauc(inner_curve, fpr_max),
        pauc(outer_curve, fpr_max),
        float(fpr_max),
        n_inner,
        n_outer,
        n_neg,
    )


def pauc(curve: RocCurve, fpr_max: float = DEFAULT_FPR_MAX) -> float:
    """Trapezoidal area under the curve on fpr in [0, fpr_max].

    The polyline is linearly interpolated at the right edge, so a perfect
    detector scores exactly fpr_max.
    """
    if not 0.0 < fpr_max <= 1.0:
        raise ValueError(f"fpr_max must be in (0, 1], got {fpr_max}")
    f, t = curve.fpr, curve.tpr
    idx = int(np.searchsorted(f, fpr_max, side="right"))
    ff, tt = f[:idx], t[:idx]
    if idx < f.size and (ff.size == 0 or ff[-1] < fpr_max):
        w = (fpr_max - f[idx - 1]) / (f[idx] - f[idx - 1])
        ff = np.append(ff, fpr_max)
        tt = np.append(tt, t[idx - 1] + w * (t[idx] - t[idx - 1]))
    return float(np.trapezoid(tt, ff))


def auc(curve: RocCurve) -> float:
    """Full trapezoidal area under the curve."""
    return pauc(curve, 1.0)


def write_roc_csv(band: RocBand, path: str) -> None:
    """Write both curves, aligned on their shared threshold grid.

    Columns: threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer.  Floats
    use shortest round-trip decimals, so parsing the file re-yields the
    band's points exactly.

    Every rate of a band from ``roc`` is k / n for one of its three class
    counts, so its cells are read from the reprs of k / n for k = 0..n that
    ``fill_rate_tables`` installed for those counts (about 24 B per
    negative pixel), formatted here first if they are not installed; a
    rate that is not such a quotient is formatted directly.
    Rows are built ``_CSV_CHUNK_ROWS`` at a time as fixed-width, NUL-padded
    byte cells.
    """
    write_text(path, _roc_csv_chunks(band))


def _reprs(values: np.ndarray) -> np.ndarray:
    """Shortest round-trip reprs of ``values``, one NUL-padded row of
    ``_CELL_WIDTH + 1`` bytes each with the last byte left 0; raises
    instead of truncating a longer repr."""
    text = np.array(list(map(repr, values.tolist())), dtype=f"S{_CELL_WIDTH + 1}")
    cells = text.view(np.uint8).reshape(-1, _CELL_WIDTH + 1)
    if cells[:, _CELL_WIDTH].any():
        raise ValueError(f"a float repr is longer than {_CELL_WIDTH} characters")
    return cells


def _format_rates(table: np.ndarray, n: int, lo: int, hi: int) -> None:
    """Fill rows lo..hi-1 of an (n + 1, _CELL_WIDTH) table with the
    NUL-padded reprs of k / n."""
    for a in range(lo, hi, _CSV_CHUNK_ROWS):
        b = min(a + _CSV_CHUNK_ROWS, hi)
        table[a:b] = _reprs(np.arange(a, b) / n)[:, :_CELL_WIDTH]


# the rate tables by class count that roc.csv reads; only fill_rate_tables
# writes it, so a process holds the tables of one set of counts
_rate_tables: dict[int, np.ndarray] = {}


def share_rate_tables(counts) -> dict[int, np.ndarray]:
    """Blank rate tables of each nonzero count in ``counts`` (an empty class
    has no rates), laid out in one anonymous mapping that the processes
    forked after it share; making them touches no page."""
    sizes = {n: (n + 1) * _CELL_WIDTH for n in sorted(set(counts) - {0})}
    whole = np.frombuffer(mmap.mmap(-1, sum(sizes.values())), np.uint8)
    parts = np.split(whole, np.cumsum(list(sizes.values()))[:-1])
    return {n: part.reshape(n + 1, _CELL_WIDTH) for n, part in zip(sizes, parts)}


def fill_rate_tables(tables, part: int, parts: int) -> None:
    """Format slice ``part`` of ``parts`` of every table in ``tables`` and make
    them, in place of any others, the tables this process's roc.csv reads;
    they are whole once each of the ``parts`` processes sharing the mapping
    has formatted its slice."""
    for n, table in tables.items():
        _format_rates(table, n, (n + 1) * part // parts, (n + 1) * (part + 1) // parts)
    _rate_tables.clear()
    _rate_tables.update(tables)


def _roc_csv_chunks(band: RocBand):
    ic, oc = band.inner_curve, band.outer_curve
    counts = (band.n_neg, band.n_pos_inner, band.n_pos_outer)
    # bound once, so a fill in another thread cannot swap them mid-file
    tables = _rate_tables.copy()
    if not tables.keys() >= set(counts):
        tables = share_rate_tables(counts)
        fill_rate_tables(tables, 0, 1)
    rate_columns = ((ic.fpr, band.n_neg), (ic.tpr, band.n_pos_inner),
                    (oc.fpr, band.n_neg), (oc.tpr, band.n_pos_outer))
    yield "threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer\n"
    for lo in range(0, ic.thresholds.size, _CSV_CHUNK_ROWS):
        hi = lo + _CSV_CHUNK_ROWS
        thresholds = ic.thresholds[lo:hi]
        cells = np.zeros((thresholds.size, 5, _CELL_WIDTH + 1), np.uint8)
        cells[:, 0] = _reprs(thresholds)
        for j, (column, n) in enumerate(rate_columns, 1):
            rate = column[lo:hi]
            # fmin/fmax keep k in 0..n (NaN too); the int64 views compare
            # bits, so -0.0 is not taken for 0.0
            k = np.rint(np.fmax(np.fmin(rate, 1.0), 0.0) * n).astype(np.int64)
            cells[:, j, :_CELL_WIDTH] = tables[n][k]
            other = (k / n).view(np.int64) != rate.view(np.int64)
            cells[other, j] = _reprs(rate[other])
        cells[:, :4, _CELL_WIDTH] = ord(",")
        cells[:, 4, _CELL_WIDTH] = ord("\n")
        yield cells[cells != 0].tobytes().decode("ascii")


def evaluate_map(path: str, out_dir: str, truth: GroundTruth | tuple[str, str | None],
                 fpr_max: float) -> tuple[PlotPoints, dict]:
    """Evaluate the f32 anomaly map persisted at ``path`` into ``out_dir``:
    roc.csv, roc.svg labelled by the map's file stem (or "map"), and
    summary.json.  Returns the band's ``plot_points`` and the summary dict,
    whose sizes do not grow with the map, and drops the band itself.

    ``truth`` is the GroundTruth or the (inner, outer) mask paths, loaded on
    the map's grid.  ``eval`` and ``run``'s workers call this function; the
    workers are forked, so nothing pickles it, or imports ``__main__``.

    ``roc`` sorts the f32 map itself, which is dropped once the band
    exists, and the AUCs' temporaries are gone before roc.csv is written,
    so the arrays held at once are at most the band's four columns
    (thresholds, the shared fpr, two tpr) with either ``roc``'s classes in
    score order and running count or the rate tables and one
    ``_CSV_CHUNK_ROWS`` block of cells.
    """
    scores = load_raster(path).data
    if not isinstance(truth, GroundTruth):
        truth = load_ground_truth(*truth, scores.shape[::-1])
    band = _roc(scores, truth, fpr_max)
    del scores
    summary = {
        "pauc_inner": band.pauc_inner,
        "pauc_outer": band.pauc_outer,
        "auc_inner": auc(band.inner_curve),
        "auc_outer": auc(band.outer_curve),
        "fpr_max": band.fpr_max,
        "n_pos_inner": band.n_pos_inner,
        "n_pos_outer": band.n_pos_outer,
        "n_neg": band.n_neg,
    }
    make_dir(out_dir)
    write_roc_csv(band, os.path.join(out_dir, "roc.csv"))
    points = plot_points(band)
    label = _base_path(os.path.basename(os.path.normpath(path))) or "map"
    write_loglog_svg({label: points}, os.path.join(out_dir, "roc.svg"))
    write_text(os.path.join(out_dir, "summary.json"),
               json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return points, summary


def plot_points(band: RocBand) -> PlotPoints:
    """The vertices ``write_loglog_svg`` draws for ``band``: each curve's
    (fpr, tpr) rows at every ``ceil(n / _SVG_MAX_POINTS)``-th operating
    point and the last one, so at most ``_SVG_MAX_POINTS`` + 1 columns."""
    def vertices(curve: RocCurve) -> np.ndarray:
        n = curve.fpr.size
        idx = np.arange(0, n, -(-n // _SVG_MAX_POINTS))
        if idx[-1] != n - 1:
            idx = np.append(idx, n - 1)
        return np.stack([curve.fpr[idx], curve.tpr[idx]])

    return vertices(band.inner_curve), vertices(band.outer_curve)


def _polyline_points(vertices: np.ndarray, floor: float, to_px) -> str:
    xs, ys = to_px(*np.log10(np.maximum(vertices, floor)))
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))


def render_loglog_svg(bands: Mapping[str, RocBand], path: str) -> None:
    """Render named ROC bands as a standalone log-log SVG plot:
    ``write_loglog_svg`` of each band's ``plot_points``."""
    write_loglog_svg({name: plot_points(band) for name, band in bands.items()}, path)


def write_loglog_svg(points: Mapping[str, PlotPoints], path: str) -> None:
    """Write named bands' plot points as a standalone log-log SVG plot.

    ``points`` maps each name to its ``plot_points``, in plotting order; each
    band draws two polylines (inner solid, outer dashed) in one color.  Rates
    below DEFAULT_FPR_FLOOR (1e-5) are clipped to it so zero never reaches
    log10.  Output bytes are a pure function of the inputs.
    """
    if not points:
        raise ValueError("at least one band is required")

    width, height = 720, 540
    ml, mr, mt, mb = 80, 24, 24, 56
    pw, ph = width - ml - mr, height - mt - mb
    lmin = np.log10(DEFAULT_FPR_FLOOR)

    def to_px(lx: float, ly: float) -> tuple[float, float]:
        return (ml + (lx - lmin) / (0.0 - lmin) * pw,
                mt + ph - (ly - lmin) / (0.0 - lmin) * ph)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    # decade grid and tick labels
    exps = range(int(round(lmin)), 1)
    for e in exps:
        x, _ = to_px(float(e), 0.0)
        _, y = to_px(0.0, float(e))
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + ph}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        label = "1" if e == 0 else f"1e{e}"
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{label}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 14}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">false positive rate</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2:.2f})">'
        "true positive rate</text>"
    )

    for i, (name, (inner, outer)) in enumerate(points.items()):
        color = _PALETTE[i % len(_PALETTE)]
        inner_pts = _polyline_points(inner, DEFAULT_FPR_FLOOR, to_px)
        outer_pts = _polyline_points(outer, DEFAULT_FPR_FLOOR, to_px)
        parts.append(
            f'<polyline points="{inner_pts}" fill="none" stroke="{color}" '
            'stroke-width="1.8"/>'
        )
        parts.append(
            f'<polyline points="{outer_pts}" fill="none" stroke="{color}" '
            'stroke-width="1.8" stroke-dasharray="6 4"/>'
        )
        ly = mt + 16 + 18 * i
        # html.escape(quote=False), without importing html, whose entity
        # tables every process that imports acdkit would hold
        text = str(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<line x1="{ml + 12}" y1="{ly}" x2="{ml + 44}" y2="{ly}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{ml + 50}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{text}</text>'
        )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
