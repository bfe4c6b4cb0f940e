"""Dual-mask ROC curves, partial AUC, CSV export, log-log SVG plots, and
the evaluation of one persisted anomaly map (``evaluate_map``).

One walk over a map's score order (``_walk``) yields its operating points
a block at a time, as integer counts, and one fold (``_fold``) turns them
into rates and the map's summary.  ``roc`` collects the rates into a band
whose scalars are the summary's, bit for bit; ``evaluate_map`` writes
roc.csv from them as they come, so it never holds a band.

A plot is drawn in two steps: ``plot_points`` reduces a band to the
vertices its polylines draw (at most ``_SVG_MAX_POINTS`` + 1 per curve),
and ``write_loglog_svg`` writes named vertices as SVG.  ``evaluate_map``
returns the vertices, so ``run`` keeps a few thousand points per map
whatever the map's size.

A detector is evaluated against both ground-truth masks at once.  The
outer curve treats every outer-mask pixel as positive; the inner curve
treats only inner-mask pixels as positive and drops the ambiguous
outer-minus-inner band entirely.  Negatives are the complement of the
outer mask for both curves, so the two curves bracket the ROC curve of
the unknown exact truth.
"""

from __future__ import annotations

import json
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
# pixels of the score order, or rows of a band, read at once: bounds the
# counts and roc.csv rows held in memory
_BLOCK_ROWS = 4096

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


@dataclass(frozen=True, eq=False)
class RocBand:
    """Inner- and outer-truth curves of one anomaly map; its scalar fields
    are the keys of the map's summary.json.

    The counts are the curves' class sizes: tpr_inner, tpr_outer and both
    fpr columns are multiples of 1/n_pos_inner, 1/n_pos_outer and 1/n_neg.
    Both curves hold the same thresholds, bit for bit: roc.csv writes one
    threshold column for both.
    """

    inner_curve: RocCurve
    outer_curve: RocCurve
    pauc_inner: float
    pauc_outer: float
    auc_inner: float
    auc_outer: float
    fpr_max: float
    n_pos_inner: int
    n_pos_outer: int
    n_neg: int

    def __post_init__(self):
        if min(self.n_pos_inner, self.n_pos_outer, self.n_neg) < 1:
            raise ValueError("class counts must be >= 1")
        inner, outer = self.inner_curve.thresholds, self.outer_curve.thresholds
        if inner is not outer and not np.array_equal(inner.view(np.int64), outer.view(np.int64)):
            raise ValueError("the inner and outer curves' thresholds differ")


# a band's inner and outer curves as the (2, k) fpr/tpr vertices plotted
PlotPoints = tuple[np.ndarray, np.ndarray]


def _walk(scores: np.ndarray, gt: GroundTruth):
    """(the number of operating points, (n_pos_inner, n_pos_outer, n_neg),
    the blocks) of one pass over the descending score order of a float32 or
    float64 map.

    Each block is (float64 thresholds, the (3, m) int64 counts of negatives,
    inner and outer positives scoring at least each threshold) of the next
    points; the first is (+inf, 0, 0, 0) alone, each later threshold a
    distinct score.  Sorting float32 scores gives the order and ties of
    their float64 values, so only the thresholds are widened.  Raises
    GridMismatch when map and masks disagree and EmptyClass when a curve
    would have no positives or no negatives.
    """
    if scores.shape != gt.shape:
        raise GridMismatch(f"anomaly map {scores.shape} does not match masks {gt.shape}")
    n_inner, n_outer = int(np.count_nonzero(gt.inner)), int(np.count_nonzero(gt.outer))
    n_neg = gt.outer.size - n_outer  # both curves' negatives: the outer mask's complement
    for label, n_pos in (("inner", n_inner), ("outer", n_outer)):
        if n_pos == 0:
            raise EmptyClass(f"{label} curve has no positive pixels")
        if n_neg == 0:
            raise EmptyClass(f"{label} curve has no negative pixels")
    flat = scores.ravel()
    # the one tie group whose order shows is 0.0 with -0.0: its threshold is
    # the zero at the highest raster index, as a stable sort would end it
    # (without a zero, no threshold reads this)
    zero = flat[flat.size - 1 - np.argmax((flat == 0)[::-1])]
    # a tie group's counts are read at its last index, whatever the order
    # inside it, so the ascending order read backwards will do
    order = np.argsort(flat)[::-1]
    ranked = flat[order]
    n_points = int(np.count_nonzero(ranked[1:] != ranked[:-1])) + 2
    blocks = _blocks(ranked, order, gt.inner.ravel(), gt.outer.ravel(), zero)
    return n_points, (n_inner, n_outer, n_neg), blocks


def _blocks(ranked, order, inner, outer, zero):
    """``_walk``'s blocks, from ``_BLOCK_ROWS`` pixels of the order at a time."""
    yield np.array([np.inf]), np.zeros((3, 1), np.int64)
    above = np.zeros((2, 1), np.int64)  # inner and outer positives before the block
    for lo in range(0, ranked.size, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, ranked.size)
        # the last pixel of each tie group, told by the pixel after it
        s = ranked[lo:hi + 1]
        ends = np.flatnonzero(s[1:] != s[:-1] if hi < ranked.size
                              else np.append(s[1:] != s[:-1], True))
        running = np.cumsum([inner[order[lo:hi]], outer[order[lo:hi]]], axis=1, dtype=np.int64)
        running += above
        above = running[:, -1:]
        if ends.size:
            thresholds = s[ends].astype(np.float64)
            thresholds[thresholds == 0] = zero
            counts = np.empty((3, ends.size), np.int64)
            counts[1:] = running[:, ends]
            counts[0] = lo + 1 + ends - counts[2]  # pixels at or above, less outer positives
            yield thresholds, counts


def _fold(walk, fpr_max: float, kept: dict):
    """The blocks of ``walk``, ``_walk``'s result, as (thresholds, counts,
    the (3, m) fpr, tpr_inner and tpr_outer rates).  Once they run out,
    ``kept`` holds the "summary", ``RocBand``'s scalar fields, and the
    "points" of ``plot_points``.  It keeps the rates up to the first point
    past ``fpr_max`` (all ``pauc`` reads), the plotted vertices and two
    integer sums: each AUC is the exact sum of dneg * (k_before + k_after)
    over the steps, over 2 * n_neg * n_pos, rounded once."""
    n_points, (n_inner, n_outer, n_neg), blocks = walk
    sizes = np.array([[n_neg], [n_inner], [n_outer]])
    vertex_rows = _vertex_rows(n_points)
    head, shown, area = [], [], [0, 0]
    at, last = 0, np.zeros((3, 1), np.int64)
    for t, counts in blocks:
        rates = counts / sizes
        if not head or head[-1][0, -1] <= fpr_max:
            head.append(rates[:, :np.searchsorted(rates[0], fpr_max, side="right") + 1])
        lo, hi = np.searchsorted(vertex_rows, (at, at + t.size))
        shown.append(rates[:, vertex_rows[lo:hi] - at])
        k = np.concatenate([last, counts], axis=1)
        for j in (0, 1):
            area[j] += int(np.diff(k[0]) @ (k[j + 1, :-1] + k[j + 1, 1:]))
        at, last = at + t.size, counts[:, -1:]
        yield t, counts, rates
    f, tpr_inner, tpr_outer = np.concatenate(head, axis=1)
    kept["summary"] = {
        "pauc_inner": _pauc(f, tpr_inner, fpr_max),
        "pauc_outer": _pauc(f, tpr_outer, fpr_max),
        "auc_inner": area[0] / (2 * n_neg * n_inner),
        "auc_outer": area[1] / (2 * n_neg * n_outer),
        "fpr_max": float(fpr_max),
        "n_pos_inner": n_inner,
        "n_pos_outer": n_outer,
        "n_neg": n_neg,
    }
    f, tpr_inner, tpr_outer = np.concatenate(shown, axis=1)
    kept["points"] = np.stack([f, tpr_inner]), np.stack([f, tpr_outer])


def roc(amap: AnomalyMap, gt: GroundTruth, fpr_max: float = DEFAULT_FPR_MAX) -> RocBand:
    """Compute the dual-mask ROC band of an anomaly map.

    Thresholds are the distinct score values of the map (shared by both
    curves).  Raises GridMismatch when map and masks disagree and
    EmptyClass when a curve would have no positives or no negatives.
    """
    walk, kept = _walk(amap.scores, gt), {}
    # both curves share the thresholds and the negatives' fpr column
    thresholds, fpr, tpr_inner, tpr_outer = columns = np.empty((4, walk[0]))
    at = 0
    for t, _, rates in _fold(walk, fpr_max, kept):
        columns[0, at:at + t.size] = t
        columns[1:, at:at + t.size] = rates
        at += t.size
    return RocBand(RocCurve(thresholds, fpr, tpr_inner), RocCurve(thresholds, fpr, tpr_outer),
                   **kept["summary"])


def pauc(curve: RocCurve, fpr_max: float = DEFAULT_FPR_MAX) -> float:
    """Trapezoidal area under the curve on fpr in [0, fpr_max].

    The polyline is linearly interpolated at the right edge, so a perfect
    detector scores exactly fpr_max.  ``pauc(curve, 1.0)`` is a curve's
    full trapezoidal area; a band from ``roc`` carries its exact AUCs.
    """
    return _pauc(curve.fpr, curve.tpr, fpr_max)


def _pauc(f: np.ndarray, t: np.ndarray, fpr_max: float) -> float:
    """pauc of the curve (f, t), read only up to the first point past fpr_max."""
    if not 0.0 < fpr_max <= 1.0:
        raise ValueError(f"fpr_max must be in (0, 1], got {fpr_max}")
    idx = int(np.searchsorted(f, fpr_max, side="right"))
    ff, tt = f[:idx], t[:idx]
    if idx < f.size and (ff.size == 0 or ff[-1] < fpr_max):
        w = (fpr_max - f[idx - 1]) / (f[idx] - f[idx - 1])
        ff = np.append(ff, fpr_max)
        tt = np.append(tt, t[idx - 1] + w * (t[idx] - t[idx - 1]))
    return float(np.trapezoid(tt, ff))


def write_roc_csv(band: RocBand, path: str) -> None:
    """Write both curves, aligned on their shared threshold grid, as the
    rows where they turn.

    Columns: threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer.  Floats
    use shortest round-trip decimals, so parsing the file re-yields each
    written point exactly.  The rows are the first, the last, and every
    row where the step into it and the step out of it are not parallel on
    the inner curve (fpr_inner, tpr_inner) or on the outer curve.  The
    steps are taken in integer counts, k = rint(rate * n) for the rate's
    class count n, by an exact int64 cross product (class counts below
    2**31); a rate that is not the float k / n, only possible in a
    hand-built band, keeps its row too.  On a band from ``roc`` the outer
    curve moves at every threshold, so every operating point left out lies
    on the segment between the rows kept on either side of it.  Rows are
    tested ``_BLOCK_ROWS`` at a time.
    """
    write_text(path, _roc_csv_text(_band_rows(band)))


def _band_rows(band: RocBand):
    """``band``'s rows in ``_roc_csv_text``'s blocks, each count rint(rate * n)."""
    ic, oc = band.inner_curve, band.outer_curve
    sizes = np.array([[band.n_neg], [band.n_pos_inner], [band.n_neg], [band.n_pos_outer]])
    for lo in range(0, ic.thresholds.size, _BLOCK_ROWS):
        rows = np.stack([c[lo:lo + _BLOCK_ROWS]
                         for c in (ic.thresholds, ic.fpr, ic.tpr, oc.fpr, oc.tpr)])
        # fmin/fmax keep k in 0..n (NaN too); the int64 views compare bits,
        # so -0.0 is not taken for 0.0
        k = np.rint(np.fmax(np.fmin(rows[1:], 1.0), 0.0) * sizes).astype(np.int64)
        yield rows, k, ((k / sizes).view(np.int64) != rows[1:].view(np.int64)).any(axis=0)


def _roc_csv_text(blocks):
    """roc.csv's text from blocks of consecutive rows (rows, k, keep): the
    file's (5, m) float64 columns, the (4, m) int64 counts of its rates and
    the rows kept whatever their steps.  A block's last row is written with
    the next block, once the step out of it is known."""
    yield "threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer\n"
    tail = None  # the last two rows read, the last of them not yet written
    for block in blocks:
        if tail is None:
            rows, k, keep = block
            keep, first = keep.copy(), 0
            keep[0] = True  # the first row
        else:
            rows, k, keep = (np.concatenate(pair, axis=-1) for pair in zip(tail, block))
            first = tail[2].size - 1
        steps = np.diff(k)
        into, out = steps[:, :-1], steps[:, 1:]
        keep[1:-1] |= ((into[0] * out[1] != into[1] * out[0])
                       | (into[2] * out[3] != into[3] * out[2]))
        yield _csv_lines(rows[:, np.flatnonzero(keep[first:-1]) + first])
        tail = rows[:, -2:], k[:, -2:], keep[-2:]
    yield _csv_lines(tail[0][:, -1:])  # the last row


def _csv_lines(rows: np.ndarray) -> str:
    # the rate columns repeat values (both fpr columns are one), so each
    # distinct rate is formatted once, told apart by its bits: -0.0 from 0.0
    bits, index = np.unique(rows[1:].view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    cells = [text[i] for i in index.ravel().tolist()]
    m = rows.shape[1]
    return "".join(map("{},{},{},{},{}\n".format, map(repr, rows[0].tolist()),
                       *(cells[j * m:(j + 1) * m] for j in range(4))))


def evaluate_map(path: str, out_dir: str, truth: GroundTruth | tuple[str, str | None],
                 fpr_max: float) -> tuple[PlotPoints, dict]:
    """Evaluate the f32 anomaly map persisted at ``path`` into ``out_dir``:
    roc.csv, roc.svg labelled by the map's file stem (or "map"), and
    summary.json.  Returns the map's ``plot_points`` and the summary dict,
    whose sizes do not grow with the map.  ``truth`` is the GroundTruth or
    the (inner, outer) mask paths, loaded on the map's grid.

    One ``_walk`` through ``_fold`` writes roc.csv as its blocks come.  The
    map is dropped once sorted, so the walk holds its order and sorted
    scores (12 B per pixel) and one block at a time.
    """
    scores = load_raster(path).data
    if not isinstance(truth, GroundTruth):
        truth = load_ground_truth(*truth, scores.shape[::-1])
    walk, kept = _walk(scores, truth), {}
    del scores
    make_dir(out_dir)
    write_text(os.path.join(out_dir, "roc.csv"), _roc_csv_text(
        (np.stack([t, *rates[[0, 1, 0, 2]]]), counts[[0, 1, 0, 2]], np.zeros(t.size, bool))
        for t, counts, rates in _fold(walk, fpr_max, kept)))
    label = _base_path(os.path.basename(os.path.normpath(path))) or "map"
    write_loglog_svg({label: kept["points"]}, os.path.join(out_dir, "roc.svg"))
    write_text(os.path.join(out_dir, "summary.json"),
               json.dumps(kept["summary"], indent=2, sort_keys=True) + "\n")
    return kept["points"], kept["summary"]


def _vertex_rows(n: int) -> np.ndarray:
    """The points of an n-point curve that its polyline draws: every
    ``ceil(n / _SVG_MAX_POINTS)``-th and the last."""
    rows = np.arange(0, n, -(-n // _SVG_MAX_POINTS))
    return rows if rows[-1] == n - 1 else np.append(rows, n - 1)


def plot_points(band: RocBand) -> PlotPoints:
    """The vertices ``write_loglog_svg`` draws for ``band``: each curve's
    (fpr, tpr) rows at its ``_vertex_rows``."""
    def vertices(curve: RocCurve) -> np.ndarray:
        rows = _vertex_rows(curve.fpr.size)
        return np.stack([curve.fpr[rows], curve.tpr[rows]])

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
