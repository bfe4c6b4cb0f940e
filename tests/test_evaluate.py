import csv
import math
import pickle
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import acdkit.evaluate as evaluate
from acdkit import (
    AnomalyMap,
    EmptyClass,
    GridMismatch,
    GroundTruth,
    Raster,
    RocBand,
    RocCurve,
    pauc,
    render_loglog_svg,
    roc,
    save_raster,
    write_roc_csv,
)


def _gt(inner, outer=None):
    inner = np.asarray(inner, bool)
    return GroundTruth(inner, inner if outer is None else np.asarray(outer, bool))


def _amap(scores):
    return AnomalyMap(np.asarray(scores, dtype=np.float64))


FOUR_PIXEL_MAP = _amap([[0.9, 0.8], [0.2, 0.1]])
FOUR_PIXEL_GT = _gt([[True, True], [False, False]])


def test_four_pixel_fixture_hand_enumeration():
    band = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    c = band.inner_curve
    # thresholds: above-max, then each distinct score
    assert c.thresholds.tolist() == [math.inf, 0.9, 0.8, 0.2, 0.1]
    assert c.fpr.tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]
    assert c.tpr.tolist() == [0.0, 0.5, 1.0, 1.0, 1.0]
    assert band.pauc_inner == pytest.approx(0.01, abs=1e-15)
    assert band.pauc_outer == pytest.approx(0.01, abs=1e-15)


def test_inner_equals_outer_gives_identical_curves():
    band = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    for a, b in ((band.inner_curve.thresholds, band.outer_curve.thresholds),
                 (band.inner_curve.fpr, band.outer_curve.fpr),
                 (band.inner_curve.tpr, band.outer_curve.tpr)):
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


def test_constant_map_is_two_endpoints():
    band = roc(_amap([[1.0, 1.0, 1.0]]), _gt([[True, False, False]]))
    c = band.inner_curve
    assert c.thresholds.tolist() == [math.inf, 1.0]
    assert c.fpr.tolist() == [0.0, 1.0]
    assert c.tpr.tolist() == [0.0, 1.0]


def test_tie_grouping_moves_classes_together():
    # two pixels share score 0.5: one positive, one negative
    band = roc(_amap([[0.5, 0.5], [0.1, 0.9]]),
               _gt([[True, False], [False, True]]))
    c = band.inner_curve
    assert c.thresholds.tolist() == [math.inf, 0.9, 0.5, 0.1]
    assert c.fpr.tolist() == [0.0, 0.0, 0.5, 1.0]
    assert c.tpr.tolist() == [0.0, 0.5, 1.0, 1.0]


def test_ambiguous_band_excluded_from_inner_curve():
    # outer-minus-inner pixel scores highest: outer curve counts it as a
    # positive, the inner curve ignores it entirely
    amap = _amap([[0.9, 0.8, 0.2, 0.1]])
    inner = np.array([[False, True, False, False]])
    outer = np.array([[True, True, False, False]])
    band = roc(amap, _gt(inner, outer))
    assert band.inner_curve.tpr.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    assert band.outer_curve.tpr.tolist() == [0.0, 0.5, 1.0, 1.0, 1.0]
    # negatives (complement of outer) identical for both curves: one shared
    # read-only column, on one shared threshold grid
    assert band.inner_curve.fpr is band.outer_curve.fpr
    assert band.inner_curve.thresholds is band.outer_curve.thresholds
    assert not band.inner_curve.fpr.flags.writeable


def test_roc_holds_each_column_once(traced_peak):
    # an all-distinct 512x512 map: the sort order and sorted scores (16 B
    # per pixel), the shared thresholds and fpr, two tpr columns (32) and
    # one block come to about 50 B per pixel; a second fpr column, a copy of
    # the map or a cumulative sum per column adds 8 B or more
    side = 512
    scores = np.random.default_rng(7).permutation(side * side).astype(np.float64)
    amap = _amap(scores.reshape(side, side))
    inner, outer = np.zeros((2, side, side), bool)
    inner[200:300, 200:300] = True
    outer[196:304, 196:304] = True
    gt = _gt(inner, outer)
    band, peak = traced_peak(roc, amap, gt)
    assert band.inner_curve.thresholds.size == side * side + 1
    assert peak <= 56 * side * side


def test_evaluate_map_holds_each_column_once(tmp_path, traced_peak):
    # an all-distinct 512x512 map: the f32 map, its sort order and sorted
    # scores and the first tie-group test come to 17 B per pixel; from then
    # on the order and the sorted scores (12) with one block of counts and
    # roc.csv rows, about 19 in all, where a float64 copy of the map or one
    # full column of the band adds 8
    side = 512
    scores = np.random.default_rng(7).permutation(side * side).astype(np.float32)
    save_raster(Raster(scores.reshape(side, side)), str(tmp_path / "anomaly"))
    inner, outer = np.zeros((2, side, side), bool)
    inner[200:300, 200:300] = True
    outer[196:304, 196:304] = True
    gt = _gt(inner, outer)
    (_, summary), peak = traced_peak(
        evaluate.evaluate_map, str(tmp_path / "anomaly"), str(tmp_path / "out"), gt, 0.01)
    assert summary["n_neg"] == side * side - 108 * 108
    assert peak <= 21 * side * side


def _stable_reference_roc(scores, inner, outer):
    """(thresholds, fpr, tpr_inner, tpr_outer) of ``scores`` by a stable sort,
    whose tie groups end at their highest raster index."""
    s = scores.ravel().astype(np.float64)
    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    ends = np.nonzero(np.append(ranked[1:] != ranked[:-1], True))[0]

    def rate(members):
        members = members.ravel()
        return np.concatenate([[0.0], np.cumsum(members[order])[ends] / members.sum()])

    return (np.concatenate([[np.inf], ranked[ends]]), rate(~outer), rate(inner), rate(outer))


@st.composite
def _tied_maps(draw, dtype):
    """(scores, inner, outer): a map of few distinct values, so most pixels
    tie, with 0.0 beside -0.0 (the one tie whose order shows in the bytes,
    the threshold's sign), and masks that give both curves both classes."""
    shape = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    scores = draw(hnp.arrays(dtype, shape, elements=st.sampled_from(
        [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.5e-7])))
    outer = draw(hnp.arrays(np.bool_, shape))
    inner = outer & draw(hnp.arrays(np.bool_, shape))
    assume(inner.any() and not outer.all())
    return scores, inner, outer


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([np.float32, np.float64]).flatmap(_tied_maps))
def test_roc_matches_a_stable_sort_reference_property(case):
    scores, inner, outer = case
    gt = _gt(inner, outer)
    expect = _stable_reference_roc(scores, inner, outer)
    band = roc(_amap(scores), gt)
    # the map as the walk reads it (the f32 map in evaluate_map), and as
    # the public roc collects it
    n_points, sizes, blocks = evaluate._walk(scores, gt)
    thresholds, counts = (np.concatenate(c, axis=-1) for c in zip(*blocks))
    n_inner, n_outer, n_neg = sizes
    walked = (thresholds, counts[0] / n_neg, counts[1] / n_inner, counts[2] / n_outer)
    got = (band.inner_curve.thresholds, band.inner_curve.fpr, band.inner_curve.tpr,
           band.outer_curve.tpr)
    assert thresholds.size == n_points
    for columns in (walked, got):
        for a, b in zip(columns, expect):
            assert a.dtype == np.float64
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


@settings(max_examples=40, deadline=None)
@given(case=_tied_maps(np.float32), block_rows=st.integers(1, 5),
       fpr_max=st.sampled_from([0.01, 0.2, 0.5, 1.0]))
def test_evaluate_map_matches_roc_property(tmp_path_factory, case, block_rows, fpr_max):
    # blocks of a few pixels end inside tie groups and beside the first
    # point past fpr_max; the files, pAUCs and plot come out as from roc's
    # band, and each AUC is the exact area, rounded once
    scores, inner, outer = case
    gt = _gt(inner, outer)
    tmp = tmp_path_factory.mktemp("evaluate")
    save_raster(Raster(scores), str(tmp / "anomaly"))
    with mock.patch.object(evaluate, "_BLOCK_ROWS", block_rows):
        points, summary = evaluate.evaluate_map(str(tmp / "anomaly"), str(tmp / "out"), gt,
                                                fpr_max)
    band = roc(_amap(scores), gt, fpr_max)
    write_roc_csv(band, str(tmp / "roc.csv"))
    render_loglog_svg({"anomaly": band}, str(tmp / "roc.svg"))
    for name in ("roc.csv", "roc.svg"):
        assert (tmp / "out" / name).read_bytes() == (tmp / name).read_bytes(), name
    assert [p.tolist() for p in points] == [p.tolist() for p in evaluate.plot_points(band)]
    assert summary["pauc_inner"].hex() == band.pauc_inner.hex()
    assert summary["pauc_outer"].hex() == band.pauc_outer.hex()
    assert summary["auc_inner"].hex() == band.auc_inner.hex()
    assert summary["auc_outer"].hex() == band.auc_outer.hex()
    assert summary["auc_inner"] == _exact_auc(scores, inner, ~outer)
    assert summary["auc_outer"] == _exact_auc(scores, outer, ~outer)


def _exact_auc(scores, positive, negative):
    """The area under a ROC curve with ties as diagonal steps: the share of
    (positive, negative) pairs ranked right, a tie counting one half."""
    scores = scores.astype(np.float64)
    pairs = scores[positive][:, None] - scores[negative]
    halves = 2 * np.count_nonzero(pairs > 0) + np.count_nonzero(pairs == 0)
    return float(Fraction(int(halves), 2 * pairs.size))


def test_band_auc_is_the_exact_pair_count():
    # a trapezoid over this map's float rates gives 0.8565524900631283 for
    # the inner curve, one bit below the exact area
    scores, inner, outer = _random_large_map(1, 64)
    band = roc(_amap(scores), _gt(inner, outer))
    assert band.auc_inner == _exact_auc(scores, inner, ~outer) == 0.8565524900631284
    assert band.auc_outer == _exact_auc(scores, outer, ~outer)


def test_grid_mismatch():
    with pytest.raises(GridMismatch):
        roc(_amap([[1.0]]), FOUR_PIXEL_GT)


def test_empty_class():
    with pytest.raises(EmptyClass):
        roc(FOUR_PIXEL_MAP, _gt(np.zeros((2, 2), bool)))
    with pytest.raises(EmptyClass):
        roc(FOUR_PIXEL_MAP, _gt(np.ones((2, 2), bool)))
    # empty inner with a usable outer is still an error for the inner curve
    with pytest.raises(EmptyClass):
        roc(FOUR_PIXEL_MAP, _gt(np.zeros((2, 2), bool), [[True, False], [False, False]]))


def test_band_refuses_an_empty_class_count():
    curve = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT).inner_curve
    with pytest.raises(ValueError, match="class counts"):
        RocBand(curve, curve, 0.0, 0.0, 0.5, 0.5, 0.01, n_pos_inner=2, n_pos_outer=2, n_neg=0)


@pytest.mark.parametrize("outer_thresholds", [
    [math.inf, 9.0, 8.0],  # another grid: roc.csv would pair its rates with 2.0 and 1.0
    [math.inf, 2.0, 1.0, 0.0],  # a longer one
    [math.inf, 2.0, -0.0],  # equal as floats, not as bits
], ids=["other-values", "other-length", "negative-zero"])
def test_band_refuses_curves_on_different_thresholds(outer_thresholds):
    inner = RocCurve([math.inf, 2.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    n = len(outer_thresholds)
    outer = RocCurve(outer_thresholds, np.linspace(0, 1, n), np.linspace(0, 1, n))
    with pytest.raises(ValueError, match="thresholds differ"):
        RocBand(inner, outer, 0.0, 0.0, 0.5, 0.5, 0.01, n_pos_inner=2, n_pos_outer=2, n_neg=2)
    # a copy of the same thresholds is one grid
    same = RocCurve(inner.thresholds.copy(), inner.fpr, inner.tpr)
    RocBand(inner, same, 0.0, 0.0, 0.5, 0.5, 0.01, n_pos_inner=2, n_pos_outer=2, n_neg=2)


def test_pauc_perfect_detector():
    c = RocCurve([math.inf, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    assert pauc(c, 0.01) == pytest.approx(0.01, abs=1e-15)
    assert pauc(c, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_pauc_chance_diagonal():
    c = RocCurve([math.inf, 0.0], [0.0, 1.0], [0.0, 1.0])
    assert pauc(c, 0.01) == pytest.approx(5e-5, abs=1e-18)
    assert pauc(c, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_pauc_right_edge_interpolation():
    # step to tpr=0.4 at fpr=0.2: pAUC@0.1 is half a triangle-free rectangle
    c = RocCurve([math.inf, 1.0, 0.0], [0.0, 0.2, 1.0], [0.0, 0.4, 1.0])
    assert pauc(c, 0.1) == pytest.approx(0.5 * 0.1 * 0.2, abs=1e-15)


def test_pauc_domain():
    c = RocCurve([math.inf, 0.0], [0.0, 1.0], [0.0, 1.0])
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            pauc(c, bad)


def _random_band(rng):
    h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    # quantized scores force ties
    scores = np.round(rng.normal(size=(h, w)), 1)
    outer = rng.random((h, w)) < 0.4
    inner = outer & (rng.random((h, w)) < 0.7)
    if not inner.any() or outer.all():
        return None
    return roc(_amap(scores), _gt(inner, outer))


def test_monotonicity_property_random():
    rng = np.random.default_rng(31)
    tested = 0
    while tested < 300:
        band = _random_band(rng)
        if band is None:
            continue
        tested += 1
        for c in (band.inner_curve, band.outer_curve):
            assert np.all(np.diff(c.fpr) >= 0)
            assert np.all(np.diff(c.tpr) >= 0)
            assert c.fpr[0] == c.tpr[0] == 0.0
            assert c.fpr[-1] == c.tpr[-1] == 1.0


def test_order_invariance_under_monotone_transform():
    rng = np.random.default_rng(32)
    scores = np.round(rng.normal(size=(8, 8)), 1)
    outer = rng.random((8, 8)) < 0.35
    inner = outer & (rng.random((8, 8)) < 0.8)
    gt = _gt(inner, outer)
    b1 = roc(_amap(scores), gt)
    b2 = roc(_amap(scores**3), gt)  # strictly increasing on all reals
    for a, b in ((b1.inner_curve, b2.inner_curve), (b1.outer_curve, b2.outer_curve)):
        assert a.fpr.tolist() == b.fpr.tolist()
        assert a.tpr.tolist() == b.tpr.tolist()
    assert b1.pauc_inner == b2.pauc_inner


def test_dominance_sanity():
    rng = np.random.default_rng(33)
    inner = np.zeros((10, 10), bool)
    inner[2:5, 2:5] = True
    scores = rng.random((10, 10))
    scores[inner] += 2.0  # strict separation
    band = roc(_amap(scores), _gt(inner), fpr_max=0.01)
    assert band.pauc_inner == pytest.approx(0.01, abs=1e-15)
    assert band.pauc_outer == pytest.approx(0.01, abs=1e-15)


def _read_roc_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "fpr_inner", "tpr_inner", "fpr_outer", "tpr_outer"]
    return np.array([[float(v) for v in row] for row in rows[1:]])


def _band_columns(band):
    ic, oc = band.inner_curve, band.outer_curve
    return np.stack([ic.thresholds, ic.fpr, ic.tpr, oc.fpr, oc.tpr], axis=1)


def test_csv_round_trip(tmp_path):
    # thresholds 0.9 and 0.2 lie on straight runs (two positives, then two
    # negatives), so the file holds the corners: inf, 0.8 and 0.1
    band = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    path = str(tmp_path / "roc.csv")
    write_roc_csv(band, path)
    parsed = _read_roc_csv(path)
    assert parsed.tolist() == _band_columns(band)[[0, 2, 4]].tolist()
    assert parsed[:, 0].tolist() == [math.inf, 0.8, 0.1]


def test_csv_two_point_band(tmp_path):
    band = roc(_amap([[1.0, 1.0, 1.0]]), _gt([[True, False, False]]))
    path = tmp_path / "two.csv"
    write_roc_csv(band, str(path))
    assert path.read_text() == ("threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer\n"
                                "inf,0.0,0.0,0.0,0.0\n1.0,1.0,1.0,1.0,1.0\n")


def test_svg_structure_and_clipping(tmp_path):
    band = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    path = str(tmp_path / "roc.svg")
    render_loglog_svg({"fixture": band}, path)
    text = Path(path).read_text()
    assert text.count("<polyline") == 2
    assert "fixture" in text
    assert text.startswith("<?xml")
    assert "false positive rate" in text and "true positive rate" in text
    assert "-inf" not in text and "nan" not in text  # zero rates were clipped


def test_svg_deterministic_bytes(tmp_path):
    band = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    render_loglog_svg({"x": band}, p1)
    render_loglog_svg({"x": band}, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_svg_multiple_bands(tmp_path):
    b1 = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    b2 = roc(_amap([[0.1, 0.2], [0.9, 0.8]]), FOUR_PIXEL_GT)
    path = str(tmp_path / "multi.svg")
    render_loglog_svg({"good": b1, "bad": b2}, path)
    text = Path(path).read_text()
    assert text.count("<polyline") == 4
    assert "good" in text and "bad" in text


def test_svg_requires_a_band(tmp_path):
    with pytest.raises(ValueError):
        render_loglog_svg({}, str(tmp_path / "no.svg"))


# Reference writers: the straightforward per-row / per-vertex formatting
# that the vectorised writers must reproduce byte for byte.

def _reference_write_roc_csv(band, path):
    """roc.csv by its rule, one row at a time in Python ints: the first and the
    last row, a row with a rate that is not the float k / n, and a row where
    the inner or the outer curve turns."""
    ic, oc = band.inner_curve, band.outer_curve
    rows = list(zip(*(c.tolist() for c in (ic.thresholds, ic.fpr, ic.tpr, oc.fpr, oc.tpr))))
    counts = (band.n_neg, band.n_pos_inner, band.n_neg, band.n_pos_outer)
    k = [[round(min(max(rate, 0.0), 1.0) * n) for rate, n in zip(row[1:], counts)]
         for row in rows]

    def other(i):
        return any((kk / n).hex() != rate.hex() for rate, kk, n in zip(rows[i][1:], k[i], counts))

    def turns(i):
        into = [b - a for a, b in zip(k[i - 1], k[i])]
        out = [b - a for a, b in zip(k[i], k[i + 1])]
        return (into[0] * out[1] != into[1] * out[0]) or (into[2] * out[3] != into[3] * out[2])

    lines = ["threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer"]
    for i, row in enumerate(rows):
        if i in (0, len(rows) - 1) or other(i) or turns(i):
            lines.append(",".join(map(repr, row)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_plot_points(band):
    def vertices(curve):
        n = curve.fpr.size
        idx = sorted(set(range(0, n, math.ceil(n / evaluate._SVG_MAX_POINTS))) | {n - 1})
        return np.array([[curve.fpr[i] for i in idx], [curve.tpr[i] for i in idx]])

    return vertices(band.inner_curve), vertices(band.outer_curve)


def _reference_polyline_points(vertices, floor, to_px):
    lf = np.log10(np.maximum(vertices[0], floor))
    lt = np.log10(np.maximum(vertices[1], floor))
    return " ".join(f"{to_px(x, y)[0]:.2f},{to_px(x, y)[1]:.2f}" for x, y in zip(lf, lt))


def _assert_csv_matches_reference(band, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_roc_csv(band, str(new))
    _reference_write_roc_csv(band, str(ref))
    assert new.read_bytes() == ref.read_bytes()


def _assert_svg_matches_reference(bands, tmp_path):
    new, ref = tmp_path / "new.svg", tmp_path / "ref.svg"
    render_loglog_svg(bands, str(new))
    with mock.patch.object(evaluate, "plot_points", _reference_plot_points), \
            mock.patch.object(evaluate, "_polyline_points", _reference_polyline_points):
        render_loglog_svg(bands, str(ref))
    assert new.read_bytes() == ref.read_bytes()


def _random_large_map(seed, side):
    """(scores, inner, outer): normal scores, +1.5 inside an outer rectangle
    whose first 3 rows are not inner."""
    rng = np.random.default_rng(seed)
    outer = np.zeros((side, side), bool)
    outer[side // 4: side // 2, side // 3: 2 * side // 3] = True
    inner = outer.copy()
    inner[side // 4: side // 4 + 3, :] = False
    scores = rng.normal(size=(side, side))
    scores[outer] += 1.5
    return scores, inner, outer


def _random_large_band(seed, side):
    scores, inner, outer = _random_large_map(seed, side)
    return roc(_amap(scores), _gt(inner, outer))


def test_csv_bytes_match_reference_across_chunks(tmp_path):
    band = _random_large_band(41, 300)
    assert band.inner_curve.thresholds.size > evaluate._BLOCK_ROWS
    _assert_csv_matches_reference(band, tmp_path)


def test_csv_bytes_match_reference_on_awkward_values(tmp_path):
    # ties, negative scores, -0.0 and thresholds whose repr uses an exponent
    scores = [[1e-05, 1e+16, -0.0, -3.5],
              [1e-05, 2.5e-300, -1e+16, 0.1 + 0.2],
              [-1e-05, 1e+16, 7.0, -3.5]]
    outer = [[True, True, False, False],
             [True, False, False, True],
             [False, True, False, False]]
    inner = [[True, False, False, False],
             [True, False, False, True],
             [False, True, False, False]]
    band = roc(_amap(scores), _gt(inner, outer))
    assert "-0.0" in map(repr, band.inner_curve.thresholds.tolist())
    _assert_csv_matches_reference(band, tmp_path)
    # an externally built band whose rates hold -0.0 next to 0.0
    curve = RocCurve([math.inf, 0.5, -0.0], [-0.0, 0.0, 1.0], [0.0, -0.0, 1.0])
    band = RocBand(curve, curve, 0.0, 0.0, 0.5, 0.5, 0.01, n_pos_inner=1, n_pos_outer=1, n_neg=1)
    _assert_csv_matches_reference(band, tmp_path)


# float64 reprs of 23 and 24 characters; no float64 repr is longer than 24
WIDEST_REPRS = [-2.2250738585072014e-308, -1.7976931348623157e+308,
                -1.2345678901234567e-100, -3.0000000000000004e-05]


def _widest_band():
    thresholds = [math.inf, *WIDEST_REPRS]
    fpr = [-2.2250738585072014e-308, 0.0, 1 / 3, 2 / 3, 1.0]
    tpr = [0.0, 1 / 7, 3 / 7, 6 / 7, 1.0]
    curve = RocCurve(thresholds, fpr, tpr)
    return RocBand(curve, curve, 0.0, 0.0, 0.5, 0.5, 0.01, n_pos_inner=7, n_pos_outer=7, n_neg=3)


def test_csv_bytes_match_reference_on_the_widest_reprs(tmp_path):
    assert max(map(len, map(repr, WIDEST_REPRS))) == 24
    _assert_csv_matches_reference(_widest_band(), tmp_path)
    # every row turns or holds a rate that is not k / n, so every repr is written
    assert _read_roc_csv(str(tmp_path / "new.csv")).tolist() == \
        _band_columns(_widest_band()).tolist()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    chunk_rows=st.integers(1, 5),
)
def test_writers_match_reference_property(tmp_path_factory, data, shape, chunk_rows):
    scores = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-05, 1e+16]),
        st.floats(allow_nan=False, allow_infinity=False),
    )))
    outer = data.draw(hnp.arrays(np.bool_, shape))
    inner = outer & data.draw(hnp.arrays(np.bool_, shape))
    assume(inner.any() and not outer.all())
    band = roc(_amap(scores), _gt(inner, outer))
    tmp_path = tmp_path_factory.mktemp("writers")
    with mock.patch.object(evaluate, "_BLOCK_ROWS", chunk_rows):
        _assert_csv_matches_reference(band, tmp_path)
    _assert_svg_matches_reference({"a": band}, tmp_path)


@st.composite
def _tied_bands(draw):
    """A band from roc of a map with few distinct values, so most pixels tie,
    0.0 beside -0.0, and distinct floats, whose runs of one class lie on a
    straight segment of both curves."""
    shape = draw(st.tuples(st.integers(1, 30), st.integers(1, 30)))
    scores = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5e-7]),
        st.integers(-40, 40).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
    )))
    outer = draw(hnp.arrays(np.bool_, shape))
    inner = outer & draw(hnp.arrays(np.bool_, shape))
    assume(inner.any() and not outer.all())
    return roc(_amap(scores), _gt(inner, outer))


def _counts(band, rates):
    """The integer counts k = rint(rate * n) of (m, 4) fpr/tpr rows of ``band``."""
    n = (band.n_neg, band.n_pos_inner, band.n_neg, band.n_pos_outer)
    return np.rint(rates * n).astype(np.int64)


def _written_rows(band, tmp_path):
    """roc.csv of ``band`` read back, and the band row of each of its rows,
    found by the row's threshold (a band from roc has distinct thresholds)."""
    path = str(tmp_path / "roc.csv")
    write_roc_csv(band, path)
    parsed = _read_roc_csv(path)
    rows = np.searchsorted(-band.inner_curve.thresholds, -parsed[:, 0])
    assert parsed.tolist() == _band_columns(band)[rows].tolist()
    assert np.all(np.diff(rows) > 0)
    return parsed, rows


@settings(max_examples=60, deadline=None)
@given(band=_tied_bands())
def test_csv_polyline_holds_every_operating_point_property(tmp_path_factory, band):
    parsed, rows = _written_rows(band, tmp_path_factory.mktemp("polyline"))
    points = _counts(band, _band_columns(band)[:, 1:])
    vertices = _counts(band, parsed[:, 1:])
    # the segment of each band row: between the kept rows at or around it
    seg = np.minimum(np.searchsorted(rows, np.arange(len(points)), side="right") - 1,
                     len(rows) - 2)
    lo, hi = vertices[seg], vertices[seg + 1]
    for f, t in ((0, 1), (2, 3)):
        d, p = hi[:, [f, t]] - lo[:, [f, t]], points[:, [f, t]] - lo[:, [f, t]]
        assert np.array_equal(d[:, 0] * p[:, 1], d[:, 1] * p[:, 0])
        assert np.all((0 <= p) & (p <= d))


@settings(max_examples=60, deadline=None)
@given(band=_tied_bands())
def test_csv_keeps_only_turns_property(tmp_path_factory, band):
    _, rows = _written_rows(band, tmp_path_factory.mktemp("turns"))
    counts = _counts(band, _band_columns(band)[:, 1:])
    inner = rows[1:-1]
    into, out = counts[inner] - counts[inner - 1], counts[inner + 1] - counts[inner]
    assert np.all((into[:, 0] * out[:, 1] != into[:, 1] * out[:, 0])
                  | (into[:, 2] * out[:, 3] != into[:, 3] * out[:, 2]))


@settings(max_examples=30, deadline=None)
@given(band=_tied_bands())
def test_csv_starts_at_nothing_detected_and_ends_at_everything_property(tmp_path_factory,
                                                                        band):
    path = tmp_path_factory.mktemp("ends") / "roc.csv"
    write_roc_csv(band, str(path))
    lines = path.read_text().splitlines()
    assert lines[1] == "inf,0.0,0.0,0.0,0.0"
    last = band.inner_curve.thresholds[-1].item()
    assert lines[-1] == f"{last!r},1.0,1.0,1.0,1.0"


def test_svg_bytes_match_reference_with_decimation(tmp_path):
    bands = {
        "large": _random_large_band(42, 100),
        "larger": _random_large_band(43, 120),
        "fixture": roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT),
    }
    assert bands["large"].inner_curve.fpr.size > evaluate._SVG_MAX_POINTS
    _assert_svg_matches_reference(bands, tmp_path)


def test_evaluate_map_returns_a_result_that_does_not_grow_with_the_map(tmp_path):
    # run keeps this result of every map until it draws the combined plot:
    # the plot points and the summary, not the band of every distinct score
    sizes = {}
    for side in (64, 256):
        scores = np.random.default_rng(side).normal(size=(side, side)).astype(np.float32)
        outer = np.zeros((side, side), bool)
        outer[side // 4: side // 2, side // 4: side // 2] = True
        base = str(tmp_path / f"map{side}")
        save_raster(Raster(scores), base)
        result = evaluate.evaluate_map(base, str(tmp_path / f"eval{side}"), _gt(outer), 0.01)
        assert np.unique(scores).size + 1 > evaluate._SVG_MAX_POINTS
        sizes[side] = len(pickle.dumps(result))
    # two curves of two float64 rows, at most _SVG_MAX_POINTS + 1 vertices each
    bound = 4 * 8 * (evaluate._SVG_MAX_POINTS + 1) + 2048
    assert max(sizes.values()) <= bound, sizes
    # 16 times the pixels; the decimation strides (2 and 17) keep 2049 and
    # 3857 vertices per curve
    assert sizes[256] < 2 * sizes[64], sizes
