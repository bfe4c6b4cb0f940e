import csv
import math
import pickle
import tracemalloc
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
    auc,
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
    assert band.inner_curve.points == band.outer_curve.points


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


def test_roc_holds_each_column_once():
    # an all-distinct 512x512 map: the tie-group ends, the shared thresholds
    # and fpr, two tpr columns, the three classes in score order and one
    # running count come to about 51 B per pixel; a second fpr, a kept sort
    # order or sorted copy, or a cumulative sum per column adds 8 B or more
    side = 512
    scores = np.random.default_rng(7).permutation(side * side).astype(np.float64)
    amap = _amap(scores.reshape(side, side))
    inner, outer = np.zeros((2, side, side), bool)
    inner[200:300, 200:300] = True
    outer[196:304, 196:304] = True
    gt = _gt(inner, outer)
    tracemalloc.start()
    try:
        band = roc(amap, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.inner_curve.thresholds.size == side * side + 1
    assert peak <= 56 * side * side


def test_evaluate_map_holds_each_column_once(tmp_path, monkeypatch):
    # an all-distinct 512x512 map: up to roc.csv, the f32 map (4 B per
    # pixel), the tie-group ends, the band's four columns, the classes in
    # score order and one running count come to about 55 B per pixel, where
    # a float64 copy of the map makes 59; at the peak, while roc.csv is
    # written, the band's four columns (32), the rate table (24 B per
    # negative pixel) and one block of cells take about 62, where the AUCs'
    # temporaries beside the rate table make 73 and blocks of 16384 rows 78;
    # the rate tables are an anonymous mapping, which tracemalloc does not
    # see, so their size is added to the peak from roc.csv on
    side = 512
    scores = np.random.default_rng(7).permutation(side * side).astype(np.float32)
    save_raster(Raster(scores.reshape(side, side)), str(tmp_path / "anomaly"))
    inner, outer = np.zeros((2, side, side), bool)
    inner[200:300, 200:300] = True
    outer[196:304, 196:304] = True
    gt = _gt(inner, outer)
    monkeypatch.setattr(evaluate, "_rate_tables", {})
    before_csv = []
    write_roc_csv = evaluate.write_roc_csv

    def probe(band, path):
        before_csv.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        write_roc_csv(band, path)

    monkeypatch.setattr(evaluate, "write_roc_csv", probe)
    tracemalloc.start()
    try:
        _, summary = evaluate.evaluate_map(str(tmp_path / "anomaly"), str(tmp_path / "out"),
                                           gt, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    peak += sum(table.nbytes for table in evaluate._rate_tables.values())
    assert summary["n_neg"] == side * side - 108 * 108
    assert before_csv[0] <= 57 * side * side
    assert peak <= 64 * side * side


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


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_roc_matches_a_stable_sort_reference_property(data, shape, dtype):
    # few distinct values, so most pixels tie, and 0.0 beside -0.0: the one
    # tie whose order shows in the bytes (the threshold's sign)
    scores = data.draw(hnp.arrays(dtype, shape, elements=st.sampled_from(
        [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.5, 2.5e-7])))
    outer = data.draw(hnp.arrays(np.bool_, shape))
    inner = outer & data.draw(hnp.arrays(np.bool_, shape))
    assume(inner.any() and not outer.all())
    gt = _gt(inner, outer)
    expect = _stable_reference_roc(scores, inner, outer)
    # the f32 map as evaluate_map scores it, and as the public roc does
    bands = [evaluate._roc(scores, gt, 0.01), roc(_amap(scores), gt)]
    for band in bands:
        got = (band.inner_curve.thresholds, band.inner_curve.fpr, band.inner_curve.tpr,
               band.outer_curve.tpr)
        for a, b in zip(got, expect):
            assert a.dtype == np.float64
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


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
        RocBand(curve, curve, 0.0, 0.0, 0.01, n_pos_inner=2, n_pos_outer=2, n_neg=0)


def test_pauc_perfect_detector():
    c = RocCurve([math.inf, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    assert pauc(c, 0.01) == pytest.approx(0.01, abs=1e-15)
    assert auc(c) == pytest.approx(1.0, abs=1e-15)


def test_pauc_chance_diagonal():
    c = RocCurve([math.inf, 0.0], [0.0, 1.0], [0.0, 1.0])
    assert pauc(c, 0.01) == pytest.approx(5e-5, abs=1e-18)
    assert auc(c) == pytest.approx(0.5, abs=1e-15)


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


def test_csv_round_trip(tmp_path):
    band = roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT)
    path = str(tmp_path / "roc.csv")
    write_roc_csv(band, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["threshold", "fpr_inner", "tpr_inner", "fpr_outer", "tpr_outer"]
    assert len(rows) == 1 + band.inner_curve.thresholds.size
    parsed = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(parsed[:, 0], band.inner_curve.thresholds)
    assert np.array_equal(parsed[:, 1], band.inner_curve.fpr)
    assert np.array_equal(parsed[:, 2], band.inner_curve.tpr)
    assert np.array_equal(parsed[:, 3], band.outer_curve.fpr)
    assert np.array_equal(parsed[:, 4], band.outer_curve.tpr)


def test_csv_two_point_band(tmp_path):
    band = roc(_amap([[1.0, 1.0, 1.0]]), _gt([[True, False, False]]))
    path = str(tmp_path / "two.csv")
    write_roc_csv(band, path)
    with open(path) as fh:
        assert len(fh.read().strip().splitlines()) == 3  # header + 2 points


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


# Reference writers: the straightforward per-cell / per-vertex formatting
# that the vectorised writers must reproduce byte for byte.

def _reference_write_roc_csv(band, path):
    ic, oc = band.inner_curve, band.outer_curve
    lines = ["threshold,fpr_inner,tpr_inner,fpr_outer,tpr_outer"]
    for i in range(ic.thresholds.size):
        lines.append(
            ",".join(
                repr(v)
                for v in (ic.thresholds[i].item(), ic.fpr[i].item(), ic.tpr[i].item(),
                          oc.fpr[i].item(), oc.tpr[i].item())
            )
        )
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


def _random_large_band(seed, side):
    rng = np.random.default_rng(seed)
    outer = np.zeros((side, side), bool)
    outer[side // 4: side // 2, side // 3: 2 * side // 3] = True
    inner = outer.copy()
    inner[side // 4: side // 4 + 3, :] = False
    scores = rng.normal(size=(side, side))
    scores[outer] += 1.5
    return roc(_amap(scores), _gt(inner, outer))


def test_csv_bytes_match_reference_across_chunks(tmp_path):
    band = _random_large_band(41, 300)
    assert band.inner_curve.thresholds.size > evaluate._CSV_CHUNK_ROWS
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
    band = RocBand(curve, curve, 0.0, 0.0, 0.01, n_pos_inner=1, n_pos_outer=1, n_neg=1)
    _assert_csv_matches_reference(band, tmp_path)


def test_csv_bytes_match_reference_with_warm_and_cold_rate_tables(tmp_path, monkeypatch):
    # bands of one mask pair share their class counts, so the second one
    # reads rate tables the first one built
    monkeypatch.setattr(evaluate, "_rate_tables", {})
    _assert_csv_matches_reference(_random_large_band(44, 100), tmp_path)
    built = evaluate._rate_tables.copy()
    _assert_csv_matches_reference(_random_large_band(45, 100), tmp_path)
    assert all(evaluate._rate_tables[n] is table for n, table in built.items())
    # other counts in between evict those tables
    _assert_csv_matches_reference(_random_large_band(46, 90), tmp_path)
    assert not built.keys() & evaluate._rate_tables.keys()
    _assert_csv_matches_reference(_random_large_band(47, 100), tmp_path)
    evaluate._rate_tables.clear()
    _assert_csv_matches_reference(_random_large_band(48, 100), tmp_path)


# float64 reprs of 23 and 24 characters; no float64 repr is longer than 24
WIDEST_REPRS = [-2.2250738585072014e-308, -1.7976931348623157e+308,
                -1.2345678901234567e-100, -3.0000000000000004e-05]


def _widest_band():
    thresholds = [math.inf, *WIDEST_REPRS]
    fpr = [-2.2250738585072014e-308, 0.0, 1 / 3, 2 / 3, 1.0]
    tpr = [0.0, 1 / 7, 3 / 7, 6 / 7, 1.0]
    curve = RocCurve(thresholds, fpr, tpr)
    return RocBand(curve, curve, 0.0, 0.0, 0.01, n_pos_inner=7, n_pos_outer=7, n_neg=3)


def test_csv_bytes_match_reference_on_the_widest_reprs(tmp_path):
    assert max(map(len, map(repr, WIDEST_REPRS))) == evaluate._CELL_WIDTH
    _assert_csv_matches_reference(_widest_band(), tmp_path)


def test_csv_refuses_a_repr_wider_than_a_cell(tmp_path, monkeypatch):
    path = tmp_path / "roc.csv"
    monkeypatch.setattr(evaluate, "_CELL_WIDTH", 23)
    # tables are built at the cell width, so none is kept past this test
    monkeypatch.setattr(evaluate, "_rate_tables", {})
    # a 24-character threshold would be cut to "-2.2250738585072014e-30"
    with pytest.raises(ValueError, match="longer than 23 characters"):
        write_roc_csv(_widest_band(), str(path))
    assert not path.exists()
    # a rate of the shared table: repr(1 / 3) has 18 characters
    monkeypatch.setattr(evaluate, "_CELL_WIDTH", 8)
    curve = RocCurve([math.inf, 2.0, 1.0], [0.0, 1 / 3, 1.0], [0.0, 0.5, 1.0])
    band = RocBand(curve, curve, 0.0, 0.0, 0.01, n_pos_inner=2, n_pos_outer=2, n_neg=3)
    with pytest.raises(ValueError, match="longer than 8 characters"):
        write_roc_csv(band, str(path))
    assert not path.exists()


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
    with mock.patch.object(evaluate, "_CSV_CHUNK_ROWS", chunk_rows):
        _assert_csv_matches_reference(band, tmp_path)
    _assert_svg_matches_reference({"a": band}, tmp_path)


def test_svg_bytes_match_reference_with_decimation(tmp_path):
    bands = {
        "large": _random_large_band(42, 100),
        "larger": _random_large_band(43, 120),
        "fixture": roc(FOUR_PIXEL_MAP, FOUR_PIXEL_GT),
    }
    assert bands["large"].inner_curve.fpr.size > evaluate._SVG_MAX_POINTS
    _assert_svg_matches_reference(bands, tmp_path)


def test_evaluate_map_returns_a_result_that_does_not_grow_with_the_map(tmp_path):
    # run's workers send this result to their parent through a pipe: the
    # plot points and the summary, not the band of every distinct score
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
