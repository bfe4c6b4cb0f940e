"""The detector league on the three suite scenes, pinned.

Each suite scene is generated at its suite seed, each of the four
detectors runs through `run_detector`, and `roc` scores the float64 map at
fpr_max = 0.01.  The test pins both partial AUCs (inner and outer mask) of
every (scene, detector) to RTOL relative, and the league order of each
scene: descending inner pAUC, ties broken by name, as `acdkit run` ranks
its `league.csv`.

A change that must not move detector quality leaves this file alone.  A
change that is allowed to move pAUC re-pins it: run

    PYTHONPATH=src python tests/test_league.py

which prints PINNED and LEAGUE in this file's format, paste both over the
values below, and record every moved value and order in CHANGES.md.
Artefact hashes are not pinned: f32 map pixels flip across BLAS builds.
"""

import pytest

from acdkit import generate_scene, make_pair, roc, run_detector, scene_suite
from acdkit.detectors import DETECTOR_NAMES

FPR_MAX = 0.01
RTOL = 1e-9

# (scene, detector) -> (pauc_inner, pauc_outer)
PINNED = {
    ("simple-additive", "diff"): (0.01, 0.008969366147750672),
    ("simple-additive", "hacd"): (0.01, 0.008969096010994403),
    ("simple-additive", "patch-hacd"): (0.006497600711354415, 0.007055866225569281),
    ("simple-additive", "glcm-hacd"): (0.009874863135290337, 0.009103515154267858),
    ("textured", "diff"): (0.004228331590112737, 0.003773207947932402),
    ("textured", "hacd"): (0.004099717622892947, 0.0036413771418906367),
    ("textured", "patch-hacd"): (0.00998810942937302, 0.009892018894192731),
    ("textured", "glcm-hacd"): (0.008003446931384429, 0.007046606449873892),
    ("cluttered", "diff"): (0.0006664280342711149, 0.0005801795276668102),
    ("cluttered", "hacd"): (0.000546862599735753, 0.00047530813504661866),
    ("cluttered", "patch-hacd"): (0.0004822631751353802, 0.00038696164573647515),
    ("cluttered", "glcm-hacd"): (0.00036754780036758153, 0.0003382440437958424),
}

LEAGUE = {
    "simple-additive": ("diff", "hacd", "glcm-hacd", "patch-hacd"),
    "textured": ("patch-hacd", "glcm-hacd", "diff", "hacd"),
    "cluttered": ("diff", "hacd", "patch-hacd", "glcm-hacd"),
}


def _measure(scene: str) -> dict[str, tuple[float, float]]:
    t0, t1, gt = generate_scene(scene_suite()[scene])
    pair = make_pair(t0, t1)
    paucs = {}
    for name in DETECTOR_NAMES:
        band = roc(run_detector(name, pair)[0], gt, FPR_MAX)
        paucs[name] = (band.pauc_inner, band.pauc_outer)
    return paucs


def _league(paucs: dict[str, tuple[float, float]]) -> tuple[str, ...]:
    return tuple(sorted(paucs, key=lambda name: (-paucs[name][0], name)))


@pytest.mark.parametrize("scene", list(LEAGUE))
def test_league_is_pinned(scene):
    paucs = _measure(scene)
    for name, got in paucs.items():
        assert got == pytest.approx(PINNED[scene, name], rel=RTOL, abs=0.0), (scene, name)
    assert _league(paucs) == LEAGUE[scene]


if __name__ == "__main__":
    measured = {scene: _measure(scene) for scene in LEAGUE}
    print("PINNED = {")
    for scene, paucs in measured.items():
        for name, (inner, outer) in paucs.items():
            print(f'    ("{scene}", "{name}"): ({inner!r}, {outer!r}),')
    print("}\n\nLEAGUE = {")
    for scene, paucs in measured.items():
        names = ", ".join(f'"{name}"' for name in _league(paucs))
        print(f'    "{scene}": ({names}),')
    print("}")
