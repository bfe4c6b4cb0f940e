import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit import BadConfig, config_from_json, config_to_json, generate_scene, rng, scene_suite
from acdkit import synth
from acdkit.synth import MASK_BAND, SceneConfig


def _small(**kw):
    defaults = dict(
        width=96, height=80, seed=5, background_corr_len=4,
        pervasive_gain=1.0, pervasive_offset=0.0,
        anomaly_rect=(30, 24, 24, 20), anomaly_texture_gain=1.0,
        noise_sigma=0.1, speckle=False,
    )
    defaults.update(kw)
    return SceneConfig(**defaults)


def _two_pass_var(v):
    m = v.mean()
    return ((v - m) ** 2).mean()


def test_same_seed_bitwise_identical():
    cfg = _small(seed=42, anomaly_texture_gain=3.0, speckle=True)
    a1, b1, g1 = generate_scene(cfg)
    a2, b2, g2 = generate_scene(cfg)
    assert a1.data.tobytes() == a2.data.tobytes()
    assert b1.data.tobytes() == b2.data.tobytes()
    assert np.array_equal(g1.inner, g2.inner)


def test_different_seeds_differ():
    a1, _, _ = generate_scene(_small(seed=1))
    a2, _, _ = generate_scene(_small(seed=2))
    assert a1.data.tobytes() != a2.data.tobytes()


def test_seed_range_is_what_the_generator_keys_on():
    # stream keys take the seed's 64 bits: the largest 64-bit seed is valid,
    # one more would alias seed 0; a config is checked when it is built
    assert _small(seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(BadConfig, match="seed"):
            _small(seed=seed)


def test_identity_configuration():
    cfg = _small(anomaly_texture_gain=0.0, noise_sigma=0.0)
    t0, t1, _ = generate_scene(cfg)
    assert np.array_equal(t0.data, t1.data)


def test_fresh_noise_is_the_only_difference():
    cfg = _small(anomaly_texture_gain=0.0, noise_sigma=0.05)
    t0, t1, _ = generate_scene(cfg)
    d = t1.data.astype(np.float64) - t0.data.astype(np.float64)
    assert not np.array_equal(t0.data, t1.data)
    assert np.abs(d).max() < 0.05 * 6 * np.sqrt(2)  # bounded by the noise term


def test_pervasive_gain_and_offset_apply():
    cfg = _small(pervasive_gain=2.0, pervasive_offset=1.0, noise_sigma=0.0,
                 anomaly_texture_gain=0.0)
    t0, t1, _ = generate_scene(cfg)
    expect = 2.0 * t0.data.astype(np.float64) + 1.0
    assert np.allclose(t1.data, expect, atol=1e-6)


def test_texture_anomaly_variance_ratio_oracle():
    # residual variance inside the rectangle must exceed outside by at
    # least gain/2 once the pervasive part is corrected away
    gain = 3.0
    cfg = _small(anomaly_texture_gain=gain, noise_sigma=0.1)
    t0, t1, _ = generate_scene(cfg)
    resid = t1.data.astype(np.float64) - cfg.pervasive_gain * t0.data.astype(np.float64) \
        - cfg.pervasive_offset
    x, y, w, h = cfg.anomaly_rect
    mask = np.zeros(resid.shape, bool)
    mask[y:y + h, x:x + w] = True
    ratio = _two_pass_var(resid[mask]) / _two_pass_var(resid[~mask])
    assert ratio > gain / 2


def test_texture_gain_one_plants_nothing():
    cfg = _small(anomaly_texture_gain=1.0, noise_sigma=0.1)
    t0, t1, _ = generate_scene(cfg)
    resid = t1.data.astype(np.float64) - t0.data.astype(np.float64)
    x, y, w, h = cfg.anomaly_rect
    mask = np.zeros(resid.shape, bool)
    mask[y:y + h, x:x + w] = True
    ratio = _two_pass_var(resid[mask]) / _two_pass_var(resid[~mask])
    assert 0.9 <= ratio <= 1.1


def test_brightness_anomaly():
    cfg = _small(anomaly_offset=2.0, noise_sigma=0.0, anomaly_texture_gain=0.0)
    t0, t1, _ = generate_scene(cfg)
    d = t1.data.astype(np.float64) - t0.data.astype(np.float64)
    x, y, w, h = cfg.anomaly_rect
    assert np.allclose(d[y:y + h, x:x + w], 2.0, atol=1e-6)
    d[y:y + h, x:x + w] = 0.0
    assert np.allclose(d, 0.0, atol=1e-6)


def test_pervasive_patches_are_applied_and_uninteresting():
    cfg = _small(pervasive_patches=((4, 4, 10, 8, 1.5),), noise_sigma=0.0,
                 anomaly_texture_gain=0.0)
    t0, t1, gt = generate_scene(cfg)
    ratio = t1.data.astype(np.float64) / t0.data.astype(np.float64)
    assert np.allclose(ratio[4:12, 4:14], 1.5, atol=1e-5)
    assert not gt.outer[4:12, 4:14].any()  # patch is not ground truth


def test_masks_are_erode_dilate_band():
    cfg = _small()
    _, _, gt = generate_scene(cfg)
    x, y, w, h = cfg.anomaly_rect
    b = MASK_BAND
    expect_inner = np.zeros((cfg.height, cfg.width), bool)
    expect_inner[y + b:y + h - b, x + b:x + w - b] = True
    expect_outer = np.zeros((cfg.height, cfg.width), bool)
    expect_outer[y - b:y + h + b, x - b:x + w + b] = True
    assert np.array_equal(gt.inner, expect_inner)
    assert np.array_equal(gt.outer, expect_outer)
    assert np.all(gt.outer[gt.inner])


def test_speckle_is_multiplicative_unit_mean():
    cfg = _small(speckle=True, noise_sigma=0.0, anomaly_texture_gain=0.0,
                 width=256, height=256, anomaly_rect=(60, 60, 40, 40))
    t0, _, _ = generate_scene(cfg)
    clean_cfg = dataclasses.replace(cfg, speckle=False)
    c0, _, _ = generate_scene(clean_cfg)
    speck = t0.data.astype(np.float64) / c0.data.astype(np.float64)
    assert speck.min() >= 0.0
    assert abs(speck.mean() - 1.0) < 0.02
    assert abs(speck.var() - 1.0) < 0.06  # exponential: var = mean^2


def test_suite_contents():
    suite = scene_suite()
    assert len(suite) == 3
    assert set(suite) == {"simple-additive", "textured", "cluttered"}
    assert [suite[k].seed for k in ("simple-additive", "textured", "cluttered")] == [101, 202, 303]
    for cfg in suite.values():
        assert (cfg.width, cfg.height) == (512, 512)
        assert SceneConfig(**dataclasses.asdict(cfg)) == cfg
    assert suite["cluttered"].speckle and suite["cluttered"].pervasive_patches
    assert suite["simple-additive"].anomaly_offset > 0
    assert suite["textured"].anomaly_texture_gain > 1


# sha256 prefixes of each suite scene's t0, t1 (little-endian f4) and its
# inner and outer masks (one byte per pixel); the three scenes share one
# rectangle, so one mask pair
_SUITE_MASK_DIGESTS = ("ccda72c245717748", "3140e9759cd71036")
_SUITE_DIGESTS = {
    "simple-additive": ("5d658dc64880c409", "cc6c2dabe7bdbfb9", *_SUITE_MASK_DIGESTS),
    "textured": ("3185fc9c55cb2029", "ecc2d1fbbdf772bc", *_SUITE_MASK_DIGESTS),
    "cluttered": ("cd5a6fcc5c382668", "cb5605c561b88e00", *_SUITE_MASK_DIGESTS),
}


@pytest.mark.parametrize("name", sorted(_SUITE_DIGESTS))
def test_suite_scenes_keep_their_golden_bytes(name):
    # the league and the acceptance criteria read these scenes, so a rewrite
    # of the generator must keep every byte
    t0, t1, gt = generate_scene(scene_suite()[name])
    planes = (t0.data.astype("<f4"), t1.data.astype("<f4"), gt.inner, gt.outer)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in planes)
    assert digests == _SUITE_DIGESTS[name]


def _whole_plane_scene(cfg):
    """t0 and t1 (float32) by generate_scene's formulas on whole planes: every
    field drawn full size, the anomaly's too, and every step out of place."""
    def box_mean(a, radius):
        if radius == 0:
            return a.copy()
        side = 2 * radius + 1
        h, w = a.shape
        sat = np.zeros((h + side, w + side))
        sat[1:, 1:] = np.pad(a, radius, mode="reflect")
        sat = sat.cumsum(axis=0).cumsum(axis=1)
        return (sat[side:, side:] - sat[side:, :w] - sat[:h, side:] + sat[:h, :w]) / float(side**2)

    def field(stream, draw=rng.normal):
        return draw(cfg.seed, stream, h * w).reshape(h, w)

    h, w, r = cfg.height, cfg.width, cfg.background_corr_len
    x, y, rw, rh = cfg.anomaly_rect
    rect = slice(y, y + rh), slice(x, x + rw)
    t0 = synth.BG_LEVEL + synth.BG_SIGMA * (
        box_mean(field(synth.STREAM_BACKGROUND), r) * float(2 * r + 1))
    t1 = cfg.pervasive_gain * t0 + cfg.pervasive_offset
    for px, py, pw, ph, pgain in cfg.pervasive_patches:
        t1[py : py + ph, px : px + pw] *= pgain
    if cfg.anomaly_offset:
        t1[rect] += cfg.anomaly_offset
    if cfg.speckle:
        t0 = t0 * field(synth.STREAM_SPECKLE_T0, rng.exponential)
        t1 = t1 * field(synth.STREAM_SPECKLE_T1, rng.exponential)
    if cfg.noise_sigma:
        t0 = t0 + cfg.noise_sigma * field(synth.STREAM_NOISE_T0)
        t1 = t1 + cfg.noise_sigma * field(synth.STREAM_NOISE_T1)
    amp = float(np.sqrt(max(np.float64(cfg.anomaly_texture_gain) ** 2 - 1.0, 0.0)))
    if amp > 0.0:
        radius = synth.LOCAL_STD_RADIUS
        local_sigma = np.sqrt(box_mean(np.square(t1 - box_mean(t1, radius)), radius)[rect])
        t1[rect] += amp * local_sigma * field(synth.STREAM_ANOMALY)[rect]
    return t0.astype(np.float32), t1.astype(np.float32)


@st.composite
def _scene_configs(draw):
    """Small grids, square or not, with the rectangle against any edge or none."""
    w, h = draw(st.integers(5, 48)), draw(st.integers(5, 48))
    rw, rh = draw(st.integers(5, w)), draw(st.integers(5, h))
    edge = draw(st.sampled_from(["left", "right", "top", "bottom", None]))
    x = {"left": 0, "right": w - rw}.get(edge, draw(st.integers(0, w - rw)))
    y = {"top": 0, "bottom": h - rh}.get(edge, draw(st.integers(0, h - rh)))
    patches = []
    for _ in range(draw(st.integers(0, 2))):
        pw, ph = draw(st.integers(1, w)), draw(st.integers(1, h))
        patches.append((draw(st.integers(0, w - pw)), draw(st.integers(0, h - ph)), pw, ph,
                        draw(st.sampled_from([0.55, 1.8]))))
    return SceneConfig(
        width=w, height=h, seed=draw(st.integers(0, 2**64 - 1)),
        background_corr_len=draw(st.integers(0, min(w, h) - 1)), anomaly_rect=(x, y, rw, rh),
        anomaly_texture_gain=draw(st.sampled_from([0.0, 1.0, 2.5])),
        anomaly_offset=draw(st.sampled_from([0.0, 2.0])),
        noise_sigma=draw(st.sampled_from([0.0, 0.15])), speckle=draw(st.booleans()),
        pervasive_gain=draw(st.sampled_from([1.0, 1.6])),
        pervasive_offset=draw(st.sampled_from([0.0, 0.4])), pervasive_patches=tuple(patches))


@settings(max_examples=80, deadline=None)
@given(cfg=_scene_configs(), block=st.sampled_from([7, 64, rng.BLOCK]))
def test_generate_scene_has_the_bytes_of_the_whole_plane_formulas(cfg, block):
    # blocks of 7 and 64 pixels start, end and cross rows at every offset; a
    # small grid fits in one block of rng.BLOCK
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "BLOCK", block)
        t0, t1, _ = generate_scene(cfg)
    want0, want1 = _whole_plane_scene(cfg)
    assert t0.data.tobytes() == want0.tobytes()
    assert t1.data.tobytes() == want1.tobytes()


@pytest.mark.parametrize("name", sorted(_SUITE_DIGESTS))
def test_generate_scene_holds_no_plane_twice(name):
    # at the peak, t0 (float32) and t1 (float64), the local-sigma step's
    # squared difference and a box mean's summed-area table and padded input
    # come to about 37 B per pixel; a kept copy or dead intermediate adds 8 each
    cfg = scene_suite()[name]
    tracemalloc.start()
    try:
        generate_scene(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 38 * cfg.width * cfg.height


def test_suite_masks_validate():
    for name, cfg in scene_suite().items():
        small = dataclasses.replace(cfg, width=96, height=96,
                                    anomaly_rect=(30, 30, 24, 20),
                                    pervasive_patches=())
        _, _, gt = generate_scene(small)
        assert np.all(gt.outer[gt.inner]), name


@pytest.mark.parametrize(
    "kw",
    [
        dict(anomaly_rect=(90, 10, 24, 20)),       # pokes out of the grid
        dict(anomaly_rect=(10, 10, 3, 20)),        # too thin for the inner mask
        dict(pervasive_gain=0.0),
        dict(anomaly_texture_gain=-1.0),
        dict(noise_sigma=-0.5),
        dict(background_corr_len=-1),
        dict(pervasive_patches=((90, 0, 20, 8, 1.5),)),
        dict(pervasive_patches=((0, 0, 4, 4, 0.0),)),
    ],
)
def test_bad_configs(kw):
    # refused when built, so generate_scene never sees an invalid config
    with pytest.raises(BadConfig):
        _small(**kw)


def test_integral_float_fields_equal_their_integers():
    ints = _small(pervasive_patches=((1, 2, 30, 10, 2),))
    floats = _small(width=96.0, seed=5.0, anomaly_rect=(30.0, 24, 24, 20.0),
                    pervasive_patches=[[1.0, 2, 30, 10.0, 2]])
    assert floats == ints
    assert type(floats.width) is int and type(floats.anomaly_rect[0]) is int
    a, b = generate_scene(ints), generate_scene(floats)
    assert a[1].data.tobytes() == b[1].data.tobytes()


def test_config_json_round_trip(tmp_path):
    cfg = _small(speckle=True, pervasive_patches=((1, 2, 3, 4, 1.5),),
                 anomaly_texture_gain=2.5)
    path = str(tmp_path / "scene.json")
    config_to_json(cfg, path)
    assert config_from_json(path) == cfg


def test_config_json_rejects_unknown_fields(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"widht": 5}')
    with pytest.raises(BadConfig):
        config_from_json(path)
