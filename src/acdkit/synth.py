"""Deterministic synthetic scene pairs with a planted high-texture anomaly.

A scene is a before/after raster pair plus dual ground-truth masks.  The
"before" image is a smooth correlated background; the "after" image is a
pervasively changed copy (global gain/offset, optional disjoint gain
patches, optional per-epoch speckle) with one rectangle that additionally
receives a brightness step and/or extra zero-mean high-frequency noise.
The texture anomaly multiplies the local high-frequency variance inside
the rectangle by anomaly_texture_gain**2: independent noise with standard
deviation local_sigma * sqrt(gain^2 - 1) is added there, so gains of 0 or
1 plant nothing.

Every random draw comes from the counter-based generator in acdkit.rng,
keyed by (seed, field stream, pixel index), so generate_scene is a pure
function of its config: same config, same bytes, on any platform.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import rng
from .errors import BadConfig, FormatError
from .raster import GroundTruth, Raster, read_json, write_text

BG_LEVEL = 4.0
BG_SIGMA = 1.0

# half-width of the window used for the local high-frequency std estimate
LOCAL_STD_RADIUS = 2

# erosion/dilation margin separating the inner and outer truth masks
MASK_BAND = 2

# RNG stream ids, one per random field
STREAM_BACKGROUND = 0
STREAM_SPECKLE_T0 = 1
STREAM_SPECKLE_T1 = 2
STREAM_NOISE_T0 = 3
STREAM_NOISE_T1 = 4
STREAM_ANOMALY = 5


def _real(name: str, value, integer: bool = False):
    """``value`` if it is a finite real number (not a bool or a string); an
    integer field takes its int() unless that drops a fraction (5.0 is 5, 5.5 fails)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or math.isfinite(value):
            if not integer:
                return value
            if not isinstance(value, float) or value.is_integer():
                return int(value)
    expected = "an integer" if integer else "a finite number"
    raise BadConfig(f"{name} must be {expected}, got {value!r}")


def _items(name: str, value, n: int | None = None) -> tuple:
    """A list or tuple ``value`` of ``n`` items (any number if None), or BadConfig."""
    if not isinstance(value, (list, tuple)) or (n is not None and len(value) != n):
        expected = "a list" if n is None else f"a list of {n} numbers"
        raise BadConfig(f"{name} must be {expected}, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SceneConfig:
    """Full description of one synthetic scene, valid once built; JSON round-trippable."""

    width: int = 512
    height: int = 512
    seed: int = 0
    background_corr_len: int = 8
    pervasive_gain: float = 1.0
    pervasive_offset: float = 0.0
    anomaly_rect: tuple[int, int, int, int] = (208, 176, 80, 64)
    anomaly_texture_gain: float = 1.0
    anomaly_offset: float = 0.0
    noise_sigma: float = 0.1
    speckle: bool = False
    # extra (x, y, w, h, gain) regions of uninteresting change at t1
    pervasive_patches: tuple[tuple[int, int, int, int, float], ...] = ()

    def __post_init__(self):
        # Every way of making a config (keywords, JSON, dataclasses.replace)
        # passes here, so a config that exists is valid: types and shapes
        # first, then ranges.
        for name in ("width", "height", "seed", "background_corr_len"):
            object.__setattr__(self, name, _real(name, getattr(self, name), integer=True))
        for name in ("pervasive_gain", "pervasive_offset", "anomaly_texture_gain",
                     "anomaly_offset", "noise_sigma"):
            _real(name, getattr(self, name))
        if not isinstance(self.speckle, bool):
            raise BadConfig(f"speckle must be true or false, got {self.speckle!r}")
        rect = _items("anomaly_rect", self.anomaly_rect, 4)
        object.__setattr__(
            self, "anomaly_rect", tuple(_real("anomaly_rect", v, integer=True) for v in rect)
        )
        patches = []
        for p in _items("pervasive_patches", self.pervasive_patches):
            *box, gain = _items("pervasive patch", p, 5)
            patches.append((*(_real("pervasive patch", v, integer=True) for v in box),
                            _real("pervasive patch gain", gain)))
        object.__setattr__(self, "pervasive_patches", tuple(patches))
        if self.width < 1 or self.height < 1:
            raise BadConfig(f"grid {self.width}x{self.height} is empty")
        if not 0 <= self.seed < 2**64:  # rng keys take the seed as 64 bits
            raise BadConfig(f"seed must be in [0, 2**64), got {self.seed}")
        if not 0 <= self.background_corr_len < min(self.width, self.height):
            raise BadConfig(f"background_corr_len must be in [0, {min(self.width, self.height)})"
                            f" for the grid, got {self.background_corr_len}")
        if self.pervasive_gain <= 0:
            raise BadConfig("pervasive_gain must be > 0")
        if self.anomaly_texture_gain < 0:
            raise BadConfig("anomaly_texture_gain must be >= 0")
        if self.noise_sigma < 0:
            raise BadConfig("noise_sigma must be >= 0")
        x, y, w, h = self.anomaly_rect
        if w < 2 * MASK_BAND + 1 or h < 2 * MASK_BAND + 1:
            raise BadConfig(f"anomaly_rect {self.anomaly_rect} too small for an inner mask")
        if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
            raise BadConfig(f"anomaly_rect {self.anomaly_rect} not inside the grid")
        for p in self.pervasive_patches:
            px, py, pw, ph, pgain = p
            if pw < 1 or ph < 1 or px < 0 or py < 0 or px + pw > self.width or py + ph > self.height:
                raise BadConfig(f"pervasive patch {p} not inside the grid")
            if pgain <= 0:
                raise BadConfig(f"pervasive patch gain must be > 0, got {pgain}")


def _box_mean(a: np.ndarray, radius: int) -> np.ndarray:
    """Mean over (2*radius+1)^2 mirror-padded windows, via summed-area table."""
    if radius == 0:
        return a.astype(np.float64, copy=True)
    side = 2 * radius + 1
    h, w = a.shape
    sat = np.zeros((h + side, w + side))
    sat[1:, 1:] = np.pad(a, radius, mode="reflect")
    np.cumsum(sat, axis=0, out=sat)
    np.cumsum(sat, axis=1, out=sat)
    total = sat[side:, side:] - sat[side:, :w] - sat[:h, side:] + sat[:h, :w]
    return total / float(side * side)


def _field(seed: int, stream: int, h: int, w: int, kind: str) -> np.ndarray:
    n = h * w
    if kind == "normal":
        return rng.normal(seed, stream, n).reshape(h, w)
    return rng.exponential(seed, stream, n).reshape(h, w)


@np.errstate(over="ignore", invalid="ignore")
def generate_scene(cfg: SceneConfig) -> tuple[Raster, Raster, GroundTruth]:
    """Deterministically generate (t0, t1, ground truth) from a config.

    Each full-size intermediate dies at its last use, and t0 and t1 are
    changed in place, so no plane is held twice.  A config whose values
    overflow float64 or float32 on the way is refused with BadConfig when
    the planes become Rasters, without a warning."""
    h, w = cfg.height, cfg.width
    r = cfg.background_corr_len
    x, y, rw, rh = cfg.anomaly_rect
    rect = slice(y, y + rh), slice(x, x + rw)

    # the box mean times 2r+1 restores roughly unit variance
    t0 = BG_LEVEL + BG_SIGMA * (
        _box_mean(_field(cfg.seed, STREAM_BACKGROUND, h, w, "normal"), r) * float(2 * r + 1))

    t1 = cfg.pervasive_gain * t0 + cfg.pervasive_offset
    for px, py, pw, ph, pgain in cfg.pervasive_patches:
        t1[py : py + ph, px : px + pw] *= pgain
    if cfg.anomaly_offset:
        t1[rect] += cfg.anomaly_offset

    if cfg.speckle:
        t0 *= _field(cfg.seed, STREAM_SPECKLE_T0, h, w, "exponential")
        t1 *= _field(cfg.seed, STREAM_SPECKLE_T1, h, w, "exponential")

    if cfg.noise_sigma:
        t0 += cfg.noise_sigma * _field(cfg.seed, STREAM_NOISE_T0, h, w, "normal")
        t1 += cfg.noise_sigma * _field(cfg.seed, STREAM_NOISE_T1, h, w, "normal")

    amp = float(np.sqrt(max(np.float64(cfg.anomaly_texture_gain) ** 2 - 1.0, 0.0)))
    if amp > 0.0:
        # local std of t1's high-frequency part, taken only inside the rectangle
        local_sigma = np.sqrt(
            _box_mean(np.square(t1 - _box_mean(t1, LOCAL_STD_RADIUS)), LOCAL_STD_RADIUS)[rect])
        t1[rect] += amp * local_sigma * _field(cfg.seed, STREAM_ANOMALY, h, w, "normal")[rect]

    inner = np.zeros((h, w), dtype=bool)
    inner[y + MASK_BAND : y + rh - MASK_BAND, x + MASK_BAND : x + rw - MASK_BAND] = True
    outer = np.zeros((h, w), dtype=bool)
    outer[max(0, y - MASK_BAND) : min(h, y + rh + MASK_BAND),
          max(0, x - MASK_BAND) : min(w, x + rw + MASK_BAND)] = True

    try:
        return Raster(t0), Raster(t1), GroundTruth(inner, outer)
    except FormatError as exc:
        raise BadConfig(f"config overflows the scene: {exc}") from exc


def scene_suite() -> dict[str, SceneConfig]:
    """The three fixed benchmark scenes used by the acceptance tests.

    simple-additive: a bright rectangle appears over an otherwise static
        scene (no texture change).
    textured: the rectangle keeps its mean brightness but its fine-scale
        intensity variations grow; only texture distinguishes it.
    cluttered: textured anomaly on top of a strong global gain/offset,
        speckle, and several disjoint uninteresting gain patches.
    """
    base = SceneConfig(width=512, height=512, background_corr_len=8,
                       anomaly_rect=(208, 176, 80, 64))
    return {
        "simple-additive": replace(
            base, seed=101, anomaly_offset=2.0, anomaly_texture_gain=1.0,
            noise_sigma=0.15,
        ),
        "textured": replace(
            base, seed=202, anomaly_offset=0.0, anomaly_texture_gain=2.5,
            noise_sigma=0.15,
        ),
        "cluttered": replace(
            base, seed=303, anomaly_offset=0.0, anomaly_texture_gain=3.0,
            noise_sigma=0.1, speckle=True,
            pervasive_gain=1.6, pervasive_offset=0.4,
            pervasive_patches=(
                (48, 64, 72, 56, 1.8),
                (384, 320, 64, 88, 0.55),
                (96, 392, 88, 48, 1.45),
            ),
        ),
    }


def config_to_json(cfg: SceneConfig, path: str) -> None:
    """Write a config as JSON (tuples become arrays)."""
    write_text(path, json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")


def config_from_json(path: str) -> SceneConfig:
    """Read a config written by config_to_json (unknown keys rejected)."""
    doc = read_json(path, BadConfig, SceneConfig.__dataclass_fields__)
    try:
        return SceneConfig(**doc)
    except BadConfig as exc:
        raise BadConfig(f"{path}: {exc}") from exc
