"""Raster data model, bit-exact R32 file I/O, and the package's file boundary.

This module owns the package's file boundary: rasters pass through
load_raster/save_raster, every text file (model and config JSON,
``roc.csv``, SVG plots, summaries, pixel dumps) through read_text,
read_json and write_text, and output directories through make_dir.  Each
failed file operation maps to one error class: NotFound for a missing
file, IoError for one the OS cannot read or write, and the caller's own
class (FormatError, BadConfig) for contents that are not UTF-8 or JSON.

A raster on disk is a sidecar pair: a JSON header ``<name>.json`` with
fields ``{"magic": "R32", "width": W, "height": H, "dtype": "f32le",
"order": "row-major"}`` and a binary payload ``<name>.r32`` holding
exactly W*H little-endian 32-bit floats, row-major, top-left origin.
No compression, no georeferencing; save followed by load is the identity
on (width, height, payload bytes).
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import AcdError, DimensionMismatch, FormatError, IoError, MaskInconsistent, NotFound

_HEADER_MAGIC = "R32"
_HEADER_DTYPE = "f32le"
_HEADER_ORDER = "row-major"


@dataclass(frozen=True, eq=False)
class Raster:
    """Single-band float32 image; ``data`` has shape (height, width).

    ``data`` may be any real array or nested list: it is cast to float32
    here, and a value beyond float32's range becomes infinite in that cast
    and is refused with the NaNs and infinities, without a warning."""

    data: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):
            a = np.asarray(self.data, dtype=np.float32)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise FormatError(f"raster data must be 2-D and non-empty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise FormatError("raster contains values that are not finite in float32")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Raster):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(
            np.all(self.data.view(np.uint32) == other.data.view(np.uint32))
        )


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Dual truth masks: ``inner`` is certainly anomalous, ``outer`` contains
    every possibly-anomalous pixel.  Both are boolean (height, width) arrays
    and inner must be a subset of outer."""

    inner: np.ndarray
    outer: np.ndarray

    def __post_init__(self):
        inner = np.ascontiguousarray(np.asarray(self.inner, dtype=bool))
        outer = np.ascontiguousarray(np.asarray(self.outer, dtype=bool))
        if inner.shape != outer.shape:
            raise DimensionMismatch(
                f"inner mask {inner.shape} and outer mask {outer.shape} differ"
            )
        if np.any(inner & ~outer):
            n = int(np.count_nonzero(inner & ~outer))
            raise MaskInconsistent(f"{n} inner-mask pixels lie outside the outer mask")
        inner.setflags(write=False)
        outer.setflags(write=False)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape


@dataclass(frozen=True, eq=False)
class CoregisteredPair:
    """A before/after raster pair on an identical grid."""

    t0: Raster
    t1: Raster

    def __post_init__(self):
        if (self.t0.height, self.t0.width) != (self.t1.height, self.t1.width):
            raise DimensionMismatch(
                f"t0 is {self.t0.width}x{self.t0.height}, "
                f"t1 is {self.t1.width}x{self.t1.height}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.t0.data.shape


def make_pair(a: Raster, b: Raster) -> CoregisteredPair:
    """Pair two rasters, requiring identical dimensions."""
    return CoregisteredPair(a, b)


def write_text(path: str, text) -> None:
    """Write ``text``, a str or an iterable of str chunks, as UTF-8 with
    ``\\n`` line ends, or bytes as they are; an OS failure becomes IoError
    naming ``path``.

    A write that fails after ``path`` was opened, by an OS error or by an
    exception from the chunks, removes the file, so no partial file is left
    for a reader to take as finished; a device, pipe or link at ``path``
    (say ``/dev/stdout``) is left in place."""
    try:
        if isinstance(text, bytes):
            fh = open(path, "wb")
        else:
            fh = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            fh.writelines([text] if isinstance(text, (str, bytes)) else text)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def make_dir(path: str) -> None:
    """Create directory ``path`` and its parents unless it exists; IoError if
    the OS refuses (say, a file already has that name)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    """The bytes of ``path``: NotFound if there is no file there, IoError if
    it cannot be read."""
    if not os.path.isfile(path):
        raise NotFound(f"file not found: {path}")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_text(path: str, bad: type[AcdError]) -> str:
    """The UTF-8 text of ``path``, with _read_bytes' errors, and ``bad`` if
    its bytes are not UTF-8."""
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise bad(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path: str, bad: type[AcdError], allowed=None):
    """The JSON document in ``path``, with read_text's errors, and ``bad`` if
    it is not JSON or, given ``allowed``, not an object whose keys all lie in
    ``allowed``."""
    try:
        doc = json.loads(read_text(path, bad))
    except json.JSONDecodeError as exc:
        raise bad(f"{path}: invalid JSON: {exc}") from exc
    if allowed is not None:
        if not isinstance(doc, dict):
            raise bad(f"{path}: must be a JSON object")
        unknown = set(doc).difference(allowed)
        if unknown:
            raise bad(f"{path}: unknown fields {sorted(unknown)}")
    return doc


def _base_path(path: str) -> str:
    for ext in (".r32", ".json"):
        if path.endswith(ext):
            return path[: -len(ext)]
    return path


def load_raster(path: str) -> Raster:
    """Load an R32 raster.  ``path`` may be the base name or either sidecar file.

    Raises NotFound if a sidecar is missing, IoError if one cannot be read,
    and FormatError on a header that is not UTF-8 JSON, a bad magic, a
    header/payload length mismatch, or non-finite payload values.
    """
    base = _base_path(path)
    header_path = base + ".json"
    payload_path = base + ".r32"
    for p in (header_path, payload_path):
        if not os.path.isfile(p):
            raise NotFound(f"missing raster file: {p}")
    header = read_json(header_path, FormatError)
    if not isinstance(header, dict) or header.get("magic") != _HEADER_MAGIC:
        raise FormatError(f"{header_path}: bad magic, expected {_HEADER_MAGIC!r}")
    if header.get("dtype") != _HEADER_DTYPE or header.get("order") != _HEADER_ORDER:
        raise FormatError(f"{header_path}: unsupported dtype/order")
    width, height = header.get("width"), header.get("height")
    # type(...) is int: JSON true and false parse as bools, which are ints too
    if not (type(width) is int and type(height) is int and width >= 1 and height >= 1):
        raise FormatError(f"{header_path}: width/height must be positive integers")

    payload = _read_bytes(payload_path)
    expected = 4 * width * height
    if len(payload) != expected:
        raise FormatError(
            f"{payload_path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    try:
        return Raster(np.frombuffer(payload, dtype="<f4").reshape(height, width))
    except FormatError as exc:
        raise FormatError(f"{payload_path}: {exc}") from exc


def save_raster(r: Raster, path: str) -> None:
    """Write an R32 sidecar pair; load_raster(path) then equals ``r`` bit-for-bit."""
    base = _base_path(path)
    header = {
        "magic": _HEADER_MAGIC,
        "width": r.width,
        "height": r.height,
        "dtype": _HEADER_DTYPE,
        "order": _HEADER_ORDER,
    }
    # payload first: a failed write removes it and leaves no header behind,
    # and a failed header write takes the payload with it
    write_text(base + ".r32", np.ascontiguousarray(r.data, dtype="<f4").tobytes())
    try:
        write_text(base + ".json", json.dumps(header, separators=(",", ":")) + "\n")
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(base + ".r32")
        raise


def _load_mask(path: str, grid: tuple[int, int] | None) -> np.ndarray:
    r = load_raster(path)
    if grid is not None and (r.width, r.height) != tuple(grid):
        raise DimensionMismatch(
            f"mask {path} is {r.width}x{r.height}, expected {grid[0]}x{grid[1]}"
        )
    vals = r.data
    if not np.all((vals == 0.0) | (vals == 1.0)):
        raise FormatError(f"mask {path} has values other than 0.0/1.0")
    return vals == 1.0


def load_ground_truth(inner_path: str, outer_path: str | None,
                      grid: tuple[int, int] | None = None) -> GroundTruth:
    """Load the inner/outer mask pair for a (width, height) grid, or for the
    inner mask's own grid when ``grid`` is None.

    When ``outer_path`` is None the single mask plays both roles (no
    boundary ambiguity).  Raises MaskInconsistent if inner is not a subset
    of outer and DimensionMismatch when a mask is on the wrong grid.
    """
    inner = _load_mask(inner_path, grid)
    outer = inner if outer_path is None else _load_mask(outer_path, inner.shape[::-1])
    return GroundTruth(inner, outer)
