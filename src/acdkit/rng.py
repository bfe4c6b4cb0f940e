"""Counter-based deterministic random number generation.

All randomness in acdkit flows through a tiny counter-based generator so
that output is bitwise reproducible across platforms, runs, and worker
counts.  The construction is the splitmix64 finalizer applied to an
explicit counter:

    key(seed, stream) = mix64(seed + (stream + 1) * GAMMA)
    u64(seed, stream, i) = mix64(key + (i + 1) * GAMMA)

where mix64 is the splitmix64 output function and GAMMA its Weyl
increment.  Draw i of stream s is a pure function of (seed, s, i): any
pixel's value can be generated independently of any other, in any order:
every draw function takes the index ``start`` of its first draw.

Constants (64-bit, from the splitmix64 reference implementation):

    GAMMA = 0x9E3779B97F4A7C15
    MIX1  = 0xBF58476D1CE4E5B9
    MIX2  = 0x94D049BB133111EB
"""

from __future__ import annotations

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)

_U53 = float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function on uint64 values, in place on an array
    (a scalar is rebound); returns ``z``."""
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= MIX1
        z ^= z >> np.uint64(27)
        z *= MIX2
        z ^= z >> np.uint64(31)
        return z


def stream_key(seed: int, stream: int) -> np.uint64:
    """Derive the 64-bit key of sub-stream `stream` under `seed`."""
    with np.errstate(over="ignore"):
        s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        return _mix64(s + np.uint64(stream + 1) * GAMMA)


def raw_u64(seed: int, stream: int, counters: np.ndarray) -> np.ndarray:
    """uint64 draws at the given counters of one stream."""
    key = stream_key(seed, stream)
    with np.errstate(over="ignore"):
        z = counters.astype(np.uint64, copy=False) + np.uint64(1)
        z *= GAMMA
        z += key
        return _mix64(z)


def _unit(u: np.ndarray) -> np.ndarray:
    """The top 53 bits of uint64 draws ``u`` (shifted in place) as
    full-precision doubles in [0, 1)."""
    u >>= np.uint64(11)
    x = u.astype(np.float64)
    x /= _U53
    return x


def uniform(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """n doubles in [0, 1), one per counter start..start+n-1."""
    return _unit(raw_u64(seed, stream, np.arange(start, start + n, dtype=np.uint64)))


# Draws are made BLOCK at a time (the fastest size for 2**20 draws), so ``normal``
# and ``exponential`` hold 8 B per draw plus one block's four arrays; each step is
# the same elementwise IEEE operation as on the whole array, so the bits are too.
BLOCK = 1 << 15


def _blocks(draw, seed: int, stream: int, n: int, start: int) -> np.ndarray:
    out = np.empty(n)
    for lo in range(0, n, BLOCK):
        out[lo : lo + BLOCK] = draw(seed, stream, min(BLOCK, n - lo), start + lo)
    return out


def normal(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """n standard normal draws via Box-Muller; draw i uses counters 2i, 2i+1."""
    if n > BLOCK:
        return _blocks(normal, seed, stream, n, start)
    counters = np.arange(2 * start, 2 * (start + n), 2, dtype=np.uint64)
    r = _unit(raw_u64(seed, stream, counters))
    counters += np.uint64(1)
    c = _unit(raw_u64(seed, stream, counters))
    del counters
    # r = sqrt(-2 log(1 - u1)); 1 - u1 is in (0, 1], so the log is finite
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    # c = cos(2 pi u2)
    c *= 2.0 * np.pi
    np.cos(c, out=c)
    r *= c
    return r


def exponential(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """n unit-mean exponential draws (inverse CDF), one per counter start..start+n-1."""
    if n > BLOCK:
        return _blocks(exponential, seed, stream, n, start)
    e = uniform(seed, stream, n, start)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e
