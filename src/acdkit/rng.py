"""Counter-based deterministic random number generation.

All randomness in acdkit flows through a tiny counter-based generator so
that output is bitwise reproducible across platforms, runs, and worker
counts.  The construction is the splitmix64 finalizer applied to an
explicit counter:

    key(seed, stream) = mix64(seed + (stream + 1) * GAMMA)
    u64(seed, stream, i) = mix64(key + (i + 1) * GAMMA)

where mix64 is the splitmix64 output function and GAMMA its Weyl
increment.  Draw i of stream s is a pure function of (seed, s, i): any
pixel's value can be generated independently of any other, in any order.

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


# The draws below work in place on arrays they own, so ``normal`` holds at
# most four n-element arrays (32 B per draw); each step is the same IEEE
# operation as its out-of-place form, so the bits are too.

def normal(seed: int, stream: int, n: int) -> np.ndarray:
    """n standard normal draws via Box-Muller; draw i uses counters 2i, 2i+1."""
    counters = np.arange(0, 2 * n, 2, dtype=np.uint64)
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


def exponential(seed: int, stream: int, n: int) -> np.ndarray:
    """n unit-mean exponential draws (inverse CDF)."""
    e = uniform(seed, stream, n)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e
