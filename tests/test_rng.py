import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acdkit import rng


def test_raw_is_deterministic():
    c = np.arange(1000, dtype=np.uint64)
    a = rng.raw_u64(1234, 0, c)
    b = rng.raw_u64(1234, 0, c)
    assert np.array_equal(a, b)


def test_streams_and_seeds_differ():
    c = np.arange(256, dtype=np.uint64)
    assert not np.array_equal(rng.raw_u64(1, 0, c), rng.raw_u64(1, 1, c))
    assert not np.array_equal(rng.raw_u64(1, 0, c), rng.raw_u64(2, 0, c))


def test_counter_based_slicing():
    # draw i is a pure function of (seed, stream, i), independent of batching
    full = rng.uniform(7, 3, 100)
    tail = rng.uniform(7, 3, 40, start=60)
    assert np.array_equal(full[60:], tail)


# counts within two draws of 0, 1 or 2 blocks: spans that start, end or
# cross a block boundary, and the empty span
_NEAR_BLOCKS = st.builds(lambda k, d: max(0, k * rng.BLOCK + d), st.integers(0, 2),
                         st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(draw=st.sampled_from([rng.uniform, rng.normal, rng.exponential]),
       seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 5),
       start=_NEAR_BLOCKS, n=_NEAR_BLOCKS)
def test_any_span_of_draws_has_the_bits_of_the_whole(draw, seed, stream, start, n):
    # draws made a block at a time from any start are the bits of one
    # whole-array draw (a block larger than every count)
    whole = draw(seed, stream, start + n)
    assert draw(seed, stream, n, start).tobytes() == whole[start:].tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "BLOCK", start + n + 1)
        assert draw(seed, stream, start + n).tobytes() == whole.tobytes()


@pytest.mark.parametrize("draw", [rng.normal, rng.exponential])
def test_draws_hold_their_output_and_one_block(draw):
    # 8 B per draw for the result, plus at most four block-sized arrays
    n = 8 * rng.BLOCK
    draw(0, 0, 3)
    tracemalloc.start()
    try:
        draw(1, 2, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 4 * 8 * rng.BLOCK + 4096


def test_uniform_range_and_moments():
    u = rng.uniform(42, 0, 200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments():
    z = rng.normal(42, 1, 200_000)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # symmetric tails
    assert abs(np.mean(z > 0) - 0.5) < 0.01


def test_exponential_moments():
    e = rng.exponential(42, 2, 200_000)
    assert e.min() >= 0.0
    assert abs(e.mean() - 1.0) < 0.01
    assert abs(e.var() - 1.0) < 0.05


def test_known_mix_constants_give_stable_stream():
    # freeze three draws so any change to the generator is loud
    got = rng.raw_u64(0, 0, np.arange(3, dtype=np.uint64))
    again = rng.raw_u64(0, 0, np.arange(3, dtype=np.uint64))
    assert np.array_equal(got, again)
    assert len(set(got.tolist())) == 3


def _hex(values):
    return [float(v).hex() for v in values.tolist()]


def test_draws_keep_their_golden_bits():
    # exact bits of these draws: every scene's noise is built from them, so a
    # rewrite of the generator must keep them
    assert [hex(v) for v in rng.raw_u64(0, 0, np.arange(3, dtype=np.uint64)).tolist()] == [
        "0xa706dd2f4d197e6f", "0xb382a305f4414f5e", "0x631a9154fbabf717"]
    assert _hex(rng.uniform(101, 3, 4, start=5)) == [
        "0x1.4474f9054fd7cp-1", "0x1.c54dbd0e1160fp-1",
        "0x1.ec9cf3d417610p-4", "0x1.89f0b1c79d73cp-2"]
    assert _hex(rng.normal(202, 1, 4)) == [
        "0x1.ee45e92faa300p+0", "0x1.90ae5d2d808e9p-6",
        "-0x1.03e5b1cac8f16p+0", "0x1.4dede9b0379bfp+0"]
    assert _hex(rng.exponential(303, 2, 4)) == [
        "0x1.187d3973c6117p-1", "0x1.cb234f0c40466p-1",
        "0x1.60eb9cbe78f67p+1", "0x1.ed3796964ef99p-5"]
    # and 4096 draws of each, by digest
    for draw, stream, digest in ((rng.uniform, 4, "9221f468c27496d3"),
                                 (rng.normal, 5, "628457b82ccc763f"),
                                 (rng.exponential, 6, "7fdda6300ab6cf2d")):
        data = draw(7, stream, 4096).astype("<f8").tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest, draw.__name__


def test_raw_u64_leaves_its_counters_alone():
    counters = np.arange(5, dtype=np.uint64)
    rng.raw_u64(1, 0, counters)
    assert counters.tolist() == [0, 1, 2, 3, 4]
