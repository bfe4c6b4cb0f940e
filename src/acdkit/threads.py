"""One-thread BLAS scopes and the column-tile driver of the patch score.

OpenBLAS gives the same bits at any thread count only for some shapes: a
product with an inner dimension above 256, and LAPACK's factorisations,
change their last bits with it.  So the model's factorisations and the
score run with BLAS pinned to one thread, and the patch score takes its
parallelism from column tiles of a fixed width instead, one share per
thread, each tile scored alike; the bits then depend on the grid alone.
``hacd`` imports this module where it is used, so ``import acdkit``
compiles none of it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

from numpy._core import _multiarray_umath

TILE_WIDTH = 256

_lock = threading.Lock()
_depth = 0
_saved = 1


@functools.cache
def _blas():
    """(get, set, stop) of the OpenBLAS that NumPy links, or None.

    get and set read and set its thread count.  stop ends its thread pool,
    as OpenBLAS does itself before a fork, and like a fork it must not
    overlap a BLAS call on another thread; the next call that uses more
    than one thread starts the pool again.  A pool thread spins for about
    0.1 s of CPU time after each call before it sleeps, which is lost to
    the threads that score tiles, or to the processes that evaluate beside
    them.
    """
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)  # its symbols include its libraries'
    except OSError:
        return None
    for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                 "openblas_%s_num_threads"):
        with contextlib.suppress(AttributeError):
            get, set_ = getattr(lib, name % "get"), getattr(lib, name % "set")
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            # where a build lacks it, the pool is left running
            stop = getattr(lib, "blas_thread_shutdown_", lambda: 0)
            stop.argtypes, stop.restype = [], ctypes.c_int
            return get, set_, stop
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with BLAS on one thread; yield the count that the
    outermost of nested or concurrent scopes replaced.

    The count is restored when the last of those scopes exits, on an
    error too.  Entering and leaving stop the pool, so no pool thread
    spins beside the block or after it.  Without an OpenBLAS handle
    nothing changes and the yield is 1.
    """
    global _depth, _saved
    calls = _blas()
    if calls is None:
        yield 1
        return
    get, set_, stop = calls
    with _lock:
        if not _depth:
            _saved = get()
            set_(1)
            stop()
        _depth += 1
    try:
        yield _saved
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                set_(_saved)  # starts the pool again, if it was stopped
                stop()


def score_tiles(score, x, y, out, threads: int) -> None:
    """Fill ``out`` with ``score`` of two PatchWindows, by column tiles.

    Tiles of TILE_WIDTH columns (the last may be narrower) are dealt round
    robin to min(threads, tiles) shares; the calling thread scores the
    first share and a thread of its own each of the others.  A tile's rows
    come from ``rows(c0, c1)``, so each share holds one (tile, 2p - 1, p)
    buffer per epoch at a time.
    """
    w = out.shape[1]
    tiles = [(c0, min(c0 + TILE_WIDTH, w)) for c0 in range(0, w, TILE_WIDTH)]

    def work(share):
        for c0, c1 in share:
            for r, (xs, ys) in enumerate(zip(x.rows(c0, c1), y.rows(c0, c1), strict=True)):
                out[r, c0:c1] = score(xs, ys)

    errors = []

    def guarded(share):
        try:
            work(share)
        except BaseException as exc:
            errors.append(exc)

    shares = [tiles[k::threads] for k in range(min(threads, len(tiles)))]
    pool = [threading.Thread(target=guarded, args=(share,)) for share in shares[1:]]
    for t in pool:
        t.start()
    try:
        work(shares[0])
    finally:  # on an error too, no thread outlives the call
        for t in pool:
            t.join()
    if errors:
        raise errors[0]
