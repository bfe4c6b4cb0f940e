"""One-thread BLAS scopes and the column-tile driver of patch fits and scores.

OpenBLAS gives the same bits at any thread count only for some shapes: a
product with an inner dimension above 256, and LAPACK's factorisations,
change their last bits with it.  So the calls that run a detector's BLAS
pin it to one thread: every CLI command (``cli.main``), ``fit_hacd`` with
the model it builds, ``score_map`` and ``load_model``; a ``HacdModel``
built directly outside them factors at the caller's count.  A patch fit
or score takes its parallelism from column tiles of a fixed width
instead, one share per thread, each tile computed alike; the bits then
depend on the grid alone.  ``hacd`` and ``cli.main`` import this module
where it is used, so ``import acdkit`` compiles none of it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

from numpy._core import _multiarray_umath

# Neither width follows the thread count.  A fit tile costs about 20 small
# NumPy calls per padded row, which at 256 columns do not overlap across
# threads; a score at 512 would leave a 512-wide grid on one thread.
FIT_TILE_WIDTH = 512
SCORE_TILE_WIDTH = 256

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
    the threads that fit or score tiles.
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


def column_tiles(work, width: int, tile: int, threads: int) -> list:
    """[work(c0, c1) for each column tile of a ``width``-column grid].

    Tiles of ``tile`` columns (the last may be narrower) are dealt round
    robin to min(threads, tiles) shares; the calling thread runs the first
    share and a thread of its own each of the others.  Every share ends
    before the call returns, on an error too; then the first error that a
    share raised is raised again.
    """
    spans = [(c0, min(c0 + tile, width)) for c0 in range(0, width, tile)]
    results, errors = [None] * len(spans), []
    shares = min(threads, len(spans))

    def share(first):
        try:
            for k in range(first, len(spans), shares):
                results[k] = work(*spans[k])
        except BaseException as exc:  # raised again below, once every share ended
            errors.append(exc)

    pool = [threading.Thread(target=share, args=(k,)) for k in range(1, shares)]
    for t in pool:
        t.start()
    share(0)
    for t in pool:
        t.join()
    if errors:
        raise errors[0]
    return results


def fit_tiles(moments, x, y, threads: int):
    """(mean, population covariance) of two PatchWindows of one patch
    size: ``moments`` of each column tile of FIT_TILE_WIDTH (see
    column_tiles), fed the tile's slice of ``row_windows()``.

    The tiles merge in tile order by the pairwise update of Chan, Golub &
    LeVeque (1983): each tile's covariance plus the outer product of its
    mean's deviation from the whole mean, weighted by its share of the
    columns.  One tile is returned as it is.
    """
    wx, wy, p, h, w = x.row_windows(), y.row_windows(), x.patch, x.height, x.width

    def tile(c0, c1):
        return (c1 - c0) / w, *moments(wx[:, c0:c1], wy[:, c0:c1], p, h, c1 - c0)

    tiles = column_tiles(tile, w, FIT_TILE_WIDTH, threads)
    mean = sum(share * m for share, m, _ in tiles)
    cov = 0.0
    for share, m, c in tiles:
        dev = m - mean
        cov = cov + share * (c + dev[:, None] * dev)
    return mean, cov


def score_tiles(score, x, y, out, threads: int) -> None:
    """Fill ``out`` with ``score`` of two PatchWindows, by column tiles of
    SCORE_TILE_WIDTH (see column_tiles).

    A tile's rows come from ``rows(c0, c1)``, so each share holds one
    (tile, 2p - 1, p) buffer per epoch at a time.
    """
    def tile(c0, c1):
        for r, (xs, ys) in enumerate(zip(x.rows(c0, c1), y.rows(c0, c1), strict=True)):
            out[r, c0:c1] = score(xs, ys)

    column_tiles(tile, out.shape[1], SCORE_TILE_WIDTH, threads)
