"""Deterministic counter-based random streams.

Every random quantity in the package is a pure function of a 64-bit stream key
and a counter.  Keys are derived by hashing ``(seed, label, indices...)``, so
per-trial and per-cell streams are mutually independent and the value at a
given counter never depends on evaluation order, worker count, or scheduling.

The generator is a stateless splitmix64-style hash: the counter is spread with
one 64-bit finalizer, folded into the key, and finalized again.  All hot-path
arithmetic is vectorized uint64 (wraparound is the intended modular
arithmetic), which keeps tiny markets cheap (no per-stream object setup) and
large matrices fast: matrices are filled in place, one block of cells at a
time, at 60-75M exponential draws/s on one core of a 2-core Xeon and
85-110M/s on both (n = 2000, depending on the host's load).

The fill, like every n^2 stage whose blocks write disjoint slices and whose
result does not depend on block order, runs through :func:`map_row_blocks`.
It spreads the row blocks over the process's thread budget: every usable
core in a serial run, an equal share of them in each worker process of a
pool.  A block computes the same bits on any thread, so no output depends on
the budget.

BLAS is the one other source of threads.  Within :func:`single_threaded_blas`,
which every trial enters, numpy's OpenBLAS runs each call on its calling
thread: its own worker threads would spin between calls and take cores from
the row blocks, and a threaded matvec may round differently from one with
another thread count, so a trial's bits would depend on the machine.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import glob
import hashlib
import itertools
import math
import os
import threading
from collections.abc import Callable, Iterable, Iterator

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)

# Cells per block of every n^2 stage: large enough to amortize numpy's
# per-call cost, small enough that a block's scratch stays in cache.
BLOCK = 1 << 16


def row_blocks(nrows: int, ncols: int) -> Iterator[slice]:
    """Slices of consecutive rows of an nrows x ncols matrix, about BLOCK cells each."""
    step = max(1, BLOCK // max(ncols, 1))
    return (slice(start, start + step) for start in range(0, nrows, step))


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not reported on this platform
        return os.cpu_count() or 1


# Threads this process may use for row blocks; None means usable_cores().
_budget: int | None = None
# The shared pool (its size, the executor), started on first need.  A forked
# child inherits the executor without its threads, so it starts its own.
_pool: tuple[int, concurrent.futures.ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()
# Set on a thread while it walks row blocks: nested calls run inline.
_walking = threading.local()


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_pool)


@contextlib.contextmanager
def thread_budget(threads: int) -> Iterator[None]:
    """Within the ``with`` statement, :func:`map_row_blocks` uses at most ``threads`` threads."""
    global _budget
    saved, _budget = _budget, threads
    try:
        yield
    finally:
        _budget = saved


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS numpy loaded, or None."""
    lib_dir = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(lib_dir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Within the ``with`` statement, numpy's OpenBLAS runs each call on its calling thread.

    The thread count OpenBLAS had is restored on exit.  Like
    :func:`thread_budget`, the setting is the whole process's.  Without an
    OpenBLAS found beside numpy this does nothing.
    """
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def _executor(workers: int) -> concurrent.futures.ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < workers:
            # A pool too small is dropped; its threads end once it is collected.
            _pool = (workers, concurrent.futures.ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="mml-rows"
            ))
        return _pool[1]


def map_row_blocks(fn: Callable[[Iterable[slice]], None], nrows: int, ncols: int) -> None:
    """Call ``fn`` on the row blocks of an nrows x ncols matrix, on the thread budget.

    ``fn`` walks the blocks it is given in order; each block must write only
    its own rows' slice of the output, so the bits do not depend on which
    thread runs it.  With a budget of one thread, within another call's walk
    (nested use), or with a single block, this is ``fn(row_blocks(nrows, ncols))``.
    Otherwise the caller and up to budget - 1 pool threads each run ``fn``
    once, on blocks they claim in increasing order from a shared counter, so
    a thread that starts late or runs slow takes fewer blocks.  No thread
    claims a block after one has raised, and every block below a failed one
    was claimed before it and runs to its end: the exception of the lowest
    failed block, raised once all threads stop, is the sequential walk's.
    """
    threads = 1 if getattr(_walking, "active", False) else _budget or usable_cores()
    blocks = row_blocks(nrows, ncols)
    if threads > 1:
        blocks = list(blocks)
        threads = min(threads, len(blocks))
    if threads <= 1:
        fn(blocks)
        return
    # next() on a count and list.append are atomic under the interpreter lock.
    counter = itertools.count()
    failures: list[tuple[int, BaseException]] = []

    def walk() -> None:
        claimed = -1

        def claim() -> Iterator[slice]:
            nonlocal claimed
            for claimed in counter:
                if claimed >= len(blocks) or failures:
                    return
                yield blocks[claimed]

        _walking.active = True
        try:
            fn(claim())
        except BaseException as exc:  # raised again by the caller below
            failures.append((claimed, exc))
        finally:
            _walking.active = False

    pool = _executor(threads - 1)
    futures = [pool.submit(walk) for _ in range(threads - 1)]
    walk()
    concurrent.futures.wait(futures)
    for future in futures:
        future.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def stream_key(*tokens: int | str) -> int:
    """Hash a (seed, label, index...) tuple into a 64-bit stream key.

    Tokens are length-prefixed and type-tagged before hashing so that, e.g.,
    ``(1, "ab")`` and ``(1, "a", "b")`` produce unrelated keys.
    """
    h = hashlib.blake2b(digest_size=8)
    for token in tokens:
        if isinstance(token, str):
            data = b"s" + token.encode("utf-8")
        else:
            data = b"i" + int(token).to_bytes(16, "little", signed=True)
        h.update(len(data).to_bytes(2, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def _mix(z: np.ndarray, t: np.ndarray) -> None:
    # splitmix64 finalizer, in place on z (t is scratch of z's shape): a
    # bijection on 64-bit words with full avalanche.
    for shift, mult in ((_U64(30), _MIX_1), (_U64(27), _MIX_2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= mult
    np.right_shift(z, _U64(31), out=t)
    z ^= t


# k * golden for the block's k-th cell; adding (start + 1) * golden
# gives the word of counter start + k.
_BLOCK_STEPS = np.arange(BLOCK, dtype=np.uint64) * _GOLDEN
_BLOCK_STEPS.flags.writeable = False


def _fill(
    key: int, offset: int, out: np.ndarray, rates: np.ndarray | None, scale: np.ndarray | None
) -> None:
    """Write the uniforms (or, given rates, exponentials) of ``out``'s cells.

    Flat cell c gets counter offset + c.  The cells are walked in row blocks
    of about BLOCK cells (a 1-d ``out`` counts as one column); each thread
    that walks them reuses two uint64 scratch buffers of its own, and every
    step writes in place, so the only full-size array is ``out``; any
    blocking yields the same bits.  With ``scale``, row i's rates are
    ``scale[i] * rates[i]``, multiplied into the spent scratch one block at a
    time: the same float product as a materialised rate matrix.
    """
    shape = (out.shape[0], math.prod(out.shape[1:])) if out.ndim >= 2 else (out.size, 1)
    grid = out.reshape(shape)
    if rates is not None:
        rates = rates.reshape(shape)
    nrows, ncols = grid.shape
    key = _U64(key)

    def fill_rows(blocks: Iterable[slice]) -> None:
        z = np.empty(min(grid.size, max(1, BLOCK // ncols) * ncols), dtype=np.uint64)
        t = np.empty_like(z)
        for rows in blocks:
            ob = grid[rows]
            k = ob.size
            zb, tb, start = z[:k], t[:k], rows.start * ncols
            steps = _BLOCK_STEPS[:k] if k <= BLOCK else np.arange(k, dtype=np.uint64) * _GOLDEN
            np.add(steps, _U64((offset + start + 1) * int(_GOLDEN) % 2**64), out=zb)
            _mix(zb, tb)
            zb ^= key
            _mix(zb, tb)
            zb >>= _U64(11)
            # Every word is below 2^53, so the int64 view converts exactly.
            np.copyto(ob, zb.view(np.int64).reshape(ob.shape), casting="unsafe")
            ob += 0.5
            ob *= 2.0**-53
            if rates is not None:
                np.log(ob, out=ob)
                np.negative(ob, out=ob)
                if scale is None:
                    ob /= rates[rows]
                else:
                    rb = tb.view(np.float64).reshape(ob.shape)
                    np.multiply(scale[rows, None], rates[rows], out=rb)
                    ob /= rb

    map_row_blocks(fill_rows, nrows, ncols)


def unit_uniforms(key: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform draws in the open interval (0, 1) at counters offset..offset+count-1.

    Values are centered on (k + 0.5) * 2^-53, so 0 and 1 are unreachable and
    logs of either tail stay finite.
    """
    out = np.empty(count)
    _fill(key, offset, out, None, None)
    return out


def exponentials(
    key: int, rates: np.ndarray, offset: int = 0, scale: np.ndarray | None = None
) -> np.ndarray:
    """Exponential draws with the given (elementwise) rates, one counter per cell.

    Cell (i, j) of a matrix of rates always consumes counter i*ncols + j + offset,
    regardless of how many draws are requested elsewhere.  Given ``scale``,
    the rate of cell (i, j) is ``scale[i] * rates[i, j]``, and ``rates`` may
    be a broadcast view: no rate matrix is materialised.
    """
    rates = np.asarray(rates, dtype=np.float64)
    out = np.empty(rates.shape)
    if scale is not None:
        scale = np.asarray(scale, dtype=np.float64)
        if rates.ndim != 2 or scale.shape != rates.shape[:1]:
            raise ValueError("scale needs one entry per row of a 2-d rate matrix")
    _fill(key, offset, out, rates, scale)
    return out


def unit_uniforms_batch(keys: np.ndarray, count: int) -> np.ndarray:
    """Row k: the first ``count`` uniforms of stream ``keys[k]``.

    Bit-identical to calling :func:`unit_uniforms` per key, but amortizes the
    per-call array overhead when many tiny streams are consumed at once (e.g.
    one stream per Monte Carlo trial of a 2x2 market).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    z = np.empty((keys.size, count), dtype=np.uint64)
    z[:] = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    t = np.empty_like(z)
    _mix(z, t)
    z ^= keys[:, None]
    _mix(z, t)
    return ((z >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53
