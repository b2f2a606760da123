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
85-110M/s on both (n = 2000, depending on the host's load).  A matrix need
not be stored at all: :func:`exponential_blocks` hands each block to a
consumer, and :func:`exponential_cells` draws the cells at chosen (row,
column) pairs from their counters alone.  Blocks and cells share one copy of
the per-cell arithmetic, so a cell has the same bits however it is drawn.

The fill is the one stage that runs on threads, through
:func:`map_row_blocks`: the counter draw of every screened pass, score build
and batch.  It spreads the row blocks over the process's thread budget:
every usable core in a serial run, an equal share of them in each worker
process of a pool.  A block computes the same bits on any thread, so no
output depends on the budget.  Each walk's block scratch is allocated by the
calling thread before the helper threads start, so a helper allocates no
block buffer and its malloc arena holds none between calls.  The other
blocked stages (the cell gather, ``M @ y`` and the held draw's screen) walk
their blocks in order on the calling thread, where their threads did not
measurably pay.

BLAS is the one other source of threads.  Within :func:`single_threaded_blas`,
which every trial and every ``mml`` subcommand enters, numpy's OpenBLAS runs
each call on its calling thread: its own worker threads would spin between
calls and take cores from the row blocks, and a threaded matvec may round
differently from one with another thread count, so a trial's bits would
depend on the machine.
"""
from __future__ import annotations

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

from .errors import ConfigError

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
    return (slice(start, min(start + step, nrows)) for start in range(0, nrows, step))


def usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not reported on this platform
        return os.cpu_count() or 1


# Threads this process may use for row blocks; None means usable_cores().
_budget: int | None = None


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


def map_row_blocks(fn: Callable, nrows: int, ncols: int, scratch: Callable) -> None:
    """Call ``fn(blocks, scratch())`` on the row blocks of an nrows x ncols matrix.

    ``fn`` walks the blocks it is given in order; each block must write only
    its own rows' slice of the output, so the bits do not depend on which
    thread runs it.  With a budget of one thread, or with a single block,
    this is ``fn(row_blocks(nrows, ncols), scratch())``.  Otherwise the
    caller and up to budget - 1 threads started for the call each run ``fn``
    once, on blocks they claim in increasing order from a shared counter, so
    a thread that starts late or runs slow takes fewer blocks.  The threads
    are joined before this returns: none outlives the call, so a forked
    process inherits none.  No thread claims a block after one has raised,
    and every block below a failed one was claimed before it and runs to its
    end: the exception of the lowest failed block, raised once all threads
    stop, is the sequential walk's.

    Each walk gets its own set of buffers from ``scratch()``, and the calling
    thread makes every walk's set before any thread starts.  A helper thread
    then allocates no block buffers, so its malloc arena does not grow to
    keep them between calls.
    """
    threads = _budget or usable_cores()
    blocks = row_blocks(nrows, ncols)
    if threads > 1:
        blocks = list(blocks)
        threads = min(threads, len(blocks))
    sets = [scratch() for _ in range(max(threads, 1))]
    if threads <= 1:
        fn(blocks, sets[0])
        return
    # next() on a count and list.append are atomic under the interpreter lock.
    counter = itertools.count()
    failures: list[tuple[int, BaseException]] = []

    def walk(own) -> None:
        claimed = -1

        def claim() -> Iterator[slice]:
            nonlocal claimed
            for claimed in counter:
                if claimed >= len(blocks) or failures:
                    return
                yield blocks[claimed]

        try:
            fn(claim(), own)
        except BaseException as exc:  # raised again by the caller below
            failures.append((claimed, exc))

    helpers = [threading.Thread(target=walk, args=(own,), name="mml-rows") for own in sets[1:]]
    for helper in helpers:
        helper.start()
    walk(sets[0])
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def stream_key(*tokens: int | str) -> int:
    """Hash a (seed, label, index...) tuple into a 64-bit stream key.

    Tokens are length-prefixed and type-tagged before hashing so that, e.g.,
    ``(1, "ab")`` and ``(1, "a", "b")`` produce unrelated keys.  An int
    token outside the signed 128-bit range raises ConfigError.
    """
    h = hashlib.blake2b(digest_size=8)
    for token in tokens:
        if isinstance(token, str):
            data = b"s" + token.encode("utf-8")
        else:
            try:
                data = b"i" + int(token).to_bytes(16, "little", signed=True)
            except OverflowError:
                raise ConfigError(
                    f"seed {token} is outside the signed 128-bit range [-2**127, 2**127)"
                ) from None
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


def _cell_values(
    z: np.ndarray, t: np.ndarray, key: np.uint64, out: np.ndarray,
    rates: np.ndarray | None, scale: np.ndarray | None,
) -> None:
    """Write into ``out`` the uniforms (or, given rates, exponentials) of z's cells.

    z holds ``(counter + 1) * golden`` per cell of ``out`` and is spent, as
    is t, scratch of z's size.  A rate is ``scale * rates`` when scale is
    given: the same float product as a materialised rate matrix.  Row blocks
    and gathered cells both come here, so a cell has the same bits however
    it is drawn.
    """
    _mix(z, t)
    z ^= key
    _mix(z, t)
    z >>= _U64(11)
    # Every word is below 2^53, so the int64 view converts exactly.
    np.copyto(out, z.view(np.int64).reshape(out.shape), casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    if rates is None:
        return
    np.log(out, out=out)
    np.negative(out, out=out)
    # A rate too small for a finite value draws inf, which the screens refuse.
    with np.errstate(over="ignore", divide="ignore"):
        if scale is None:
            out /= rates
        else:
            product = t.view(np.float64).reshape(out.shape)
            np.multiply(scale, rates, out=product)
            out /= product


def _fill(
    key: int, offset: int, shape: tuple[int, ...], rates: np.ndarray | None,
    scale: np.ndarray | None, out: np.ndarray | None = None,
    consume: Callable[[slice, np.ndarray, np.ndarray], None] | None = None,
) -> None:
    """Draw the uniforms (or, given rates, exponentials) of a ``shape`` grid.

    Flat cell c gets counter offset + c.  The cells are walked in row blocks
    of about BLOCK cells (a 1-d grid counts as one column), so any blocking
    yields the same bits.  A block is written into its rows of ``out``, or,
    without ``out``, into a block buffer of the walk's own; then
    ``consume(rows, block, spare)`` is called on it, with ``spare`` a float
    buffer of the block's shape that the consumer may overwrite.  Each walk
    also reuses two uint64 scratch buffers (one of them, spent, is
    ``spare``), and every step writes in place, so the only full-size array
    is ``out``.
    """
    nrows = shape[0]
    ncols = math.prod(shape[1:]) if len(shape) >= 2 else 1
    grid = None if out is None else out.reshape(nrows, ncols)
    if rates is not None:
        rates = rates.reshape(nrows, ncols)
    key = _U64(key)
    size = min(nrows * ncols, max(1, BLOCK // ncols) * ncols)

    def scratch() -> tuple:
        z = np.empty(size, dtype=np.uint64)
        return z, np.empty_like(z), np.empty(size) if grid is None else None

    def fill_rows(blocks: Iterable[slice], buffers: tuple) -> None:
        z, t, buffer = buffers
        for rows in blocks:
            k = (rows.stop - rows.start) * ncols
            ob = buffer[:k].reshape(-1, ncols) if grid is None else grid[rows]
            zb, start = z[:k], rows.start * ncols
            steps = _BLOCK_STEPS[:k] if k <= BLOCK else np.arange(k, dtype=np.uint64) * _GOLDEN
            np.add(steps, _U64((offset + start + 1) * int(_GOLDEN) % 2**64), out=zb)
            _cell_values(
                zb, t[:k], key, ob,
                None if rates is None else rates[rows],
                None if scale is None else scale[rows, None],
            )
            if consume is not None:
                consume(rows, ob, t[:k].view(np.float64).reshape(ob.shape))

    map_row_blocks(fill_rows, nrows, ncols, scratch)


def unit_uniforms(
    key: int, shape: int | tuple[int, ...], offset: int = 0,
    consume: Callable[[slice, np.ndarray, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Uniform draws in the open interval (0, 1) at counters offset, offset + 1, ...

    Values are centered on (k + 0.5) * 2^-53, so 0 and 1 are unreachable and
    logs of either tail stay finite.  Given ``consume``, ``consume(rows,
    block, spare)`` is called on each row block of the result right after it
    is drawn, on the thread that drew it, and may rewrite the block in place
    and overwrite ``spare``, float scratch of the block's shape.
    """
    out = np.empty(shape)
    _fill(key, offset, out.shape, None, None, out=out, consume=consume)
    return out


def _exponential_rates(
    rates: np.ndarray, scale: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    rates = np.asarray(rates, dtype=np.float64)
    if scale is not None:
        scale = np.asarray(scale, dtype=np.float64)
        if rates.ndim != 2 or scale.shape != rates.shape[:1]:
            raise ValueError("scale needs one entry per row of a 2-d rate matrix")
    return rates, scale


def exponentials(
    key: int, rates: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """Exponential draws with the given (elementwise) rates, one counter per cell.

    Cell (i, j) of a matrix of rates always consumes counter i*ncols + j,
    regardless of how many draws are requested elsewhere.  Given ``scale``,
    the rate of cell (i, j) is ``scale[i] * rates[i, j]``, and ``rates`` may
    be a broadcast view: no rate matrix is materialised.
    """
    rates, scale = _exponential_rates(rates, scale)
    out = np.empty(rates.shape)
    _fill(key, 0, rates.shape, rates, scale, out=out)
    return out


def exponential_blocks(
    key: int, rates: np.ndarray, consume: Callable[[slice, np.ndarray, np.ndarray], None],
    scale: np.ndarray | None = None,
) -> None:
    """``consume(rows, block, spare)`` on each row block of ``exponentials(key, rates, scale)``.

    The blocks run on the thread budget, each in a buffer of its walk's that
    is valid only during the call, and so is ``spare``, float scratch of the
    block's shape that the consumer may overwrite: no full-size array is
    allocated.
    """
    rates, scale = _exponential_rates(rates, scale)
    _fill(key, 0, rates.shape, rates, scale, consume=consume)


def exponential_cells(
    key: int, rates: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """``exponentials(key, rates, scale=scale)[rows, cols]``, drawn from the cells' counters alone.

    ``rows`` and ``cols`` are broadcast together as in numpy's advanced
    indexing, and walked a block of the result's leading axis at a time as
    given: an int32 table against a column of rows is read in place, and no
    full-size index array is made.  Only the chosen cells are drawn, each
    with the bits of the full draw; each rate is read once, from the one row
    of a broadcast rate view.
    """
    rates, scale = _exponential_rates(rates, scale)
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.empty(np.broadcast_shapes(rows.shape, cols.shape))
    # A 0-d result counts as one cell.  Each index gets the result's axes, so
    # a block of leading rows is a view of any index that spans them.
    grid = out.reshape(out.shape or (1,))
    rows, cols = (a.reshape((1,) * (grid.ndim - a.ndim) + a.shape) for a in (rows, cols))
    width = math.prod(grid.shape[1:])
    key = _U64(key)
    z = np.empty(min(grid.size, max(1, BLOCK // max(width, 1)) * width), dtype=np.uint64)
    t = np.empty_like(z)
    for block in row_blocks(grid.shape[0], width):
        r, c = (a if a.shape[0] == 1 else a[block] for a in (rows, cols))
        ob = grid[block]
        zb = z[: ob.size]
        # Counters are below 2^63, so the int64 view holds them exactly; the
        # product is taken in int64 whatever the indices' type.
        counter = zb.view(np.int64).reshape(ob.shape)
        np.multiply(r, rates.shape[1], out=counter, dtype=np.int64)
        counter += c
        counter += 1
        zb *= _GOLDEN
        _cell_values(zb, t[: ob.size], key, ob,
                     rates[0].take(c) if rates.strides[0] == 0 else rates[r, c],
                     None if scale is None else scale.take(r))
    return out
