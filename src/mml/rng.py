"""Deterministic counter-based random streams.

Every random quantity in the package is a pure function of a 64-bit stream key
and a counter.  Keys are derived by hashing ``(seed, label, indices...)``, so
per-trial and per-cell streams are mutually independent and the value at a
given counter never depends on evaluation order, worker count, or scheduling.

The generator is a stateless splitmix64-style hash: the counter is spread with
one 64-bit finalizer, folded into the key, and finalized again.  All hot-path
arithmetic is vectorized uint64 (wraparound is the intended modular
arithmetic), which keeps tiny markets cheap (no per-stream object setup) and
large matrices fast, drawn a block of cells at a time: 60-75M exponentials/s
on one core of a 2-core Xeon, 85-110M/s on both (n = 2000).  A matrix need
not be stored at all: :func:`exponential_blocks` hands each block to a
consumer, and :func:`exponential_cells` draws the cells at chosen (row,
column) pairs from their counters alone.  Blocks and cells share one copy of
the per-cell arithmetic, so a cell has the same bits however it is drawn.
Nor need the rates be stored in full: :class:`DistinctRows` holds their
distinct rows, and a :class:`CounterRates` source draws each block's or
cell's rates again from uniforms at the values' own counters, so the two
draws share the first mix.

The fill is the one stage that runs on threads, and it has one path: the
walks of :func:`map_row_blocks` claim row blocks, draw each into their
scratch and hand it to a consumer (a copy into the matrix, where one is
asked for).  Its threads are the process's budget: every usable core in a
serial run, an equal share of them in each worker process of a pool.  A
block has the same bits on any thread and at any block size, so no output
depends on either.  Each walk's block scratch is allocated by the
calling thread before the helper threads start, so a helper allocates no
block buffer and its malloc arena holds none between calls.  The other
blocked stages (the cell gather and ``M @ y``) walk
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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)

# Cells per block of every n^2 stage: large enough to amortize numpy's
# per-call cost, small enough that a block's scratch stays in cache.
BLOCK = 1 << 16


def row_blocks(nrows: int, ncols: int, cells: int = BLOCK) -> Iterator[slice]:
    """Slices of consecutive rows of an nrows x ncols matrix, about ``cells`` cells each."""
    step = max(1, cells // max(ncols, 1))
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


def map_row_blocks(
    fn: Callable, nrows: int, ncols: int, scratch: Callable, cells: int = BLOCK
) -> None:
    """Call ``fn(blocks, scratch())`` on the row blocks of an nrows x ncols matrix.

    ``fn`` walks the blocks it is given in order; each block must write only
    its own rows' slice of the output, so the bits do not depend on which
    thread runs it.  The caller and up to budget - 1 threads started for the
    call each run ``fn`` once, on blocks they claim in increasing order from
    a shared counter, so a slow thread takes fewer blocks; at a budget of
    one thread, or with one block, no thread starts.  The threads are joined
    before this returns: none outlives the call, so a forked process
    inherits none.  No thread claims a block after one has raised, and every
    block below a failed one was claimed before it and runs to its end: the
    exception of the lowest failed block, raised once all threads stop, is
    the sequential walk's.

    Each walk gets its own set of buffers from ``scratch()``, and the calling
    thread makes every walk's set before any thread starts.  A helper thread
    then allocates no block buffers, so its malloc arena does not grow to
    keep them between calls.
    """
    blocks = list(row_blocks(nrows, ncols, cells))
    sets = [scratch() for _ in range(max(1, min(_budget or usable_cores(), len(blocks))))]
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


# k * golden for the k-th cell of a chunk of BLOCK / 8 cells (64 KiB): a
# run of counter words is its chunks' first words plus this table.
_CHUNK = BLOCK // 8
_STEPS = np.arange(_CHUNK, dtype=np.uint64)
_STEPS *= _GOLDEN
_STEPS.flags.writeable = False


def _counter_words(z: np.ndarray, first: int) -> None:
    """Write into z the words ``(c + 1) * golden`` of counters c = first, first + 1, ...

    One add covers z's whole chunks, one the rest: at any length, no table but _STEPS.
    """
    whole, rest = divmod(z.size, _CHUNK)
    golden = int(_GOLDEN)
    heads = np.array([(first + 1 + j * _CHUNK) * golden % 2**64 for j in range(whole + 1)],
                     dtype=np.uint64)
    np.add(_STEPS, heads[:whole, None], out=z[: whole * _CHUNK].reshape(whole, _CHUNK))
    np.add(_STEPS[:rest], heads[whole], out=z[whole * _CHUNK :])


class CounterRates:
    """Rates that are drawn again from their own uniforms rather than held.

    A subclass sets ``key`` and ``shape``: the rate of cell (i, j) of the
    ``shape`` grid is a function of (i, j) and of the uniform of ``key`` at
    counter ``i * shape[1] + j``, the counter of the value it rates, and
    :meth:`cells` turns those uniforms into rates in place.  A row block's
    rates are the cells of its grid, so they read the same either way.
    """

    key: int
    shape: tuple[int, int]

    def cells(self, r: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
        """Rewrite ``out``, the uniforms of cells (r, c) broadcast together, into their rates."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class DistinctRows:
    """An n x w matrix held as a d x w ``table`` of its distinct rows: row i is ``table[index[i]]``.

    It is read as a dense array is read, by rows or (rows, cols), both slices
    or index arrays broadcast together; ``np.asarray`` materialises it.  If
    every selected row is one table row (always at d = 1: no index is read),
    the result is a read-only view: a slice of that row's n x w broadcast,
    made once, or its cells taken for index columns.  Else cells are gathered.
    """

    table: np.ndarray
    index: np.ndarray
    _views: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.size, self.table.shape[1]

    def __getitem__(self, key) -> np.ndarray:
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        k = 0
        if self.table.shape[0] > 1:
            picked = self.index[rows]
            if not (picked.size and (picked == picked.flat[0]).all()):
                return self.table[picked, cols]
            k = picked.flat[0]
        if not isinstance(cols, slice):
            shape = np.broadcast_shapes(np.shape(rows), np.shape(cols))
            return np.broadcast_to(self.table[k].take(cols), shape)
        view = self._views.get(k)
        if view is None:  # setdefault is atomic: every row-block thread gets one view
            view = self._views.setdefault(k, np.broadcast_to(self.table[k], self.shape))
        return view[rows, cols]

    def min(self) -> float:
        return self.table.min()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.table[self.index]


def _unit_floats(
    z: np.ndarray, t: np.ndarray, key: np.uint64, out: np.ndarray, words: np.ndarray | None = None,
) -> None:
    """Write into ``out`` key's uniforms of z's counter words, once mixed.

    t is scratch of z's size, and ``out`` may be t's or z's float view.
    Given ``words``, the counter words are read from it, and z is scratch.
    """
    np.bitwise_xor(z if words is None else words, key, out=z)
    _mix(z, t)
    z >>= _U64(11)
    # Every word is below 2^53, so the int64 view converts exactly.
    np.add(z.view(np.int64).reshape(out.shape), 0.5, out=out)
    out *= 2.0**-53


def _cell_values(
    z: np.ndarray, t: np.ndarray, key: np.uint64, out: np.ndarray,
    rates: np.ndarray | None, neg_scale: np.ndarray | float,
) -> None:
    """Write into ``out`` the uniforms (or, given rates, exponentials) of z's cells.

    z holds ``(counter + 1) * golden`` per cell of ``out``, once mixed
    (``_mix``), and t is scratch of z's size; ``out`` may be t's float
    view.  Both are spent: the hash runs in z with t as its scratch, and
    once its words are converted into ``out``, z holds the rate product.
    A cell's rate is ``-neg_scale * rates`` (-1.0 where no scale is given),
    and its draw ``log(u) / (neg_scale * rates)``: IEEE division is sign
    symmetric, so these are the bits of ``-log(u) / rate``, signed zeros
    included.  Row blocks and gathered cells both come here, so a cell has
    the same bits however it is drawn.
    """
    _unit_floats(z, t, key, out)
    if rates is None:
        return
    np.log(out, out=out)
    product = z.view(np.float64).reshape(out.shape)
    # A rate too small for a finite value draws inf, which the screens refuse.
    with np.errstate(over="ignore", divide="ignore"):
        np.multiply(neg_scale, rates, out=product)
        out /= product


# Cells per block of a walk whose rates are drawn by counter: its three
# buffers take 768 KiB, so a two-thread C-bounded trial at n = 1000 traces
# 10.6 MB, inside 8n^2 + 4 MB (12.7 at BLOCK).  Its trials run 9 % (CPU) to
# 13 % (wall) longer than at BLOCK on two threads, as long on one (README).
_COUNTED_BLOCK = BLOCK // 2


def _copy_block(grid: np.ndarray, rows: slice, block: np.ndarray, _spare: np.ndarray) -> None:
    grid[rows] = block


def _fill(
    key: int, offset: int, shape: tuple[int, ...],
    rates: np.ndarray | DistinctRows | CounterRates | None,
    scale: np.ndarray | None, out: np.ndarray | None = None,
    consume: Callable[[slice, np.ndarray, np.ndarray], None] | None = None,
) -> None:
    """Draw the uniforms (or, given rates, exponentials) of a ``shape`` grid.

    Flat cell c gets counter offset + c.  The cells are walked in row blocks
    of about BLOCK cells (a 1-d grid counts as one column), so any blocking
    yields the same bits.  Each walk reuses two uint64 buffers of a block's
    size, or, for the rates of a :class:`CounterRates` source, three of half
    that size: their uniforms sit at the values' counters (offset 0) and
    share the block's first mix.  A block is drawn into the spent hash
    scratch and handed to ``consume(rows, block, spare)``, with ``spare``
    the other buffer, spent, as floats of the block's shape that the
    consumer may overwrite; given ``out`` instead, the consumer copies it
    into its rows of ``out``, the only full-size array.
    """
    nrows = shape[0]
    ncols = math.prod(shape[1:]) if len(shape) >= 2 else 1
    if out is not None:
        consume = functools.partial(_copy_block, out.reshape(nrows, ncols))
    counted = isinstance(rates, CounterRates)
    if isinstance(rates, np.ndarray):
        rates = rates.reshape(nrows, ncols)
    key = _U64(key)
    cells = _COUNTED_BLOCK if counted else BLOCK
    size = min(nrows, max(1, cells // ncols)) * ncols
    cols = np.arange(ncols)

    def scratch() -> tuple[np.ndarray, ...]:
        return tuple(np.empty(size, dtype=np.uint64) for _ in range(3 if counted else 2))

    def fill_rows(blocks: Iterable[slice], buffers: tuple[np.ndarray, ...]) -> None:
        z, t = buffers[:2]
        for rows in blocks:
            k = (rows.stop - rows.start) * ncols
            zb, tb = z[:k], t[:k]
            block = tb.view(np.float64).reshape(-1, ncols)
            _counter_words(zb, offset + rows.start * ncols)
            _mix(zb, tb)
            _cell_values(
                zb, tb, key, block,
                _counter_cells(rates, np.arange(rows.start, rows.stop)[:, None], cols, zb, tb,
                               buffers[2][:k], block.shape)
                if counted else None if rates is None else rates[rows],
                -1.0 if scale is None else np.negative(scale[rows, None]),
            )
            consume(rows, block, zb.view(np.float64).reshape(-1, ncols))

    map_row_blocks(fill_rows, nrows, ncols, scratch, cells)


def unit_uniforms(
    key: int, shape: int | tuple[int, ...], offset: int = 0, out: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform draws in (0, 1] at counters offset, offset + 1, ...

    Word k of 53 bits gives (k + 0.5) * 2^-53, so 0 is unreachable and the
    log of the lower tail stays finite.  For k >= 2^52, k + 0.5 is not a
    double and rounds to even: k = 2^53 - 1 gives exactly 1.0, with
    probability 2^-53 a draw.  Given ``out``, a float array of the
    shape (a 2-d one may be a column slice of a wider array), the draws are
    written into it and it is returned.
    """
    out = np.empty(shape) if out is None else out
    _fill(key, offset, out.shape, None, None, out=out)
    return out


def uniform_blocks(
    key: int, shape: tuple[int, int], consume: Callable[[slice, np.ndarray, np.ndarray], None],
) -> None:
    """``consume(rows, block, spare)`` on each row block of ``unit_uniforms(key, shape)``.

    As :func:`exponential_blocks`: the blocks run on the thread budget, each
    in a buffer of its walk's, valid only during the call, that the
    consumer may rewrite in place, and so is ``spare``, float scratch of the
    block's shape; no full-size array is allocated.
    """
    _fill(key, 0, shape, None, None, consume=consume)


def _exponential_rates(
    rates: np.ndarray | DistinctRows | CounterRates, scale: np.ndarray | None
) -> tuple[np.ndarray | DistinctRows | CounterRates, np.ndarray | None]:
    if not isinstance(rates, (DistinctRows, CounterRates)):
        rates = np.asarray(rates, dtype=np.float64)
    if scale is not None:
        scale = np.asarray(scale, dtype=np.float64)
        if len(rates.shape) != 2 or scale.shape != rates.shape[:1]:
            raise ValueError("scale needs one entry per row of a 2-d rate matrix")
    return rates, scale


def exponentials(
    key: int, rates: np.ndarray | DistinctRows | CounterRates, scale: np.ndarray | None = None
) -> np.ndarray:
    """Exponential draws with the given (elementwise) rates, one counter per cell.

    Cell (i, j) of a matrix of rates always consumes counter i*ncols + j,
    regardless of how many draws are requested elsewhere.  Given ``scale``,
    the rate of cell (i, j) is ``scale[i] * rates[i, j]``, and ``rates`` may
    be held as :class:`DistinctRows` or drawn again by a :class:`CounterRates`
    source: no rate matrix is materialised.
    """
    rates, scale = _exponential_rates(rates, scale)
    out = np.empty(rates.shape)
    _fill(key, 0, rates.shape, rates, scale, out=out)
    return out


def exponential_blocks(
    key: int, rates: np.ndarray | DistinctRows | CounterRates,
    consume: Callable[[slice, np.ndarray, np.ndarray], None], scale: np.ndarray | None = None,
) -> None:
    """``consume(rows, block, spare)`` on each row block of ``exponentials(key, rates, scale)``.

    The blocks run on the thread budget, each in a buffer of its walk's that
    is valid only during the call, and so is ``spare``, float scratch of the
    block's shape that the consumer may overwrite: no full-size array is
    allocated.
    """
    rates, scale = _exponential_rates(rates, scale)
    _fill(key, 0, rates.shape, rates, scale, consume=consume)


# Cells per block of a gather: its two uint64 buffers (three for counter
# rates) take 128 KiB (192) whatever it gathers, a fixed cost beside tables
# of n x 64 cells.
_GATHER_BLOCK = BLOCK // 8


def _cell_words(
    z: np.ndarray, rows: np.ndarray, cols: np.ndarray, ncols: int, shape: tuple[int, ...]
) -> None:
    """Write into z the words ``(c + 1) * golden`` of counters c = rows * ncols + cols."""
    # Counters are below 2^63, so the int64 view holds them exactly; the
    # product is taken in int64 whatever the indices' type.
    counter = z.view(np.int64).reshape(shape)
    np.multiply(rows, ncols, out=counter, dtype=np.int64)
    counter += cols
    counter += 1
    z *= _GOLDEN


def _counter_cells(
    source: CounterRates, rows: np.ndarray, cols: np.ndarray, z: np.ndarray,
    t: np.ndarray, words: np.ndarray, shape: tuple[int, ...],
) -> np.ndarray:
    """The rates of cells (rows, cols), a row block's grid or gathered cells,
    drawn into the float view of ``words``.

    z holds the cells' counter words once mixed, which the rates' uniforms
    share, and is left as it was; t is scratch.
    """
    out = words.view(np.float64).reshape(shape)
    _unit_floats(words, t, _U64(source.key), out, z)
    source.cells(rows, cols, out)
    return out


def exponential_cells(
    key: int, rates: np.ndarray | DistinctRows | CounterRates, rows: np.ndarray, cols: np.ndarray,
    scale: np.ndarray | None = None,
) -> np.ndarray:
    """``exponentials(key, rates, scale=scale)[rows, cols]``, drawn from the cells' counters alone.

    ``rows`` and ``cols`` are broadcast together as in numpy's advanced
    indexing, and walked a block of the result's leading axis at a time as
    given, at most BLOCK / 8 cells unless one row holds more: an int32 table
    against a column of rows is read in place, and no full-size index array
    is made.  Only the chosen cells are drawn, each with the bits of the
    full draw; each rate is read once, as ``rates[rows, cols]``, or drawn
    again from a :class:`CounterRates` source.
    """
    rates, scale = _exponential_rates(rates, scale)
    counted = isinstance(rates, CounterRates)
    rows, cols = np.asarray(rows), np.asarray(cols)
    out = np.empty(np.broadcast_shapes(rows.shape, cols.shape))
    # A 0-d result counts as one cell.  Each index gets the result's axes, so
    # a block of leading rows is a view of any index that spans them.
    grid = out.reshape(out.shape or (1,))
    rows, cols = (a.reshape((1,) * (grid.ndim - a.ndim) + a.shape) for a in (rows, cols))
    width = math.prod(grid.shape[1:])
    key = _U64(key)
    size = min(grid.size, max(1, _GATHER_BLOCK // max(width, 1)) * width)
    z, t, *words = (np.empty(size, dtype=np.uint64) for _ in range(3 if counted else 2))
    for block in row_blocks(grid.shape[0], width, _GATHER_BLOCK):
        r, c = (a if a.shape[0] == 1 else a[block] for a in (rows, cols))
        ob = grid[block]
        zb, tb = z[: ob.size], t[: ob.size]
        _cell_words(zb, r, c, rates.shape[1], ob.shape)
        _mix(zb, tb)
        _cell_values(
            zb, tb, key, ob,
            _counter_cells(rates, r, c, zb, tb, words[0][: ob.size], ob.shape)
            if counted else rates[r, c],
            -1.0 if scale is None else np.negative(scale.take(r)),
        )
    return out
