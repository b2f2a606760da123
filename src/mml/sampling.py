"""Seeded sampling of latent values.

Latent values follow the logit model: man i's value for woman j is
``X[i, j] ~ Exp(A[i, j])`` with A the balanced scores, drawn from the per-cell
stream keyed by (seed, "X", i, j); lower values are better.  The rates come
in factored form, ``A[i, j] = phi[i] * a_hat[i, j]``, and are multiplied out
one block at a time inside the draw.  Sorting a row of values yields exactly
the sequential choice distribution of the multinomial logit, so the values
are the only representation of preferences.

The trials hold each side as a :class:`ValueStream`: one screened pass over
its rows, block by block, keeps what the trial reads of them (the proposers'
best columns, a rank or a row maximum), and any cell, the values at those
columns too, is drawn from its counter on demand, with the bits the matrix
would have.  Only exhaustive enumeration, at most 10 agents per side, holds
both matrices (:meth:`ValueStream.matrix`).

Where a side is screened: a side whose rows each have one rate (the
uniform market's sides, a backfilled uniform market's men and women) is
screened from its counter words, since a row of one rate orders its
values in reverse word order (:func:`_key_screened_rows`); its blocks'
values are drawn only where that screen cannot clear them.  A C-bounded
value trial's sides are screened at their raw scores, in the passes that
build the market's kernel, before its balance (:class:`RawRateScreen`): a
row's raw-rate values order it as its balanced values do wherever they
are certified apart (``_RAW_MARGIN``), and where one row is not, the
trial drops that work and screens both sides again at the balanced rates.
Every other side (public scores, held dense rates, and the C-bounded
sides of ``approx_stable`` and ``imbalance``) and every held matrix is
screened from its values (:func:`_screened_rows`).  All three give the
same tables, ranks, maxima and messages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateValue
from .market import BalancedMarket, CanonicalMarket, sinkhorn_balance
from .rng import CounterRates, DistinctRows
from .rng import exponential_cells, exponential_words, exponentials, stream_key, word_cells

# Lowest columns kept per row, the depth of a proposer's presorted list.  A
# walk ends at its final partner's rank: mean 6-10, peak 39-81 for n = 1000-4000
# in uniform markets.  A walk past them draws its row again for its best 16k
# columns at depth k (``matching.deferred_acceptance``).
TOP_L = 64


def _screened_rows(name: str, block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rows of ``block`` sorted, once they are found tie-free, finite and positive.

    One sort serves every test: NaN sorts last, so the last column catches
    non-finite values and the first column non-positive ones.  The sorted
    rows are written into ``out`` (of block's shape) when it is given.
    """
    ordered = np.empty_like(block) if out is None else out
    np.copyto(ordered, block)
    ordered.sort(axis=1)
    if not ((ordered[:, 0] > 0.0).all() and (ordered[:, -1] < np.inf).all()):
        raise DuplicateValue(f"non-finite or non-positive {name} value drawn; reseed")
    # Neighbours in the flat sorted block, minus the pairs that straddle two rows.
    flat = ordered.reshape(-1)
    tied = flat[1:] == flat[:-1]
    tied[block.shape[1] - 1 :: block.shape[1]] = False
    if tied.any():
        raise DuplicateValue(f"tied {name} values drawn (probability-zero event); reseed")
    return ordered


@dataclass(frozen=True)
class ValueStream:
    """One side's values, held as their stream rather than as a matrix.

    Cell (i, j) is ``Exp(scale[i] * rates[i, j])`` at counter
    ``i * ncols + j`` of ``key`` (a None scale leaves the rates as they are),
    the same bits however it is drawn: in a pass, a gather or :meth:`matrix`.
    The rates are held (a :class:`~mml.rng.DistinctRows` table or a matrix)
    or drawn again by counter (a :class:`~mml.rng.CounterRates` source, the
    scores of a market held as its kernel), and read the same way: a pass
    draws each block's rates beside its values, and a gather its cells'.
    """

    name: str
    key: int
    rates: np.ndarray | DistinctRows | CounterRates
    scale: np.ndarray | None

    @property
    def shape(self) -> tuple[int, int]:
        return self.rates.shape

    @property
    def one_rate(self) -> bool:
        """Whether each row has one rate: a table of distinct rows, each constant bit for bit."""
        return isinstance(self.rates, DistinctRows) and self.rates.constant(rows=True)

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The values at (rows, cols), broadcast together, drawn by counter."""
        return exponential_cells(self.key, self.rates, rows, cols, self.scale)

    def matrix(self) -> np.ndarray:
        """Every value at once, screened as one block: for at most 10 agents a side."""
        values = exponentials(self.key, self.rates, scale=self.scale)
        _screened_rows(self.name, values)
        return values

    def screen(
        self, width: int, partners: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One pass over the rows, block by block, holding no full-size array.

        Blocks are screened by :func:`_key_screened_rows` where each row has
        one rate, else (and where the key screen cannot clear a block) by
        :func:`_screened_rows`.  Returns each row's ``width`` lowest columns
        (int32), lowest first, and, given ``partners``, row i's rank of its
        column ``partners[i]``: the count of its values at most that one's
        (0 for a partner of -1).  The values themselves are not kept: any
        of them is drawn again by :meth:`cells`.
        """
        nrows = self.shape[0]
        top = np.empty((nrows, width), dtype=np.int32)
        ranks = None if partners is None else np.empty(nrows, dtype=np.int64)
        keyed = self.one_rate

        def consume(rows, words, scratch, values, _rates):
            bound = _key_screened_rows(self, rows, words, scratch, width) if keyed else None
            if bound is not None:
                # Values run in reverse word order: a row's width lowest
                # values are its width largest words, and its rank of a
                # column counts the words at least that column's.
                top[rows] = _best_columns(words >= bound, words, width, True)
                cells = words
                better = np.greater_equal
            else:
                block, spare = values()
                ordered = _screened_rows(self.name, block, spare)
                top[rows] = _best_columns(block <= ordered[:, width - 1 : width], block, width)
                cells = block
                better = np.less_equal
            if partners is not None:
                ranks[rows] = _ranks(cells, partners[rows], better)

        exponential_words(self.key, self.rates, consume, scale=self.scale)
        return top, ranks

    def row_max(self, ncols: int) -> np.ndarray:
        """One pass over the rows, screened as :meth:`screen` screens them.

        Returns each row's largest value among its first ``ncols`` columns.
        """
        largest = np.empty(self.shape[0])
        keyed = self.one_rate

        def consume(rows, words, scratch, values, _rates):
            if keyed and _key_screened_rows(self, rows, words, scratch, 1) is not None:
                # The largest value is the one of the least word.
                local = np.arange(words.shape[0])
                cols = words[:, :ncols].argmin(axis=1)
                largest[rows] = word_cells(
                    words[local, cols], self.rates, local + rows.start, cols, self.scale
                )
                return
            block, spare = values()
            _screened_rows(self.name, block, spare)
            largest[rows] = block[:, :ncols].max(axis=1)

        exponential_words(self.key, self.rates, consume, scale=self.scale)
        return largest


def _ranks(cells: np.ndarray, own: np.ndarray, better) -> np.ndarray:
    """Each row's count of its ``cells`` ``better`` than or equal to its column ``own``, or 0
    where ``own`` is -1."""
    counts = better(cells, np.take_along_axis(cells, own.clip(0)[:, None], axis=1))
    return np.where(own >= 0, counts.sum(axis=1), 0)


def _best_columns(
    chosen: np.ndarray, cells: np.ndarray, width: int, descending: bool = False
) -> np.ndarray:
    """Each row's ``width`` columns where ``chosen`` holds, in the order of their ``cells``.

    ``chosen`` holds at exactly ``width`` columns of each row, and their
    cells differ: they are ordered lowest first, or highest first if
    ``descending``.  Row r's sit at ``flat[r * width : (r + 1) * width]``.
    """
    flat = np.flatnonzero(chosen)
    picked = cells.reshape(-1)[flat].reshape(-1, width)
    order = np.argsort(np.negative(picked) if descending else picked, axis=1)
    order += np.arange(0, order.size, width)[:, None]
    return flat[order] - np.arange(0, chosen.size, chosen.shape[1])[:, None]


# Words more than G apart have strictly ordered values on one rate, as long
# as those are normal: their uniforms differ by at least 2^-37, so their
# logs by far more than the few ulps np.log may be off, and so do the
# quotients by the row's one rate product (tests/test_key_screen.py checks
# the logs on the CPU it runs on).  A row's words are keyed by their top 31
# bits, and keys at least 2 apart belong to words more than 2^22 apart.
_WORD_MARGIN = 1 << 16
_KEY_SHIFT = 22


def _key_screened_rows(
    stream: ValueStream, rows: slice, words: np.ndarray, scratch: np.ndarray, width: int
) -> np.ndarray | None:
    """A block of one-rate rows screened from its words: each row's
    ``width``-th largest word (a column), or None where the block must be
    screened from its values.

    Each row's keys ``words >> 22`` are sorted as int32 in ``scratch``.  A
    row whose keys are at least 2 apart, or, failing that, whose sorted
    words are, has its words more than G = 2^16 apart, so on its one rate
    its values are strictly in reverse word order, as long as they are
    normal: the values of its least and its largest word, drawn exactly
    (``word_cells``), must be normal, positive and finite.  A row with two
    words within G, or an extreme value outside that range, is not
    cleared: the block is then screened from its values, by
    :func:`_screened_rows`, whose message names any fault.
    """
    nrows, ncols = words.shape
    halves = scratch.view(np.int32)
    keys = halves[: words.size].reshape(words.shape)
    np.right_shift(words, _KEY_SHIFT, out=keys)
    keys.sort(axis=1)
    bound = keys[:, ncols - width : ncols - width + 1].astype(np.int64)
    bound <<= _KEY_SHIFT
    flat = keys.reshape(-1)
    # Neighbours in the flat sorted block, but for the pairs that straddle two rows.
    gaps = np.subtract(flat[1:], flat[:-1], out=halves[words.size : 2 * words.size - 1])
    gaps[ncols - 1 :: ncols] = 2
    if gaps.size and gaps.min() < 2:
        near = np.flatnonzero(np.bincount(np.flatnonzero(gaps < 2) // ncols, minlength=nrows))
        ordered = np.sort(words[near], axis=1)
        if (np.diff(ordered, axis=1) <= _WORD_MARGIN).any():
            return None
        bound[near, 0] = ordered[:, ncols - width]
    index = np.arange(rows.start, rows.stop)
    extremes = np.stack([words.argmin(axis=1), words.argmax(axis=1)], axis=1)
    least_and_most = np.take_along_axis(words, extremes, axis=1)
    values = word_cells(least_and_most, stream.rates, index[:, None], extremes, stream.scale)
    if not ((values >= np.finfo(np.float64).tiny) & (values < np.inf)).all():
        return None
    return bound


class Uncertified(Exception):
    """A row's raw-rate order could not be certified as its balanced order."""


# The raw-rate certificate.  A C-bounded side's balanced value of a cell is
# V = fl(L / p), with p = fl(-s * b), b = fl(raw / r): L the log of the
# cell's uniform, raw its raw score, r its row's raw sum and s its row's
# fitness.  Its raw-rate value is R = fl(L / -raw), with the same L and raw
# bits.  Where b, p, V and R are normal, each of the four roundings is a
# factor 1 + e, |e| <= u = 2^-53, so V = (r / s) * R * f, with f in
# [(1 - u) / (1 + u)^3, (1 + u) / (1 - u)^3], and two cells of one row have
# f / f' > 1 - 8u.  An ulp of a positive normal R is above u * R, so sorted
# neighbours R < R' whose bits are more than 32 apart have R' > R (1 + 33u),
# and then V' / V > (1 + 33u)(1 - 8u) > 1: the row's balanced values are
# distinct and in its raw-rate order, and so are its best columns, its rank
# counts and every comparison deferred acceptance makes on it.  Normality:
# R's extremes come from the sort; b and p are monotone in raw, so they
# are checked at the row's least raw score (b <= 1, since r is at least
# each raw score, so p <= s); and with b, p and R normal the exact L / p
# follow R's order too, so V's extremes, rounded monotonically, sit at R's
# columns, where ``certify`` draws them at the balanced rates.
_RAW_MARGIN = 32
_TINY = np.finfo(np.float64).tiny


def _raw_rates_apart(ordered: np.ndarray) -> bool:
    """Whether each sorted row of raw-rate values is normal, its neighbours
    more than ``_RAW_MARGIN`` ulps apart."""
    if not ((ordered[:, 0] >= _TINY).all() and (ordered[:, -1] < np.inf).all()):
        return False
    # Positive finite doubles order as their bits: the gap of two is the ulps between them.
    bits = ordered.view(np.int64).reshape(-1)
    gaps = np.subtract(bits[1:], bits[:-1])
    gaps[ordered.shape[1] - 1 :: ordered.shape[1]] = _RAW_MARGIN + 1  # pairs across two rows
    return not gaps.size or bool(gaps.min() > _RAW_MARGIN)


class RawRateScreen:
    """One side of a C-bounded market screened at its raw scores, as a kernel pass's consumer.

    ``stream`` draws ``-log(u) / raw``: a :class:`ValueStream` over the
    side's raw scores (``KernelBuild.raw_scores``) with no scale, which needs
    neither the row sums nor the fitness.  Called on each block of the pass
    that builds that side's part of the kernel (``KernelBuild.women`` or
    ``men``), it keeps what :meth:`ValueStream.screen` keeps, ``top`` and,
    given ``partners``, ``ranks``, once the block's rows are certified (see
    ``_RAW_MARGIN``), and for :meth:`certify` each row's least raw score and
    the columns of its least and largest value.  A block it cannot certify
    raises :class:`Uncertified`.
    """

    def __init__(self, stream: ValueStream, width: int, partners: np.ndarray | None = None):
        n = stream.shape[0]
        self.stream, self.width, self.partners = stream, width, partners
        self.top = np.empty((n, width), dtype=np.int32)
        self.ranks = None if partners is None else np.empty(n, dtype=np.int64)
        self.ends = np.empty((n, 2), dtype=np.int64)
        self.least_raw = np.empty(n)

    def __call__(self, rows, words, scratch, values, raw) -> None:
        block, ordered = values()
        np.copyto(ordered, block)
        ordered.sort(axis=1)
        if not _raw_rates_apart(ordered):
            raise Uncertified(f"{self.stream.name} rows {rows.start}-{rows.stop - 1}")
        width = self.width
        top = self.top[rows] = _best_columns(block <= ordered[:, width - 1 : width], block, width)
        self.ends[rows, 0] = top[:, 0]
        self.ends[rows, 1] = block.argmax(axis=1)
        self.least_raw[rows] = raw.min(axis=1)
        if self.partners is not None:
            self.ranks[rows] = _ranks(block, self.partners[rows], np.less_equal)

    def certify(self, balanced: ValueStream) -> None:
        """Raise :class:`Uncertified` unless every row's b, p and balanced extremes are normal.

        ``balanced`` is the side's stream at the balanced rates, whose
        ``rates.sums`` are the raw row sums and ``scale`` the fitness.
        """
        least = self.least_raw / balanced.rates.sums
        product = balanced.scale * least
        ends = balanced.cells(np.arange(least.size)[:, None], self.ends)
        # Written so that NaN fails each bound.
        if not (least.min() >= _TINY and product.min() >= _TINY
                and balanced.scale.max() < np.inf and ends.min() >= _TINY and ends.max() < np.inf):
            raise Uncertified(f"{balanced.name} extremes")


def latent_streams(
    market: BalancedMarket | CanonicalMarket, seed: int
) -> tuple[ValueStream, ValueStream]:
    """The streams of the men's values X and the women's values Y of ``seed``.

    Balanced rates, in their factored form, when the market is balanced or
    square.  An off-square market has no balanced form and uses its canonical
    rates: preferences depend only on within-row rate ratios, so the
    preference law is the same.  A seed that ``stream_key`` refuses is
    refused before any balance.
    """
    x_key, y_key = stream_key(seed, "X"), stream_key(seed, "Y")
    if not isinstance(market, BalancedMarket) and market.is_square:
        market = sinkhorn_balance(market)
    phi, psi = (market.phi, market.psi) if isinstance(market, BalancedMarket) else (None, None)
    return (
        ValueStream("X", x_key, market.a_hat, phi),
        ValueStream("Y", y_key, market.b_hat, psi),
    )
