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
best columns, a count or a row maximum), and any cell, the values at those
columns too, is drawn from its counter on demand, with the bits the matrix
would have.  Only exhaustive enumeration, at most 10 agents per side, draws
both matrices (:func:`sample_latent`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateValue, ShapeMismatch
from .market import BalancedMarket, CanonicalMarket, sinkhorn_balance
from .rng import exponential_blocks, exponential_cells, exponentials, row_blocks, stream_key

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


def _screen_matrix(name: str, values: np.ndarray) -> None:
    """Screen per row block, so that a fault names the lowest block that has one."""
    for rows in row_blocks(*values.shape):
        _screened_rows(name, values[rows])


@dataclass(frozen=True)
class LatentValues:
    """Realized values for one market draw; X is men's, Y is women's.

    ``X[i, j]`` is man i's value for woman j (rate ``A[i, j]``), ``Y[j, i]``
    woman j's value for man i (rate ``B[j, i]``).  Man i prefers j1 to j2 iff
    ``X[i, j1] < X[i, j2]``.  Construction rejects mismatched shapes and
    non-finite, non-positive or tied values, so every row is a strict order.
    Holding both matrices is the small-market form: the trials stream their
    values (:class:`ValueStream`), and this one serves enumeration and tests.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x, y = self.X, self.Y
        if x.ndim != 2 or y.shape != x.shape[::-1]:
            raise ShapeMismatch(
                f"value matrices must have transposed shapes, got {x.shape} and {y.shape}"
            )
        _screen_matrix("X", x)
        _screen_matrix("Y", y)


def sample_latent(market: BalancedMarket | CanonicalMarket, seed: int) -> LatentValues:
    """Draw one matrix of values per side from per-cell streams of ``seed``."""
    x, y = latent_streams(market, seed)
    return LatentValues(
        X=exponentials(x.key, x.rates, scale=x.scale),
        Y=exponentials(y.key, y.rates, scale=y.scale),
    )


@dataclass(frozen=True)
class ValueStream:
    """One side's values, held as their stream rather than as a matrix.

    Cell (i, j) is ``Exp(scale[i] * rates[i, j])`` at counter
    ``i * ncols + j`` of ``key`` (a None scale leaves the rates as they are):
    the cell of :func:`sample_latent`'s matrix ``name``, with its bits.
    """

    name: str
    key: int
    rates: np.ndarray
    scale: np.ndarray | None

    @property
    def shape(self) -> tuple[int, int]:
        return self.rates.shape

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The values at (rows, cols), broadcast together, drawn by counter."""
        return exponential_cells(self.key, self.rates, rows, cols, self.scale)

    def screen(
        self, width: int, thresholds: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One pass over the rows, block by block, holding no full-size array.

        Blocks are screened as :class:`LatentValues` screens a matrix.
        Returns each row's ``width`` lowest columns (int32), lowest first, and,
        given ``thresholds``, the count of row i's values at most
        ``thresholds[i]``.  The values themselves are not kept: any of them
        is drawn again by :meth:`cells`.
        """
        nrows = self.shape[0]
        top = np.empty((nrows, width), dtype=np.int32)
        counts = None if thresholds is None else np.empty(nrows, dtype=np.int64)

        def consume(rows, block, spare):
            ordered = _screened_rows(self.name, block, spare)
            # A row's columns at most its width-th value are exactly its width
            # lowest, in column order: row r's sit at flat[r * width : (r + 1) * width].
            flat = np.flatnonzero(block <= ordered[:, width - 1 : width])
            order = np.argsort(block.reshape(-1)[flat].reshape(-1, width), axis=1)
            order += np.arange(0, order.size, width)[:, None]
            top[rows] = flat[order] - np.arange(0, block.size, block.shape[1])[:, None]
            if counts is not None:
                counts[rows] = (block <= thresholds[rows, None]).sum(axis=1)

        exponential_blocks(self.key, self.rates, consume, scale=self.scale)
        return top, counts

    def row_max(self, ncols: int) -> np.ndarray:
        """One pass over the rows, screened as :meth:`screen` screens them.

        Returns each row's largest value among its first ``ncols`` columns.
        """
        largest = np.empty(self.shape[0])

        def consume(rows, block, spare):
            _screened_rows(self.name, block, spare)
            largest[rows] = block[:, :ncols].max(axis=1)

        exponential_blocks(self.key, self.rates, consume, scale=self.scale)
        return largest


def latent_streams(
    market: BalancedMarket | CanonicalMarket, seed: int
) -> tuple[ValueStream, ValueStream]:
    """The streams of the men's values X and the women's values Y of ``seed``.

    Balanced rates, in their factored form, when the market is balanced or
    square.  An off-square market has no balanced form and uses its canonical
    rates: preferences depend only on within-row rate ratios, so the
    preference law is the same.
    """
    if isinstance(market, CanonicalMarket) and market.is_square:
        market = sinkhorn_balance(market)
    phi, psi = (market.phi, market.psi) if isinstance(market, BalancedMarket) else (None, None)
    return (
        ValueStream("X", stream_key(seed, "X"), market.a_hat, phi),
        ValueStream("Y", stream_key(seed, "Y"), market.b_hat, psi),
    )
