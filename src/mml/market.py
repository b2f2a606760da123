"""Market construction: canonical score matrices, balanced form, generators, file I/O.

A market is described by two row-stochastic score matrices: ``a_hat[i, j]`` is
man i's score for woman j and ``b_hat[j, i]`` is woman j's score for man i.
Scores are scale-free per row (multiplying a row by a constant changes
nothing), and the canonical form fixes that freedom by normalizing each row to
sum to 1.

Balancing multiplies each row by a fitness so that the mutual matrix
``M = A * B^T / n`` becomes doubly stochastic; smaller fitness means a more
competitive agent.  The leftover scalar gauge (phi, psi) -> (c*phi, psi/c) is
pinned by making the geometric means of phi and psi equal, which is the unique
choice that is symmetric between the two sides.

A random C-bounded market in a trial (:func:`cbounded_kernel_market`) is a
canonical market that holds its balancing kernel and no scores: every score
is a function of its counter and of its row's sum (:class:`CounterScores`),
so it is drawn again where it is read rather than kept.  Every product with
the kernel, Sinkhorn's and ``M @ y``'s, walks its blocks through
``_kernel_products``, which reads them from a held kernel or builds them
from the scores.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    NoConvergence,
    NonPositiveEntry,
    NonSquare,
    NotNormalized,
    ShapeMismatch,
)
from .rng import CounterRates, DistinctRows, stream_key, uniform_blocks, unit_uniforms

ROW_SUM_TOL = 1e-12


def _check_scores(name: str, scores: np.ndarray | DistinctRows) -> np.ndarray | DistinctRows:
    if isinstance(scores, DistinctRows):
        _check_scores(name, scores.table)
        return scores
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ShapeMismatch(f"{name} must be a non-empty 2-d array, got shape {scores.shape}")
    # The extremes decide it without an n x n mask: NaN fails both comparisons.
    low = float(scores.min())
    if not (low > 0.0 and scores.max() < np.inf):
        raise NonPositiveEntry(f"{name} must have strictly positive finite entries")
    # A score too small for a finite reciprocal (a subnormal) cannot be balanced.
    if 1.0 / low == np.inf:
        raise NonPositiveEntry(f"{name} entries must have finite reciprocals, got {low!r}")
    return scores


def _row_sums(name: str, raw: np.ndarray) -> np.ndarray:
    """The row sums (a column) of checked raw scores, once they are found finite."""
    with np.errstate(over="ignore"):
        sums = raw.sum(axis=1, keepdims=True)
    if not sums.max() < np.inf:
        raise NonPositiveEntry(f"{name} rows must have a finite sum")
    return sums


def _normalized(name: str, raw: np.ndarray) -> np.ndarray:
    """Checked raw scores divided by their row sums."""
    raw = _check_scores(name, raw)
    return raw / _row_sums(name, raw)


def _row_sum_deviation(scores: np.ndarray | DistinctRows) -> float:
    rows = scores.table if isinstance(scores, DistinctRows) else scores
    # Unchecked scores may overflow their sums (or meet inf - inf): those read inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(rows.sum(axis=1) - 1.0)))


def _check_normalized(name: str, deviation: float) -> None:
    if deviation > ROW_SUM_TOL:
        raise NotNormalized(
            f"{name} rows must sum to 1 within {ROW_SUM_TOL:g} "
            f"(worst deviation {deviation:.3e}); use canonical_from_raw for raw scores"
        )


@dataclass(frozen=True)
class CanonicalMarket:
    """Row-stochastic score matrices for the two sides of a market.

    Markets whose rows are few (uniform, public scores) hold each side as a
    table of its distinct rows (:class:`~mml.rng.DistinctRows`), so they
    take O(n) memory.  A square
    market built by :func:`cbounded_kernel_market` holds its balancing
    kernel ``K = a_hat * b_hat^T / n`` as ``kernel`` (8 bytes a cell), and
    its scores as :class:`CounterScores`: any row or cell of them is drawn
    again with the held market's bits, and ``np.asarray`` materialises a
    side.  Every other market's ``kernel`` is None.

    The arrays are the caller's, not copies.
    """

    a_hat: np.ndarray | DistinctRows | CounterScores
    b_hat: np.ndarray | DistinctRows | CounterScores
    kernel: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a = _check_scores("a_hat", self.a_hat)
        b = _check_scores("b_hat", self.b_hat)
        if b.shape != (a.shape[1], a.shape[0]):
            raise ShapeMismatch(
                f"b_hat must have shape {(a.shape[1], a.shape[0])} (transpose of a_hat), "
                f"got {b.shape}"
            )
        for name, m in (("a_hat", a), ("b_hat", b)):
            _check_normalized(name, _row_sum_deviation(m))
        object.__setattr__(self, "a_hat", a)
        object.__setattr__(self, "b_hat", b)

    @classmethod
    def _checked(
        cls, a_hat: np.ndarray | CounterScores, b_hat: np.ndarray | CounterScores,
        kernel: np.ndarray | None = None,
    ) -> CanonicalMarket:
        """A market of scores already checked as the constructor checks them, and its kernel."""
        market = object.__new__(cls)
        object.__setattr__(market, "a_hat", a_hat)
        object.__setattr__(market, "b_hat", b_hat)
        object.__setattr__(market, "kernel", kernel)
        return market

    @property
    def n_men(self) -> int:
        return self.a_hat.shape[0]

    @property
    def n_women(self) -> int:
        return self.a_hat.shape[1]

    @property
    def is_square(self) -> bool:
        return self.n_men == self.n_women


def canonical_from_raw(a_raw: np.ndarray, b_raw: np.ndarray) -> CanonicalMarket:
    """Normalize raw positive scores row-by-row into a canonical market."""
    return CanonicalMarket(_normalized("a_raw", a_raw), _normalized("b_raw", b_raw))


def uniform_market(n_men: int, n_women: int | None = None) -> CanonicalMarket:
    """The market where every agent scores all partners equally: public scores of ones."""
    if n_women is None:
        n_women = n_men
    if n_men < 1 or n_women < 1:
        raise ShapeMismatch("market needs at least one agent per side")
    return public_scores_market(np.ones(n_women), np.ones(n_men))


def public_scores_market(a_scores: np.ndarray, b_scores: np.ndarray) -> CanonicalMarket:
    """Market where all men share one score vector and all women share another.

    ``a_scores[j]`` is every man's raw score for woman j; ``b_scores[i]`` is
    every woman's raw score for man i.
    """
    a_scores = np.asarray(a_scores, dtype=np.float64)
    b_scores = np.asarray(b_scores, dtype=np.float64)
    if a_scores.ndim != 1 or b_scores.ndim != 1:
        raise ShapeMismatch("public score vectors must be 1-d")
    return CanonicalMarket(
        DistinctRows(_normalized("a_raw", a_scores[None, :]), np.zeros(b_scores.size, int)),
        DistinctRows(_normalized("b_raw", b_scores[None, :]), np.zeros(a_scores.size, int)),
    )


def _raw_scores(u: np.ndarray, c: float) -> np.ndarray:
    """The raw C-bounded scores ``c ** (2u - 1)`` of uniforms u, in place."""
    u *= 2.0
    u -= 1.0
    # np.power runs faster on a row of c than on the scalar, with the same bits.
    return np.power(np.full(u.shape[-1], float(c)), u, out=u)


def _cbounded_pass(
    seed: int, side: str, shape: tuple[int, int], c_target: float,
    into: Callable[[slice, np.ndarray], None], width: int | None = None,
) -> np.ndarray:
    """Draw one side's canonical C-bounded scores a row block at a time; their raw row sums.

    Each block of uniforms u of ``(seed, "a_raw")`` or ``(seed, "b_raw")``,
    drawn at the cells of the ``shape`` grid, becomes ``c ** (2u - 1)`` in
    its first ``width`` columns (default all), checked as raw scores; then
    those rows are divided by their sums and checked as canonical scores,
    as the constructors check them, while the block is in cache.
    ``into(rows, block)`` then reads the whole block, on the thread that
    drew it, and may rewrite it (see :func:`uniform_blocks`).
    """
    sums = np.empty(shape[0])
    worst: list[float] = []  # list.append is atomic under the interpreter lock

    def score_rows(rows, block, _spare):
        raw = block[:, :width]
        _check_scores(f"{side}_raw", _raw_scores(raw, c_target))
        block_sums = _row_sums(f"{side}_raw", raw)
        raw /= block_sums
        worst.append(_row_sum_deviation(_check_scores(f"{side}_hat", raw)))
        sums[rows] = block_sums[:, 0]
        into(rows, block)

    uniform_blocks(stream_key(seed, f"{side}_raw"), shape, score_rows)
    _check_normalized(f"{side}_hat", max(worst))
    return sums


@dataclass(frozen=True, eq=False)
class CounterScores(CounterRates):
    """One side's canonical C-bounded scores, held as their raw row sums and drawn by counter.

    Cell (i, j) with i < ``sums.size`` and j < ``cols`` is
    ``c ** (2u - 1) / sums[i]``, u the uniform of ``key`` at counter
    ``i * shape[1] + j``, the score built from it in one row-block pass: the
    counter of the value it rates.  Every other cell, a backfilled market's
    dummy, is ``fill``.  Given ``resums``, row i is then divided by
    ``resums[i]``: a backfilled market's women's rows, normalised again
    with the dummies' columns.  ``np.asarray`` materialises the scores.
    """

    key: int
    c: float
    shape: tuple[int, int]
    cols: int
    sums: np.ndarray
    fill: float = 0.0
    resums: np.ndarray | None = None

    def cells(self, r: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
        _raw_scores(out, self.c)
        # A dummy row's index may pass the sums; its cells are overwritten.
        out /= self.sums.take(r, mode="clip")
        if self.sums.size < self.shape[0] or self.cols < self.shape[1]:
            np.copyto(out, self.fill, where=(r >= self.sums.size) | (c >= self.cols))
        if self.resums is not None:
            out /= self.resums.take(r)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = unit_uniforms(self.key, self.shape)
        self.cells(np.arange(self.shape[0])[:, None], np.arange(self.shape[1]), out)
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass(frozen=True)
class BalancedMarket:
    """Balanced form of a square market, held as canonical scores and fitness factors.

    ``A = diag(phi) @ a_hat`` and ``B = diag(psi) @ b_hat`` are the canonical
    scores rescaled by the fitness vectors, chosen so the mutual matrix
    ``M = A * B^T / n`` is doubly stochastic.  Built only by
    ``sinkhorn_balance``, which establishes these identities.

    ``a_hat`` and ``b_hat`` are the canonical market's: tables of distinct
    rows (:class:`~mml.rng.DistinctRows`) on the uniform and public-scores
    markets, and :class:`CounterScores` on a market held as its kernel,
    which is then kept as ``kernel``, the one n x n array a balanced market
    may hold.  A, B and M, with the ``residual`` and ``c_bound`` read from
    them, are materialised only on request.  Trials use the factors:
    ``exponentials(key, a_hat, scale=phi)`` draws with the rates of A, and
    ``mutual_matmul`` multiplies by M.
    """

    a_hat: np.ndarray | DistinctRows | CounterScores
    b_hat: np.ndarray | DistinctRows | CounterScores
    phi: np.ndarray
    psi: np.ndarray
    sinkhorn_iters: int
    kernel: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.phi.size

    @property
    def A(self) -> np.ndarray:
        return self.phi[:, None] * np.asarray(self.a_hat)

    @property
    def B(self) -> np.ndarray:
        return self.psi[:, None] * np.asarray(self.b_hat)

    @property
    def M(self) -> np.ndarray:
        M = self.A * self.B.T
        M /= self.n
        return M

    @property
    def residual(self) -> float:
        """The largest deviation of a row or column sum of M from 1."""
        M = self.M
        return float(max(np.abs(M.sum(axis=1) - 1.0).max(), np.abs(M.sum(axis=0) - 1.0).max()))

    @property
    def c_bound(self) -> float:
        """The contiguity constant: the smallest C with every a_ij, b_ji and n*m_ij in [1/C, C]."""
        # Exact from each matrix's extremes, one matrix at a time: x -> n*x and
        # x -> 1/x are monotone in floating point.  An underflowed entry reads C = inf.
        c_bound = 0.0
        with np.errstate(divide="ignore", over="ignore"):
            for name, scale in (("A", 1.0), ("B", 1.0), ("M", self.n)):
                part = getattr(self, name)
                c_bound = max(c_bound, float(scale * part.max()), float(1.0 / (scale * part.min())))
        return c_bound

    def mutual_matmul(self, y: np.ndarray) -> np.ndarray:
        """``M @ y = phi * (K @ (psi * y))`` for a vector or an n x k matrix y.

        K's products are the balance's (``_kernel_products``), so
        ``(M @ y)_i = phi_i * sum_j (a_ij b_ji / n) (psi_j y_j)`` in K's
        64-row blocks; it agrees with the materialised product to rounding.
        """
        times, _ = _kernel_products(self)
        weighted = (self.psi * np.asarray(y, dtype=np.float64).T).T
        return (times(weighted).T * self.phi).T


# Rows (or columns) per block of the balancing products.  In single-threaded
# OpenBLAS each output of a matvec depends only on its own row and on where
# that row falls in the matrix's row groups: a block of at least 64 rows,
# starting at a multiple of 64, keeps every row's place, so the blocked
# products have the bits of the whole ones.  The last block takes the
# remainder (64 to 127 rows), as a block of 1 to 3 rows would not.
_KERNEL_ROWS = 64


def _kernel_blocks(n: int) -> list[slice]:
    """Blocks of 64 consecutive indices of 0..n-1, the last one taking the remainder."""
    stops = [*range(_KERNEL_ROWS, n - _KERNEL_ROWS + 1, _KERNEL_ROWS), n]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def _blocked_products(n: int, block: Callable[[slice, slice], np.ndarray]) -> tuple[Callable, Callable]:
    """``v -> K @ v`` and ``v -> K.T @ v`` for an n-vector or an n x k matrix v,
    walking K's 64-row (or column) blocks from ``block``."""
    blocks, whole = _kernel_blocks(n), slice(0, n)

    def times(v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape)
        for rows in blocks:
            np.matmul(block(rows, whole), v, out=out[rows])
        return out

    def transposed_times(v: np.ndarray) -> np.ndarray:
        out = np.empty(v.shape)
        for cols in blocks:
            np.matmul(block(whole, cols).T, v, out=out[cols])
        return out

    return times, transposed_times


def _kernel_products(market: CanonicalMarket | BalancedMarket) -> tuple[Callable, Callable]:
    """``v -> K @ v`` and ``v -> K.T @ v`` for the kernel K = a_hat * b_hat^T / n.

    The one place that forms K's blocks, for Sinkhorn's sweeps and for
    ``mutual_matmul``.  The products walk K in blocks of rows (``K @ v``)
    or of columns (``K.T @ v``).  A market that holds its ``kernel`` gives
    the blocks as views of it.  Any other market builds each block from its
    scores into one reused buffer, so no n x n array is allocated and the
    scores are only read: where a block's rows of each side are one row of
    its table (:class:`~mml.rng.DistinctRows`), K[i, j] = a[j] * b[i] / n.
    Raises NonPositiveEntry if an entry of K underflows to zero.
    """
    n = market.a_hat.shape[0]
    if market.kernel is not None:
        return _blocked_products(n, lambda rows, cols: market.kernel[rows, cols])
    a_hat, b_hat = market.a_hat, market.b_hat
    buffer = np.empty(max(part.stop - part.start for part in _kernel_blocks(n)) * n)

    def block(rows: slice, cols: slice) -> np.ndarray:
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        out = buffer[: shape[0] * shape[1]].reshape(shape)
        np.multiply(a_hat[rows, cols], b_hat[cols, rows].T, out=out)
        out /= n
        return out

    # Rounding is monotone, so no entry of K is below the one of the least
    # scores, which is K's least entry when each side has one distinct row.
    # Only when it underflows are the blocks read.
    low = a_hat.min() * b_hat.min() / n
    if not (low > 0.0 or min(block(rows, slice(0, n)).min() for rows in _kernel_blocks(n)) > 0.0):
        raise NonPositiveEntry(_UNDERFLOW)
    return _blocked_products(n, block)


def sinkhorn_balance(
    market: CanonicalMarket, tol: float = 1e-10, max_iters: int = 10_000
) -> BalancedMarket:
    """Balance a square canonical market by alternating row/column normalization.

    Raises NoConvergence if the max row/column-sum deviation of M is still
    above ``tol`` after ``max_iters`` sweeps, or is not finite; the theory
    guarantees convergence for strictly positive matrices, so either signals
    an ill-conditioned input rather than a modeling situation.  A ``tol``
    that is not positive and finite or a ``max_iters`` below 1 raises ConfigError.

    A market that holds its kernel (:func:`cbounded_kernel_market`) is
    balanced on that kernel, which the result keeps.  Any other market's
    kernel is built a block at a time from its scores (``_kernel_products``),
    which are only read, so the result does not depend on how the scores
    are laid out.
    """
    if not market.is_square:
        raise NonSquare(
            f"balancing needs a square market, got {market.n_men} men x {market.n_women} women"
        )
    # Written so that a NaN tolerance fails too.
    if not 0.0 < tol < np.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if max_iters < 1:
        raise ConfigError(f"max_iters must be at least 1, got {max_iters}")

    n = market.n_men
    # Converge to half the tolerance: the result's residual re-assembles M
    # from phi and psi, a few ulps off.  Column sums are exact up to an ulp
    # after the s update, so a sweep checks the rows, with K @ s serving
    # that check and the next r.  A sweep that overflows reads a non-finite
    # residual and stops, without a warning.
    times, transposed_times = _kernel_products(market)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ks = times(np.ones(n))
        for iters in range(1, max_iters + 1):
            r = 1.0 / ks
            s = 1.0 / transposed_times(r)
            ks = times(s)
            residual = float(np.abs(r * ks - 1.0).max())
            if residual <= 0.5 * tol or not residual < np.inf:
                break
        if not residual <= 0.5 * tol:
            raise NoConvergence(iters, residual)

        # Geometric-mean-symmetric gauge: scale so GM(phi) == GM(psi).
        c = float(np.exp(0.5 * (np.mean(np.log(s)) - np.mean(np.log(r)))))
        phi = c * r
        psi = s / c
    return BalancedMarket(
        a_hat=market.a_hat, b_hat=market.b_hat, phi=phi, psi=psi, sinkhorn_iters=iters,
        kernel=market.kernel,
    )


def _check_cbounded(n_men: int, n_women: int, c_target: float) -> None:
    if n_men < 1 or n_women < 1:
        raise ShapeMismatch("market needs at least one agent per side")
    if c_target < 1.0:
        raise ValueError("c_target must be >= 1")


_UNDERFLOW = "the balancing kernel a_hat * b_hat^T / n underflows to zero"


def cbounded_kernel_market(n: int, c_target: float, seed: int, k: int = 0) -> CanonicalMarket:
    """A random n x n market, raw scores log-uniform on [1/c_target, c_target]
    and its last k men ``backfill_imbalanced`` dummies, held as its kernel.

    Only K = a_hat * b_hat^T / n is held, as the market's ``kernel`` (8
    bytes a cell), with each side's row sums: the scores are
    :class:`CounterScores`, drawn again where they are read.  Two score passes
    on the row-block threads build K: each row block of the women's scores
    is written transposed into K, then each of the men's is multiplied in
    and divided by n.  Every score's uniform sits at the counter of the
    value it rates: a backfilled market's women's fill an n x n grid, the
    first n - k columns scored and the dummies' written into the block in
    place.  Every block is checked as the constructors check it.  Raises
    NonPositiveEntry if an entry of K underflows to zero.
    """
    m = n - k
    _check_backfill(m, k, n)
    _check_cbounded(m, n, c_target)
    kernel = np.empty((n, n))
    resums = np.empty(n) if k else None
    worst: list[float] = [0.0]

    def women(rows, block):
        if k:
            # The dummies' columns written and the rows normalised again,
            # as backfill_imbalanced does.
            block[:, m:] = 1.0 / m
            resums[rows] = _row_sums("b_raw", _check_scores("b_raw", block))[:, 0]
            block /= resums[rows, None]
            worst.append(_row_sum_deviation(_check_scores("b_hat", block)))
        kernel[:, rows] = block.T

    def men(rows, block):
        _multiply_in(kernel[rows], block, n)

    b_sums = _cbounded_pass(seed, "b", (n, n), c_target, women, m)
    _check_normalized("b_hat", max(worst))
    a_sums = _cbounded_pass(seed, "a", (m, n), c_target, men)
    if k:
        _multiply_in(kernel[m:], 1.0 / n, n)
    return CanonicalMarket._checked(
        CounterScores(stream_key(seed, "a_raw"), c_target, (n, n), n, a_sums, fill=1.0 / n),
        CounterScores(
            stream_key(seed, "b_raw"), c_target, (n, n), m, b_sums, fill=1.0 / m, resums=resums
        ),
        kernel,
    )


def _multiply_in(part: np.ndarray, scores: np.ndarray | float, n: int) -> None:
    """Rows of K holding b_hat^T times the men's scores, then divided by n, in place."""
    part *= scores
    part /= n
    if not part.min() > 0.0:
        raise NonPositiveEntry(_UNDERFLOW)


def _check_backfill(n_men: int, k: int, n_women: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if k and n_men + k != n_women:
        raise ShapeMismatch(
            f"backfill needs n_men + k == n_women, got {n_men} + {k} != {n_women}"
        )


def backfill_imbalanced(market: CanonicalMarket, k: int) -> CanonicalMarket:
    """Extend a market with n women and n-k men to a square n x n market.

    The k appended men score every woman equally, and every woman scores each
    of them at her mean canonical score (the weight of an average real man), so
    after renormalization each dummy carries weight exactly 1/n.  k = 0 returns
    the market unchanged.  The sides are held as :class:`~mml.rng.DistinctRows`,
    a dense side as the table of all its rows.
    """
    n, m = market.n_women, market.n_men
    _check_backfill(m, k, n)
    if k == 0:
        return market
    a, b = (
        s if isinstance(s, DistinctRows) else DistinctRows(np.asarray(s), np.arange(s.shape[0]))
        for s in (market.a_hat, market.b_hat)
    )
    # The men's table gains the dummies' row, the women's the k columns.
    a_table = np.vstack([a.table, np.full((1, n), 1.0 / n)])
    b_table = np.hstack([b.table, np.full((b.table.shape[0], k), 1.0 / m)])
    return CanonicalMarket(
        DistinctRows(a_table, np.concatenate([a.index, np.full(k, a.table.shape[0])])),
        DistinctRows(_normalized("b_raw", b_table), b.index),
    )


# --- matrix file format ------------------------------------------------------
#
# Line 1: "n_men n_women".  Then n_men rows of the first matrix, a blank line,
# and n_women rows of the second matrix, all whitespace-separated.  Floats are
# written with repr(), i.e. the shortest string that round-trips bit-exactly
# (at most 17 significant digits).


def _format_row(row: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in row)


def write_matrix_pair(path, first: np.ndarray, second: np.ndarray) -> None:
    """Write two matrices (shapes (m, w) and (w, m)) in the market file format."""
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if first.ndim != 2 or second.shape != (first.shape[1], first.shape[0]):
        raise ShapeMismatch("second matrix must be shaped like the transpose of the first")
    lines = [f"{first.shape[0]} {first.shape[1]}"]
    lines += [_format_row(row) for row in first]
    lines.append("")
    lines += [_format_row(row) for row in second]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_pair(path) -> tuple[np.ndarray, np.ndarray]:
    """Read two matrices written by ``write_matrix_pair``.

    Any malformed content raises ShapeMismatch naming the file and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.split()) for no, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError:
        raise ShapeMismatch(f"{path}: not a UTF-8 text file") from None
    if not lines:
        raise ShapeMismatch(f"{path}: empty market file")

    def numbers(no: int, tokens: list[str], convert) -> list:
        try:
            return [convert(tok) for tok in tokens]
        except ValueError:
            raise ShapeMismatch(
                f"{path}: line {no}: expected numbers, got {' '.join(tokens)!r}"
            ) from None

    header_no, header = lines[0]
    dims = numbers(header_no, header, int)
    if len(dims) != 2 or min(dims) < 1:
        raise ShapeMismatch(f"{path}: line {header_no}: header must be 'n_men n_women'")
    n_men, n_women = dims
    body = lines[1:]
    if len(body) != n_men + n_women:
        raise ShapeMismatch(
            f"{path}: expected {n_men + n_women} matrix rows, found {len(body)}"
        )
    rows = []
    for k, (no, tokens) in enumerate(body):
        width = n_women if k < n_men else n_men
        if len(tokens) != width:
            raise ShapeMismatch(f"{path}: line {no}: expected {width} entries, found {len(tokens)}")
        rows.append(numbers(no, tokens, float))
    return np.array(rows[:n_men]), np.array(rows[n_men:])


def read_market(path) -> CanonicalMarket:
    """Read a market file; rows that are not normalized are treated as raw scores."""
    a, b = read_matrix_pair(path)
    if _row_sum_deviation(a) <= ROW_SUM_TOL and _row_sum_deviation(b) <= ROW_SUM_TOL:
        return CanonicalMarket(a, b)  # bit-exact round trip for canonical files
    return canonical_from_raw(a, b)
