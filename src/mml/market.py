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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NoConvergence,
    NonPositiveEntry,
    NonSquare,
    NotNormalized,
    ShapeMismatch,
)
from .rng import BLOCK, map_row_blocks, stream_key, unit_uniforms

ROW_SUM_TOL = 1e-12


def _distinct_rows(scores: np.ndarray) -> np.ndarray:
    """The rows worth reading: one row of a broadcast view (row stride 0), else all."""
    return scores[:1] if scores.strides[0] == 0 else scores


def _check_scores(name: str, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ShapeMismatch(f"{name} must be a non-empty 2-d array, got shape {scores.shape}")
    rows = _distinct_rows(scores)
    # The extremes decide it without an n x n mask: NaN fails both comparisons.
    low = float(rows.min())
    if not (low > 0.0 and rows.max() < np.inf):
        raise NonPositiveEntry(f"{name} must have strictly positive finite entries")
    # A score too small for a finite reciprocal (a subnormal) cannot be balanced.
    if 1.0 / low == np.inf:
        raise NonPositiveEntry(f"{name} entries must have finite reciprocals, got {low!r}")
    return scores


def _normalized(name: str, raw: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Checked raw scores divided by their row sums (in place if the caller owns them)."""
    raw = _check_scores(name, raw)
    with np.errstate(over="ignore"):
        sums = raw.sum(axis=1, keepdims=True)
    if not sums.max() < np.inf:
        raise NonPositiveEntry(f"{name} rows must have a finite sum")
    if in_place:
        raw /= sums
        return raw
    return raw / sums


def _row_sum_deviation(scores: np.ndarray) -> float:
    # Unchecked scores may overflow their sums (or meet inf - inf): those read inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(_distinct_rows(scores).sum(axis=1) - 1.0)))


def _check_normalized(name: str, deviation: float) -> None:
    if deviation > ROW_SUM_TOL:
        raise NotNormalized(
            f"{name} rows must sum to 1 within {ROW_SUM_TOL:g} "
            f"(worst deviation {deviation:.3e}); use canonical_from_raw for raw scores"
        )


@dataclass(frozen=True)
class CanonicalMarket:
    """Row-stochastic score matrices for the two sides of a market.

    Markets whose rows all agree (uniform, public scores) hold their shared
    row as a read-only broadcast view, so they take O(n) memory.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray

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
    def _checked(cls, a_hat: np.ndarray, b_hat: np.ndarray) -> CanonicalMarket:
        """A market of scores already checked as the constructor checks them."""
        market = object.__new__(cls)
        object.__setattr__(market, "a_hat", a_hat)
        object.__setattr__(market, "b_hat", b_hat)
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
    shape = (b_scores.size, a_scores.size)
    return CanonicalMarket(
        np.broadcast_to(_normalized("a_raw", a_scores[None, :]), shape),
        np.broadcast_to(_normalized("b_raw", b_scores[None, :]), shape[::-1]),
    )


@dataclass(frozen=True)
class BalancedMarket:
    """Balanced form of a square market, held as canonical scores and fitness factors.

    ``A = diag(phi) @ a_hat`` and ``B = diag(psi) @ b_hat`` are the canonical
    scores rescaled by the fitness vectors, chosen so the mutual matrix
    ``M = A * B^T / n`` is doubly stochastic.  Built only by
    ``sinkhorn_balance``, which establishes these identities.

    A balanced market stores no n x n array of its own: ``a_hat`` and ``b_hat``
    are the canonical market's (broadcast views of one row on the uniform and
    public-scores markets), and A, B and M, with the ``residual`` and
    ``c_bound`` read from them, are materialised only on request.
    Trials use the factors: ``exponentials(key, a_hat, scale=phi)`` draws
    with the rates of A, and ``mutual_matmul`` multiplies by M.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    sinkhorn_iters: int

    @property
    def n(self) -> int:
        return self.phi.size

    @property
    def A(self) -> np.ndarray:
        return self.phi[:, None] * self.a_hat

    @property
    def B(self) -> np.ndarray:
        return self.psi[:, None] * self.b_hat

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
        """``M @ y`` for a vector or an n x k matrix y, from the factors.

        ``(M @ y)_i = phi_i / n * sum_j a_ij b_ji (psi_j y_j)``, one row
        block at a time; it agrees with the materialised product to rounding.
        """
        y = np.asarray(y, dtype=np.float64)
        weighted = (self.psi * y.T).T
        out = np.empty(y.shape)

        def multiply_rows(blocks, buffer):
            for rows in blocks:
                # The block's rows of B^T copied into C order, then times A's rows.
                kernel = buffer[: rows.stop - rows.start]
                np.copyto(kernel, self.b_hat[:, rows].T)
                kernel *= self.a_hat[rows]
                out[rows] = kernel @ weighted

        block_shape = (min(self.n, max(1, BLOCK // self.n)), self.n)
        map_row_blocks(multiply_rows, self.n, self.n, lambda: np.empty(block_shape))
        return (out.T * (self.phi / self.n)).T


def sinkhorn_balance(
    market: CanonicalMarket, tol: float = 1e-10, max_iters: int = 10_000
) -> BalancedMarket:
    """Balance a square canonical market by alternating row/column normalization.

    Raises NoConvergence if the max row/column-sum deviation of M is still
    above ``tol`` after ``max_iters`` sweeps, or is not finite; the theory
    guarantees convergence for strictly positive matrices, so either signals
    an ill-conditioned input rather than a modeling situation.  A ``tol``
    that is not positive and finite or a ``max_iters`` below 1 raises ConfigError.
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
    # The kernel is the one n x n array balancing allocates.
    kernel = market.a_hat * market.b_hat.T
    kernel /= n
    if not kernel.min() > 0.0:
        raise NonPositiveEntry("the balancing kernel a_hat * b_hat^T / n underflows to zero")
    ks = kernel @ np.ones(n)
    # Converge to half the tolerance: the result's residual re-assembles M
    # from phi and psi, a few ulps off.  Column sums are exact up to an ulp
    # after the s update, so a sweep checks the rows, with kernel @ s serving
    # that check and the next r.  A sweep that overflows reads a non-finite
    # residual and stops, without a warning.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iters in range(1, max_iters + 1):
            r = 1.0 / ks
            s = 1.0 / (kernel.T @ r)
            ks = kernel @ s
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
        a_hat=market.a_hat, b_hat=market.b_hat, phi=phi, psi=psi, sinkhorn_iters=iters
    )


def random_cbounded_market(
    n_men: int, c_target: float, seed: int, n_women: int | None = None
) -> CanonicalMarket:
    """Random market with raw scores log-uniform on [1/c_target, c_target].

    Within each canonical row the score ratio is therefore at most c_target**2.
    c_target = 1 gives the uniform market. Square unless ``n_women`` is given.
    Deterministic in the seed.  Each row block of uniforms becomes canonical
    scores, checked as the constructor checks them, while it is in cache.
    """
    if n_women is None:
        n_women = n_men
    if n_men < 1 or n_women < 1:
        raise ShapeMismatch("market needs at least one agent per side")
    if c_target < 1.0:
        raise ValueError("c_target must be >= 1")
    return CanonicalMarket._checked(
        _cbounded_scores(seed, "a", (n_men, n_women), c_target),
        _cbounded_scores(seed, "b", (n_women, n_men), c_target),
    )


def _cbounded_scores(seed: int, side: str, shape: tuple[int, int], c_target: float) -> np.ndarray:
    """One side's canonical scores, built from its uniforms as they are drawn.

    Each row block of uniforms u becomes c ** (2u - 1), is checked as raw
    scores (``a_raw`` or ``b_raw``), normalised and checked as canonical
    scores (``a_hat`` or ``b_hat``) while it is in cache.
    """
    raw_name, name = f"{side}_raw", f"{side}_hat"
    # np.power runs faster on a row of c than on the scalar, with the same bits.
    base = np.full(shape[1], float(c_target))
    worst: list[float] = []  # list.append is atomic under the interpreter lock

    def score_rows(rows, raw, _spare):
        raw *= 2.0
        raw -= 1.0
        np.power(base, raw, out=raw)
        _check_scores(name, _normalized(raw_name, raw, in_place=True))
        worst.append(_row_sum_deviation(raw))

    scores = unit_uniforms(stream_key(seed, raw_name), shape, consume=score_rows)
    _check_normalized(name, max(worst))
    return scores


def backfill_imbalanced(market: CanonicalMarket, k: int) -> CanonicalMarket:
    """Extend a market with n women and n-k men to a square n x n market.

    The k appended men score every woman equally, and every woman scores each
    of them at her mean canonical score (the weight of an average real man), so
    after renormalization each dummy carries weight exactly 1/n.  k = 0 returns
    the market unchanged.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return market
    n = market.n_women
    m = market.n_men
    if m + k != n:
        raise ShapeMismatch(
            f"backfill needs n_men + k == n_women, got {m} + {k} != {n}"
        )
    # Shared rows (broadcast views) stay shared: the women's rows still agree
    # once the k columns are appended, and the men's rows agree with the
    # dummies' only when every man scores each woman 1/n (the uniform market).
    dummy = np.full((1, n), 1.0 / n)
    a_rows = _distinct_rows(market.a_hat)
    if a_rows.shape[0] == 1 and np.array_equal(a_rows, dummy):
        a_new = np.broadcast_to(dummy, (n, n))
    else:
        # Dense dummies keep the stack C-ordered (a stack of broadcast views
        # comes out F-ordered), and the kernel's layout sets Sinkhorn's bits.
        a_new = np.vstack([market.a_hat, np.full((k, n), 1.0 / n)])
    b_rows = _distinct_rows(market.b_hat)
    b_raw = np.hstack([b_rows, np.full((b_rows.shape[0], k), 1.0 / m)])
    b_new = _normalized("b_raw", b_raw, in_place=True)
    if b_rows.shape[0] == 1:
        b_new = np.broadcast_to(b_new, (n, n))
    return CanonicalMarket(a_new, b_new)


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
