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
    NoConvergence,
    NonPositiveEntry,
    NonSquare,
    NotNormalized,
    ShapeMismatch,
)
from .rng import stream_key, unit_uniforms

ROW_SUM_TOL = 1e-12


def _check_scores(name: str, scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ShapeMismatch(f"{name} must be a non-empty 2-d array, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)) or np.any(scores <= 0.0):
        raise NonPositiveEntry(f"{name} must have strictly positive finite entries")
    return scores


@dataclass(frozen=True)
class CanonicalMarket:
    """Row-stochastic score matrices for the two sides of a market."""

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
            dev = float(np.max(np.abs(m.sum(axis=1) - 1.0)))
            if dev > ROW_SUM_TOL:
                raise NotNormalized(
                    f"{name} rows must sum to 1 within {ROW_SUM_TOL:g} "
                    f"(worst deviation {dev:.3e}); use canonical_from_raw for raw scores"
                )
        object.__setattr__(self, "a_hat", a)
        object.__setattr__(self, "b_hat", b)

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
    a = _check_scores("a_raw", a_raw)
    b = _check_scores("b_raw", b_raw)
    return CanonicalMarket(a / a.sum(axis=1, keepdims=True), b / b.sum(axis=1, keepdims=True))


def uniform_market(n_men: int, n_women: int | None = None) -> CanonicalMarket:
    """The market where every agent scores all partners equally."""
    if n_women is None:
        n_women = n_men
    if n_men < 1 or n_women < 1:
        raise ShapeMismatch("market needs at least one agent per side")
    return CanonicalMarket(
        np.full((n_men, n_women), 1.0 / n_women),
        np.full((n_women, n_men), 1.0 / n_men),
    )


def public_scores_market(a_scores: np.ndarray, b_scores: np.ndarray) -> CanonicalMarket:
    """Market where all men share one score vector and all women share another.

    ``a_scores[j]`` is every man's raw score for woman j; ``b_scores[i]`` is
    every woman's raw score for man i.
    """
    a_scores = np.asarray(a_scores, dtype=np.float64)
    b_scores = np.asarray(b_scores, dtype=np.float64)
    if a_scores.ndim != 1 or b_scores.ndim != 1:
        raise ShapeMismatch("public score vectors must be 1-d")
    return canonical_from_raw(
        np.tile(a_scores, (b_scores.size, 1)),
        np.tile(b_scores, (a_scores.size, 1)),
    )


@dataclass(frozen=True)
class BalancedMarket:
    """Balanced form of a square market.

    ``A = diag(phi) @ a_hat`` and ``B = diag(psi) @ b_hat`` are the canonical
    scores rescaled by the fitness vectors, chosen so the mutual matrix
    ``M = A * B^T / n`` is doubly stochastic.  ``c_bound`` is the contiguity
    constant: the smallest C with every a_ij, b_ji and n*m_ij inside [1/C, C].
    Built only by ``sinkhorn_balance``, which establishes these identities.
    """

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    c_bound: float
    sinkhorn_iters: int
    residual: float

    @property
    def n(self) -> int:
        return self.A.shape[0]


def sinkhorn_balance(
    market: CanonicalMarket, tol: float = 1e-10, max_iters: int = 10_000
) -> BalancedMarket:
    """Balance a square canonical market by alternating row/column normalization.

    Raises NoConvergence if the max row/column-sum deviation of M is still
    above ``tol`` after ``max_iters`` sweeps; the theory guarantees convergence
    for strictly positive matrices, so hitting the limit signals an
    ill-conditioned input rather than a modeling situation.
    """
    if not market.is_square:
        raise NonSquare(
            f"balancing needs a square market, got {market.n_men} men x {market.n_women} women"
        )
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    n = market.n_men
    # In-place divisions and the early `del` keep at most five n x n arrays
    # alive (a_hat, b_hat and the three results), which sets the memory peak
    # of a uniform-market run.
    kernel = market.a_hat * market.b_hat.T
    kernel /= n
    ks = kernel @ np.ones(n)
    iters = 0
    residual = np.inf
    # Converge to half the tolerance internally: the final M is re-assembled
    # from phi and psi below, which perturbs the sums by a few ulps.  Column
    # sums are exact up to an ulp right after the s update, so each sweep
    # checks the rows only, and kernel @ s serves that check and the next r.
    while iters < max_iters:
        iters += 1
        r = 1.0 / ks
        s = 1.0 / (kernel.T @ r)
        ks = kernel @ s
        residual = float(np.abs(r * ks - 1.0).max())
        if residual <= 0.5 * tol:
            break
    else:
        raise NoConvergence(iters, residual)

    # Geometric-mean-symmetric gauge: scale so GM(phi) == GM(psi).
    del kernel
    c = float(np.exp(0.5 * (np.mean(np.log(s)) - np.mean(np.log(r)))))
    phi = c * r
    psi = s / c
    A = phi[:, None] * market.a_hat
    B = psi[:, None] * market.b_hat
    M = A * B.T
    M /= n
    residual = float(
        max(np.abs(M.sum(axis=1) - 1.0).max(), np.abs(M.sum(axis=0) - 1.0).max())
    )
    # max(v, 1/v) over all entries, from each matrix's extremes (x -> n*x
    # and x -> 1/x are monotone in floating point, so this is exact).
    extremes = ((A.min(), A.max()), (B.min(), B.max()), (n * M.min(), n * M.max()))
    c_bound = float(max(max(hi, 1.0 / lo) for lo, hi in extremes))
    return BalancedMarket(
        A=A, B=B, M=M, phi=phi, psi=psi,
        c_bound=c_bound, sinkhorn_iters=iters, residual=residual,
    )


def random_cbounded_market(
    n_men: int, c_target: float, seed: int, n_women: int | None = None
) -> CanonicalMarket:
    """Random market with raw scores log-uniform on [1/c_target, c_target].

    Within each canonical row the score ratio is therefore at most c_target**2.
    c_target = 1 gives the uniform market. Square unless ``n_women`` is given.
    Deterministic in the seed.
    """
    if n_women is None:
        n_women = n_men
    if n_men < 1 or n_women < 1:
        raise ShapeMismatch("market needs at least one agent per side")
    if c_target < 1.0:
        raise ValueError("c_target must be >= 1")
    u_a = unit_uniforms(stream_key(seed, "a_raw"), n_men * n_women).reshape(n_men, n_women)
    u_b = unit_uniforms(stream_key(seed, "b_raw"), n_women * n_men).reshape(n_women, n_men)
    return canonical_from_raw(c_target ** (2.0 * u_a - 1.0), c_target ** (2.0 * u_b - 1.0))


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
    a_new = np.vstack([market.a_hat, np.full((k, n), 1.0 / n)])
    b_raw = np.hstack([market.b_hat, np.full((n, k), 1.0 / m)])
    b_new = b_raw / b_raw.sum(axis=1, keepdims=True)
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
    sums_ok = (
        np.max(np.abs(a.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
        and np.max(np.abs(b.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
    )
    if sums_ok:
        return CanonicalMarket(a, b)  # bit-exact round trip for canonical files
    return canonical_from_raw(a, b)
