"""KS distances to exponential laws, exponential fits, and distributional diagnostics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSample,
    EmptySample,
    NonPositiveRate,
    ShapeMismatch,
)
from .matching import MatchingOutcome
from .rng import row_blocks

_GRID_POINTS = 64
_GOLDEN_STEPS = 40
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check_sample(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        samples = samples.ravel()
    if samples.size == 0:
        raise EmptySample("statistic needs at least one sample")
    if np.any(samples < 0.0) or not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite and non-negative")
    return samples


class _ExpKS:
    """Exact KS distances of one sorted sample ``xs`` to exponential laws.

    The plotting positions i/n and (i - 1)/n and one rate's cdf buffers are
    built once per sample, so a fit's golden-section steps only fill them.
    """

    def __init__(self, xs: np.ndarray):
        n = xs.size
        i = np.arange(1, n + 1, dtype=np.float64)
        self.xs, self.above, self.below = xs, i / n, (i - 1.0) / n
        self.buffers = np.empty((1, n)), np.empty((1, n))

    def grid(self, rates: np.ndarray) -> np.ndarray:
        """The distance to Exp(rate) for each rate, a block of rates at a time."""
        out = np.empty(rates.size)
        for block in row_blocks(rates.size, self.xs.size):
            shape = (block.stop - block.start, self.xs.size)
            cdf, gap = np.empty(shape), np.empty(shape)
            out[block] = self._rows(np.negative(rates[block, None]), cdf, gap)
        return out

    def at(self, rate: float) -> float:
        return float(self._rows(np.array([[-rate]]), *self.buffers)[0])

    def _rows(self, neg_rates: np.ndarray, cdf: np.ndarray, gap: np.ndarray) -> np.ndarray:
        # Exact sup-distance: the extremes sit just before/after the sample jumps.
        np.multiply(neg_rates, self.xs, out=cdf)
        np.negative(np.expm1(cdf, out=cdf), out=cdf)
        above = np.subtract(self.above, cdf, out=gap).max(axis=1)
        return np.maximum(above, np.subtract(cdf, self.below, out=gap).max(axis=1))


def ks_distance_to_exp(samples: np.ndarray, rate: float) -> float:
    """Exact Kolmogorov-Smirnov distance between a sample and Exp(rate)."""
    samples = _check_sample(samples)
    if not (rate > 0.0) or not math.isfinite(rate):
        raise NonPositiveRate(f"rate must be positive and finite, got {rate}")
    return _ExpKS(np.sort(samples)).at(rate)


@dataclass(frozen=True)
class ExponentialFit:
    """An exponential rate and the KS distance it achieves."""

    rate: float
    ks_distance: float


def best_fit_exponential(samples: np.ndarray) -> ExponentialFit:
    """Minimize the KS distance over rates on a log grid, then refine.

    64 grid points on [0.01/mean, 100/mean], followed by 40 golden-section
    steps (in log-rate) on the bracket around the best grid point.
    """
    samples = _check_sample(samples)
    mean = float(samples.mean())
    if mean <= 0.0:
        raise DegenerateSample("cannot fit an exponential to an all-zero sample")
    ks_at = _ExpKS(np.sort(samples))

    log_grid = np.linspace(math.log(0.01 / mean), math.log(100.0 / mean), _GRID_POINTS)
    ks_grid = ks_at.grid(np.array([math.exp(g) for g in log_grid]))
    best = int(np.argmin(ks_grid))
    lo = log_grid[max(best - 1, 0)]
    hi = log_grid[min(best + 1, _GRID_POINTS - 1)]

    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = ks_at.at(math.exp(c))
    fd = ks_at.at(math.exp(d))
    for _ in range(_GOLDEN_STEPS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = ks_at.at(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = ks_at.at(math.exp(d))
    log_rate, ks = (c, fc) if fc <= fd else (d, fd)

    grid_best = float(ks_grid[best])
    if grid_best < ks:  # never return worse than the raw grid
        log_rate, ks = log_grid[best], grid_best
    return ExponentialFit(rate=math.exp(log_rate), ks_distance=float(ks))


def rescaled_ranks(rank_men: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Divide each man's rank by his fitness (competitiveness rescaling)."""
    rank_men = np.asarray(rank_men, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if rank_men.shape != phi.shape:
        raise ShapeMismatch(
            f"ranks {rank_men.shape} and fitness {phi.shape} must align"
        )
    return rank_men / phi


def value_law_sample(
    value_men: np.ndarray, value_women: np.ndarray
) -> tuple[np.ndarray, float]:
    """Finite-n form of the value law: the sample ``u`` and its rate ``S_y``.

    With ``u_i = 1 - exp(-x_i)`` and ``v_j = 1 - exp(-y_j)``, a pair (i, j)
    of unit-rate cells fails to block with probability ``1 - u_i * v_j``.
    Each ``u_i`` is Uniform(0, 1) a priori, so given the women's values a
    man's ``u`` in a stable matching has density proportional to
    ``prod_j (1 - u v_j) ~ exp(-u S_y)`` with ``S_y = sum_j v_j``: ``u`` is
    approximately ``Exp(S_y)``.  The first-order form (raw ``x`` against
    ``Exp(||y_delta||_1)``) is off by O(1/ln n) on the receiving side, whose
    values are about 1/ln n, and that error does not shrink with n.

    Assumptions: the blocking probability above is exact for unit-rate cells
    (the uniform balanced market).  In C-bounded markets the cell rates
    differ from 1, and there the fit is only measured, not proven.  The paper's abstract
    does not say whether its rate is ``||y_delta||_1`` at fixed delta; ``S_y``
    sums over every woman, with no truncation.
    """
    u = -np.expm1(-np.asarray(value_men, dtype=np.float64))
    v = -np.expm1(-np.asarray(value_women, dtype=np.float64))
    return u, float(v.sum())


def hyperbola_product(x_delta: np.ndarray, y_delta: np.ndarray, n: int) -> float:
    """||x||_1 * ||y||_1 / n — near 1 when values sit on the stable hyperbola."""
    if n < 1:
        raise ValueError("n must be positive")
    x_delta = np.asarray(x_delta, dtype=np.float64)
    y_delta = np.asarray(y_delta, dtype=np.float64)
    return float(np.abs(x_delta).sum() * np.abs(y_delta).sum() / n)


def eig_dispersion(e: np.ndarray, zeta: float) -> tuple[float, float]:
    """How far ``e = M @ y`` is from a constant vector.

    Returns (t_star, violating_fraction) with t_star the median of e and the
    fraction of coordinates where |e_i - t_star| >= sqrt(zeta) * t_star.
    The caller forms the product (``BalancedMarket.mutual_matmul`` does it
    from the fitness factors and the balance's kernel products, for several
    y in one pass).
    """
    if zeta <= 0.0:
        raise ValueError("zeta must be positive")
    e = np.asarray(e, dtype=np.float64).ravel()
    if e.size == 0:
        raise EmptySample("eig_dispersion needs at least one coordinate")
    # np.median to the bit (the mean of the middle one or two, NaN if e has
    # one), without the numpy.ma import of its NaN check (15 ms, 1.2 MB).
    half = e.size // 2
    middle = [half] if e.size % 2 else [half - 1, half]
    part = np.partition(e, middle + [e.size - 1])  # NaN sorts last
    t_star = math.nan if np.isnan(part[-1]) else float(np.mean(part[middle]))
    violating = float(np.mean(np.abs(e - t_star) >= math.sqrt(zeta) * t_star))
    return t_star, violating


def rank_value_ratio_report(
    outcome: MatchingOutcome, phi: np.ndarray, theta: float
) -> float:
    """Fraction of matched men whose rank disagrees with value * fitness.

    For a matched man the rank should be roughly x_i * phi_i (his value times
    the total score mass pointing at him); reports the fraction off by more
    than theta relative.
    """
    if theta <= 0.0:
        raise ValueError("theta must be positive")
    phi = np.asarray(phi, dtype=np.float64)
    sup = np.nonzero(outcome.rank_men > 0)[0]
    if sup.size == 0:
        return 0.0
    ratio = outcome.rank_men[sup] / (outcome.value_men[sup] * phi[sup])
    return float(np.mean(np.abs(ratio - 1.0) > theta))
