"""Seeded sampling of latent values.

Latent values follow the logit model: man i's value for woman j is
``X[i, j] ~ Exp(A[i, j])`` with A the balanced scores, drawn from the per-cell
stream keyed by (seed, "X", i, j); lower values are better.  Sorting a row of
values yields exactly the sequential choice distribution of the multinomial
logit, so the values are the only representation of preferences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateValue, ShapeMismatch
from .market import BalancedMarket, CanonicalMarket, sinkhorn_balance
from .rng import exponentials, stream_key


def _check_rows_tie_free(name: str, values: np.ndarray) -> None:
    # One sort serves every test: NaN sorts last, so the last column catches
    # non-finite values and the first column non-positive ones.
    ordered = np.sort(values, axis=1)
    if not ((ordered[:, 0] > 0.0).all() and (ordered[:, -1] < np.inf).all()):
        raise DuplicateValue(f"non-finite or non-positive {name} value drawn; reseed")
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise DuplicateValue(f"tied {name} values drawn (probability-zero event); reseed")


@dataclass(frozen=True)
class LatentValues:
    """Realized values for one market draw; X is men's, Y is women's.

    ``X[i, j]`` is man i's value for woman j (rate ``A[i, j]``), ``Y[j, i]``
    woman j's value for man i (rate ``B[j, i]``).  Man i prefers j1 to j2 iff
    ``X[i, j1] < X[i, j2]``.  Construction rejects mismatched shapes and
    non-finite, non-positive or tied values, so every row is a strict order.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x, y = self.X, self.Y
        if x.ndim != 2 or y.shape != x.shape[::-1]:
            raise ShapeMismatch(
                f"value matrices must have transposed shapes, got {x.shape} and {y.shape}"
            )
        _check_rows_tie_free("X", x)
        _check_rows_tie_free("Y", y)


def latent_rates(market: BalancedMarket | CanonicalMarket) -> tuple[np.ndarray, np.ndarray]:
    """Rates of the men's and the women's values in ``market``.

    Balanced rates when the market is balanced or square.  An off-square
    market has no balanced form and uses its canonical rates: preferences
    depend only on within-row rate ratios, so the preference law is the same.
    """
    if isinstance(market, CanonicalMarket):
        if not market.is_square:
            return market.a_hat, market.b_hat
        market = sinkhorn_balance(market)
    return market.A, market.B


def sample_latent(market: BalancedMarket | CanonicalMarket, seed: int) -> LatentValues:
    """Draw one matrix of values per side from per-cell streams of ``seed``."""
    rates_men, rates_women = latent_rates(market)
    return LatentValues(
        X=exponentials(stream_key(seed, "X"), rates_men),
        Y=exponentials(stream_key(seed, "Y"), rates_women),
    )
