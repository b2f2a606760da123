"""Seeded sampling of latent values.

Latent values follow the logit model: man i's value for woman j is
``X[i, j] ~ Exp(A[i, j])`` with A the balanced scores, drawn from the per-cell
stream keyed by (seed, "X", i, j); lower values are better.  The rates come
in factored form, ``A[i, j] = phi[i] * a_hat[i, j]``, and are multiplied out
one block at a time inside the draw.  Sorting a row of values yields exactly
the sequential choice distribution of the multinomial logit, so the values
are the only representation of preferences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateValue, ShapeMismatch
from .market import BalancedMarket, CanonicalMarket, sinkhorn_balance
from .rng import exponentials, map_row_blocks, stream_key


def _check_rows_tie_free(name: str, values: np.ndarray) -> None:
    # One sort per row block serves every test: NaN sorts last, so the last
    # column catches non-finite values and the first column non-positive ones.
    def check_rows(blocks):
        for rows in blocks:
            ordered = np.sort(values[rows], axis=1)
            if not ((ordered[:, 0] > 0.0).all() and (ordered[:, -1] < np.inf).all()):
                raise DuplicateValue(f"non-finite or non-positive {name} value drawn; reseed")
            if (ordered[:, 1:] == ordered[:, :-1]).any():
                raise DuplicateValue(f"tied {name} values drawn (probability-zero event); reseed")

    map_row_blocks(check_rows, *values.shape)


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

    @classmethod
    def _screened(cls, X: np.ndarray, Y: np.ndarray) -> LatentValues:
        """Values derived from screened rows, built without screening them again.

        For views of a checked draw and for rows extended by values that are
        distinct and above every value already in the row: each row is then
        still a strict order.  Fresh values go through the constructor.
        """
        values = object.__new__(cls)
        object.__setattr__(values, "X", X)
        object.__setattr__(values, "Y", Y)
        return values


def latent_rates(
    market: BalancedMarket | CanonicalMarket,
) -> tuple[tuple[np.ndarray, np.ndarray | None], tuple[np.ndarray, np.ndarray | None]]:
    """Rates of the men's and the women's values in ``market``, as (rates, scale).

    Row i of a side's rates is ``scale[i] * rates[i]``; a None scale leaves
    the rates as they are.  Balanced rates, in their factored form, when the
    market is balanced or square.  An off-square market has no balanced form
    and uses its canonical rates: preferences depend only on within-row rate
    ratios, so the preference law is the same.
    """
    if isinstance(market, CanonicalMarket):
        if not market.is_square:
            return (market.a_hat, None), (market.b_hat, None)
        market = sinkhorn_balance(market)
    return (market.a_hat, market.phi), (market.b_hat, market.psi)


def sample_latent(market: BalancedMarket | CanonicalMarket, seed: int) -> LatentValues:
    """Draw one matrix of values per side from per-cell streams of ``seed``."""
    (rates_men, phi), (rates_women, psi) = latent_rates(market)
    return LatentValues(
        X=exponentials(stream_key(seed, "X"), rates_men, scale=phi),
        Y=exponentials(stream_key(seed, "Y"), rates_women, scale=psi),
    )
