"""Closed-form stability likelihoods and concentration bounds.

``p_mu`` is the exact probability that a given matching is stable conditional
on the matched values: each unmatched pair (i, j) fails to block unless both
X_ij < x_i and Y_ji < y_j, independently across cells.  ``q_xy`` is its
small-value approximation exp(-n x' M y), and ``naive_p_upper`` the crude
bound obtained by pushing every rate to the contiguity extreme.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NotNormalized
from .matching import Matching

_WEIGHT_SUM_TOL = 1e-9


def _masked_log1p_sum(t: np.ndarray, mu: Matching) -> float:
    # t[i, j] = (1 - e^{-a x_i})(1 - e^{-b y_j}); matched cells contribute 1.
    terms = np.log1p(-t)
    mu_arr = mu.mu_array
    sup = np.nonzero(mu_arr >= 0)[0]
    if sup.size:
        terms[sup, mu_arr[sup]] = 0.0
    return float(terms.sum())


def p_mu(
    x: np.ndarray, y: np.ndarray, A: np.ndarray, B: np.ndarray, mu: Matching
) -> float:
    """Probability that matching ``mu`` is stable given the matched values.

    ``x`` and ``y`` are per-agent value vectors (zeros off support; off-support
    agents contribute factors of 1).  Computed in log space, so products of
    thousands of near-one factors stay exact to machine precision.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # expm1(-a x_i) * expm1(-b y_j) = (1 - e^{-a x_i})(1 - e^{-b y_j}) >= 0
    t = np.expm1(-np.asarray(A) * x[:, None]) * np.expm1(-np.asarray(B).T * y[None, :])
    return math.exp(_masked_log1p_sum(t, mu))


def q_xy(x: np.ndarray, y: np.ndarray, M: np.ndarray) -> float:
    """Small-value surrogate exp(-n * x' M y) for the stability probability."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    return math.exp(-float(n) * float(np.asarray(x) @ M @ np.asarray(y)))


def naive_p_upper(
    x: np.ndarray,
    y: np.ndarray,
    mu: Matching,
    A: np.ndarray,
    B: np.ndarray,
    C: float,
) -> float:
    """Upper bound on p_mu with every cross rate slowed to its 1/C^2 extreme.

    Uses the matched-pair rates to normalize the values (x_hat_i = x_i * a_{i, mu(i)}),
    then treats every unmatched cell as if its rates were at the contiguity floor.
    Equals p_mu exactly for the uniform market (C = 1).
    """
    if C < 1.0:
        raise ValueError("contiguity constant must be >= 1")
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu_arr = mu.mu_array
    inv = mu.inverse()

    x_hat = np.zeros_like(x)
    sup_m = np.nonzero(mu_arr >= 0)[0]
    x_hat[sup_m] = x[sup_m] * A[sup_m, mu_arr[sup_m]]
    y_hat = np.zeros_like(y)
    sup_w = np.nonzero(inv >= 0)[0]
    y_hat[sup_w] = y[sup_w] * B[sup_w, inv[sup_w]]

    c2 = C * C
    t = np.expm1(-x_hat / c2)[:, None] * np.expm1(-y_hat / c2)[None, :]
    return math.exp(_masked_log1p_sum(t, mu))


def chernoff_lower_tail(u: np.ndarray, t: float) -> float:
    """Bound P(sum u_i Z_i <= t n) for unit exponentials Z and weights with sum n.

    Returns min(1, (t e^{1-t})^n * prod(1 / u_i)); for t >= 1 the bound is
    trivially 1.  Weights must be positive with ||u||_1 = n within 1e-9.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        raise ValueError("weights must be strictly positive")
    n = u.size
    if abs(float(u.sum()) - n) > _WEIGHT_SUM_TOL:
        raise NotNormalized(
            f"weights must sum to n = {n} within {_WEIGHT_SUM_TOL:g}, got {float(u.sum())!r}"
        )
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if t >= 1.0:
        return 1.0
    if t == 0.0:
        return 0.0
    log_bound = n * (math.log(t) + 1.0 - t) - float(np.log(u).sum())
    return 1.0 if log_bound >= 0.0 else math.exp(log_bound)
