"""The proofs' closed forms and bounds (``tests/oracles.py``), which criteria 8 and 9 read."""

import math

import numpy as np
import pytest

from mml.errors import NotNormalized
from mml.market import sinkhorn_balance, uniform_market
from mml.matching import Matching, Side, truncate_delta
from oracles import (
    chernoff_lower_tail, dkw_bound, held_deferred_acceptance, naive_p_upper, p_mu, q_xy,
    random_cbounded_market, sample_latent,
)


def random_instance(n, seed, c=2.0):
    bal = sinkhorn_balance(random_cbounded_market(n, c, seed))
    rng = np.random.default_rng(seed)
    x = rng.exponential(0.5 / n, n)
    y = rng.exponential(0.5 / n, n)
    mu = Matching(mu=tuple(int(v) for v in rng.permutation(n)), n_women=n)
    return bal, x, y, mu


# --- p_mu -----------------------------------------------------------------------


def test_p_mu_zero_values_are_certainly_stable():
    bal, _, y, mu = random_instance(4, seed=1)
    assert p_mu(np.zeros(4), np.zeros(4), bal.A, bal.B, mu) == 1.0
    # One side at zero is not enough: the other side's factor can still bite.
    assert p_mu(np.zeros(4), y, bal.A, bal.B, mu) == 1.0


def test_p_mu_two_by_two_hand_value():
    # Uniform 2x2 has balanced rates A = B = 1.  At x = y = ln 2 each
    # e^{-x} = 1/2, so both off-diagonal factors are 1 - 1/4.
    bal = sinkhorn_balance(uniform_market(2))
    mu = Matching(mu=(0, 1), n_women=2)
    val = math.log(2.0)
    p = p_mu(np.full(2, val), np.full(2, val), bal.A, bal.B, mu)
    assert p == pytest.approx(0.5625, rel=1e-12)


def test_p_mu_matches_direct_product():
    for seed in range(8):
        bal, x, y, mu = random_instance(5, seed=seed)
        direct = 1.0
        for i in range(5):
            for j in range(5):
                if mu.mu[i] == j:
                    continue
                fac = 1.0 - (1.0 - math.exp(-bal.A[i, j] * x[i])) * (
                    1.0 - math.exp(-bal.B[j, i] * y[j])
                )
                direct *= fac
        assert p_mu(x, y, bal.A, bal.B, mu) == pytest.approx(direct, rel=1e-12)


def test_p_mu_partial_matching_skips_unmatched():
    bal, x, y, _ = random_instance(3, seed=3)
    partial = Matching(mu=(1, -1, 0), n_women=3)
    # Unmatched agents carry value 0, hence factors of 1.
    x = x.copy(); y = y.copy()
    x[1] = 0.0
    y[2] = 0.0
    direct = 1.0
    for i in (0, 2):
        for j in range(3):
            if partial.mu[i] == j:
                continue
            direct *= 1.0 - (1.0 - math.exp(-bal.A[i, j] * x[i])) * (
                1.0 - math.exp(-bal.B[j, i] * y[j])
            )
    assert p_mu(x, y, bal.A, bal.B, partial) == pytest.approx(direct, rel=1e-12)


# --- q_xy -----------------------------------------------------------------------


def test_q_xy_hand_values():
    M = np.full((2, 2), 0.5)
    assert q_xy(np.zeros(2), np.ones(2), M) == 1.0
    # x' M y = 0.5 at x = y = (0.5, 0.5), so q = exp(-2 * 0.5).
    assert q_xy(np.full(2, 0.5), np.full(2, 0.5), M) == pytest.approx(math.exp(-1.0))


def test_q_xy_dominates_the_unmatched_exponent():
    # n x'My sums a_ij b_ji x_i y_j over *all* cells; dropping the matched
    # diagonal only shrinks the exponent, so q <= exp(-sum over unmatched).
    for seed in range(6):
        bal, x, y, mu = random_instance(6, seed=100 + seed)
        rates = bal.A * bal.B.T  # a_ij * b_ji
        full = float(rates @ y @ x)  # == sum_ij rates[i,j] x_i y_j
        off = full - sum(
            rates[i, mu.mu[i]] * x[i] * y[mu.mu[i]] for i in range(6) if mu.mu[i] >= 0
        )
        assert q_xy(x, y, bal.M) <= math.exp(-off) + 1e-15


def test_log_q_tracks_log_p_on_stable_outcomes():
    # On delta-truncated stable outcomes of the uniform market the two
    # log-likelihoods differ by O(n / sqrt(log n)); the constant below was
    # calibrated on this fixed seed set (observed max 0.502).
    n = 500
    bal = sinkhorn_balance(uniform_market(n))
    scale = n / math.sqrt(math.log(n))
    for seed in range(6):
        values = sample_latent(bal, seed)
        for side in (Side.MEN, Side.WOMEN):
            mu, outcome = held_deferred_acceptance(values, proposing_side=side)
            # Dropped agents have value 0, so they contribute factors of 1.
            x_d, y_d = truncate_delta(mu, outcome, 0.05)
            lp = math.log(p_mu(x_d, y_d, bal.A, bal.B, mu))
            lq = math.log(q_xy(x_d, y_d, bal.M))
            assert abs(lp - lq) <= 0.55 * scale


# --- naive upper bound ------------------------------------------------------------


def test_naive_upper_equals_p_mu_for_uniform_market():
    bal = sinkhorn_balance(uniform_market(5))
    rng = np.random.default_rng(9)
    x = rng.exponential(0.1, 5)
    y = rng.exponential(0.1, 5)
    mu = Matching(mu=(2, 0, 4, 1, 3), n_women=5)
    p = p_mu(x, y, bal.A, bal.B, mu)
    assert naive_p_upper(x, y, mu, bal.A, bal.B, 1.0) == pytest.approx(p, rel=1e-12)


def test_naive_upper_dominates_p_mu():
    for seed in range(40):
        bal, x, y, mu = random_instance(6, seed=200 + seed, c=2.5)
        p = p_mu(x, y, bal.A, bal.B, mu)
        upper = naive_p_upper(x, y, mu, bal.A, bal.B, bal.c_bound)
        assert upper >= p - 1e-15
    assert naive_p_upper(np.zeros(6), np.zeros(6), mu, bal.A, bal.B, 2.0) == 1.0


def test_naive_upper_validates_c():
    bal, x, y, mu = random_instance(3, seed=4)
    with pytest.raises(ValueError):
        naive_p_upper(x, y, mu, bal.A, bal.B, 0.9)


# --- Chernoff lower tail ----------------------------------------------------------


def test_chernoff_power_form():
    u = np.ones(50)
    expected = math.exp(50.0 * (math.log(0.1) + 0.9))  # (0.1 e^{0.9})^50
    assert chernoff_lower_tail(u, 0.1) == pytest.approx(expected, rel=1e-12)
    assert expected < 1e-30


def test_chernoff_trivial_regimes():
    u = np.ones(10)
    assert chernoff_lower_tail(u, 1.0) == 1.0
    assert chernoff_lower_tail(u, 7.3) == 1.0
    assert chernoff_lower_tail(u, 0.0) == 0.0
    # Clamped at 1 when the product of inverse weights outweighs the power.
    weights = np.concatenate([np.full(9, 0.1), [9.1]])
    assert chernoff_lower_tail(weights, 0.99) == 1.0


def test_chernoff_validation():
    with pytest.raises(NotNormalized):
        chernoff_lower_tail(np.ones(5) * 1.5, 0.3)
    with pytest.raises(ValueError):
        chernoff_lower_tail(np.array([2.0, -1.0, 2.0]), 0.3)
    with pytest.raises(ValueError):
        chernoff_lower_tail(np.ones(4), -0.1)


def test_chernoff_bound_holds_in_simulation():
    rng = np.random.default_rng(15)
    u = rng.uniform(0.5, 2.0, 6)
    u *= 6.0 / u.sum()
    z = rng.exponential(1.0, (20_000, 6))
    for t in (0.2, 0.4):
        empirical = float(np.mean(z @ u <= t * 6.0))
        assert empirical <= chernoff_lower_tail(u, t)


# --- DKW-style bound ------------------------------------------------------------


def test_dkw_bound_frozen_value():
    # 2 n eps^2 / 9 = 2 at n = 9, eps = 1.
    assert dkw_bound(9, 0.5, 1.0) == pytest.approx(4.0 * math.exp(-2.0), rel=1e-15)
    assert dkw_bound(9, 0.0, 1.0) == dkw_bound(9, 0.9, 1.0)  # delta shifts the event


def test_dkw_bound_monotonicity_and_validation():
    assert dkw_bound(200, 0.02, 0.2) < dkw_bound(100, 0.02, 0.2)
    assert dkw_bound(100, 0.02, 0.3) < dkw_bound(100, 0.02, 0.2)
    with pytest.raises(ValueError):
        dkw_bound(0, 0.02, 0.1)
    with pytest.raises(ValueError):
        dkw_bound(10, -0.1, 0.1)
    with pytest.raises(ValueError):
        dkw_bound(10, 0.1, 0.0)
