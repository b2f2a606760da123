"""Latent-value sampling, its screen, and the sequential-logit cross-check."""

import numpy as np
import pytest

from mml.errors import DuplicateValue, ShapeMismatch
from mml.market import CanonicalMarket, sinkhorn_balance, uniform_market
from mml.rng import exponentials, stream_key
from mml.sampling import LatentValues, sample_latent
from oracles import logit_sample_prefs

CHI2_99_DF2 = 9.210
CHI2_99_DF5 = 15.086


def skewed_market():
    a = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    b = np.full((3, 3), 1.0 / 3.0)
    return sinkhorn_balance(CanonicalMarket(a, b))


def test_tied_values_are_rejected():
    x = np.array([[0.3, 0.3], [0.1, 0.2]])
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DuplicateValue):
        LatentValues(X=x, Y=y)
    with pytest.raises(DuplicateValue):
        LatentValues(X=y, Y=x)


def test_nonpositive_and_nonfinite_values_are_rejected():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    for bad in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(DuplicateValue):
            LatentValues(X=np.array([[bad, 1.0], [1.0, 2.0]]), Y=y)
        with pytest.raises(DuplicateValue):
            LatentValues(X=y, Y=np.array([[1.0, 2.0], [3.0, bad]]))


def test_latent_values_shape_validation():
    with pytest.raises(ShapeMismatch):
        LatentValues(X=np.ones((2, 3)), Y=np.ones((2, 3)))
    with pytest.raises(ShapeMismatch):
        LatentValues(X=np.ones(3), Y=np.ones(3))
    values = LatentValues(X=np.array([[1.0, 2.0, 3.0]]), Y=np.ones((3, 1)))
    assert values.X.shape == (1, 3)


def test_sample_latent_streams_and_determinism():
    bal = sinkhorn_balance(uniform_market(5))
    values = sample_latent(bal, seed=31)
    np.testing.assert_array_equal(values.X, exponentials(stream_key(31, "X"), bal.A))
    np.testing.assert_array_equal(values.Y, exponentials(stream_key(31, "Y"), bal.B))
    again = sample_latent(bal, seed=31)
    np.testing.assert_array_equal(values.X, again.X)
    assert not np.array_equal(values.X, sample_latent(bal, seed=32).X)


def test_top_choice_frequencies_follow_scores():
    # P(woman j is man 0's favorite) equals the canonical score a_hat[0, j]:
    # the minimum of independent exponentials lands on each cell with
    # probability proportional to its rate.
    bal = skewed_market()
    n_draws = 3000
    counts = np.zeros(3)
    for s in range(n_draws):
        values = sample_latent(bal, seed=s)
        counts[int(np.argmin(values.X[0]))] += 1
    expected = n_draws * np.array([0.5, 0.3, 0.2])
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_99_DF2, f"chi2 = {chi2:.2f}, counts = {counts}"


def test_logit_route_matches_sequential_choice_law():
    # Full ranking law for man 0 with scores (0.5, 0.3, 0.2): the sequential
    # logit probabilities of the six orders.
    bal = skewed_market()
    s_vec = {0: 0.5, 1: 0.3, 2: 0.2}
    orders = {}
    for j1 in range(3):
        for j2 in range(3):
            if j2 == j1:
                continue
            j3 = 3 - j1 - j2
            rest = s_vec[j2] + s_vec[j3]
            orders[(j1, j2, j3)] = s_vec[j1] * (s_vec[j2] / rest)

    n_draws = 3000
    counts = dict.fromkeys(orders, 0)
    for s in range(n_draws):
        men, _ = logit_sample_prefs(bal, seed=s)
        counts[tuple(int(v) for v in men[0])] += 1
    chi2 = sum(
        (counts[o] - n_draws * p) ** 2 / (n_draws * p) for o, p in orders.items()
    )
    assert chi2 < CHI2_99_DF5, f"chi2 = {chi2:.2f}, counts = {counts}"


def test_logit_route_is_deterministic_and_valid():
    bal = skewed_market()
    men1, women1 = logit_sample_prefs(bal, seed=4)
    men2, women2 = logit_sample_prefs(bal, seed=4)
    np.testing.assert_array_equal(men1, men2)
    np.testing.assert_array_equal(women1, women2)
    # Every row is a permutation.
    for row in np.vstack([men1, women1]):
        assert sorted(row) == [0, 1, 2]


def test_two_routes_agree_on_top_choice_distribution():
    bal = skewed_market()
    n_draws = 2000
    counts_latent = np.zeros(3)
    counts_logit = np.zeros(3)
    for s in range(n_draws):
        counts_latent[int(np.argmin(sample_latent(bal, seed=s).X[0]))] += 1
        counts_logit[int(logit_sample_prefs(bal, seed=s)[0][0][0])] += 1
    # Two-sample chi-square on 3 cells, df = 2.
    total = counts_latent + counts_logit
    expected = total / 2.0
    chi2 = float(
        ((counts_latent - expected) ** 2 / expected).sum()
        + ((counts_logit - expected) ** 2 / expected).sum()
    )
    assert chi2 < CHI2_99_DF2, f"chi2 = {chi2:.2f}"
