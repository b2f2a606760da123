"""Exact small-market laws: the draw path from rates to matchings, checked in law.

The logit model's order law is Plackett-Luce, so at n <= 3 the law of every
quantity the gate samples is a finite sum over profiles of strict orders
(``oracles.exact_laws``).  The G-tests compare the program's draw,
``latent_streams``, followed by enumeration of the held matrices and deferred
acceptance on the men's tables against those laws on three 3 x 3
markets.  N and the level were fixed before any run: 10,000 draws per
market, and a family-wise level of 1e-3 over the six tests (Bonferroni), so
each test rejects at p < 1e-3 / 6.
"""

from fractions import Fraction

import numpy as np
import pytest

from mml.market import public_scores_market, sinkhorn_balance, uniform_market
from mml.matching import Matching, Side, deferred_acceptance, enumerate_stable, proposer_tables
from mml.rng import stream_key
from mml.sampling import latent_streams
from oracles import (
    exact_laws, g_test, held_deferred_acceptance, is_stable, profile_probabilities,
    profile_table, random_cbounded_market, values_from_prefs,
)

DRAWS = 10_000
FAMILY_ALPHA = 1e-3
TESTS = 6

MARKETS = {
    "uniform": lambda: uniform_market(3),
    "cbounded": lambda: random_cbounded_market(3, 3.0, 44),
    "public_scores": lambda: public_scores_market([1 / 3, 1.0, 3.0], [3.0, 1.0, 1 / 3]),
}


def profile_values(table, p):
    """The profile's orders as values: each agent's k-th choice gets value k + 1."""
    return values_from_prefs(table.orders[table.men[p]], table.orders[table.women[p]])


# --- the oracle checks itself -----------------------------------------------------


def test_stable_sets_agree_with_the_package_on_every_two_by_two_profile():
    table = profile_table(2)
    assert len(table.men) == 16
    matchings = [Matching(mu=tuple(int(w) for w in order), n_women=2) for order in table.orders]
    for p in range(len(table.men)):
        values = profile_values(table, p)
        stable = [m for m, ok in zip(matchings, table.stable[p]) if ok]
        assert [is_stable(m, values) for m in matchings] == table.stable[p].tolist()
        assert enumerate_stable(values.X, values.Y) == stable
        assert held_deferred_acceptance(values, Side.MEN)[0] == matchings[table.mosm[p]]


def test_stable_sets_agree_with_the_package_on_sampled_three_by_three_profiles():
    table = profile_table(3)
    assert len(table.men) == 46_656
    matchings = [Matching(mu=tuple(int(w) for w in order), n_women=3) for order in table.orders]
    for p in np.random.default_rng(2103).choice(len(table.men), 300, replace=False):
        values = profile_values(table, p)
        stable = [m for m, ok in zip(matchings, table.stable[p]) if ok]
        assert enumerate_stable(values.X, values.Y) == stable
        assert held_deferred_acceptance(values, Side.MEN)[0] == matchings[table.mosm[p]]


@pytest.mark.parametrize("name", MARKETS)
def test_profile_probabilities_sum_to_one(name):
    bal = sinkhorn_balance(MARKETS[name]())
    assert abs(profile_probabilities(bal, profile_table(3)).sum() - 1.0) <= 1e-12


# --- exact values -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n, mean",
    [(1, Fraction(1)), (2, Fraction(9, 8)), (3, Fraction(60_324, 46_656))],
)
def test_uniform_mean_stable_count(n, mean):
    count_law, _ = exact_laws(sinkhorn_balance(uniform_market(n)))
    assert abs(float(count_law @ np.arange(count_law.size)) - float(mean)) <= 1e-12


def test_the_uniform_man_optimal_matching_is_uniform():
    _, mosm_law = exact_laws(sinkhorn_balance(uniform_market(3)))
    np.testing.assert_allclose(mosm_law, 1.0 / 6.0, rtol=0.0, atol=1e-12)


# --- sampled draws against the exact laws -----------------------------------------


@pytest.fixture(scope="module", params=list(MARKETS))
def drawn(request):
    """One market's exact laws and the histograms of DRAWS sampled draws."""
    bal = sinkhorn_balance(MARKETS[request.param]())
    count_law, mosm_law = exact_laws(bal)
    index = {tuple(int(w) for w in order): k for k, order in enumerate(profile_table(3).orders)}
    counts = np.zeros(count_law.size, dtype=np.int64)
    mosm = np.zeros(mosm_law.size, dtype=np.int64)
    seed = stream_key("exact_laws", request.param)
    for d in range(DRAWS):
        x, y = latent_streams(bal, stream_key(seed, d))
        counts[len(enumerate_stable(x.matrix(), y.matrix()))] += 1
        mosm[index[deferred_acceptance(proposer_tables(x, y)[0], Side.MEN)[0].mu]] += 1
    return request.param, (counts, count_law), (mosm, mosm_law)


def assert_fits(name, statistic, observed, law):
    # The G statistic is chi-square only with enough expected counts per cell.
    assert (DRAWS * law[law > 0.0]).min() >= 5.0
    g, df, p_value = g_test(observed, law)
    print(f"{name} {statistic}: G = {g:.2f}, df {df}, p = {p_value:.3g}")
    assert p_value >= FAMILY_ALPHA / TESTS, (name, statistic, g, observed, DRAWS * law)


def test_stable_count_follows_the_exact_law(drawn):
    name, (observed, law), _ = drawn
    assert_fits(name, "stable count", observed, law)


def test_man_optimal_matching_follows_the_exact_law(drawn):
    name, _, (observed, law) = drawn
    assert_fits(name, "man-optimal matching", observed, law)


def test_g_test_rejects_a_wrong_law():
    law = np.array([0.5, 0.5])
    assert g_test([500, 500], law)[2] == 1.0
    assert g_test([100] * 6, np.full(6, 1 / 6))[2] == 1.0
    g, df, p_value = g_test([600, 400], law)
    assert df == 1 and g > 40.0 and p_value < 1e-9
    assert g_test([1, 2, 3], np.array([0.5, 0.5, 0.0]))[0] == float("inf")
    with pytest.raises(ValueError, match="shape"):
        g_test([1, 2], law[:1])


def test_every_profile_has_a_stable_man_optimal_matching():
    table = profile_table(3)
    assert table.stable[np.arange(len(table.men)), table.mosm].all()
