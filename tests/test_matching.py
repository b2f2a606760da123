"""Deferred acceptance, exhaustive enumeration, truncation, and certificates.

The enumeration tests lean on a permutation brute force as the oracle; DA
output is checked against the enumeration (membership and optimality) rather
than against frozen matchings, so the tests pin the semantics, not one run.
DA on values is also checked, matching and proposal count, against DA on
explicit preference lists (``tests/oracles.py``), on small markets and on
correlated ones whose walks run past the presorted top-L.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml import sampling as sampling_module
from mml.errors import DeltaOutOfRange, ShapeMismatch, TooLarge
from mml.market import sinkhorn_balance, uniform_market
from mml.matching import (
    ENUMERATION_LIMIT,
    Matching,
    MatchingOutcome,
    Side,
    check_enumerable,
    enumerate_stable,
    peel_blocking_pairs,
    truncate_delta,
)
from mml.sampling import TOP_L
from oracles import (
    LatentValues,
    blocking_mask,
    greedy_alpha_certificate,
    held_deferred_acceptance,
    is_alpha_stable_exact,
    is_stable,
    list_deferred_acceptance,
    loop_truncate_delta,
    outcome_of,
    prefs_from_values,
    random_cbounded_market,
    rebuilt_alpha_certificate,
    sample_latent,
    values_from_prefs,
)


def draw_instance(n, seed, c=2.0, n_women=None):
    if n_women is None:
        return sample_latent(sinkhorn_balance(random_cbounded_market(n, c, seed)), seed)
    rng = np.random.default_rng(seed)
    x = rng.exponential(1.0, (n, n_women))
    y = rng.exponential(1.0, (n_women, n))
    return LatentValues(X=x, Y=y)


def matched_count(mu):
    return sum(1 for j in mu.mu if j >= 0)


def blocking_pairs(mu, values, count_unmatched_agents=False):
    mask = blocking_mask(values.X, values.Y, mu.mu_array, count_unmatched_agents)
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


def brute_force_stable(values):
    n_men, n_women = values.X.shape
    out = []
    for women in itertools.permutations(range(n_women), n_men):
        mu = Matching(mu=women, n_women=n_women)
        if is_stable(mu, values, count_unmatched_agents=True):
            out.append(mu)
    return out


# --- Matching container -------------------------------------------------------


def test_matching_validation():
    with pytest.raises(ShapeMismatch):
        Matching(mu=(0, 0), n_women=2)
    with pytest.raises(ShapeMismatch):
        Matching(mu=(0, 2), n_women=2)
    with pytest.raises(ShapeMismatch):
        Matching(mu=(-2, 0), n_women=2)


def test_matching_views():
    mu = Matching(mu=(2, -1, 0), n_women=4)
    np.testing.assert_array_equal(mu.mu_array, [2, -1, 0])
    np.testing.assert_array_equal(mu.inverse(), [2, -1, 0, -1])
    assert mu.n_men == 3


def test_matching_text_round_trip():
    mu = Matching(mu=(2, -1, 0), n_women=4)
    assert mu.to_text() == "1 3\n3 1\n"
    assert Matching(mu=(-1, -1), n_women=2).to_text() == ""


@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_matching_text_round_trip_partial(seed, n):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n + 2)[:n]
    mask = rng.random(n) < 0.7
    mu = Matching(
        mu=tuple(int(w) if keep else -1 for w, keep in zip(perm, mask)),
        n_women=n + 2,
    )
    back = [-1] * n
    for line in mu.to_text().splitlines():
        man, woman = (int(tok) for tok in line.split())
        back[man - 1] = woman - 1
    assert tuple(back) == mu.mu


# --- deferred acceptance ------------------------------------------------------


def test_da_single_agent():
    values = LatentValues(X=np.array([[0.5]]), Y=np.array([[0.7]]))
    mu, outcome = held_deferred_acceptance(values)
    assert mu.mu == (0,)
    assert outcome.value_men[0] == 0.5
    assert outcome.rank_men[0] == 1
    assert outcome.proposal_count == 1


def test_da_hand_worked_three_by_three():
    men = np.array([[0, 1, 2], [0, 2, 1], [1, 0, 2]])
    women = np.array([[1, 0, 2], [2, 0, 1], [0, 1, 2]])
    values = values_from_prefs(men, women)

    mu, outcome = held_deferred_acceptance(values)
    assert mu.mu == (2, 0, 1)
    # m0 walks his whole list (w0 prefers m1, w1 upgrades to m2), so 3 + 1 + 1.
    assert outcome.proposal_count == 5
    np.testing.assert_array_equal(outcome.rank_men, [3, 1, 1])

    mu_w, outcome_w = held_deferred_acceptance(values, proposing_side=Side.WOMEN)
    assert mu_w.mu == (2, 0, 1)  # unique stable matching here
    assert outcome_w.proposal_count == 3


@given(
    seed=st.integers(0, 2**32 - 1),
    n_men=st.integers(1, 8),
    n_women=st.integers(1, 8),
    side=st.sampled_from(list(Side)),
)
@settings(max_examples=300, deadline=None)
def test_da_on_values_matches_the_list_oracle(seed, n_men, n_women, side):
    rng = np.random.default_rng(seed)
    values = LatentValues(
        X=rng.exponential(1.0, (n_men, n_women)),
        Y=rng.exponential(1.0, (n_women, n_men)),
    )
    mu, outcome = held_deferred_acceptance(values, proposing_side=side)
    oracle_mu, oracle_proposals = list_deferred_acceptance(*prefs_from_values(values), side)
    assert mu.mu == oracle_mu
    assert outcome.proposal_count == oracle_proposals


def test_deep_walks_match_the_list_oracle():
    # A shared base row plus small noise makes every proposer chase the same
    # few receivers, so walks run past the TOP_L presorted columns and read
    # the full-row fallback.
    deepest = []

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_men=st.integers(TOP_L + 1, 160),
        n_women=st.integers(TOP_L + 1, 160),
        noise=st.sampled_from([1e-3, 0.05, 0.3]),
        side=st.sampled_from(list(Side)),
    )
    @settings(max_examples=40, deadline=None)
    def check(seed, n_men, n_women, noise, side):
        rng = np.random.default_rng(seed)
        values = LatentValues(
            X=1.0 + rng.random(n_women) + noise * rng.random((n_men, n_women)),
            Y=1.0 + rng.random(n_men) + noise * rng.random((n_women, n_men)),
        )
        mu, outcome = held_deferred_acceptance(values, proposing_side=side)
        men_prefs, women_prefs = prefs_from_values(values)
        oracle_mu, oracle_proposals = list_deferred_acceptance(men_prefs, women_prefs, side)
        assert mu.mu == oracle_mu
        assert outcome.proposal_count == oracle_proposals

        # Values and ranks from the oracle's matching and preference lists.
        mu_arr = np.array(oracle_mu)
        men = np.nonzero(mu_arr >= 0)[0]
        women = mu_arr[men]
        value_men = np.zeros(n_men)
        value_men[men] = values.X[men, women]
        value_women = np.zeros(n_women)
        value_women[women] = values.Y[women, men]
        rank_men = np.zeros(n_men, dtype=np.int64)
        rank_men[men] = np.argmax(men_prefs[men] == women[:, None], axis=1) + 1
        np.testing.assert_array_equal(outcome.value_men, value_men)
        np.testing.assert_array_equal(outcome.value_women, value_women)
        np.testing.assert_array_equal(outcome.rank_men, rank_men)

        # A proposer's walk ends at its partner's rank, or covers its row.
        prop_prefs = men_prefs if side is Side.MEN else women_prefs
        partner = mu_arr if side is Side.MEN else Matching(oracle_mu, n_women).inverse()
        depth = np.where(
            partner >= 0,
            np.argmax(prop_prefs == partner[:, None], axis=1) + 1,
            prop_prefs.shape[1],
        )
        deepest.append(int(depth.max()))

    check()
    assert max(deepest) > TOP_L


def test_da_outputs_are_stable():
    for seed in range(50):
        values = draw_instance(n=12, seed=seed)
        for side in (Side.MEN, Side.WOMEN):
            mu, _ = held_deferred_acceptance(values, proposing_side=side)
            assert matched_count(mu) == 12
            assert is_stable(mu, values), f"seed {seed}, side {side}"


def test_da_proposal_count_equals_total_list_walk():
    # Man-proposing DA: each matched man proposes exactly down to his partner,
    # each unmatched man to everyone; the count is order-invariant.
    for seed in range(20):
        values = draw_instance(n=9, seed=100 + seed)
        mu, outcome = held_deferred_acceptance(values)
        assert outcome.proposal_count == int(outcome.rank_men.sum())
    for seed in range(10):
        values = draw_instance(n=4, seed=200 + seed, n_women=6)
        mu, outcome = held_deferred_acceptance(values)
        assert outcome.proposal_count == int(outcome.rank_men.sum())


def test_da_rectangular_long_side_unmatched():
    # 5 women, 3 men, women propose: exactly two women end unmatched and the
    # result is stable even counting them.
    values = draw_instance(n=3, seed=7, n_women=5)
    mu, _ = held_deferred_acceptance(values, proposing_side=Side.WOMEN)
    assert sorted(mu.mu) != [-1, -1, -1]
    assert matched_count(mu) == 3
    assert is_stable(mu, values, count_unmatched_agents=True)


def test_swapping_partners_breaks_stability():
    broken = 0
    for seed in range(100):
        values = draw_instance(n=50, seed=300 + seed)
        mu, _ = held_deferred_acceptance(values)
        arr = list(mu.mu)
        arr[3], arr[17] = arr[17], arr[3]
        if not is_stable(Matching(mu=tuple(arr), n_women=50), values):
            broken += 1
    assert broken >= 95


# --- blocking pairs -----------------------------------------------------------


def test_find_blocking_pairs_hand_case():
    # Identity matching; man 0 and woman 1 strictly prefer each other.
    x = np.array([[0.5, 0.1], [0.9, 0.4]])
    y = np.array([[0.6, 0.2], [0.3, 0.8]])
    mu = Matching(mu=(0, 1), n_women=2)
    values = LatentValues(X=x, Y=y)
    assert blocking_pairs(mu, values) == [(0, 1)]
    assert not is_stable(mu, values)
    assert is_stable(Matching(mu=(1, 0), n_women=2), values)


def test_unmatched_agents_block_only_when_asked():
    x = np.array([[0.5, 0.1], [0.9, 0.4]])
    y = np.array([[0.6, 0.2], [0.3, 0.8]])
    values = LatentValues(X=x, Y=y)
    mu = Matching(mu=(0, -1), n_women=2)  # man 1 and woman 1 unmatched
    assert blocking_pairs(mu, values) == []
    assert is_stable(mu, values)
    pairs = blocking_pairs(mu, values, count_unmatched_agents=True)
    # Woman 0 also prefers the unmatched man 1 (0.2 < 0.6), so (1, 0) blocks.
    assert set(pairs) == {(0, 1), (1, 0), (1, 1)}
    assert not is_stable(mu, values, count_unmatched_agents=True)


# --- enumeration --------------------------------------------------------------


def test_enumeration_matches_brute_force_square():
    for seed in range(40):
        n = 2 + seed % 5
        values = draw_instance(n=n, seed=400 + seed)
        found = enumerate_stable(values.X, values.Y)
        oracle = brute_force_stable(values)
        assert found == sorted(oracle, key=lambda m: m.mu)
        assert [m.mu for m in found] == sorted(m.mu for m in found)


def test_enumeration_matches_brute_force_rectangular():
    for seed in range(15):
        values = draw_instance(n=3, seed=500 + seed, n_women=5)
        found = enumerate_stable(values.X, values.Y)
        oracle = brute_force_stable(values)
        assert sorted(found, key=lambda m: m.mu) == sorted(oracle, key=lambda m: m.mu)
        assert found, "every finite market has a stable matching"


def test_da_endpoints_of_the_enumeration():
    for seed in range(30):
        n = 2 + seed % 6
        values = draw_instance(n=n, seed=600 + seed)
        stable_set = enumerate_stable(values.X, values.Y)
        mosm, out_m = held_deferred_acceptance(values)
        wosm, out_w = held_deferred_acceptance(values, proposing_side=Side.WOMEN)
        assert mosm in stable_set and wosm in stable_set
        for other in stable_set:
            vals = outcome_of(other, values)
            assert (out_m.value_men <= vals.value_men + 1e-15).all()
            assert (out_w.value_men >= vals.value_men - 1e-15).all()


def test_enumeration_limits():
    values = sample_latent(sinkhorn_balance(uniform_market(ENUMERATION_LIMIT + 1)), 0)
    with pytest.raises(TooLarge):
        enumerate_stable(values.X, values.Y)
    values = draw_instance(n=3, seed=1, n_women=2)
    with pytest.raises(ShapeMismatch):
        enumerate_stable(values.X, values.Y)
    # The same refusals, from the shape alone.
    with pytest.raises(TooLarge, match=f"got n = {ENUMERATION_LIMIT + 1}"):
        check_enumerable(ENUMERATION_LIMIT + 1, ENUMERATION_LIMIT + 1)
    with pytest.raises(ShapeMismatch, match="enumeration expects n_men <= n_women"):
        check_enumerable(3, 2)
    check_enumerable(ENUMERATION_LIMIT, ENUMERATION_LIMIT)


# --- outcome_of ---------------------------------------------------------------


def test_outcome_ranks_brute_force():
    rng = np.random.default_rng(12)
    x = rng.exponential(1.0, (6, 6))
    y = rng.exponential(1.0, (6, 6))
    values = LatentValues(X=x, Y=y)
    mu = Matching(mu=(3, 0, 5, 1, -1, 2), n_women=6)
    outcome = outcome_of(mu, values)
    for i, j in enumerate(mu.mu):
        if j < 0:
            assert outcome.value_men[i] == 0.0 and outcome.rank_men[i] == 0
            continue
        assert outcome.value_men[i] == x[i, j]
        assert outcome.rank_men[i] == int((x[i] <= x[i, j]).sum())
    inv = mu.inverse()
    for j, i in enumerate(inv):
        if i < 0:
            assert outcome.value_women[j] == 0.0
            continue
        assert outcome.value_women[j] == y[j, i]


def assert_same_outcome(got, want):
    assert got.proposal_count == want.proposal_count
    for name in ("value_men", "value_women", "rank_men"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("top_l", [TOP_L, 2])
@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize(
    "n_men, n_women", [(1, 1), (6, 6), (90, 90), (4, 9), (9, 4), (70, 83), (83, 70)]
)
def test_da_outcome_on_held_values_is_outcome_of(monkeypatch, top_l, side, n_men, n_women):
    # A width of 2 sends most walks past the presorted lists into deep walks.
    monkeypatch.setattr(sampling_module, "TOP_L", top_l)
    for seed in range(3):
        square = n_men == n_women
        values = draw_instance(n_men, seed, n_women=None if square else n_women)
        mu, outcome = held_deferred_acceptance(values, side)
        assert_same_outcome(outcome, outcome_of(mu, values, outcome.proposal_count))


def test_outcome_shape_validation():
    values = LatentValues(X=np.eye(2) + 1.0, Y=np.eye(2) + 1.0)
    with pytest.raises(ShapeMismatch):
        outcome_of(Matching(mu=(0, 1, 2), n_women=3), values)


# --- truncation ---------------------------------------------------------------


def test_truncate_keeps_exact_counts_hand_case():
    # n = 10, delta = 0.2: drop 2 pairs total -- the worst man (value 10) and
    # the partner of the worst woman (woman 0, value 10, partner man 0).
    n = 10
    # Off-diagonal values are large and distinct: latent values never tie.
    off = 100.0 + np.arange(n * n, dtype=float).reshape(n, n)
    x = np.where(np.eye(n, dtype=bool), np.arange(1.0, n + 1.0)[:, None], off)
    y = np.where(np.eye(n, dtype=bool), (n - np.arange(n, dtype=float))[:, None], off)
    values = LatentValues(X=x, Y=y)
    mu = Matching(mu=tuple(range(n)), n_women=n)
    x_d, y_d = truncate_delta(mu, outcome_of(mu, values), 0.2)
    np.testing.assert_array_equal(np.nonzero(x_d)[0], np.arange(1, 9))
    np.testing.assert_array_equal(np.nonzero(y_d)[0], np.arange(1, 9))
    assert x_d.sum() == pytest.approx(sum(range(2, 10)))
    assert y_d.sum() == pytest.approx(sum(n - j for j in range(1, 9)))
    assert x_d[0] == 0.0 and x_d[9] == 0.0


@given(seed=st.integers(0, 2_000), n=st.integers(2, 30), delta=st.floats(0.01, 0.99))
@settings(max_examples=80, deadline=None)
def test_truncate_size_and_support(seed, n, delta):
    rng = np.random.default_rng(seed)
    values = LatentValues(
        X=rng.exponential(1.0, (n, n)), Y=rng.exponential(1.0, (n, n))
    )
    mu = Matching(mu=tuple(int(v) for v in rng.permutation(n)), n_women=n)
    outcome = outcome_of(mu, values)
    x_d, y_d = truncate_delta(mu, outcome, delta)

    drop = int(delta * n + 1e-9)
    kept_men = np.nonzero(x_d)[0]
    kept_women = mu.mu_array[kept_men]
    assert kept_men.size == n - drop
    # Kept values are the kept pairs' own values; zeros elsewhere.
    np.testing.assert_array_equal(np.nonzero(y_d)[0], np.sort(kept_women))
    np.testing.assert_array_equal(x_d[kept_men], outcome.value_men[kept_men])
    np.testing.assert_array_equal(y_d[kept_women], outcome.value_women[kept_women])
    # Neither the worst man nor the worst woman's partner survives.
    if drop >= 2:
        assert int(np.argmax(outcome.value_men)) not in kept_men
        worst_woman = int(np.argmax(outcome.value_women))
        assert worst_woman not in kept_women


@given(
    seed=st.integers(0, 2_000),
    n_men=st.integers(1, 40),
    extra_women=st.integers(0, 10),
    unmatched=st.floats(0.0, 1.0),
    delta=st.one_of(
        st.floats(0.0, 1e-3, exclude_min=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0 - 1e-3, 1.0, exclude_max=True),
    ),
)
@settings(max_examples=150, deadline=None)
def test_truncate_equals_the_loop_oracle(seed, n_men, extra_women, unmatched, delta):
    # Rectangular matchings with unmatched men, values with ties, and delta
    # near both ends of (0, 1).
    rng = np.random.default_rng(seed)
    n_women = n_men + extra_women
    mu_arr = rng.permutation(n_women)[:n_men]
    mu_arr[rng.random(n_men) < unmatched] = -1
    mu = Matching(mu=tuple(int(j) for j in mu_arr), n_women=n_women)
    matched_women = mu_arr[mu_arr >= 0]
    value_men = np.where(mu_arr >= 0, rng.integers(1, 6, n_men) / 4.0, 0.0)
    value_women = np.zeros(n_women)
    value_women[matched_women] = rng.integers(1, 6, matched_women.size) / 4.0
    outcome = MatchingOutcome(value_men, value_women, None)
    got = truncate_delta(mu, outcome, delta)
    expected = loop_truncate_delta(mu, outcome, delta)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def test_truncate_validation():
    values = LatentValues(X=np.ones((2, 2)) + np.diag([0.1, 0.2]),
                          Y=np.ones((2, 2)) + np.diag([0.3, 0.4]))
    mu = Matching(mu=(0, 1), n_women=2)
    outcome = outcome_of(mu, values)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DeltaOutOfRange):
            truncate_delta(mu, outcome, bad)


# --- alpha-stability ----------------------------------------------------------


def test_da_outcome_is_alpha_zero():
    values = draw_instance(n=10, seed=42)
    mu, _ = held_deferred_acceptance(values)
    alpha, remaining = greedy_alpha_certificate(mu, values)
    assert alpha == 0.0
    assert remaining == mu
    assert is_alpha_stable_exact(mu, values, 0.0)


def test_greedy_certificate_is_certified_by_exact_search():
    for seed in range(12):
        values = draw_instance(n=8, seed=700 + seed)
        mu, _ = held_deferred_acceptance(values)
        arr = list(mu.mu)
        arr[0], arr[4] = arr[4], arr[0]
        perturbed = Matching(mu=tuple(arr), n_women=8)
        alpha, remaining = greedy_alpha_certificate(perturbed, values)
        assert is_stable(remaining, values)
        assert is_alpha_stable_exact(perturbed, values, alpha)
        assert matched_count(remaining) == 8 - round(alpha * 8)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_men=st.integers(1, 40),
    extra_women=st.integers(0, 3),
    unmatched=st.floats(0.0, 0.5),
    shuffle=st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_greedy_certificate_equals_the_rebuilt_peel(seed, n_men, extra_women, unmatched, shuffle):
    # Integer-permutation rows make blocking degrees tie often, and random
    # partial matchings take many peels.  The pair peel takes its pairs in
    # any order and writes neither index array.
    rng = np.random.default_rng(seed)
    n_women = n_men + extra_women
    values = LatentValues(
        X=rng.permuted(np.tile(np.arange(1.0, n_women + 1), (n_men, 1)), axis=1),
        Y=rng.permuted(np.tile(np.arange(1.0, n_men + 1), (n_women, 1)), axis=1),
    )
    partners = rng.permutation(n_women)[:n_men]
    mu = Matching(tuple(np.where(rng.random(n_men) < unmatched, -1, partners).tolist()), n_women)
    rebuilt = rebuilt_alpha_certificate(mu, values)
    assert greedy_alpha_certificate(mu, values) == rebuilt
    men, women = np.nonzero(blocking_mask(values.X, values.Y, mu.mu_array, False))
    order = np.arange(men.size)
    shuffle.shuffle(order)
    men, women = men[order], women[order]
    held = men.copy(), women.copy()
    assert peel_blocking_pairs(mu, men, women) == rebuilt
    assert np.array_equal(men, held[0]) and np.array_equal(women, held[1])


def test_exact_alpha_boundary():
    # A single swapped pair at n = 5: some size-4 subset is stable, the full
    # matching is not, so 0.2 passes and anything needing all 5 pairs fails.
    values = draw_instance(n=5, seed=61)
    mu, _ = held_deferred_acceptance(values)
    arr = list(mu.mu)
    arr[1], arr[3] = arr[3], arr[1]
    perturbed = Matching(mu=tuple(arr), n_women=5)
    assert not is_stable(perturbed, values)
    alpha, _ = greedy_alpha_certificate(perturbed, values)
    assert alpha == pytest.approx(0.2)
    assert is_alpha_stable_exact(perturbed, values, 0.2)
    assert not is_alpha_stable_exact(perturbed, values, 0.19)


def test_exact_alpha_validation():
    values = draw_instance(n=3, seed=5)
    mu = Matching(mu=(0, 1, 2), n_women=3)
    with pytest.raises(ValueError):
        is_alpha_stable_exact(mu, values, -0.1)
    big_values = draw_instance(n=13, seed=5)
    with pytest.raises(TooLarge):
        is_alpha_stable_exact(Matching(mu=tuple(range(13)), n_women=13), big_values, 0.5)


def test_alpha_one_is_trivially_true():
    values = draw_instance(n=4, seed=9)
    mu = Matching(mu=(1, 0, 3, 2), n_women=4)
    assert is_alpha_stable_exact(mu, values, 1.0)
