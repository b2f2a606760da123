"""Latent-value sampling, its screen, and the sequential-logit cross-check."""

from unittest import mock

import numpy as np
import pytest

import mml.sampling
from mml.errors import DuplicateValue, ShapeMismatch
from mml.market import (
    CanonicalMarket,
    backfill_imbalanced,
    public_scores_market,
    sinkhorn_balance,
    uniform_market,
)
from mml.matching import Side
from mml.rng import BLOCK, exponentials, stream_key, thread_budget
from mml.sampling import TOP_L, ValueStream, latent_streams
from oracles import (
    LatentValues, argpartition_lowest_columns, logit_sample_prefs, matrix_tables,
    random_cbounded_market, sample_latent, strided_mutual_matmul,
)

CHI2_99_DF2 = 9.210
CHI2_99_DF5 = 15.086


def skewed_market():
    a = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    b = np.full((3, 3), 1.0 / 3.0)
    return sinkhorn_balance(CanonicalMarket(a, b))


def held_draw(x, y):
    """``ValueStream.matrix`` of X, then of Y, each side's draw giving ``x`` and ``y``."""
    for name, values in (("X", x), ("Y", y)):
        stream = ValueStream(name, 0, np.ones(values.shape), None)
        with mock.patch.object(mml.sampling, "exponentials", return_value=values):
            assert stream.matrix() is values


def test_tied_values_are_rejected():
    x = np.array([[0.3, 0.3], [0.1, 0.2]])
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DuplicateValue, match="^tied X values drawn"):
        held_draw(x, y)
    with pytest.raises(DuplicateValue, match="^tied Y values drawn"):
        held_draw(y, x)


def test_nonpositive_and_nonfinite_values_are_rejected():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    for bad in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(DuplicateValue, match="^non-finite or non-positive X value"):
            held_draw(np.array([[bad, 1.0], [1.0, 2.0]]), y)
        with pytest.raises(DuplicateValue, match="^non-finite or non-positive Y value"):
            held_draw(y, np.array([[1.0, 2.0], [3.0, bad]]))


def test_equal_values_in_different_rows_are_not_ties():
    # The screen compares neighbours of the flat sorted block; the pairs that
    # straddle two rows are not ties.
    x = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]])
    held_draw(x, np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]))


def test_ties_are_caught_in_every_row_block():
    # 700 rows of 300, four row blocks of a pass, screened as one block: a
    # bad cell in any row raises, including the last row.
    base = 1.0 + np.arange(700 * 300, dtype=np.float64).reshape(700, 300)
    other = 1.0 + np.arange(300 * 700, dtype=np.float64).reshape(300, 700)
    held_draw(base, other)
    for row in (0, 217, 218, 699):
        for bad in ("tie", np.nan, 0.0):
            x = base.copy()
            x[row, 7] = x[row, 123] if bad == "tie" else bad
            with pytest.raises(DuplicateValue, match=" X value"):
                held_draw(x, other)
            with pytest.raises(DuplicateValue, match=" Y value"):
                held_draw(other, x)


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
    # The program's held draw has the same bits.
    x, y = latent_streams(bal, seed=31)
    assert x.matrix().tobytes() == values.X.tobytes()
    assert y.matrix().tobytes() == values.Y.tobytes()


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



def _markets(n):
    """Square markets of every construction: shared rows or n x n scores."""
    u = np.random.default_rng(n).uniform(0.5, 2.0, size=(2, n))
    return {
        "uniform": uniform_market(n),
        "public_scores": public_scores_market(u[0], u[1]),
        "cbounded": random_cbounded_market(n, 2.5, seed=n),
        "backfilled": backfill_imbalanced(random_cbounded_market(n - 3, 2.0, n, n_women=n), 3),
    }


# n^2 below, at and above one block of BLOCK = 256^2 cells, and sizes whose
# row blocks do not divide n.
@pytest.mark.parametrize("n", [255, 256, 257, 300, 700])
def test_factored_draws_equal_draws_at_materialised_rates(n):
    assert BLOCK == 256**2
    for name, market in _markets(n).items():
        bal = sinkhorn_balance(market)
        values = sample_latent(bal, seed=n)
        assert np.array_equal(values.X, exponentials(stream_key(n, "X"), bal.A)), name
        assert np.array_equal(values.Y, exponentials(stream_key(n, "Y"), bal.B)), name


@pytest.mark.parametrize("n", [4, 257, 700])
def test_factored_mutual_product_matches_materialised_m(n):
    ys = np.random.default_rng(n).exponential(size=(n, 2))
    for name, market in _markets(n).items():
        bal = sinkhorn_balance(market)
        m = bal.M
        for y in (ys, ys[:, 0]):
            np.testing.assert_allclose(
                bal.mutual_matmul(y), m @ y, rtol=1e-13, atol=0, err_msg=name
            )


@pytest.mark.parametrize("n", [4, 257, 700])
def test_mutual_product_equals_the_strided_product_bit_for_bit(n):
    ys = np.random.default_rng(n).exponential(size=(n, 2))
    for name, market in _markets(n).items():
        bal = sinkhorn_balance(market)
        for y in (ys, ys[:, 0]):
            expected = strided_mutual_matmul(bal, y)
            for budget in (1, 2, 3):
                with thread_budget(budget):
                    assert bal.mutual_matmul(y).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize(
    "n_men, n_women", [(1, 1), (2, 2), (5, 5), (63, 63), (64, 64), (65, 65), (300, 300),
                       (30, 64), (64, 30), (70, 300)],
)
def test_top_columns_equal_the_argpartition_selection(n_men, n_women):
    # Below, at and above TOP_L columns, square and rectangular, from the
    # matrices (the constructor's screen, then the proposing side's tables)
    # and from one screened pass per side (screen).
    market = random_cbounded_market(n_men, 2.5, seed=n_men, n_women=n_women)
    values = sample_latent(market, seed=n_women)
    streams = latent_streams(market, seed=n_women)
    for budget in (1, 2, 3):
        with thread_budget(budget):
            screened = LatentValues(X=values.X, Y=values.Y)
            for matrix, stream, side in zip((values.X, values.Y), streams, Side):
                proposers = np.arange(matrix.shape[0])[:, None]
                for width in {min(TOP_L, matrix.shape[1]), 1, matrix.shape[1]}:
                    expected = argpartition_lowest_columns(matrix, width)
                    top, _ = stream.screen(width)
                    assert top.dtype == np.int32
                    np.testing.assert_array_equal(top, expected)
                    lowest = stream.cells(proposers, top)
                    assert lowest.tobytes() == np.take_along_axis(matrix, expected, 1).tobytes()
                tables = matrix_tables(screened, side)
                top, lowest = tables.top, tables.own(proposers, tables.top)
                expected = argpartition_lowest_columns(matrix, min(TOP_L, matrix.shape[1]))
                assert top.dtype == np.int32
                np.testing.assert_array_equal(top, expected)
                assert lowest.tobytes() == np.take_along_axis(matrix, expected, 1).tobytes()


@pytest.mark.parametrize("n", [80, 1000])
def test_backfilled_uniform_market_keeps_shared_rows_and_bits(n):
    # The completion of a uniform market is uniform again: the men's table
    # holds the real men's row and the dummies' (both 1/n), the women's their
    # one row, with the values and draws of the stacked matrices.
    k = n // 10
    real = uniform_market(n - k, n)
    full = backfill_imbalanced(real, k)
    assert full.a_hat.table.shape == (2, n) and full.b_hat.table.shape == (1, n)
    assert full.a_hat.index.tolist() == [0] * (n - k) + [1] * k
    assert full.b_hat.index.tolist() == [0] * n
    a_stacked = np.vstack([np.asarray(real.a_hat), np.full((k, n), 1.0 / n)])
    b_raw = np.hstack([np.asarray(real.b_hat), np.full((n, k), 1.0 / (n - k))])
    b_stacked = b_raw / b_raw.sum(axis=1, keepdims=True)
    assert np.asarray(full.a_hat).tobytes() == a_stacked.tobytes()
    assert np.asarray(full.b_hat).tobytes() == b_stacked.tobytes()
    values = sample_latent(sinkhorn_balance(full), seed=n)
    stacked = sample_latent(sinkhorn_balance(CanonicalMarket(a_stacked, b_stacked)), seed=n)
    assert values.X.tobytes() == stacked.X.tobytes()
    assert values.Y.tobytes() == stacked.Y.tobytes()
