"""Canonical/balanced market construction and the market file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml.errors import (
    NoConvergence,
    NonPositiveEntry,
    NonSquare,
    NotNormalized,
    ShapeMismatch,
)
from mml.market import (
    ROW_SUM_TOL,
    CanonicalMarket,
    backfill_imbalanced,
    canonical_from_raw,
    public_scores_market,
    random_cbounded_market,
    read_market,
    read_matrix_pair,
    sinkhorn_balance,
    uniform_market,
    write_matrix_pair,
)
from mml.rng import stream_key, thread_budget, unit_uniforms
from oracles import two_pass_cbounded_market

BUDGETS = (1, 2, 3)

positive_rows = st.lists(
    st.lists(st.floats(0.05, 20.0), min_size=2, max_size=5),
    min_size=2,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def square_raw(draw_shape=3):
    return st.lists(
        st.lists(st.floats(0.05, 20.0), min_size=draw_shape, max_size=draw_shape),
        min_size=draw_shape,
        max_size=draw_shape,
    )


def test_canonical_market_accepts_row_stochastic():
    a = np.array([[0.25, 0.75], [0.6, 0.4]])
    b = np.array([[0.7, 0.3], [0.2, 0.8]])
    market = CanonicalMarket(a, b)
    assert market.n_men == 2 and market.n_women == 2 and market.is_square


def test_canonical_market_rejects_unnormalized_rows():
    a = np.array([[0.3, 0.75], [0.6, 0.4]])
    b = np.array([[0.7, 0.3], [0.2, 0.8]])
    with pytest.raises(NotNormalized):
        CanonicalMarket(a, b)


def test_canonical_market_rejects_nonpositive_and_nonfinite():
    b = np.array([[0.7, 0.3], [0.2, 0.8]])
    with pytest.raises(NonPositiveEntry):
        CanonicalMarket(np.array([[0.0, 1.0], [0.5, 0.5]]), b)
    with pytest.raises(NonPositiveEntry):
        CanonicalMarket(np.array([[np.nan, 1.0], [0.5, 0.5]]), b)


def test_canonical_checks_read_every_row_of_dense_scores():
    # Only a broadcast view (row stride 0) is checked through its one row.
    good = np.full((4, 4), 0.25)
    for bad in (0.0, -1.0, np.inf, np.nan):
        a = good.copy()
        a[3, 2] = bad
        with pytest.raises(NonPositiveEntry):
            CanonicalMarket(a, good)
    a = good.copy()
    a[3] *= 1.5
    with pytest.raises(NotNormalized):
        CanonicalMarket(a, good)
    shared = uniform_market(4, 4)
    assert shared.a_hat.strides[0] == 0 and shared.b_hat.strides[0] == 0


def test_canonical_market_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        CanonicalMarket(np.full((2, 3), 1.0 / 3.0), np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(ShapeMismatch):
        CanonicalMarket(np.array([0.5, 0.5]), np.array([0.5, 0.5]))


@given(rows=positive_rows, scale=st.floats(0.01, 100.0), row_idx=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_scale_free_per_row(rows, scale, row_idx):
    raw = np.array(rows)
    m, w = raw.shape
    b_raw = np.ones((w, m))
    base = canonical_from_raw(raw, b_raw)
    scaled = raw.copy()
    scaled[row_idx % m] *= scale
    rescaled = canonical_from_raw(scaled, b_raw)
    np.testing.assert_allclose(rescaled.a_hat, base.a_hat, rtol=1e-12, atol=0.0)


def test_uniform_market_balances_to_all_ones_rates():
    bal = sinkhorn_balance(uniform_market(7))
    np.testing.assert_allclose(bal.phi, np.full(7, 7.0), rtol=1e-12)
    np.testing.assert_allclose(bal.psi, np.full(7, 7.0), rtol=1e-12)
    np.testing.assert_allclose(bal.A, np.ones((7, 7)), rtol=1e-12)
    np.testing.assert_allclose(bal.M, np.full((7, 7), 1.0 / 7.0), rtol=1e-12)
    assert bal.residual <= 1e-10
    assert bal.c_bound == pytest.approx(1.0, abs=1e-10)


def test_two_by_two_balance_closed_form():
    # For n = 2 the bistochastic limit has a closed form: with kernel K,
    # the diagonal of M is sqrt(K11*K22) / (sqrt(K11*K22) + sqrt(K12*K21)).
    a = np.array([[0.25, 0.75], [0.6, 0.4]])
    b = np.array([[0.7, 0.3], [0.2, 0.8]])
    market = CanonicalMarket(a, b)
    kernel = a * b.T / 2.0
    diag = np.sqrt(kernel[0, 0] * kernel[1, 1])
    off = np.sqrt(kernel[0, 1] * kernel[1, 0])
    m11 = diag / (diag + off)
    expected = np.array([[m11, 1.0 - m11], [1.0 - m11, m11]])
    bal = sinkhorn_balance(market)
    np.testing.assert_allclose(bal.M, expected, atol=1e-10)


def test_balance_gauge_is_geometric_mean_symmetric():
    market = random_cbounded_market(20, 3.0, seed=5)
    bal = sinkhorn_balance(market)
    gm_phi = np.exp(np.mean(np.log(bal.phi)))
    gm_psi = np.exp(np.mean(np.log(bal.psi)))
    assert gm_phi == pytest.approx(gm_psi, rel=1e-10)


def test_balance_reconstructs_scores_from_fitness():
    market = random_cbounded_market(15, 2.0, seed=8)
    bal = sinkhorn_balance(market)
    np.testing.assert_allclose(bal.A, bal.phi[:, None] * market.a_hat, rtol=1e-12)
    np.testing.assert_allclose(bal.B, bal.psi[:, None] * market.b_hat, rtol=1e-12)
    np.testing.assert_allclose(bal.M, bal.A * bal.B.T / bal.n, atol=1e-14)


def square_market(kind, seed, n, c, k):
    """A square market of each kind the experiments balance."""
    if kind == "public_scores":
        u = unit_uniforms(stream_key(seed, "public"), 2 * n)
        return public_scores_market(c ** (2.0 * u[:n] - 1.0), c ** (2.0 * u[n:] - 1.0))
    if kind == "backfill":
        k = min(k, n - 1)
        return backfill_imbalanced(random_cbounded_market(n - k, c, seed, n_women=n), k)
    return random_cbounded_market(n, c, seed)


@given(
    seed=st.integers(0, 1000),
    n=st.integers(2, 25),
    c=st.floats(1.0, 4.0),
    kind=st.sampled_from(["cbounded", "public_scores", "backfill"]),
    k=st.integers(1, 24),
)
@settings(max_examples=60, deadline=None)
def test_balance_makes_m_doubly_stochastic(seed, n, c, kind, k):
    bal = sinkhorn_balance(square_market(kind, seed, n, c, k))
    assert bal.residual <= 1e-10
    assert np.abs(bal.M.sum(axis=1) - 1.0).max() <= 1e-10
    assert np.abs(bal.M.sum(axis=0) - 1.0).max() <= 1e-10
    assert (bal.A > 0.0).all() and (bal.B > 0.0).all()
    # M = A * B^T / n, and each fitness is its row's score mass (canonical
    # rows sum to 1).
    assert np.abs(bal.M - bal.A * bal.B.T / bal.n).max() <= 1e-12
    assert np.abs(bal.A.sum(axis=1) - bal.phi).max() <= 1e-10 * bal.phi.max()
    assert np.abs(bal.B.sum(axis=1) - bal.psi).max() <= 1e-10 * bal.psi.max()


def test_public_scores_market_identities():
    a_scores = np.array([1.0, 2.0, 3.0, 0.5])
    b_scores = np.array([2.0, 1.0, 4.0, 1.5])
    market = public_scores_market(a_scores, b_scores)
    bal = sinkhorn_balance(market)
    # Mutual matrix is flat: every pair is equally likely a priori.
    np.testing.assert_allclose(bal.M, np.full((4, 4), 0.25), rtol=1e-8)
    # Fitness undoes the shared desirability vector: phi_i * b_hat[., i] const.
    products = bal.phi * market.b_hat[0]
    np.testing.assert_allclose(products, products[0], rtol=1e-8)
    products = bal.psi * market.a_hat[0]
    np.testing.assert_allclose(products, products[0], rtol=1e-8)


def test_public_scores_rejects_matrix_input():
    with pytest.raises(ShapeMismatch):
        public_scores_market(np.ones((2, 2)), np.ones(2))


def test_cbounded_market_score_ratios():
    c = 2.0
    market = random_cbounded_market(50, c, seed=3)
    ratios_a = market.a_hat.max(axis=1) / market.a_hat.min(axis=1)
    ratios_b = market.b_hat.max(axis=1) / market.b_hat.min(axis=1)
    assert ratios_a.max() <= c * c + 1e-9
    assert ratios_b.max() <= c * c + 1e-9
    # Balanced-form contiguity is looser than c^2 (Sinkhorn spreads the
    # entries) but stays within c^4 in practice at this size.
    bal = sinkhorn_balance(market)
    assert bal.c_bound <= c**4


def shared_and_backfilled_markets(n, c, seed):
    """The uniform and a public-scores market of n agents a side, and the
    backfilled completions of a uniform and a C-bounded market of n - n // 3 men."""
    u = np.random.default_rng(seed).uniform(0.5, 2.0, size=(2, n))
    k = n // 3
    return (
        uniform_market(n), public_scores_market(u[0], u[1]),
        backfill_imbalanced(uniform_market(n - k, n), k),
        backfill_imbalanced(random_cbounded_market(n - k, c, seed, n_women=n), k),
    )


@pytest.mark.parametrize("n, c, seed", [(1, 2.0, 0), (7, 3.5, 1), (40, 2.0, 2), (120, 6.0, 3)])
def test_c_bound_equals_the_brute_force_formula(n, c, seed):
    for market in (random_cbounded_market(n, c, seed), *shared_and_backfilled_markets(n, c, seed)):
        bal = sinkhorn_balance(market)
        values = np.concatenate([bal.A.ravel(), bal.B.ravel(), (bal.n * bal.M).ravel()])
        assert bal.c_bound == float(np.max(np.maximum(values, 1.0 / values)))


@pytest.mark.parametrize("n", [7, 300, 700])
def test_residual_equals_the_materialised_formula(n):
    # The largest deviation of M's row and column sums from 1, to the bit.  On
    # shared-row markets the column sums set it.
    for market in (random_cbounded_market(n, 3.0, n), *shared_and_backfilled_markets(n, 3.0, n)):
        bal = sinkhorn_balance(market)
        m = bal.M
        rows, cols = np.abs(m.sum(axis=1) - 1.0).max(), np.abs(m.sum(axis=0) - 1.0).max()
        assert bal.residual == float(max(rows, cols))


def test_cbounded_market_rectangular():
    c = 2.5
    market = random_cbounded_market(4, c, seed=21, n_women=7)
    assert market.a_hat.shape == (4, 7) and market.b_hat.shape == (7, 4)
    for scores in (market.a_hat, market.b_hat):
        assert (scores.max(axis=1) / scores.min(axis=1)).max() <= c * c + 1e-9
    square = random_cbounded_market(5, c, seed=21, n_women=5)
    np.testing.assert_array_equal(square.a_hat, random_cbounded_market(5, c, seed=21).a_hat)


@pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 10.0])
@pytest.mark.parametrize("n", [1, 2, 255, 257, 700])
def test_cbounded_scores_equal_the_two_pass_build(n, c):
    # Square, a few women more, and twice as many women: the row blocks of
    # the two sides then split differently.
    for n_women in (n, n + 3, 2 * n + 1):
        expected = two_pass_cbounded_market(n, c, 31, n_women)
        for budget in BUDGETS:
            with thread_budget(budget):
                market = random_cbounded_market(n, c, 31, n_women)
            assert market.a_hat.tobytes() == expected.a_hat.tobytes()
            assert market.b_hat.tobytes() == expected.b_hat.tobytes()
            assert market.a_hat.flags.c_contiguous and market.b_hat.flags.c_contiguous


@pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 2.5, 3.0, 10.0, 1e300, math.inf, math.nan])
def test_power_of_a_row_of_c_equals_the_power_of_the_scalar(c):
    # random_cbounded_market raises a row of c, not the scalar, to its
    # exponents 2u - 1, in place; both forms must give the same bits.
    exponents = 2.0 * unit_uniforms(stream_key(7, "power"), (2048, 1000)) - 1.0
    expected = np.power(c, exponents)
    np.power(np.full(1000, c), exponents, out=exponents)
    assert exponents.tobytes() == expected.tobytes()


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_non_finite_c_raises_the_raw_score_message(c):
    for budget in BUDGETS:
        with thread_budget(budget), pytest.raises(
            NonPositiveEntry, match=r"^a_raw must have strictly positive finite entries$"
        ):
            random_cbounded_market(300, c, seed=5)


def test_cbounded_market_c1_is_uniform():
    market = random_cbounded_market(6, 1.0, seed=0)
    np.testing.assert_array_equal(market.a_hat, uniform_market(6).a_hat)
    np.testing.assert_array_equal(market.b_hat, uniform_market(6).b_hat)


def test_cbounded_market_is_deterministic():
    m1 = random_cbounded_market(9, 2.5, seed=77)
    m2 = random_cbounded_market(9, 2.5, seed=77)
    np.testing.assert_array_equal(m1.a_hat, m2.a_hat)
    assert not np.array_equal(m1.a_hat, random_cbounded_market(9, 2.5, seed=78).a_hat)


def test_cbounded_market_validation():
    with pytest.raises(ValueError):
        random_cbounded_market(4, 0.5, seed=1)
    with pytest.raises(ShapeMismatch):
        random_cbounded_market(0, 2.0, seed=1)
    with pytest.raises(ShapeMismatch):
        random_cbounded_market(3, 2.0, seed=1, n_women=0)


def test_balance_rejects_rectangular_market():
    with pytest.raises(NonSquare):
        sinkhorn_balance(uniform_market(3, 5))


def test_balance_reports_no_convergence():
    market = random_cbounded_market(5, 3.0, seed=2)
    with pytest.raises(NoConvergence) as excinfo:
        sinkhorn_balance(market, tol=1e-12, max_iters=1)
    assert "1" in str(excinfo.value)


@pytest.mark.parametrize(
    "a_raw, b_raw",
    [
        # M would be [[0, 1], [1, 0]], which is not strictly positive.
        ([[1e-300, 1], [1, 1e-300]], [[1e-300, 1], [1, 1e-300]]),
        # One zero cell of the kernel: the sweeps would run to max_iters.
        ([[1e-200, 1], [1, 1]], [[1e-200, 1], [1e-300, 1]]),
    ],
)
def test_balance_refuses_a_kernel_that_underflows(a_raw, b_raw):
    market = canonical_from_raw(np.array(a_raw), np.array(b_raw))
    with pytest.raises(NonPositiveEntry, match="balancing kernel"):
        sinkhorn_balance(market)


def test_balance_parameter_validation():
    market = uniform_market(2)
    with pytest.raises(ValueError):
        sinkhorn_balance(market, tol=0.0)
    with pytest.raises(ValueError):
        sinkhorn_balance(market, max_iters=0)


def test_backfill_zero_is_identity():
    market = uniform_market(4, 4)
    assert backfill_imbalanced(market, 0) is market


def test_backfill_dummy_weights():
    market = random_cbounded_market(8, 2.0, seed=4)
    rect = CanonicalMarket(market.a_hat[:5], market.b_hat[:, :5] /
                           market.b_hat[:, :5].sum(axis=1, keepdims=True))
    full = backfill_imbalanced(rect, 3)
    assert full.n_men == full.n_women == 8
    # Appended men are indifferent; each dummy carries weight 1/n per woman.
    np.testing.assert_allclose(full.a_hat[5:], 1.0 / 8.0, atol=1e-12)
    np.testing.assert_allclose(full.b_hat[:, 5:], 1.0 / 8.0, atol=1e-12)
    # Real-man score ratios are preserved within each woman's row.
    orig = rect.b_hat / rect.b_hat[:, :1]
    new = full.b_hat[:, :5] / full.b_hat[:, :1]
    np.testing.assert_allclose(new, orig, rtol=1e-12)


def test_backfill_uniform_completes_to_uniform():
    full = backfill_imbalanced(uniform_market(6, 10), 4)
    np.testing.assert_allclose(full.a_hat, uniform_market(10).a_hat, atol=1e-15)
    np.testing.assert_allclose(full.b_hat, uniform_market(10).b_hat, atol=1e-15)


def test_backfill_validation():
    with pytest.raises(ValueError):
        backfill_imbalanced(uniform_market(3, 5), -1)
    with pytest.raises(ShapeMismatch):
        backfill_imbalanced(uniform_market(3, 5), 1)


def test_market_file_round_trip_is_bit_exact(tmp_path):
    market = random_cbounded_market(7, 3.5, seed=11)
    path = tmp_path / "market.txt"
    write_matrix_pair(path, market.a_hat, market.b_hat)
    back = read_market(path)
    np.testing.assert_array_equal(back.a_hat, market.a_hat)
    np.testing.assert_array_equal(back.b_hat, market.b_hat)


def test_read_market_normalizes_raw_files(tmp_path):
    path = tmp_path / "raw.txt"
    write_matrix_pair(path, np.array([[2.0, 6.0], [1.0, 1.0]]), np.ones((2, 2)))
    market = read_market(path)
    np.testing.assert_allclose(market.a_hat, [[0.25, 0.75], [0.5, 0.5]])
    np.testing.assert_allclose(market.b_hat, [[0.5, 0.5], [0.5, 0.5]])


def test_matrix_pair_round_trip(tmp_path):
    first = np.array([[1.5, 2.5, 3.0], [0.25, 0.125, 1e-7]])
    second = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    path = tmp_path / "pair.txt"
    write_matrix_pair(path, first, second)
    f2, s2 = read_matrix_pair(path)
    np.testing.assert_array_equal(f2, first)
    np.testing.assert_array_equal(s2, second)


def test_matrix_pair_shape_validation(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_matrix_pair(tmp_path / "bad.txt", np.ones((2, 3)), np.ones((2, 3)))


def test_read_market_file_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ShapeMismatch):
        read_market(empty)

    bad_header = tmp_path / "header.txt"
    bad_header.write_text("2\n1 0\n0 1\n")
    with pytest.raises(ShapeMismatch):
        read_market(bad_header)

    short = tmp_path / "short.txt"
    short.write_text("2 2\n0.5 0.5\n0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ShapeMismatch):
        read_market(short)

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"2 2\n\xff\xfe\n")
    with pytest.raises(ShapeMismatch):
        read_market(binary)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (5, 9), (9, 5), (2000, 2000)])
def test_uniform_market_is_the_broadcast_of_one_over_n(m, n):
    market = uniform_market(m, n)
    for got, want in (
        (market.a_hat, np.broadcast_to(np.full(n, 1.0 / n), (m, n))),
        (market.b_hat, np.broadcast_to(np.full(m, 1.0 / m), (n, m))),
    ):
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert not got.flags.writeable and not want.flags.writeable
        # Row stride 0: one row holds every byte of the view.
        assert got.strides[0] == 0 and got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize(
    "excess, canonical", [(0.5, True), (-0.5, True), (2.0, False), (-2.0, False)]
)
def test_read_market_takes_rows_within_the_tolerance_as_canonical(
    tmp_path, side, excess, canonical
):
    a = np.array([[0.25, 0.75], [0.5, 0.5], [0.125, 0.875]])
    b = np.array([[0.25, 0.5, 0.25], [0.5, 0.25, 0.25]])
    off = a if side == "a" else b
    off[1, 0] += excess * ROW_SUM_TOL
    assert abs(off[1].sum() - 1.0) / ROW_SUM_TOL == pytest.approx(abs(excess), rel=0.05)
    path = tmp_path / "market.txt"
    write_matrix_pair(path, a, b)
    read = read_market(path)
    want = CanonicalMarket(a, b) if canonical else canonical_from_raw(a, b)
    assert read.a_hat.tobytes() == want.a_hat.tobytes()
    assert read.b_hat.tobytes() == want.b_hat.tobytes()
    # Canonical rows keep the file's bits; raw rows are divided by their sums.
    assert (read.a_hat.tobytes() + read.b_hat.tobytes() == a.tobytes() + b.tobytes()) == canonical


@pytest.mark.parametrize("side", ["a", "b"])
def test_read_market_sends_a_nan_row_down_the_raw_path(tmp_path, side):
    a = np.array([[0.25, 0.75], [0.5, 0.5]])
    b = np.array([[0.5, 0.5], [0.75, 0.25]])
    (a if side == "a" else b)[0, 1] = np.nan
    path = tmp_path / "market.txt"
    write_matrix_pair(path, a, b)
    with pytest.raises(NonPositiveEntry, match=f"^{side}_raw "):
        read_market(path)
