"""KS distances, exponential fits, and the distributional diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml.errors import DegenerateSample, EmptySample, NonPositiveRate, ShapeMismatch
from mml.matching import MatchingOutcome
from mml.stats import (
    _GRID_POINTS,
    _ExpKS,
    best_fit_exponential,
    eig_dispersion,
    hyperbola_product,
    ks_distance_to_exp,
    rank_value_ratio_report,
    rescaled_ranks,
)
from oracles import EmpiricalCDF, scalar_best_fit, scalar_ks_exp


def exp_quantile_sample(n, rate):
    # F^{-1}((i - 0.5) / n): the sample whose ECDF straddles F symmetrically.
    ps = (np.arange(1, n + 1) - 0.5) / n
    return -np.log1p(-ps) / rate


# --- empirical CDF ------------------------------------------------------------


def test_empirical_cdf_is_right_continuous():
    cdf = EmpiricalCDF.from_samples(np.array([1.0, 2.0, 2.0, 5.0]))
    assert cdf.n == 4
    assert cdf.evaluate(0.5) == 0.0
    assert cdf.evaluate(1.0) == 0.25  # jump included at the point
    assert cdf.evaluate(2.0) == 0.75
    assert cdf.evaluate(4.999) == 0.75
    assert cdf.evaluate(5.0) == 1.0
    np.testing.assert_array_equal(cdf.evaluate(np.array([1.0, 3.0])), [0.25, 0.75])


def test_empirical_cdf_rejects_empty():
    with pytest.raises(EmptySample):
        EmpiricalCDF.from_samples(np.array([]))


# --- KS distance --------------------------------------------------------------


def test_ks_of_quantile_sample_is_half_over_n():
    for n in (4, 25, 200):
        xs = exp_quantile_sample(n, rate=2.0)
        assert ks_distance_to_exp(xs, 2.0) == pytest.approx(0.5 / n, rel=1e-12)


def test_ks_single_sample_at_median():
    assert ks_distance_to_exp(np.array([math.log(2.0)]), 1.0) == pytest.approx(0.5)


def test_ks_all_zero_sample():
    # ECDF jumps to 1 at 0 where Exp's CDF starts at 0.
    assert ks_distance_to_exp(np.zeros(5), 1.0) == pytest.approx(1.0)


def test_ks_matches_dense_grid_oracle():
    rng = np.random.default_rng(6)
    xs = rng.exponential(0.7, 300)
    rate = 1.9
    exact = ks_distance_to_exp(xs, rate)
    cdf = EmpiricalCDF.from_samples(xs)
    grid = np.concatenate([np.linspace(0.0, xs.max() * 1.5, 20_001), xs, xs - 1e-9])
    F = -np.expm1(-rate * grid)
    approx = float(np.abs(cdf.evaluate(grid) - F).max())
    assert exact >= approx - 1e-12
    assert exact <= approx + 1e-6


@given(
    seed=st.integers(0, 5_000),
    n=st.integers(2, 200),
    k=st.integers(1, 5),
    rate=st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_ks_perturbation_bound(seed, n, k, rate):
    # Moving k of n samples moves each ECDF level by at most k/n.
    rng = np.random.default_rng(seed)
    xs = rng.exponential(1.0, n)
    ys = xs.copy()
    ys[rng.integers(0, n, size=min(k, n))] = rng.exponential(1.0, min(k, n))
    d1 = ks_distance_to_exp(xs, rate)
    d2 = ks_distance_to_exp(ys, rate)
    assert abs(d1 - d2) <= min(k, n) / n + 1e-12


def test_ks_validation():
    with pytest.raises(NonPositiveRate):
        ks_distance_to_exp(np.array([1.0]), 0.0)
    with pytest.raises(NonPositiveRate):
        ks_distance_to_exp(np.array([1.0]), math.inf)
    with pytest.raises(EmptySample):
        ks_distance_to_exp(np.array([]), 1.0)
    with pytest.raises(ValueError):
        ks_distance_to_exp(np.array([-1.0, 2.0]), 1.0)


# --- exponential fits ---------------------------------------------------------


def test_best_fit_recovers_the_rate():
    xs = exp_quantile_sample(200, rate=3.0)
    fit = best_fit_exponential(xs)
    assert 2.9 <= fit.rate <= 3.1
    assert fit.ks_distance <= 0.5 / 200 + 1e-3


def test_best_fit_beats_the_moment_estimate():
    rng = np.random.default_rng(17)
    xs = rng.exponential(2.0, 500)
    fit = best_fit_exponential(xs)
    assert fit.ks_distance <= ks_distance_to_exp(xs, 1.0 / xs.mean()) + 1e-12


def test_best_fit_scale_equivariance():
    rng = np.random.default_rng(23)
    xs = rng.exponential(1.0, 150)
    base = best_fit_exponential(xs)
    scaled = best_fit_exponential(10.0 * xs)
    assert scaled.rate == pytest.approx(base.rate / 10.0, rel=1e-6)
    assert scaled.ks_distance == pytest.approx(base.ks_distance, abs=1e-9)


def test_best_fit_degenerate_sample():
    with pytest.raises(DegenerateSample):
        best_fit_exponential(np.zeros(10))


# --- rescaled ranks and hyperbola ---------------------------------------------


def test_rescaled_ranks():
    ranks = np.array([2.0, 10.0, 1.0])
    phi = np.array([4.0, 5.0, 2.0])
    np.testing.assert_allclose(rescaled_ranks(ranks, phi), [0.5, 2.0, 0.5])
    with pytest.raises(ShapeMismatch):
        rescaled_ranks(ranks, phi[:2])


def test_hyperbola_product():
    assert hyperbola_product(np.array([1.0, 2.0]), np.array([3.0]), 2) == 4.5
    assert hyperbola_product(np.zeros(3), np.ones(3), 3) == 0.0
    with pytest.raises(ValueError):
        hyperbola_product(np.ones(2), np.ones(2), 0)


# --- dispersion ----------------------------------------------


def test_eig_dispersion_constant_vector():
    M = np.full((4, 4), 0.25)
    t_star, frac = eig_dispersion(M @ np.array([1.0, 2.0, 3.0, 4.0]), zeta=0.25)
    assert t_star == pytest.approx(2.5)
    assert frac == 0.0


def test_eig_dispersion_counts_outliers_inclusively():
    M = np.eye(3)
    # e = y; median 1; |1.5 - 1| == sqrt(0.25) * 1 counts as violating.
    _, frac = eig_dispersion(M @ np.array([1.0, 1.0, 1.5]), zeta=0.25)
    assert frac == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        eig_dispersion(M @ np.ones(3), zeta=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 999, 1000, 2001])
def test_eig_dispersion_median_is_np_median_to_the_bit(n):
    rng = np.random.default_rng(n)
    samples = [
        rng.exponential(size=n),
        rng.integers(0, 4, n) * 0.1,  # repeated values, middle pairs often equal
        np.full(n, 1.0 / 3.0),
        np.full(n, -0.0),  # np.median's sum reads it as 0.0
        np.repeat(rng.exponential(size=(n + 1) // 2), 2)[:n],
    ]
    for e in samples:
        t_star, _ = eig_dispersion(e, zeta=0.25)
        assert np.float64(t_star).tobytes() == np.median(e).tobytes()
    assert math.isnan(eig_dispersion(np.append(samples[0], np.nan), zeta=0.25)[0])
    with pytest.raises(EmptySample):
        eig_dispersion(np.array([]), zeta=0.25)


# --- rank/value ratio -----------------------------------------------------------


def synthetic_outcome(ranks, values):
    return MatchingOutcome(
        value_men=np.asarray(values, dtype=np.float64),
        value_women=np.ones(len(ranks)),
        rank_men=np.asarray(ranks),
    )


def test_rank_value_ratio_agreement_is_zero():
    phi = np.array([2.0, 4.0, 8.0])
    values = np.array([1.0, 0.5, 0.25])  # rank == value * phi exactly
    outcome = synthetic_outcome(np.array([2, 2, 2]), values)
    assert rank_value_ratio_report(outcome, phi, theta=0.5) == 0.0


def test_rank_value_ratio_counts_disagreements():
    phi = np.full(4, 2.0)
    values = np.array([1.0, 1.0, 5.0, 5.0])  # last two off by 5x
    outcome = synthetic_outcome(np.array([2, 2, 2, 2]), values)
    assert rank_value_ratio_report(outcome, phi, theta=0.5) == pytest.approx(0.5)


def test_rank_value_ratio_skips_unmatched_and_validates():
    phi = np.full(3, 2.0)
    outcome = synthetic_outcome(np.array([0, 0, 0]), np.ones(3))
    assert rank_value_ratio_report(outcome, phi, theta=0.5) == 0.0
    with pytest.raises(ValueError):
        rank_value_ratio_report(outcome, phi, theta=0.0)


@pytest.mark.parametrize("n", [1, 2, 1000, 2500])
def test_ks_grid_equals_the_per_rate_distance_bit_for_bit(n):
    # 2500 samples split the 64 rates into several blocks.
    xs = np.sort(np.random.default_rng(n).exponential(0.7, n))
    mean = float(xs.mean())
    grid = np.linspace(math.log(0.01 / mean), math.log(100.0 / mean), _GRID_POINTS)
    rates = np.array([math.exp(g) for g in grid])
    ks = _ExpKS(xs).grid(rates)
    assert ks.shape == (_GRID_POINTS,)
    for rate, value in zip(rates, ks.tolist()):
        assert value == _ExpKS(xs).at(float(rate)) == scalar_ks_exp(xs, float(rate))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1000, 2500])
def test_fit_and_distance_equal_the_per_rate_formulas_bit_for_bit(n):
    # One set of plotting positions and buffers serves a fit's 64 grid rates
    # and its 42 golden-section steps: each distance keeps the bits of the
    # one-rate formula, so the fit does too.
    rng = np.random.default_rng(n + 7)
    for samples in (rng.exponential(0.7, n), rng.uniform(0.0, 3.0, n) ** 3):
        fit = best_fit_exponential(samples)
        assert (fit.rate, fit.ks_distance) == scalar_best_fit(samples)
        for rate in (fit.rate, 1.0, float(rng.uniform(0.01, 100.0))):
            assert ks_distance_to_exp(samples, rate) == scalar_ks_exp(np.sort(samples), rate)
