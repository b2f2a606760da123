"""Value-family trials stream their values and hold no n x n array.

A value_dist, rank_dist or hyperbola trial draws X and Y once, a row block
at a time: each block is screened and keeps its rows' best columns, and the
few other cells the walks read are drawn from their counters.  Its records
must equal those of the matrix path: ``sample_latent``, then
``deferred_acceptance`` and ``outcome_of`` on both matrices.

The approx_stable and imbalance trials stream their values too.  Their
records must equal those of the same trials on both held matrices: the
perturbed outcome by ``outcome_of``, the certificate on the whole blocking
mask, and the completion written into the drawn Y.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mml.sampling
from mml import experiments
from mml.errors import DuplicateValue
from mml.experiments import parse_config, records_to_csv, run_trial
from mml.market import random_cbounded_market, sinkhorn_balance
from mml.matching import Side, deferred_acceptance, proposer_tables
from mml.rng import (
    BLOCK, row_blocks, single_threaded_blas, stream_key, thread_budget, usable_cores,
)
from mml.sampling import latent_streams, sample_latent
from oracles import held_approx_stable_records, held_imbalance_records

BUDGETS = (1, 2, 3)
EXPERIMENTS = ("value_dist", "rank_dist", "hyperbola")


def matrix_matchings(bal, seed):
    """The man- and woman-optimal matchings and outcomes, from both matrices."""
    values = sample_latent(bal, seed)
    return [deferred_acceptance(values, side) for side in (Side.MEN, Side.WOMEN)]


def config(experiment, market, n):
    return parse_config(
        f"experiment = {experiment}\nmarket = {market}\nc = 2.5\nn = {n}\n"
        "trials = 1\nmaster_seed = 17\n"
    )


def solutions(cfg):
    """Trial 0's streamed and matrix solutions, as comparable bytes."""
    bal = experiments._build_balanced(cfg, 0)
    seed = stream_key(cfg.master_seed, "trial", 0)
    out = []
    for solve in (experiments._optimal_matchings, matrix_matchings):
        out.append([
            (matching.mu, outcome.proposal_count, outcome.rank_men.dtype,
             outcome.value_men.tobytes(), outcome.value_women.tobytes(),
             outcome.rank_men.tobytes())
            for matching, outcome in solve(bal, seed)
        ])
    return out


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 257])
@pytest.mark.parametrize("market", ["uniform", "public_scores", "cbounded"])
def test_streamed_records_equal_the_matrix_records(monkeypatch, market, n):
    for budget in BUDGETS:
        with thread_budget(budget):
            streamed, matrix = solutions(config("value_dist", market, n))
            assert streamed == matrix
            for experiment in EXPERIMENTS:
                cfg = config(experiment, market, n)
                records = records_to_csv(run_trial(cfg, 0))
                with monkeypatch.context() as patch:
                    patch.setattr(experiments, "_optimal_matchings", matrix_matchings)
                    assert records_to_csv(run_trial(cfg, 0)) == records


@pytest.mark.parametrize("market", ["uniform", "public_scores", "cbounded"])
def test_deep_walks_keep_the_matchings(monkeypatch, market):
    cfg = config("rank_dist", market, 257)
    full_top = solutions(cfg)
    records = records_to_csv(run_trial(cfg, 0))
    monkeypatch.setattr(mml.sampling, "TOP_L", 2)
    for budget in BUDGETS:
        with thread_budget(budget):
            assert solutions(cfg) == full_top
            assert records_to_csv(run_trial(cfg, 0)) == records
    # Most walks of both sides went past the two presorted columns.
    bal = experiments._build_balanced(cfg, 0)
    values = sample_latent(bal, stream_key(cfg.master_seed, "trial", 0))
    (_, mosm), (_, wosm) = matrix_matchings(bal, stream_key(cfg.master_seed, "trial", 0))
    women_ranks = (values.Y <= wosm.value_women[:, None]).sum(axis=1)
    assert np.median(mosm.rank_men) > 2 and np.median(women_ranks) > 2


def test_deep_walks_read_sixteen_times_their_depth(monkeypatch):
    # Past its presorted columns a walk at depth k reads its best 16k
    # receivers, and 16k more each time it reaches their end, not its row.
    # With 4 presorted columns a walk reads 64, then its whole row of 600.
    # Fitness spread over a factor of 100 sends many walks deep.
    monkeypatch.setattr(mml.sampling, "TOP_L", 4)
    cfg = parse_config(
        "experiment = value_dist\nmarket = public_scores\nc = 100\nn = 600\n"
        "trials = 1\nmaster_seed = 17\n"
    )
    bal = experiments._build_balanced(cfg, 0)
    seed = stream_key(cfg.master_seed, "trial", 0)
    tables, _ = proposer_tables(*latent_streams(bal, seed))
    asked = []

    def deep(p, stop):
        order, recv = tables.deep(p, stop)
        asked.append((stop, order.size, recv.size))
        return order, recv

    matching, outcome = deferred_acceptance(dataclasses.replace(tables, deep=deep), Side.MEN)
    held_matching, held = deferred_acceptance(sample_latent(bal, seed), Side.MEN)
    assert matching == held_matching
    assert outcome.value_men.tobytes() == held.value_men.tobytes()
    assert outcome.rank_men.tobytes() == held.rank_men.tobytes()
    assert {stop for stop, _, _ in asked} == {64, 1024}
    assert all(size == recv_size == min(stop, cfg.n) for stop, size, recv_size in asked)
    assert np.count_nonzero(held.rank_men > 4) == sum(stop == 64 for stop, _, _ in asked)
    assert np.count_nonzero(held.rank_men > 64) == sum(stop == 1024 for stop, _, _ in asked)


MARKETS = ("uniform", "public_scores", "cbounded")


def assert_trial_equals_the_held_draws(data, experiment, k_range, held_records):
    n = data.draw(st.integers(2, 40), label="n")
    cfg = parse_config(
        f"experiment = {experiment}\nmarket = {data.draw(st.sampled_from(MARKETS))}\n"
        f"c = 2.5\nn = {n}\nk = {data.draw(st.integers(*k_range(n)), label='k')}\n"
        f"trials = 1\nmaster_seed = {data.draw(st.integers(0, 2**32), label='seed')}\n"
    )
    # A width of 2 sends walks past their presorted columns into deep walks.
    with mock.patch.object(mml.sampling, "TOP_L", data.draw(st.sampled_from([2, 64]))):
        records = records_to_csv(run_trial(cfg, 0))
        with single_threaded_blas():
            assert records == records_to_csv(held_records(cfg, 0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_approx_stable_records_equal_the_held_draws(data):
    # The certificate reads only the moved men's rows and women's columns.
    assert_trial_equals_the_held_draws(
        data, "approx_stable", lambda n: (0, 3 * n), held_approx_stable_records
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_imbalance_records_equal_the_held_draws(data):
    # The completion is streamed: the added men's receiver values are derived.
    assert_trial_equals_the_held_draws(
        data, "imbalance", lambda n: (1, n - 1), held_imbalance_records
    )


def faulty_market(sides):
    """A balanced 700 x 700 market with a NaN rate in a late block of each side named."""
    bal = sinkhorn_balance(random_cbounded_market(700, 2.5, seed=9))
    late = [rows.start for rows in row_blocks(700, 700)][-1] + 3
    scores = {}
    for side, name in (("X", "a_hat"), ("Y", "b_hat")):
        if side in sides:
            scores[name] = getattr(bal, name).copy()
            scores[name][late, 5] = np.nan
    return dataclasses.replace(bal, **scores)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("sides", ["X", "Y", "XY"])
def test_a_fault_in_a_late_block_raises_the_matrix_message(budget, sides):
    bal = faulty_market(sides)
    with thread_budget(budget):
        with pytest.raises(DuplicateValue) as matrix:
            sample_latent(bal, 4)
        with pytest.raises(DuplicateValue) as streamed:
            experiments._optimal_matchings(bal, 4)
    assert str(matrix.value) == f"non-finite or non-positive {sides[0]} value drawn; reseed"
    # The women's values are screened first: only when both sides fault
    # does the streamed trial name Y where the matrices name X.
    assert str(streamed.value) == str(matrix.value).replace("X", sides[-1])


def test_uniform_trial_peaks_below_one_value_matrix():
    # After set-up (the cached uniform market holds O(n)), a trial holds one
    # thread's block scratch (three buffers of BLOCK cells), 1.5 KiB per row
    # (its walks' tables and what their gathers make, 1.2 KiB measured here
    # on one thread) and the scratch of each further thread: far below one
    # n x n array.
    n = 1500
    cfg = parse_config(
        f"experiment = value_dist\nmarket = uniform\nn = {n}\ntrials = 2\nmaster_seed = 3\n"
    )
    experiments._UNIFORM_CACHE.pop((n, 0), None)
    try:
        run_trial(cfg, 0)
        for threads in sorted({1, usable_cores()}):
            with thread_budget(threads):
                tracemalloc.start()
                try:
                    run_trial(cfg, 1)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            bound = 3 * 8 * BLOCK + 1536 * n + (threads - 1) * experiments._THREAD_BYTES
            per_row = (peak - 3 * 8 * BLOCK) / n
            assert peak < bound, f"{threads} thread(s): {per_row:.0f} bytes per row"
    finally:
        experiments._UNIFORM_CACHE.pop((n, 0), None)
