"""Config parsing, the trial runner, summaries, and record serialization."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mml import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentKind,
    MarketKind,
    Side,
    TrialRecord,
    format_summary,
    hyperbola_product,
    ks_distance_to_exp,
    load_config,
    parse_config,
    records_from_csv,
    records_to_csv,
    records_to_jsonl,
    run_experiment,
    sinkhorn_balance,
    stream_key,
    summarize,
    summarize_experiment,
    uniform_market,
    write_outputs,
)
import mml.experiments
import mml.market
import mml.sampling
from mml.experiments import _pool_size, run_trial
from mml.rng import usable_cores
from oracles import bounds_run, held_deferred_acceptance, sample_latent

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
TEST_CONFIG_DIR = Path(__file__).resolve().parent / "configs"

FULL_CONFIG = """
# exercise every key the parser knows about
experiment = approx_stable
market     = cbounded
n = 50
trials = 10
master_seed = 801
c = 2.5
delta = 0.1
k = 3
tol.ks = 0.04          # trailing comments are stripped
tol.pass_fraction = 0.85
"""

TINY_VALUE_DIST = """
experiment = value_dist
market = uniform
n = 30
trials = 4
master_seed = 11
delta = 0.1
"""


def test_parse_config_reads_all_keys():
    cfg = parse_config(FULL_CONFIG)
    assert cfg.experiment is ExperimentKind.APPROX_STABLE
    assert cfg.market is MarketKind.CBOUNDED
    assert (cfg.n, cfg.trials, cfg.master_seed) == (50, 10, 801)
    assert (cfg.c, cfg.delta, cfg.k) == (2.5, 0.1, 3)
    assert cfg.tol("ks", 0.05) == 0.04
    assert cfg.tol("pass_fraction", 0.9) == 0.85
    # unset tolerance falls back to the caller's default
    assert cfg.tol("alpha", 0.07) == 0.07


def test_enum_names_ignore_case_and_separators():
    base = "n = 4\ntrials = 1\nmaster_seed = 0\n"
    for spelling in ("value_dist", "ValueDist", "VALUE-DIST", "value dist".replace(" ", "_")):
        cfg = parse_config(f"experiment = {spelling}\n" + base)
        assert cfg.experiment is ExperimentKind.VALUE_DIST
    for spelling in ("public_scores", "Public-Scores", "PUBLICSCORES"):
        cfg = parse_config(f"experiment = value_dist\nmarket = {spelling}\n" + base)
        assert cfg.market is MarketKind.PUBLIC_SCORES


def test_malformed_lines_are_rejected():
    bad_texts = [
        ("experiment = value_dist\nn = 4\ntrials = 1\nmaster_seed = 0\nshoe_size = 9\n", "shoe_size"),
        ("experiment value_dist\n", "key = value"),
        ("experiment =\n", "no value"),
        ("experiment = value_dist\nn = four\ntrials = 1\nmaster_seed = 0\n", "n"),
        ("experiment = mystery\nn = 4\ntrials = 1\nmaster_seed = 0\n", "mystery"),
        ("experiment = value_dist\nmarket = bazaar\nn = 4\ntrials = 1\nmaster_seed = 0\n", "bazaar"),
        *(
            (f"experiment = {kind}\nn = 4\ntrials = 1\nmaster_seed = 0\nk = {k}\n",
             f"^k: experiment = {kind} reads no k$")
            for kind in ("value_dist", "rank_dist", "hyperbola", "stable_count")
            for k in (0, 10)
        ),
        ("experiment = value_dist\nmarket = uniform\nc = 2\nn = 4\ntrials = 1\nmaster_seed = 0\n",
         "^c: market = uniform reads no c$"),
        ("experiment = stable_count\ndelta = 0.05\nn = 4\ntrials = 1\nmaster_seed = 0\n",
         "^delta: experiment = stable_count reads no delta$"),
    ]
    for text, fragment in bad_texts:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)


def test_misspelled_tolerance_is_rejected():
    base = "experiment = value_dist\nn = 4\ntrials = 1\nmaster_seed = 0\n"
    with pytest.raises(ConfigError, match="tol.kss"):
        parse_config(base + "tol.kss = 0.01\n")
    # Any tolerance some check reads is accepted, whichever experiment reads it.
    for name in ("pass_fraction", "ks", "hyperbola_err", "alpha", "target", "margin"):
        assert parse_config(base + f"tol.{name} = 0.5\n").tol(name, 0.0) == 0.5


@pytest.mark.parametrize(
    "key",
    ["zeta", "theta", "chernoff_t", "chernoff_samples", "dkw_eps", "dkw_n", "dkw_delta",
     "dkw_band", "dkw_experiments"],
)
def test_fixed_statistic_parameters_are_not_config_keys(key):
    base = "experiment = value_dist\nn = 4\ntrials = 1\nmaster_seed = 0\n"
    with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
        parse_config(base + f"{key} = 0.5\n")


def test_each_required_key_is_enforced():
    lines = {
        "experiment": "experiment = value_dist",
        "n": "n = 4",
        "trials": "trials = 1",
        "master_seed": "master_seed = 0",
    }
    for omitted in lines:
        text = "\n".join(line for key, line in lines.items() if key != omitted)
        with pytest.raises(ConfigError, match=omitted):
            parse_config(text)


def test_semantic_validation():
    def cfg_text(**overrides):
        data = {"experiment": "value_dist", "n": 4, "trials": 1, "master_seed": 0}
        data.update(overrides)
        return "\n".join(f"{k} = {v}" for k, v in data.items())

    cases = [
        (cfg_text(n=0), "n"),
        (cfg_text(trials=0), "trials"),
        (cfg_text(c=0.9), "c"),
        (cfg_text(c="inf"), "c: must be finite"),
        (cfg_text(market="cbounded", c="inf"), "c: must be finite"),
        (cfg_text(delta=1.0), "delta"),
        (cfg_text(delta=-0.1), "delta"),
        (cfg_text(workers=0), "unknown config key 'workers'"),
        (cfg_text(k=-1), "k"),
        (cfg_text(experiment="stable_count", n=11), "n <= 10"),
        (cfg_text(experiment="imbalance", k=0), "k"),
        (cfg_text(experiment="imbalance", n=5, k=5), "k"),
        (cfg_text(experiment="approx_stable", n=1, k=1), "k"),
    ]
    for text, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(text)
    # boundary values that must be accepted
    assert parse_config(cfg_text(delta=0.0)).delta == 0.0
    assert parse_config(cfg_text(market="cbounded", c=1.0)).c == 1.0
    assert parse_config(cfg_text(experiment="stable_count", n=10)).n == 10
    assert parse_config(cfg_text(experiment="imbalance", n=5, k=4)).k == 4
    assert parse_config(cfg_text(experiment="approx_stable", n=1, k=0)).k == 0
    assert parse_config(cfg_text(experiment="approx_stable", n=2, k=1)).k == 1


@pytest.mark.parametrize(
    "text, first, second",
    [
        ("n = 10\nn = 12\n", 5, 6),
        ("N = 10\n\n# again\nn = 12\n", 5, 8),
        ("tol.ks = 0.05\ntol.ks = 0.5\n", 5, 6),
    ],
)
def test_a_key_set_twice_is_refused(text, first, second):
    base = "experiment = value_dist\ntrials = 1\nmaster_seed = 0\nmarket = uniform\n"
    key = text.split("=")[0].strip().lower()
    with pytest.raises(ConfigError, match=f"line {second}: {key!r} is already set on line {first}"):
        parse_config(base + text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "+Infinity", "NaN"])
def test_non_finite_tolerances_are_refused(value):
    base = "experiment = value_dist\nn = 4\ntrials = 1\nmaster_seed = 0\n"
    with pytest.raises(ConfigError, match="line 5: tol.ks must be finite"):
        parse_config(base + f"tol.ks = {value}\n")


def test_load_config_round_trips_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(FULL_CONFIG, encoding="utf-8")
    assert load_config(path) == parse_config(FULL_CONFIG)


def test_csv_round_trip_preserves_records():
    _, records = run_experiment(parse_config(TINY_VALUE_DIST))
    text = records_to_csv(records)
    header = text.splitlines()[0]
    assert header.split(",") == CSV_COLUMNS

    parsed = records_from_csv(text)
    assert parsed == records
    for record in parsed:
        assert isinstance(record.trial_id, int)
        assert isinstance(record.proposal_count, int)
        # columns this experiment never fills come back as None, not 0 or nan
        assert record.stable_count is None
        assert record.bound is None


def test_csv_round_trip_preserves_the_bound_columns():
    # Criterion 8's oracle is the one writer of bound and observed.
    records = list(bounds_run())
    assert records_from_csv(records_to_csv(records)) == records


def test_jsonl_skips_unset_fields():
    _, records = run_experiment(parse_config(TINY_VALUE_DIST))
    lines = records_to_jsonl(records).splitlines()
    assert len(lines) == len(records)
    for line, record in zip(lines, records):
        row = json.loads(line)
        assert row["trial_id"] == record.trial_id
        assert row["matching_kind"] == record.matching_kind
        assert None not in row.values()
        assert "stable_count" not in row


def test_records_arrive_sorted_by_trial_then_kind():
    _, records = run_experiment(parse_config(TINY_VALUE_DIST))
    keys = [(r.trial_id, r.matching_kind) for r in records]
    assert keys == sorted(keys)
    assert [k for _, k in keys[:2]] == ["mosm", "wosm"]


def test_value_dist_records_the_finite_n_value_law():
    # ks_ysum and lambda_ysum compare u = 1 - exp(-x) with Exp(sum_j 1 - exp(-y_j)),
    # not raw x with Exp(||Y_delta||_1); recompute both from each trial's draws.
    cfg = parse_config(TINY_VALUE_DIST)
    _, records = run_experiment(cfg)
    recorded = {(r.trial_id, r.matching_kind): r for r in records}
    bal = sinkhorn_balance(uniform_market(cfg.n))
    for t in range(cfg.trials):
        values = sample_latent(bal, stream_key(cfg.master_seed, "trial", t))
        for side, kind in ((Side.MEN, "mosm"), (Side.WOMEN, "wosm")):
            _, outcome = held_deferred_acceptance(values, side)
            u = -np.expm1(-outcome.value_men)
            rate = float((-np.expm1(-outcome.value_women)).sum())
            record = recorded[(t, kind)]
            assert record.lambda_ysum == rate
            assert record.ks_ysum == ks_distance_to_exp(u, rate)
            assert record.ks_ysum != ks_distance_to_exp(outcome.value_men, rate)


@pytest.mark.parametrize("experiment", ["hyperbola", "value_dist"])
def test_delta_zero_reads_the_untruncated_outcome(experiment):
    # At delta = 0 nobody is dropped: the welfare product is the whole
    # outcome's, and the first-order rate is the women's whole value sum.
    cfg = parse_config(
        TINY_VALUE_DIST.replace("value_dist", experiment).replace("delta = 0.1", "delta = 0")
    )
    bal = sinkhorn_balance(uniform_market(cfg.n))
    for t in range(cfg.trials):
        values = sample_latent(bal, stream_key(cfg.master_seed, "trial", t))
        recorded = {r.matching_kind: r for r in run_trial(cfg, t)}
        for side, kind in ((Side.MEN, "mosm"), (Side.WOMEN, "wosm")):
            _, outcome = held_deferred_acceptance(values, side)
            x, y = outcome.value_men, outcome.value_women
            assert recorded[kind].hyperbola == hyperbola_product(x, y, cfg.n)
            # value_dist records the finite-n rate, which delta does not touch.
            rate = float(y.sum()) if experiment == "hyperbola" else float((-np.expm1(-y)).sum())
            assert recorded[kind].lambda_ysum == rate


def test_worker_count_is_invisible_in_output(monkeypatch):
    cfg = parse_config(TINY_VALUE_DIST)
    monkeypatch.setenv("MML_WORKERS", "1")
    _, serial = run_experiment(cfg)
    monkeypatch.setenv("MML_WORKERS", "3")
    _, parallel = run_experiment(cfg)
    assert records_to_csv(serial) == records_to_csv(parallel)


def test_approx_stable_swap_of_a_uniform_of_one_draws_the_last_man(monkeypatch):
    # The counter word 2^53 - 1 gives a uniform of exactly 1.0 (probability
    # 2^-53 a draw): the first swap then picks man n - 1, as (n - 0.5) / n does.
    assert np.add(np.int64(2**53 - 1), 0.5) * 2.0**-53 == 1.0
    cfg = parse_config(TINY_VALUE_DIST.replace("value_dist", "approx_stable") + "k = 3\n")
    draw = mml.experiments.unit_uniforms

    def records_with_first_swap(u):
        forced = []

        def first_draw_forced(key, shape, offset=0, out=None):
            values = draw(key, shape, offset, out)
            if not forced:
                forced.append(offset)
                values[0] = u
            return values

        monkeypatch.setattr(mml.experiments, "unit_uniforms", first_draw_forced)
        records = run_trial(cfg, 0)
        assert forced == [0]
        return records_to_csv(records)

    assert records_with_first_swap(1.0) == records_with_first_swap((cfg.n - 0.5) / cfg.n)


def test_imbalance_trial_screens_only_its_fresh_draw(monkeypatch):
    # The men's tables and the women's largest values come from one streamed
    # pass per side; no value matrix is held, so none is screened.  Each row
    # of the uniform market has one rate, so a block is screened from its
    # words (the key screen), or from its values where that cannot clear it.
    screened, keyed = [], set()
    screen, key_screen = mml.sampling._screened_rows, mml.sampling._key_screened_rows

    def recording_screen(name, block, out=None):
        screened.append((name, block.shape))
        return screen(name, block, out)

    def recording_key_screen(stream, rows, words, scratch, width):
        bound = key_screen(stream, rows, words, scratch, width)
        if bound is not None:
            screened.append((stream.name, words.shape))
            keyed.add(stream.name)
        return bound

    def refuse(stream):
        raise AssertionError(f"a held {stream.name} was screened")

    monkeypatch.setattr(mml.sampling, "_screened_rows", recording_screen)
    monkeypatch.setattr(mml.sampling, "_key_screened_rows", recording_key_screen)
    monkeypatch.setattr(mml.sampling.ValueStream, "matrix", refuse)
    cfg = parse_config(TINY_VALUE_DIST.replace("value_dist", "imbalance") + "k = 3\n")
    records = run_trial(cfg, 0)
    for side in ("X", "Y"):
        shapes = [shape for name, shape in screened if name == side]
        assert {cols for _, cols in shapes} == {30}
        assert sum(rows for rows, _ in shapes) == 30
    assert keyed == {"X", "Y"}
    assert records[0].da_agree == 1


def record_pools(monkeypatch, run=lambda fn, trials, chunksize: map(fn, trials)):
    """Replace the process pool by one that maps ``run(fn, trials, chunksize)``
    in this process; returns the lists of each pool's size and chunk size."""
    sizes, chunks = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            chunks.append(chunksize)
            return run(fn, iterable, chunksize)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes, chunks


def test_worker_processes_are_capped_at_the_trial_count(monkeypatch):
    sizes, _ = record_pools(monkeypatch)
    cfg = parse_config(TINY_VALUE_DIST)
    monkeypatch.setenv("MML_WORKERS", "1")
    _, serial = run_experiment(cfg)
    assert sizes == []

    monkeypatch.setenv("MML_WORKERS", "5000")
    _, pooled = run_experiment(cfg)
    assert sizes == [cfg.trials]
    assert records_to_csv(pooled) == records_to_csv(serial)
    # Unset, one worker per core, and again no more than the trials.
    monkeypatch.delenv("MML_WORKERS")
    monkeypatch.setattr(mml.experiments, "usable_cores", lambda: 8)
    run_experiment(cfg)
    assert sizes == [cfg.trials] * 2
    # A single trial runs in this process, without a pool.
    run_experiment(replace(cfg, trials=1))
    assert sizes == [cfg.trials] * 2


def test_pool_chunks_hold_at_most_sixteen_trials(monkeypatch):
    # Ctrl-C keeps only the chunks that came back, so a long run's chunks stay short.
    sizes, chunks = record_pools(monkeypatch, run=lambda fn, trials, chunksize: [])
    monkeypatch.setenv("MML_WORKERS", "2")
    run_experiment(replace(parse_config(TINY_VALUE_DIST), trials=20_000))
    assert sizes == [2] and 1 <= chunks[0] <= 16


def test_interrupted_pool_keeps_the_chunks_that_came_back(monkeypatch):
    def first_chunk_then_interrupt(fn, trials, chunksize):
        yield from map(fn, list(trials)[:chunksize])
        raise KeyboardInterrupt

    _, chunks = record_pools(monkeypatch, run=first_chunk_then_interrupt)
    monkeypatch.setenv("MML_WORKERS", "2")
    cfg = replace(parse_config(TINY_VALUE_DIST), trials=40)
    summary, records = run_experiment(cfg)
    assert chunks == [5]
    assert summary["interrupted"] is True and summary["passed"] is False
    kept = [rec for t in range(5) for rec in run_trial(cfg, t)]
    assert records_to_csv(records) == records_to_csv(kept)


def test_pool_size_is_the_cores_unless_the_environment_sets_it(monkeypatch):
    cfg = parse_config(TINY_VALUE_DIST)
    monkeypatch.setattr(mml.experiments, "usable_cores", lambda: 3)
    monkeypatch.delenv("MML_WORKERS", raising=False)
    assert _pool_size(cfg) == 3
    monkeypatch.setenv("MML_WORKERS", "2")
    assert _pool_size(cfg) == 2
    monkeypatch.setenv("MML_WORKERS", "zero")
    with pytest.raises(ConfigError, match="MML_WORKERS"):
        _pool_size(cfg)
    monkeypatch.setenv("MML_WORKERS", "0")
    with pytest.raises(ConfigError, match="MML_WORKERS"):
        _pool_size(cfg)


def test_fraction_check_boundary_is_inclusive():
    cfg = parse_config(
        "experiment = value_dist\nn = 100\ntrials = 20\nmaster_seed = 1\n"
        "tol.ks = 0.05\ntol.pass_fraction = 0.9\n"
    )

    def fake_records(n_good: int) -> list[TrialRecord]:
        return [
            TrialRecord(
                trial_id=i,
                matching_kind=kind,
                ks_ysum=0.01 if i < n_good else 0.5,
            )
            for i in range(20)
            for kind in ("mosm", "wosm")
        ]

    at_bar = summarize_experiment(cfg, fake_records(18))
    assert [c["value"] for c in at_bar["checks"]] == pytest.approx([0.9, 0.9])
    assert at_bar["passed"]  # 18/20 == 0.9 meets a 0.9 bar exactly
    below = summarize_experiment(cfg, fake_records(17))
    assert not below["passed"]


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_shipped_configs_set_only_keys_their_trials_read(name):
    # c shapes the public-scores and C-bounded markets, delta truncates the
    # outcomes of every experiment but stable_count, and k is approx_stable's
    # swaps and imbalance's dummy men.
    path = CONFIG_DIR / f"{name}.cfg"
    keys = {
        line.split("=", 1)[0].strip().lower()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.split("#", 1)[0].strip()
    }
    cfg = load_config(path)
    if "c" in keys:
        assert cfg.market in (MarketKind.PUBLIC_SCORES, MarketKind.CBOUNDED)
    if "delta" in keys:
        assert cfg.experiment is not ExperimentKind.STABLE_COUNT
    if "k" in keys:
        assert cfg.experiment in (ExperimentKind.APPROX_STABLE, ExperimentKind.IMBALANCE)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.cfg")))
def test_checks_without_records_fail(name):
    summary = summarize_experiment(load_config(CONFIG_DIR / f"{name}.cfg"), [])
    assert summary["checks"]
    for check in summary["checks"]:
        assert check["value"] == 0.0
        assert check["passed"] is False
    assert summary["passed"] is False


def test_summarize_skips_unset_columns_and_lone_values():
    records = [
        TrialRecord(trial_id=0, matching_kind="all", stable_count=2),
        TrialRecord(trial_id=1, matching_kind="all", stable_count=5),
        TrialRecord(trial_id=2, matching_kind="all", stable_count=None, hyperbola=1.5),
    ]
    stats = summarize(records)
    assert set(stats) == {"stable_count", "hyperbola"}
    sc = stats["stable_count"]
    assert sc["count"] == 2
    assert sc["mean"] == pytest.approx(3.5)
    assert sc["std"] == pytest.approx(math.sqrt(4.5))
    assert (sc["min"], sc["max"]) == (2.0, 5.0)
    assert stats["hyperbola"]["std"] == 0.0  # single observation


def test_summary_structure_and_formatting():
    cfg = parse_config(TINY_VALUE_DIST)
    summary, records = run_experiment(cfg)
    assert summary["experiment"] == "value_dist"
    assert summary["market"] == "uniform"
    assert summary["records"] == len(records) == 2 * cfg.trials
    names = [c["name"] for c in summary["checks"]]
    assert names == ["ks_ysum_within[mosm]", "ks_ysum_within[wosm]"]
    assert summary["passed"] == all(c["passed"] for c in summary["checks"])

    text = format_summary(summary)
    assert "ks_ysum_within[mosm]" in text
    assert "overall: " in text
    assert "statistic" in text
    assert "INTERRUPTED" not in text
    partial = dict(summary, interrupted=True)
    assert "INTERRUPTED: partial results only" in format_summary(partial)


def test_write_outputs_creates_the_four_files(tmp_path):
    cfg = parse_config(TINY_VALUE_DIST)
    summary, records = run_experiment(cfg)
    out = tmp_path / "results"
    write_outputs(out, cfg, summary, records)
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.json",
        "summary.txt",
        "trials.csv",
        "trials.jsonl",
    ]
    on_disk = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert on_disk["records"] == summary["records"]
    assert records_from_csv((out / "trials.csv").read_text(encoding="utf-8")) == records


def test_rank_and_proposal_laws_on_uniform_market():
    # With symmetric logit preferences the proposing side averages rank
    # ~log(n), the receiving side ~n/log(n), their product stays near n, and
    # man-proposing acceptance runs make ~n log(n) proposals in total.  The
    # windows below are several times wider than the observed spread.
    n, trials = 400, 8
    log_n = math.log(n)
    bal = sinkhorn_balance(uniform_market(n))
    for t in range(trials):
        values = sample_latent(bal, stream_key(424242, "trial", t))
        for side in (Side.MEN, Side.WOMEN):
            _, outcome = held_deferred_acceptance(values, side)
            mean_men = outcome.rank_men.mean()
            mean_women = (values.Y <= outcome.value_women[:, None]).sum(axis=1).mean()
            mean_prop, mean_recv = (
                (mean_men, mean_women) if side is Side.MEN else (mean_women, mean_men)
            )
            assert 0.5 * log_n <= mean_prop <= 3.0 * log_n
            assert 0.2 * n / log_n <= mean_recv <= 3.0 * n / log_n
            assert 0.5 <= mean_prop * mean_recv / n <= 2.0
            assert 0.3 * n * log_n <= outcome.proposal_count <= 3.0 * n * log_n


def test_uniform_trial_holds_only_its_two_value_matrices():
    # Bounds what a uniform value_dist trial keeps (under 5% of one n x n
    # float matrix: the cached balanced market holds O(n)) and its traced
    # peak: under what X and Y would take held (2 x 8n^2 bytes), with half a
    # matrix to spare.  A trial streams X and Y, so it holds O(n * TOP_L)
    # and fixed row-block scratch (about 1.3 MB).
    n = 800
    cfg = parse_config(TINY_VALUE_DIST.replace("n = 30", f"n = {n}"))
    mml.experiments._uniform_balanced.cache_clear()
    tracemalloc.start()
    try:
        run_trial(cfg, 0)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_trial(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        mml.experiments._uniform_balanced.cache_clear()
    assert retained < 0.05 * 8 * n * n
    assert peak < 2.5 * 8 * n * n


def test_cbounded_trial_holds_only_its_kernel():
    # A C-bounded trial holds its balancing kernel, 8 bytes a cell, and draws
    # its scores again by counter wherever it reads them: beside the kernel,
    # only DA's tables, the walks' block buffers and the gathers' scratch.
    # Holding both sides' scores (and the offsets of the kernel written over
    # the men's) read about 18.7 MB here.
    n = 1000
    cfg = parse_config(
        TINY_VALUE_DIST.replace("n = 30", f"n = {n}")
        .replace("value_dist", "rank_dist").replace("market = uniform", "market = cbounded")
    )
    run_trial(cfg, 0)
    tracemalloc.start()
    try:
        run_trial(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n + 4_000_000, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("experiment", ["value_dist", "rank_dist", "hyperbola",
                                        "approx_stable", "imbalance"])
@pytest.mark.parametrize("market", ["uniform", "public_scores", "cbounded"])
def test_trials_never_materialise_a_b_or_m(monkeypatch, experiment, market):
    def refuse(self):
        raise AssertionError("a trial materialised an n x n balanced matrix")

    for name in ("A", "B", "M"):
        monkeypatch.setattr(mml.market.BalancedMarket, name, property(refuse))
    cfg = parse_config(
        TINY_VALUE_DIST.replace("value_dist", experiment).replace("uniform", market)
        + ("k = 3\n" if experiment in ("approx_stable", "imbalance") else "")
    )
    assert run_trial(cfg, 1)


def _refuse_to_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a market was built")

    for name in ("_trial_market", "_uniform_balanced", "sinkhorn_balance"):
        monkeypatch.setattr(mml.experiments, name, refuse)


# The uniform market holds no n x n array; a C-bounded one holds its scores.
CBOUNDED_VALUE_DIST = TINY_VALUE_DIST.replace("market = uniform", "market = cbounded")


def test_size_guard_refuses_runs_past_physical_memory(monkeypatch):
    # The guard reads only the memory model and os.sysconf: no market is
    # built and nothing of size n^2 is allocated.
    _refuse_to_build(monkeypatch)
    monkeypatch.delenv("MML_WORKERS", raising=False)
    cfg = parse_config(CBOUNDED_VALUE_DIST.replace("n = 30", "n = 1000000"))
    with pytest.raises(MemoryError, match=r"^n = 1000000 needs an estimated \d"):
        run_experiment(cfg)


def test_size_guard_counts_every_worker_process(monkeypatch):
    _refuse_to_build(monkeypatch)
    cfg = parse_config(CBOUNDED_VALUE_DIST.replace("n = 30", "n = 4000"))
    # Eight cores, so a pool of three or four workers runs two threads each.
    monkeypatch.setattr(mml.experiments, "usable_cores", lambda: 8)
    per_process = mml.experiments.memory_estimate(cfg, 2)
    assert per_process > 8 * 4000**2
    # A machine with room for three processes of this run, not four.
    pages = 3 * per_process // 4096 + 1
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.get)
    monkeypatch.setenv("MML_WORKERS", "4")
    with pytest.raises(MemoryError, match=r"\(4 process\(es\) x"):
        run_experiment(cfg)
    monkeypatch.setenv("MML_WORKERS", "3")
    assert _pool_size(cfg) == 3
    # Unset, the pool shrinks from one worker per core to what fits.
    monkeypatch.delenv("MML_WORKERS")
    assert _pool_size(cfg) == 3


def subprocess_env(**extra):
    """The environment of a child interpreter that imports this checkout's mml."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mml.__file__)))
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# Trial 0 of every shipped config in one fresh interpreter: np.median's NaN
# check imports numpy.ma (about 15 ms and 1.2 MB on its first call).
NO_MA_RUN = """
import sys
from mml import experiments
for path in sys.argv[1:]:
    experiments.run_trial(experiments.load_config(path), 0)
    assert "numpy.ma" not in sys.modules, f"{path} imported numpy.ma"
"""


def test_no_trial_imports_numpy_ma():
    paths = [str(p) for p in sorted(CONFIG_DIR.glob("*.cfg"))]
    proc = subprocess.run(
        [sys.executable, "-c", NO_MA_RUN, *paths],
        env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_mml_leaves_the_process_pool_out():
    # Only a pool run imports concurrent.futures (about 4 ms and its modules).
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mml, mml.cli; assert 'concurrent.futures' not in sys.modules"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Five C-bounded rank trials in one process; prints each trial's minor page
# faults, or nothing where libc has no mallopt.
FAULTS_RUN = """
from mml import experiments
if experiments._keep_heap():
    import resource
    cfg = experiments.parse_config(
        "experiment = rank_dist\\nmarket = cbounded\\nn = 300\\ntrials = 5\\nmaster_seed = 11\\n"
    )
    for t in range(cfg.trials):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        experiments.run_trial(cfg, t)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_trials_reuse_the_heap_of_the_trials_before_them():
    # A trial's arrays (720 KB each at n = 300) used to be mapped afresh and
    # fault their pages in again: about 2,100 faults per trial.
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_RUN],
        env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    if not faults:
        pytest.skip("libc has no mallopt")
    assert len(faults) == 5
    assert max(faults[1:]) < 200, faults


# VmRSS in kB of a process that imported mml, before and after _keep_heap;
# prints nothing where libc has no malloc_trim.
TRIM_RUN = """
import ctypes, re
from mml import experiments

def rss():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmRSS:\\s*(\\d+) kB", fh.read()).group(1))

if hasattr(ctypes.CDLL(None), "malloc_trim"):
    before = rss()
    experiments._keep_heap()
    print(before, rss())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmRSS")
def test_the_heap_the_import_freed_is_returned_before_the_first_trial(tmp_path):
    # Without bytecode files the import compiles the sources, and the heap it
    # freed stayed resident: 1.5-3 MB at the time of writing.  An empty
    # bytecode cache makes the import compile whatever __pycache__ holds.
    proc = subprocess.run(
        [sys.executable, "-c", TRIM_RUN],
        env=subprocess_env(PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    if not proc.stdout:
        pytest.skip("libc has no malloc_trim")
    before, after = map(int, proc.stdout.split())
    assert after < before - 256, (before, after)


# One process runs up to five trials of a config on a budget of argv[2]
# threads, then prints its peak RSS and the model's estimate for a process on
# that budget, in bytes.  The peak is VmHWM: ru_maxrss also keeps the
# high-water mark of the process that started it (the test runner), which
# execve carries over.
PEAK_RUN = """
import dataclasses, re, sys
from mml import experiments, rng
cfg = experiments.parse_config(sys.argv[1])
cfg = dataclasses.replace(cfg, trials=min(cfg.trials, 5))
threads = int(sys.argv[2])
with rng.thread_budget(threads):
    experiments.run_experiment(cfg)
with open("/proc/self/status") as fh:
    peak = 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))
print(peak, experiments.memory_estimate(cfg, threads))
"""


# Every shipped config, and the test configs that reach what no shipped one
# does: a crowded backfilled public-scores market, backfilled C-bounded ones
# and public scores at c = 100.
PEAK_CONFIGS = {
    p.stem: p.read_text(encoding="utf-8")
    for directory in (CONFIG_DIR, TEST_CONFIG_DIR)
    for p in sorted(directory.glob("*.cfg"))
}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's VmHWM")
@pytest.mark.parametrize("text", PEAK_CONFIGS.values(), ids=PEAK_CONFIGS)
def test_memory_model_bounds_the_measured_peak(text):
    # The pool is sized from the model, so it must not under-count a process:
    # neither a serial run on every core nor a pool worker on one thread.
    budgets = sorted({1, usable_cores()})
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PEAK_RUN, text, str(threads)],
            env=subprocess_env(MML_WORKERS="1"), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for threads in budgets
    ]
    for threads, proc in zip(budgets, procs):
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        peak, model = map(int, stdout.split())
        assert peak <= model, (
            f"{threads} thread(s): peak {peak / 2**20:.1f} MiB, model {model / 2**20:.1f} MiB"
        )
