"""Release gate: one test per shipped claim, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line;
without ``-s`` the lines still appear for failing tests.  Criteria that drive
experiment configs load them from ``configs/`` so the gate checks exactly what
ships.
"""

import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from mml import (
    Matching,
    Side,
    canonical_from_raw,
    deferred_acceptance,
    enumerate_stable,
    is_stable,
    load_config,
    public_scores_market,
    random_cbounded_market,
    run_experiment,
    sample_latent,
    sinkhorn_balance,
    stream_key,
    uniform_market,
)
import oracles
from oracles import exact_laws, g_test, p_mu

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    return line


def _run_config(name: str):
    cfg = load_config(CONFIG_DIR / name)
    summary, records = run_experiment(cfg)
    checks = ", ".join(
        f"{c['name']}={c['value']:.4g}({'ok' if c['passed'] else 'FAIL'})"
        for c in summary["checks"]
    )
    return cfg, summary, records, checks


def test_criterion_01_small_market_stable_count():
    # (a) the exact 2x2 uniform law, (b) the shipped 20,000-trial run's own
    # check (mean within 0.02 of 9/8), (c) its histogram against (a)'s law,
    # a G-test at alpha = 1e-3 (df 1, critical value 10.83).
    start = time.perf_counter()
    law, _ = exact_laws(sinkhorn_balance(uniform_market(2)))
    exact_mean = float(law @ np.arange(law.size))
    _, summary, records, checks = _run_config("stable_count_2x2.cfg")
    counts = np.bincount([r.stable_count for r in records], minlength=law.size)
    g, _, p_value = g_test(counts, law)
    elapsed = time.perf_counter() - start
    ok = (abs(exact_mean - 1.125) <= 1e-12 and summary["passed"] and p_value >= 1e-3
          and elapsed < 10.0)
    sampled_mean = float(counts @ np.arange(counts.size)) / counts.sum()
    line = _report(
        1, ok, f"2x2 mean stable count: exact {exact_mean:.12g} (9/8), sampled "
        f"{sampled_mean:.4f} over {counts.sum()} trials [{checks}], G {g:.2f} "
        f"(p {p_value:.3g} >= 1e-3) in {elapsed:.1f}s (budget 10s)"
    )
    assert ok, line


def test_criterion_02_enumeration_agrees_with_acceptance():
    start = time.perf_counter()
    instances = 500
    max_count = 0
    for i in range(instances):
        n = 2 + (i % 7)
        c = (1.0, 2.0, 3.0)[i % 3]
        market = random_cbounded_market(n, c, stream_key(4242, "market", i))
        bal = sinkhorn_balance(market)
        values = sample_latent(bal, stream_key(4242, "values", i))
        stable = enumerate_stable(values)
        assert all(is_stable(m, values) for m in stable)
        mosm, _ = deferred_acceptance(values, Side.MEN)
        wosm, _ = deferred_acceptance(values, Side.WOMEN)
        assert mosm in stable and wosm in stable
        x_mosm = values.X[np.arange(n), mosm.mu_array]
        for m in stable:
            assert np.all(x_mosm <= values.X[np.arange(n), m.mu_array])
        max_count = max(max_count, len(stable))
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    line = _report(
        2, ok, f"{instances} markets n in 2..8: all enumerated matchings stable, "
        f"acceptance endpoints present, man-optimal value-minimal; "
        f"largest set {max_count}; {elapsed:.1f}s (budget 60s)"
    )
    assert ok, line


def test_criterion_03_balancing_accuracy():
    sizes = np.random.default_rng(9003)
    worst_residual = 0.0
    worst_m_dev = 0.0
    worst_phi_dev = 0.0
    for i in range(100):
        n = int(sizes.integers(2, 201))
        c = float(sizes.uniform(1.0, 2.0))  # raw-score ratio c^2 stays <= 4
        if i % 2 == 0:
            bal = sinkhorn_balance(random_cbounded_market(n, c, stream_key(9003, "m", i)))
            worst_residual = max(worst_residual, bal.residual)
        else:
            rng = np.random.default_rng(9103 + i)
            market = public_scores_market(
                rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
            )
            bal = sinkhorn_balance(market)
            worst_residual = max(worst_residual, bal.residual)
            # shared scores force a flat mutual matrix and fitness inverse to
            # each man's common score
            worst_m_dev = max(worst_m_dev, float(np.max(np.abs(bal.M * n - 1.0))))
            ratio = bal.phi * market.b_hat[0]
            worst_phi_dev = max(worst_phi_dev, float(ratio.max() / ratio.min() - 1.0))
    ok = worst_residual <= 1e-10 and worst_m_dev <= 1e-8 and worst_phi_dev <= 1e-8
    line = _report(
        3, ok, f"100 markets n<=200: worst residual {worst_residual:.2e} (<=1e-10), "
        f"flat-mutual dev {worst_m_dev:.2e}, fitness-inverse dev {worst_phi_dev:.2e} (<=1e-8)"
    )
    assert ok, line


def test_criterion_04_value_distribution_runs():
    start = time.perf_counter()
    _, s_uniform, _, checks_u = _run_config("value_dist_uniform.cfg")
    _, s_cbounded, _, checks_c = _run_config("value_dist_cbounded.cfg")
    elapsed = time.perf_counter() - start
    ok = s_uniform["passed"] and s_cbounded["passed"] and elapsed < 300.0
    line = _report(
        4, ok, f"uniform[{checks_u}] cbounded[{checks_c}] in {elapsed:.0f}s (budget 300s)"
    )
    assert ok, line


def test_criterion_05_rank_distribution_runs():
    start = time.perf_counter()
    _, s_uniform, _, checks_u = _run_config("rank_dist_uniform.cfg")
    _, s_cbounded, _, checks_c = _run_config("rank_dist_cbounded.cfg")
    elapsed = time.perf_counter() - start
    ok = s_uniform["passed"] and s_cbounded["passed"] and elapsed < 300.0
    line = _report(
        5, ok, f"uniform[{checks_u}] cbounded[{checks_c}] in {elapsed:.0f}s (budget 300s)"
    )
    assert ok, line


def test_criterion_06_hyperbola_law_run():
    _, summary, records, checks = _run_config("hyperbola_uniform.cfg")
    ok = summary["passed"]
    means = ", ".join(
        f"{mk}={np.mean([r.hyperbola for r in records if r.matching_kind == mk]):.3f}"
        for mk in ("mosm", "wosm")
    )
    line = _report(
        6, ok, f"n=2000 truncated welfare product near 1: [{checks}] mean hyperbola [{means}]"
    )
    assert ok, line


def test_criterion_07_imbalanced_market_run():
    _, summary, _, checks = _run_config("imbalance_uniform.cfg")
    ok = summary["passed"]
    line = _report(7, ok, f"n=1000 k=10: [{checks}]")
    assert ok, line


def test_criterion_08_tail_bounds_never_violated():
    # The proofs' Chernoff lower tail and generalized DKW bound, each checked on
    # synthetic exponentials (tests/oracles.py).  A row whose bound is >= 1
    # cannot fail, so each family must keep a row whose bound is below 1.
    records = oracles.bounds_run()
    weighted_total = oracles.CHERNOFF_SAMPLES * oracles.BOUNDS_TRIALS
    band_total = oracles.DKW_EXPERIMENTS * oracles.BOUNDS_TRIALS
    worst_excess = max(r.observed - r.bound for r in records)
    vacuous = Counter(r.matching_kind for r in records if r.bound >= 1.0)
    binding = {r.matching_kind.split("=")[0] for r in records if r.bound < 1.0}
    ok = (
        worst_excess <= 0.0
        and binding == {"chernoff_t", "dkw_eps"}
        and weighted_total == 1_000_000
        and band_total == 10_000
    )
    cannot_fail = ", ".join(
        f"{kind} ({count} of {oracles.BOUNDS_TRIALS} trials)" for kind, count in vacuous.items()
    )
    line = _report(
        8, ok, f"{weighted_total} weighted-sum draws per t, {band_total} band experiments "
        f"per eps, worst observed-bound gap {worst_excess:.2e}; bound >= 1, so cannot fail: "
        f"[{cannot_fail or 'none'}]"
    )
    assert ok, line


def test_criterion_09_stability_probability_matches_simulation():
    n, resamples, chunks = 4, 100_000, 10
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(5000 + i)
        bal = sinkhorn_balance(
            canonical_from_raw(
                rng.uniform(0.5, 2.0, (n, n)), rng.uniform(0.5, 2.0, (n, n))
            )
        )
        perm = rng.permutation(n)
        # matched values at the best-of-n scale keep p away from 0 and 1
        x = rng.exponential(1.0 / (n * bal.A[np.arange(n), perm]))
        y = np.empty(n)
        y[perm] = rng.exponential(1.0 / (n * bal.B[perm, np.arange(n)]))
        mu = Matching(mu=tuple(int(j) for j in perm), n_women=n)
        p = p_mu(x, y, bal.A, bal.B, mu)

        matched = np.zeros((n, n), dtype=bool)
        matched[np.arange(n), perm] = True
        hits = 0
        per_chunk = resamples // chunks
        for _ in range(chunks):
            draws_x = rng.exponential(1.0, (per_chunk, n, n)) / bal.A[None, :, :]
            draws_y = rng.exponential(1.0, (per_chunk, n, n)) / bal.B[None, :, :]
            block = (
                (draws_x < x[None, :, None])
                & (np.swapaxes(draws_y, 1, 2) < y[None, None, :])
                & ~matched
            )
            hits += int((~block.any(axis=(1, 2))).sum())
        freq = hits / resamples
        sigma = (p * (1.0 - p) / resamples) ** 0.5
        worst = max(worst, abs(freq - p) / (3.0 * sigma))
    ok = worst <= 1.0
    line = _report(
        9, ok, f"50 instances n=4, 1e5 resamples each: worst |freq - p| at "
        f"{worst:.3f} of the 3-sigma allowance"
    )
    assert ok, line


def test_criterion_10_worker_count_determinism(tmp_path):
    mml = shutil.which("mml")
    base_cmd = [mml] if mml else [sys.executable, "-m", "mml.cli"]
    outputs = []
    for workers, subdir in (("1", "serial"), ("3", "parallel")):
        out_dir = tmp_path / subdir
        env = dict(os.environ, MML_WORKERS=workers)
        proc = subprocess.run(
            base_cmd + ["run", str(CONFIG_DIR / "value_dist_small.cfg"), "--out", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "trials.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    line = _report(
        10, ok, f"run twice with MML_WORKERS=1 vs 3: trials.csv byte-identical "
        f"({len(outputs[0])} bytes)"
    )
    assert ok, line
