"""Tests of the benchmark itself:  python3 -m pytest mmlbench/test_bench.py

They start the benchmark from the repository root, so they take a few
minutes; the package's own suite under tests/ does not collect them.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import spans  # noqa: E402

# Counts that depend only on the trial inputs, never on timing.
EXACT = ("rng.draws", "rng.stream_keys", "market.balance_calls", "market.sinkhorn_sweeps",
         "matching.proposals", "sampling.cells", "sampling.bytes", "matching.da_calls",
         "stats.calls", "experiments.bytes_written")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "mmlbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def metrics(proc: subprocess.CompletedProcess) -> dict[str, float]:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["rank_dist_cbounded_n1000", "hyperbola_uniform_n2000"])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, second = metrics(bench(*args)), metrics(bench(*args))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    if workload == "hyperbola_uniform_n2000":
        assert first["market.balance_calls"] == 0
        work = sum(first[k] for k in ("rng.self_s", "sampling.latent_self_s",
                                      "sampling.prefs_self_s", "matching.da_self_s",
                                      "matching.outcome_self_s", "matching.truncate_self_s"))
        assert work > 0.5 / first["trace.trials_per_s"]
    if workload == "rank_dist_cbounded_n1000":
        assert first["market.balance_calls"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "mmlbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "rank_dist_cbounded_n1000", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    names = [name for _, name, _ in spans.TRACED]
    inner = tracer.wrap(names.index("truncate_delta"), lambda: time.sleep(0.03), Exception)

    def outer_fn():
        time.sleep(0.02)
        inner()

    outer = tracer.wrap(names.index("run_trial"), outer_fn, Exception)
    tracer.current_trial = 0
    outer()
    layers = spans.layer_metrics(tracer, first_trial=0, n_trials=1)
    assert layers["matching.truncate_self_s"] == pytest.approx(0.03, abs=0.01)
    assert layers["experiments.trial_self_s"] == pytest.approx(0.02, abs=0.01)


def test_tail_percentile():
    assert child.tail([float(i) for i in range(11)]) == (100.0 / 11, 0.0)
    assert child.tail([float(i) for i in range(20)]) == (50.0, 9.0)
    assert child.tail([float(i) for i in range(40000)]) == (99.975, 39989.0)
    with pytest.raises(ValueError):
        child.tail([1.0] * 10)
