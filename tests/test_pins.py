"""Byte pins: the sha256 of ``trials.csv`` and ``summary.json`` for cheap configs.

Every trial record is a pure function of (config, trial id), so a refactor
that keeps the statistics keeps these bytes.  A deliberate change to a
statistic must update its pin here and say so in CHANGES.md.  The pinned
configs are the cheap shipped ones plus tiny inline configs for the market
kinds that no shipped config runs through an experiment, and criterion 8's
bounds records (``tests/oracles.py``), written as a run writes them.  The two benchmark
workloads are pinned in ``mmlbench/pins.json``, which is read here too, so a
change to their bytes fails this suite as well as the benchmark; a C-bounded
rank_dist run small enough for Tier-1 is pinned inline.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from mml.experiments import (
    load_config,
    parse_config,
    records_to_csv,
    run_experiment,
    write_outputs,
)
from oracles import bounds_run

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
BENCH_PINS = json.loads((ROOT / "mmlbench" / "pins.json").read_text(encoding="utf-8"))
# The shipped config each benchmark workload runs (mmlbench/run.py).
BENCH_CONFIGS = {
    "hyperbola_uniform_n2000": "hyperbola_uniform",
    "rank_dist_cbounded_n1000": "rank_dist_cbounded",
}

INLINE_CONFIGS = {
    "imbalance_cbounded": (
        "experiment = imbalance\nmarket = cbounded\nc = 2.5\nn = 80\nk = 7\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 611\n"
    ),
    "imbalance_public_scores": (
        "experiment = imbalance\nmarket = public_scores\nc = 2.5\nn = 80\nk = 7\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 612\n"
    ),
    "value_dist_public_scores": (
        "experiment = value_dist\nmarket = public_scores\nc = 2.5\nn = 80\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 111\n"
    ),
    "rank_dist_cbounded": (
        "experiment = rank_dist\nmarket = cbounded\nc = 2\nn = 80\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 113\n"
    ),
    "approx_stable_cbounded": (
        "experiment = approx_stable\nmarket = cbounded\nc = 3\nn = 200\nk = 7\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 511\n"
    ),
    "approx_stable_public_scores": (
        "experiment = approx_stable\nmarket = public_scores\nc = 2.5\nn = 200\nk = 7\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 512\n"
    ),
    # The 150 added men walk past their presorted columns 7 times over the 3 trials.
    "imbalance_deep_walks": (
        "experiment = imbalance\nmarket = uniform\nn = 200\nk = 150\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 12\n"
    ),
}

# (config, trials override, trials.csv sha256, summary.json sha256)
PINS = [
    ("value_dist_small", None,
     "6212738215b49521521b7219aa062acb603501ebb314105ab655e6874fc141c7",
     "f2c1dc7cc3e9f126b194e37880b9c5bad975a0d4122b095891c44ca72acbea25"),
    ("approx_stable", None,
     "35f5ca8e9b04e09bfaada2b8cc2b5ddf8f87ab6b4bf4ff5e981290a83dba90ae",
     "da86e568d47c9f83714bd8d1aa08cd099bc89713cb76c6ee4ed4a384f701ed72"),
    ("stable_count_2x2", None,
     "f478dfdd4ae8d2809dbed85fe7e17a4aa30cefa9b9da6ef24da6a6213f53757b",
     "44887d51aa21b3038b2e6be5043a64734692bcf10f591bcf96e95af684846b23"),
    ("imbalance_uniform", 2,
     "c86e56b8901d826f74491d1e8b00723e3ed19f47514e4a4f508a9ee17e7116da",
     "9264893f28835c531f0dd18353fb5d50b4b44351e3e1a47aaba909a416874150"),
    ("imbalance_cbounded", None,
     "dc31d4e937a7804ff305fe12dd188b73718657166bf2a0a00ecb11a1a077a9b1",
     "dbca2375594b42af3edb9342d977ba9ba1906460057ebf338f9d77c38a853f67"),
    ("imbalance_public_scores", None,
     "5e473500ef5505e81d07efa894a843407865032bf57c2cb4654ed6e36b5f70bc",
     "8a54c3386b81e63ef7720e103cbbc4ea6b816e1d5bc717b6b6b2ca85eeab6335"),
    ("value_dist_public_scores", None,
     "a936064261279b96659649956c95eec3c2f0954c1592413dafbf82ec00c7f1d9",
     "f2608589d012cf253d1c954c54f8268218ad06746c95e3652a7ac919674a1814"),
    ("rank_dist_cbounded", None,
     "769006a7a38de66ef34330e6d89194dc6ecf0c9c85ac98f3629e494110c0aacc",
     "cf30b439ce39d6c675902cee7766acbe108b304242a6a0352aeba7891e33859d"),
    ("approx_stable_cbounded", None,
     "6f9774fca539b46d160e97a8385fd817f06cb530014a65a44bbb8664f84bc0a2",
     "2df6d6e8f6a90f609d20a19583310b32d94133a01c682f97f5e9a66e0dda3b12"),
    ("approx_stable_public_scores", None,
     "fe608d5e56b6f6a8bab9536310ba867bffbd311918e8d01619a52a6745dcac2f",
     "bbcb0fc216c4ce4f0b6cae63418debaff5faf3627120797720920a825f87adef"),
    ("imbalance_deep_walks", None,
     "f24ad006bc2a7114bd75ee02f1667f73ba7dd8813928609b49fc6ea3bd214870",
     "f657b48ccfa50b0ee4bb439b92158118d9f5d343d9c5edd4b32c76b06a612bdf"),
]


@functools.lru_cache(maxsize=None)
def pinned_run(name, trials):
    """(cfg, summary, records) of one pinned config, run once for both pins."""
    if name in INLINE_CONFIGS:
        cfg = parse_config(INLINE_CONFIGS[name])
    else:
        cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    if trials is not None:
        cfg = dataclasses.replace(cfg, trials=trials)
    summary, records = run_experiment(cfg)
    return cfg, summary, records


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, trials, csv_sha256, _", PINS, ids=[p[0] for p in PINS])
def test_trials_csv_bytes_are_pinned(name, trials, csv_sha256, _, monkeypatch):
    monkeypatch.setenv("MML_WORKERS", "1")
    _, _, records = pinned_run(name, trials)
    assert sha256(records_to_csv(records).encode("utf-8")) == csv_sha256


@pytest.mark.parametrize("name, trials, _, summary_sha256", PINS, ids=[p[0] for p in PINS])
def test_summary_json_bytes_are_pinned(name, trials, _, summary_sha256, tmp_path, monkeypatch):
    monkeypatch.setenv("MML_WORKERS", "1")
    cfg, summary, records = pinned_run(name, trials)
    write_outputs(tmp_path, cfg, summary, records)
    assert sha256((tmp_path / "summary.json").read_bytes()) == summary_sha256


def test_bounds_records_csv_bytes_are_pinned():
    csv_sha256 = "21f53b66e028d53e4861f167cb5084f83f5a5e771ee66f376347ea02bb0fcbd8"
    assert sha256(records_to_csv(list(bounds_run())).encode("utf-8")) == csv_sha256


@pytest.mark.parametrize("workload", sorted(BENCH_PINS))
def test_benchmark_workload_bytes_match_its_pin(workload, monkeypatch):
    monkeypatch.setenv("MML_WORKERS", "1")
    pin = BENCH_PINS[workload]
    cfg = load_config(CONFIG_DIR / f"{BENCH_CONFIGS[workload]}.cfg")
    cfg = dataclasses.replace(cfg, master_seed=pin["seed"], trials=pin["trials"])
    _, records = run_experiment(cfg)
    assert sha256(records_to_csv(records).encode("utf-8")) == pin["sha256"]
