"""Byte pins: the sha256 of ``trials.csv`` and ``summary.json`` for cheap configs.

Every trial record is a pure function of (config, trial id), so a refactor
that keeps the statistics keeps these bytes.  A deliberate change to a
statistic must update its pin here and say so in CHANGES.md.  The pinned
configs are the cheap shipped ones plus tiny inline configs for the market
kinds that no shipped config runs through an experiment, and criterion 8's
bounds records (``tests/oracles.py``), written as a run writes them, and the
stdout of ``mml enumerate`` on two small market files at several seeds.  The
two benchmark workloads are pinned in ``mmlbench/pins.json``, which is read
here too, so a change to their bytes fails this suite as well as the
benchmark; a C-bounded rank_dist run small enough for Tier-1 is pinned inline.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mml.cli import main
from mml.experiments import (
    load_config,
    parse_config,
    records_to_csv,
    run_experiment,
    write_outputs,
)
from mml.market import write_matrix_pair
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
    # At n = 300 the last kernel block holds rows 192-299, and the 199 real
    # men end inside it: one block mixes real and dummy rows.
    "imbalance_public_scores_blocks": (
        "experiment = imbalance\nmarket = public_scores\nc = 2.5\nn = 300\nk = 101\n"
        "trials = 3\ndelta = 0.05\nmaster_seed = 613\n"
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
     "6ba7100646185efc6384e1cbc113ffb79e9775136e42455cc1338bce58a3c9fd",
     "f2413d696417ebde26c1cbfe3c3d94161b4237bdc800cb89dd738f257fdd0002"),
    ("imbalance_public_scores", None,
     "5e473500ef5505e81d07efa894a843407865032bf57c2cb4654ed6e36b5f70bc",
     "8a54c3386b81e63ef7720e103cbbc4ea6b816e1d5bc717b6b6b2ca85eeab6335"),
    ("imbalance_public_scores_blocks", None,
     "561f2bda40b4ab058ff140dccc845f6058a0640639ca79229bd530ff48c0509f",
     "70ed23e70e6004ee08fc661a6768b274ca900fcd134742bb296a282496cf07a3"),
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


# (market, seed, sha256 of ``mml enumerate`` stdout).  skew_4x4 is a committed
# raw-score file; rect_2x4 is the 2 x 4 market of
# test_cli.py::test_enumerate_handles_rectangular_markets.  The seeds reach 1
# to 5 stable matchings on skew_4x4 and 1 or 2 on rect_2x4.
ENUMERATE_PINS = [
    ("skew_4x4", 0, "b5ff44ba4dfd135b1a5d22677b99168de993a1ef26d50fcf8c608529b667c44b"),
    ("skew_4x4", 1, "c2c58dcc7e7f6aaf96a0e6c2462baa9ed3724ccaf9e643b1f9d92f0b10ad7938"),
    ("skew_4x4", 5, "7c1aca734d4efa5bd75ac83fa008f1660b93fffc99d612319dafb1e9bb186c8b"),
    ("skew_4x4", 35, "c43383c3e80c6d6c431fce93e606ede11dee069f4f26c910e83c05364a289777"),
    ("skew_4x4", 138, "7d3421f5a23ca7651211e0a1a18fe02a4fae878517ecf65c4a488279e338ade3"),
    ("skew_4x4", 279, "57585f0fb05ec807cc1a911ae8cf052080417964812d3d934f086fce31cf64a2"),
    ("rect_2x4", 0, "22c8617e3bc288d1c16e2a2f43b245f2a9b7dd98c3e370640d3274255172ba11"),
    ("rect_2x4", 9, "58ecdbd9366843377a3c1eaeb2d6bb0a127d5eb89a2951493683a6e9362f9fdb"),
    ("rect_2x4", 78, "b4c799b0729978507343b8b9efaa2973e1f1aab8ef426caf90026d51d7867da4"),
    ("rect_2x4", 141, "97d17b6bf42e8a7d47bf8e25237356788c028a634da89ff5f31c34678624a6c6"),
    ("rect_2x4", 202, "b4c799b0729978507343b8b9efaa2973e1f1aab8ef426caf90026d51d7867da4"),
]


@pytest.mark.parametrize("market, seed, stdout_sha256", ENUMERATE_PINS)
def test_enumerate_stdout_is_pinned(market, seed, stdout_sha256, tmp_path, capsys):
    if market == "rect_2x4":
        path = tmp_path / "rect.txt"
        write_matrix_pair(path, np.full((2, 4), 0.25), np.full((4, 2), 0.5))
    else:
        path = ROOT / "tests" / "markets" / f"{market}.txt"
    assert main(["enumerate", str(path), "--seed", str(seed)]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == stdout_sha256
