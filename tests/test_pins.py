"""Byte pins: the sha256 of ``trials.csv`` for the cheap shipped configs.

Every trial record is a pure function of (config, trial id), so a refactor
that keeps the statistics keeps these bytes.  A deliberate change to a
statistic must update its pin here and say so in CHANGES.md.  The two
benchmark workloads are pinned in ``mmlbench/pins.json`` instead.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from mml.experiments import load_config, records_to_csv, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PINS = [
    ("value_dist_small", None, "6212738215b49521521b7219aa062acb603501ebb314105ab655e6874fc141c7"),
    ("approx_stable", None, "35f5ca8e9b04e09bfaada2b8cc2b5ddf8f87ab6b4bf4ff5e981290a83dba90ae"),
    ("stable_count_2x2", None, "f478dfdd4ae8d2809dbed85fe7e17a4aa30cefa9b9da6ef24da6a6213f53757b"),
    ("bounds", None, "21f53b66e028d53e4861f167cb5084f83f5a5e771ee66f376347ea02bb0fcbd8"),
    ("imbalance_uniform", 2, "c86e56b8901d826f74491d1e8b00723e3ed19f47514e4a4f508a9ee17e7116da"),
]


@pytest.mark.parametrize("name, trials, sha256", PINS, ids=[p[0] for p in PINS])
def test_trials_csv_bytes_are_pinned(name, trials, sha256, monkeypatch):
    monkeypatch.setenv("MML_WORKERS", "1")
    cfg = load_config(CONFIG_DIR / f"{name}.cfg")
    if trials is not None:
        cfg = dataclasses.replace(cfg, trials=trials)
    _, records = run_experiment(cfg)
    assert hashlib.sha256(records_to_csv(records).encode("utf-8")).hexdigest() == sha256
