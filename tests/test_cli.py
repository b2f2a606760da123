"""End-to-end checks of the ``mml`` command-line interface."""

import numpy as np
import pytest

from pathlib import Path

from mml import (
    CSV_COLUMNS,
    CanonicalMarket,
    TrialRecord,
    read_matrix_pair,
    records_to_csv,
    sinkhorn_balance,
    write_matrix_pair,
)
from mml.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"

STABLE_COUNT_CFG = """
experiment = stable_count
market = uniform
n = 2
trials = 2000
master_seed = 701
tol.target = 1.125
tol.margin = 0.05
"""

# deliberately unattainable tolerance: exercises the failing-checks exit path
STRICT_VALUE_DIST_CFG = """
experiment = value_dist
market = uniform
n = 30
trials = 2
master_seed = 11
tol.ks = 0.0001
"""


def write_market(path, a, b) -> None:
    write_matrix_pair(path, np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def skew_market_file(path):
    a = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
    b = [[0.25, 0.5, 0.25], [0.4, 0.2, 0.4], [0.3, 0.3, 0.4]]
    write_market(path, a, b)
    return np.array(a), np.array(b)


def test_balance_reports_market_and_writes_scores(tmp_path, capsys):
    market_file = tmp_path / "market.txt"
    a, b = skew_market_file(market_file)
    out_file = tmp_path / "balanced.txt"

    rc = main(["balance", str(market_file), "--out", str(out_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n: 3" in out
    assert "residual:" in out
    assert "contiguity constant:" in out
    assert f"balanced scores written to {out_file}" in out

    bal = sinkhorn_balance(CanonicalMarket(a, b))
    disk_a, disk_b = read_matrix_pair(out_file)
    np.testing.assert_array_equal(disk_a, bal.A)
    np.testing.assert_array_equal(disk_b, bal.B)


def test_balance_errors_exit_two(tmp_path, capsys):
    rc = main(["balance", str(tmp_path / "missing.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not a market\n", encoding="utf-8")
    rc = main(["balance", str(garbled)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "text, line",
    [
        ("2 2\n0.5 0.5\n0.5 abc\n\n0.5 0.5\n0.5 0.5\n", 3),
        ("2 two\n0.5 0.5\n0.5 0.5\n\n0.5 0.5\n0.5 0.5\n", 1),
        ("2 2\n0.5 0.5\n0.5\n\n0.5 0.5\n0.5 0.5\n", 3),
        ("0 0\n", 1),
    ],
    ids=["token", "header", "ragged", "empty-header"],
)
def test_malformed_market_file_exits_two(tmp_path, capsys, text, line):
    market_file = tmp_path / "market.txt"
    market_file.write_text(text, encoding="utf-8")
    for command in (["balance"], ["enumerate", "--seed", "1"]):
        rc = main([command[0], str(market_file), *command[1:]])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {market_file}: line {line}:")
        assert err.count("\n") == 1


def test_run_green_config_exits_zero_and_writes_files(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(STABLE_COUNT_CFG, encoding="utf-8")
    out_dir = tmp_path / "results"

    rc = main(["run", str(cfg_file), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in out
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "summary.json",
        "summary.txt",
        "trials.csv",
        "trials.jsonl",
    ]
    trials = (out_dir / "trials.csv").read_text(encoding="utf-8")
    assert trials.count("\n") == 2001  # header + one record per trial


def test_run_failing_check_exits_one_but_still_writes(tmp_path, capsys):
    cfg_file = tmp_path / "strict.cfg"
    cfg_file.write_text(STRICT_VALUE_DIST_CFG, encoding="utf-8")
    out_dir = tmp_path / "results"

    rc = main(["run", str(cfg_file), "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall: FAIL" in out
    assert (out_dir / "trials.csv").exists()


def test_run_rejects_bad_inputs(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = value_dist\nn = 4\ntrials = 1\nmaster_seed = 0\nshoe_size = 9\n")
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "shoe_size" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["c = nan"])
def test_run_rejects_out_of_range_parameters(tmp_path, capsys, line):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(STRICT_VALUE_DIST_CFG + line + "\n", encoding="utf-8")
    out_dir = tmp_path / "o"
    rc = main(["run", str(cfg_file), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {line.split()[0]}:")
    assert not out_dir.exists()


def test_run_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    # One n x n float64 matrix at n = 2e7 is 2.8 PiB, above the 128 TiB user
    # address space, so the first allocation fails at once.
    monkeypatch.delenv("MML_WORKERS", raising=False)
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text(
        "experiment = value_dist\nmarket = uniform\nn = 20000000\ntrials = 1\n"
        "master_seed = 0\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "o"
    rc = main(["run", str(cfg_file), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: out of memory:") and err.count("\n") == 1
    assert not out_dir.exists()


def test_enumerate_tags_the_optimal_matchings(tmp_path, capsys):
    market_file = tmp_path / "market.txt"
    skew_market_file(market_file)

    rc = main(["enumerate", str(market_file), "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0

    first = out.splitlines()[0]
    assert first.startswith("stable matchings: ")
    count = int(first.split(": ")[1])
    assert count >= 1
    assert out.count("# ") == count
    assert "man-optimal" in out
    assert "woman-optimal" in out
    # each listed matching is three "man women" pair lines for a 3x3 market
    pair_lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    assert len(pair_lines) == 3 * count


def test_enumerate_handles_rectangular_markets(tmp_path, capsys):
    market_file = tmp_path / "rect.txt"
    write_market(market_file, np.full((2, 4), 0.25), np.full((4, 2), 0.5))

    rc = main(["enumerate", str(market_file), "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("stable matchings: ")


def test_summarize_with_and_without_config(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(STABLE_COUNT_CFG, encoding="utf-8")
    out_dir = tmp_path / "results"
    assert main(["run", str(cfg_file), "--out", str(out_dir)]) == 0
    capsys.readouterr()  # drop the run output
    trials = out_dir / "trials.csv"

    rc = main(["summarize", str(trials)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "records: 2000" in out
    assert "stable_count" in out

    rc = main(["summarize", str(trials), "--config", str(cfg_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean_stable_count_near_target" in out
    assert "overall: PASS" in out


@pytest.mark.parametrize(
    "config", ["value_dist_small", "rank_dist_uniform", "hyperbola_uniform", "approx_stable",
               "imbalance_uniform", "bounds"]
)
def test_summarize_with_no_matching_records_fails(tmp_path, capsys, config):
    # stable_count rows carry none of the statistics these configs check.
    trials = tmp_path / "trials.csv"
    trials.write_text(records_to_csv([TrialRecord(trial_id=0, matching_kind="all", stable_count=1)]))
    rc = main(["summarize", str(trials), "--config", str(CONFIG_DIR / f"{config}.cfg")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall: FAIL" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n", "line 1: header lacks the trial column(s) trial_id,"),
        (CSV_HEADER + "0,all,,,,,,,,,1,,,,\n1,all,,,,,,,,,two,,,,\n",
         "line 3: stable_count: expected a number, got 'two'"),
        (CSV_HEADER + "0,mosm,1.5x,,,,,,,,,,,,\n", "line 2: lambda_fit: expected a number"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["header", "int-cell", "float-cell", "non-utf8"],
)
def test_summarize_malformed_trials_exits_two(tmp_path, capsys, text, message):
    trials = tmp_path / "trials.csv"
    trials.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    rc = main(["summarize", str(trials)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {trials}: {message}")
    assert err.count("\n") == 1


def test_summarize_missing_file_exits_two(tmp_path, capsys):
    rc = main(["summarize", str(tmp_path / "nope.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])
