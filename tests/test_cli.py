"""End-to-end checks of the ``mml`` command-line interface."""

import warnings

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
import mml.experiments
import mml.sampling
from mml.cli import main
from mml.rng import _openblas
from oracles import random_cbounded_market

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


def test_balance_prints_plain_floats(tmp_path, capsys):
    market_file = tmp_path / "market.txt"
    a, b = skew_market_file(market_file)
    assert main(["balance", str(market_file)]) == 0
    out = capsys.readouterr().out
    assert "np.float64" not in out
    bal = sinkhorn_balance(CanonicalMarket(a, b))
    lines = dict(line.split(":", 1) for line in out.splitlines())
    assert float(lines["contiguity constant"]) == bal.c_bound
    for name, fitness in (("fitness (men)", bal.phi), ("fitness (women)", bal.psi)):
        words = lines[name].split()
        assert words[0::2] == ["min", "max"]
        assert [float(w) for w in words[1::2]] == [fitness.min(), fitness.max()]


@pytest.mark.skipif(
    _openblas() is None, reason="numpy's BLAS is not an OpenBLAS found beside numpy"
)
def test_balance_out_does_not_depend_on_blas_threads(tmp_path, capsys):
    # At n = 700, a 2-thread OpenBLAS matvec rounds differently from a
    # 1-thread one, so uncapped sweeps would write other balanced scores.
    market = random_cbounded_market(700, 2.5, seed=12)
    market_file = tmp_path / "market.txt"
    write_market(market_file, market.a_hat, market.b_hat)
    get, set_ = _openblas()
    saved = get()
    outputs = []
    try:
        for threads in (2, 1):
            set_(threads)
            out_file = tmp_path / f"balanced_{threads}.txt"
            assert main(["balance", str(market_file), "--out", str(out_file)]) == 0
            assert get() == threads
            outputs.append((capsys.readouterr().out.split("balanced")[0], out_file.read_bytes()))
    finally:
        set_(saved)
    assert outputs[0] == outputs[1]


def test_balance_errors_exit_two(tmp_path, capsys):
    rc = main(["balance", str(tmp_path / "missing.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not a market\n", encoding="utf-8")
    rc = main(["balance", str(garbled)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")

    market_file = tmp_path / "market.txt"
    write_matrix_pair(market_file, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    for flags in (
        ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"], ["--max-iters", "0"]
    ):
        rc = main(["balance", str(market_file), *flags])
        err = capsys.readouterr().err
        assert rc == 2, flags
        assert err.startswith("error:") and err.count("\n") == 1, flags


@pytest.mark.parametrize("side", ["a", "b"])
def test_overflowing_row_sums_exit_two_with_one_line(tmp_path, capsys, side):
    huge, fine = [[1e308, 1e308], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]
    market_file = tmp_path / "market.txt"
    write_market(market_file, *((huge, fine) if side == "a" else (fine, huge)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["balance", str(market_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {side}_raw rows must have a finite sum\n"


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

    bad.write_bytes(b"\xff\xfe\x00bad")
    rc = main(["run", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 text file\n"
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_run_with_an_out_of_range_seed_exits_two(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("MML_WORKERS", workers)
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text(
        f"experiment = value_dist\nn = 4\ntrials = 2\nmaster_seed = {2**200}\n", encoding="utf-8"
    )
    rc = main(["run", str(cfg_file), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: seed {2**200} is outside the signed 128-bit range [-2**127, 2**127)\n"


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
    # Every directory the run made goes again, deepest first.
    rc = main(["run", str(cfg_file), "--out", str(tmp_path / "t1" / "a" / "b")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: out of memory:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_run_past_the_memory_model_exits_two_before_building(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a market was built")

    monkeypatch.setattr(mml.experiments, "_trial_market", refuse)
    monkeypatch.setenv("MML_WORKERS", "2")
    cfg_file = tmp_path / "big.cfg"
    cfg_file.write_text(
        "experiment = rank_dist\nmarket = cbounded\nn = 1000000\ntrials = 3\n"
        "master_seed = 0\n",
        encoding="utf-8",
    )
    # The directories the run made go again, x too on the way to x/.., and a
    # once when a/../a names it again; the one that was there stays.
    (tmp_path / "t1").mkdir()
    for out in ("t1/a/b", "t1/x/../a/b", "t1/a/../a/b"):
        rc = main(["run", str(cfg_file), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith("error: out of memory: n = 1000000 needs an estimated ")
        assert "(2 process(es) x " in err
        assert not list((tmp_path / "t1").iterdir()), out


def test_run_resolves_out_once_as_the_system_does(tmp_path, capsys, monkeypatch):
    # x/../y makes no x, and link/../y lands beside the link's target, as
    # mkdir -p does; a run refused there leaves nothing behind.
    monkeypatch.setenv("MML_WORKERS", "1")
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("experiment = value_dist\nn = 4\ntrials = 2\nmaster_seed = 0\n",
                        encoding="utf-8")
    big_file = tmp_path / "big.cfg"
    big_file.write_text("experiment = rank_dist\nmarket = cbounded\nn = 1000000\ntrials = 3\n"
                        "master_seed = 0\n", encoding="utf-8")
    (tmp_path / "far" / "target").mkdir(parents=True)
    (tmp_path / "near").mkdir()
    (tmp_path / "near" / "link").symlink_to(tmp_path / "far" / "target")
    for out, written in (("near/x/../y", "near/y"), ("near/link/../y", "far/y")):
        assert main(["run", str(cfg_file), "--out", str(tmp_path / out)]) in (0, 1)
        assert (tmp_path / written / "trials.csv").is_file(), out
    assert main(["run", str(big_file), "--out", str(tmp_path / "near/link/../z/w")]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory:")
    assert sorted(p.name for p in (tmp_path / "near").iterdir()) == ["link", "y"]
    assert sorted(p.name for p in (tmp_path / "far").iterdir()) == ["target", "y"]


def test_run_of_an_unknown_experiment_lists_the_known_kinds(tmp_path, capsys):
    cfg_file = tmp_path / "bounds.cfg"
    cfg_file.write_text(
        "experiment = bounds\nn = 50\ntrials = 10\nmaster_seed = 801\n", encoding="utf-8"
    )
    rc = main(["run", str(cfg_file), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    kinds = ["approx_stable", "hyperbola", "imbalance", "rank_dist", "stable_count", "value_dist"]
    assert rc == 2
    assert err == f"error: experiment: unknown kind 'bounds' (expected one of {kinds})\n"
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_run_with_an_out_naming_a_file_exits_two_before_any_trial(tmp_path, capsys, monkeypatch):
    def refuse(cfg, t):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(mml.experiments, "run_trial", refuse)
    monkeypatch.setenv("MML_WORKERS", "1")
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("experiment = value_dist\nn = 4\ntrials = 2\nmaster_seed = 0\n",
                        encoding="utf-8")
    out_file = tmp_path / "afile"
    out_file.write_text("kept\n", encoding="utf-8")
    rc = main(["run", str(cfg_file), "--out", str(out_file)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: [Errno 17] File exists:") and err.count("\n") == 1
    assert out_file.read_text(encoding="utf-8") == "kept\n"


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


def test_enumerate_with_an_out_of_range_seed_exits_two(tmp_path, capsys, monkeypatch):
    market_file = tmp_path / "market.txt"
    skew_market_file(market_file)

    def no_balance(*args, **kwargs):
        raise AssertionError("the seed must be refused before any balance")

    # The square market is balanced only once the seed's stream keys are derived.
    monkeypatch.setattr(mml.sampling, "sinkhorn_balance", no_balance)
    rc = main(["enumerate", str(market_file), "--seed", str(-(2**200))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: seed {-(2**200)} is outside") and err.count("\n") == 1


def test_enumerate_handles_rectangular_markets(tmp_path, capsys):
    market_file = tmp_path / "rect.txt"
    write_market(market_file, np.full((2, 4), 0.25), np.full((4, 2), 0.5))

    rc = main(["enumerate", str(market_file), "--seed", "9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("stable matchings: ")


@pytest.mark.parametrize(
    "shape, message",
    [
        ((11, 11), "enumerate_stable supports n <= 10, got n = 11"),
        ((3, 2), "enumeration expects n_men <= n_women"),
    ],
    ids=["too-large", "more-men"],
)
def test_enumerate_refuses_a_market_before_balancing_or_drawing(
    tmp_path, capsys, monkeypatch, shape, message
):
    n_men, n_women = shape
    market_file = tmp_path / "market.txt"
    write_market(market_file, np.full(shape, 1.0 / n_women), np.full(shape[::-1], 1.0 / n_men))

    def unreachable(*args, **kwargs):
        raise AssertionError("the market was balanced or drawn")

    for name in ("sinkhorn_balance", "exponentials", "exponential_blocks"):
        monkeypatch.setattr(mml.sampling, name, unreachable)
    rc = main(["enumerate", str(market_file), "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
               "imbalance_uniform"]
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
        (CSV_HEADER + "0,all,,,,,,,,,1,,,,\n" + "7" * 140_000 + ",all,,,,,,,,,1,,,,\n",
         "line 3: field larger than field limit (131072)"),
        (CSV_HEADER + "0,all,,,,,,,,,1,,,,\n3\n", "line 3: expected 15 fields as in the header, found 1"),
        (CSV_HEADER + ",,,,\n", "line 2: expected 15 fields as in the header, found 5"),
        (CSV_HEADER + "0,all,,,,,,,,,1,,,,,9\n", "line 2: expected 15 fields as in the header, found 16"),
        (CSV_HEADER + ",,,,,,,,,,,,,,\n", "line 2: trial_id is empty"),
        (CSV_HEADER + "0,,,,,,,,,,1,,,,\n", "line 2: matching_kind is empty"),
        (CSV_HEADER[:-1] + ",ks_fit\n" + "0,mosm,1,1,0.01,,,,,,,,,,,0.5\n",
         "line 1: header names the column ks_fit twice"),
    ],
    ids=["header", "int-cell", "float-cell", "non-utf8", "oversized-field", "short-row",
         "empty-fields", "long-row", "empty-row", "no-kind", "repeated-column"],
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


def test_summarize_with_a_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    trials = tmp_path / "trials.csv"
    trials.write_text(records_to_csv([TrialRecord(trial_id=0, matching_kind="all", stable_count=1)]))
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe\x00bad")
    rc = main(["summarize", str(trials), "--config", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 text file\n"


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main(["frobnicate"])
