"""Fuzzing the input contract: every input is read, or refused with an MmlError.

The parsers of configs, market files and trial CSVs take text from outside
the package.  Whatever that text holds, they either return a value or raise
an ``MmlError`` (which the command line prints as one ``error:`` line, exit
2); any other exception, and any warning, fails these tests.  The command
line's ``balance`` and ``enumerate`` are fuzzed the same way on market files.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mml.cli import main
from mml.errors import MmlError
from mml.experiments import (
    CSV_COLUMNS, ExperimentConfig, TrialRecord, parse_config, records_from_csv,
)
from mml.market import CanonicalMarket, read_market

FUZZ = settings(max_examples=100, deadline=None)

CONFIG_KEYS = (
    "experiment", "market", "n", "trials", "master_seed", "c", "delta", "k",
    "tol.ks", "tol.pass_fraction", "tol.hyperbola_err", "tol.alpha", "tol.target", "tol.margin",
    "tol.kss", "shoe_size",
)

# Tokens near the edges of what the parsers convert: numbers of every kind,
# the enum spellings, and text that converts to nothing.
numbers = st.one_of(
    st.integers(-(2**130), 2**130).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-0.0", "5e-324", "0x10", "1_000",
                     "1e3", "٣", "", " ", "+", "--1"]),
)
words = st.one_of(
    numbers,
    st.sampled_from(["value_dist", "Rank-Dist", "HYPERBOLA", "imbalance", "stable_count",
                     "bounds", "approx_stable", "uniform", "public_scores", "C_Bounded"]),
    st.text(max_size=12),
)


def refused_or_read(read, *args):
    """``read(*args)``, or None when it raises MmlError; warnings count as failures."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(*args)
        except MmlError:
            return None


config_lines = st.one_of(
    st.builds(
        lambda key, upper, sep, value: (key.upper() if upper else key) + sep + value,
        st.sampled_from(CONFIG_KEYS), st.booleans(), st.sampled_from([" = ", "=", "  =  "]), words,
    ),
    st.sampled_from(["# comment", "", "   ", "= 4", "n", "n = 4 # trailing", "tol. = 1"]),
    st.text(max_size=20),
)


@given(lines=st.lists(config_lines, max_size=14), required=st.booleans())
@FUZZ
def test_parse_config_reads_or_refuses(lines, required):
    if required:
        lines = ["experiment = value_dist", "n = 4", "trials = 1", "master_seed = 0", *lines]
    cfg = refused_or_read(parse_config, "\n".join(lines))
    assert cfg is None or isinstance(cfg, ExperimentConfig)


def read_market_text(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        return refused_or_read(read_market, path)


entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.floats(1e-3, 1e3),
    st.sampled_from([1e308, 5e-324, 0.5, 1.0, -0.0]),
)


@st.composite
def market_texts(draw):
    def row(width):
        if draw(st.booleans()):  # one value repeated: 1e308 rows overflow their sums
            return [draw(entries)] * width
        return [draw(entries) for _ in range(width)]

    n_men, n_women = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = [row(n_women) for _ in range(n_men)]
    rows.append(None)  # the blank line between the matrices
    rows += [row(n_men) for _ in range(n_women)]
    lines = [f"{n_men} {n_women}"] + ["" if r is None else " ".join(map(repr, r)) for r in rows]
    if draw(st.booleans()):  # damage one line
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.one_of(st.text(max_size=20), words))
    return "\n".join(lines) + "\n"


@given(text=market_texts())
@FUZZ
def test_read_market_reads_or_refuses_market_files(text):
    market = read_market_text(text.encode("utf-8"))
    assert market is None or isinstance(market, CanonicalMarket)


@given(text=market_texts(), seed=st.integers(-1, 2**64))
@settings(max_examples=40, deadline=None)
# Subnormal scores have no finite reciprocal: no balance or draw can use them,
# so they are refused on reading, with one line and no warning.
@example(text="2 2\n1.516845439156578 0.25\n5e-324 1.7106299971879277\n\n"
              "0.1677886659921286 1.341016483918883\n1e308 0.8955131950125015\n", seed=0)
@example(text="3 3\n0.9337243293074923 1.5345437204714476 1.242926852151309\n"
              "0.018750782214071792 1.0351513008819797 0.1896673163245391\n"
              "1.3074426082066373 1.8355618203789827 1.5305494382318143\n\n"
              "0.16102035182024613 0.4301263498047172 1.995379090724963\n"
              "1e-320 0.6405159137989879 1.6707599891953948\n"
              "0.9895491978028382 0.21281702097244828 1.6026447723820798\n", seed=0)
@example(text="1 2\n1e-320 1\n\n1\n1\n", seed=1)
# A score with a finite reciprocal may still draw an infinite value: refused, without a warning.
@example(text="1 2\n1e-308 1\n\n1\n1\n", seed=13)
# Scores whose products underflow the balancing kernel: refused before any sweep.
@example(text="2 2\n1e-300 1\n1 1e-300\n\n1e-300 1\n1 1e-300\n", seed=0)
@example(text="2 2\n1e-200 1\n1 1\n\n1e-200 1\n1e-300 1\n", seed=0)
def test_cli_balances_and_enumerates_or_refuses_market_files(text, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "balanced.txt")
        for argv in (["balance", path], ["balance", path, "--out", out],
                     ["enumerate", path, "--seed", str(seed)]):
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 2), argv
            # Exit 2 prints one error line; success prints nothing to stderr.
            assert err.getvalue().count("\n") == (code == 2), err.getvalue()
            assert code == 0 or err.getvalue().startswith("error: "), err.getvalue()


@given(data=st.binary(max_size=60))
@settings(max_examples=60, deadline=None)
def test_read_market_reads_or_refuses_any_bytes(data):
    market = read_market_text(data)
    assert market is None or isinstance(market, CanonicalMarket)


cells = st.one_of(
    numbers, words, st.sampled_from(['"a,b"', '"unclosed', 'x"y', '"line\nbreak"', "\r", "\x00"])
)


@st.composite
def trial_csvs(draw):
    header = list(CSV_COLUMNS)
    if draw(st.booleans()):
        header = draw(st.permutations(header + ["extra"]))[: draw(st.integers(1, 16))]
    rows = [",".join(header)]
    for _ in range(draw(st.integers(0, 4))):
        rows.append(",".join(draw(st.lists(cells, max_size=len(header) + 2))))
    if draw(st.booleans()):
        rows.append("7" * draw(st.sampled_from([10, 131_072, 131_073])))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", "\r\n"]))


@given(text=st.one_of(trial_csvs(), st.text(max_size=80)))
@FUZZ
def test_records_from_csv_reads_or_refuses(text):
    records = refused_or_read(records_from_csv, text)
    assert records is None or all(isinstance(r, TrialRecord) for r in records)
