"""The key screen of one-rate sides against the float screen.

A side whose rows each have one rate is screened from its 53-bit words
(``sampling._key_screened_rows``): on one rate, values run in reverse word
order.  Every result here, the best-64 tables, the ranks, the row maxima
and any ``DuplicateValue`` message, must equal the float screen's, which
draws each block's values and screens them with ``_screened_rows``.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mml.sampling
from mml import rng
from mml.errors import DuplicateValue
from mml.market import backfill_imbalanced, sinkhorn_balance, uniform_market
from mml.rng import DistinctRows, _word_values, stream_key, thread_budget
from mml.sampling import _WORD_MARGIN, TOP_L, ValueStream, latent_streams

G = _WORD_MARGIN
TOP_WORD = 2**53 - 1
BUDGETS = [1, 2]


def outcome(stream: ValueStream, partners: np.ndarray, ncols: int):
    """``screen`` and ``row_max`` of ``stream`` as bytes, or the message they raise."""
    try:
        top, ranks = stream.screen(min(TOP_L, stream.shape[1]), partners)
        return top.tobytes(), ranks.tobytes(), stream.row_max(ncols).tobytes()
    except DuplicateValue as exc:
        return str(exc)


def both_screens(monkeypatch, stream: ValueStream, partners: np.ndarray, ncols: int):
    """(key screen's outcome, float screen's outcome, blocks the key screen cleared)."""
    cleared = []
    key_screen = mml.sampling._key_screened_rows

    def recording(stream, rows, words, scratch, width):
        bound = key_screen(stream, rows, words, scratch, width)
        cleared.append(bound is not None)
        return bound

    with monkeypatch.context() as patch:
        patch.setattr(mml.sampling, "_key_screened_rows", recording)
        keyed = outcome(stream, partners, ncols)
    assert stream.one_rate and cleared
    with monkeypatch.context() as patch:
        patch.setattr(ValueStream, "one_rate", property(lambda self: False))
        floated = outcome(stream, partners, ncols)
    return keyed, floated, cleared


@contextlib.contextmanager
def planted(monkeypatch, words: np.ndarray):
    """Within the ``with`` statement, every row-block walk draws its cells from ``words``.

    Each walk's words are replaced by their cells of the ``words`` grid,
    found from the first counter its block was given.
    """
    firsts = {}
    counter_words, unit_words = rng._counter_words, rng._unit_words

    def counting(z, first):
        firsts[z.ctypes.data] = first
        counter_words(z, first)

    def planting(z, t, key, given=None):
        unit_words(z, t, key, given)
        first = firsts[z.ctypes.data]
        z[:] = words.reshape(-1)[first : first + z.size]

    with monkeypatch.context() as patch:
        patch.setattr(rng, "_counter_words", counting)
        patch.setattr(rng, "_unit_words", planting)
        yield


def random_words(shape, seed):
    return np.random.default_rng(seed).integers(0, 2**53, shape, dtype=np.int64)


def one_rate_stream(n: int, row_rates=None, scale=None) -> ValueStream:
    """An n x n side of one rate per row: ``row_rates[i]`` (default 1) times ``scale[i]``."""
    row_rates = np.ones(n) if row_rates is None else np.asarray(row_rates, dtype=np.float64)
    distinct, index = np.unique(row_rates.view(np.uint64), return_inverse=True)
    table = np.repeat(distinct.view(np.float64)[:, None], n, axis=1)
    return ValueStream("X", stream_key(n, "planted"), DistinctRows(table, index), scale)


def partners_of(n: int, seed: int) -> np.ndarray:
    """A column or -1 per row."""
    return np.random.default_rng(seed).integers(-1, n, n)


# --- planted word blocks -------------------------------------------------------


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "gap, cleared, message",
    [
        (0, False, "tied X values drawn"),  # two equal words
        (1, False, None),  # two words 1 apart: distinct values, no key clears them
        (G, False, None),  # two words G apart: within the margin, screened by value
        (G + 1, True, None),  # keys within 1, but the words beyond G: the key screen clears
        (1 << 23, True, None),  # keys 2 apart
    ],
)
def test_two_close_words(monkeypatch, budget, gap, cleared, message):
    n = 100
    words = random_words((n, n), gap)
    # Uniforms near 2^-13, where words 1 apart still draw distinct values.
    words[37, 60] = 1 << 40
    words[37, 5] = words[37, 60] + gap
    stream = one_rate_stream(n)
    with thread_budget(budget), planted(monkeypatch, words):
        keyed, floated, clears = both_screens(monkeypatch, stream, partners_of(n, 1), n - 7)
    assert keyed == floated
    assert all(clears) == cleared
    if message is None:
        assert not isinstance(keyed, str)
    else:
        assert keyed.startswith(message)


@pytest.mark.parametrize("budget", BUDGETS)
def test_the_top_word_draws_a_non_positive_value(monkeypatch, budget):
    # Word 2^53 - 1 has the uniform 1.0 and the value -0.0.
    n = 90
    words = random_words((n, n), 3)
    words[50, 11] = TOP_WORD
    with thread_budget(budget), planted(monkeypatch, words):
        keyed, floated, clears = both_screens(monkeypatch, one_rate_stream(n), partners_of(n, 2), n)
    assert keyed == floated
    assert keyed.startswith("non-finite or non-positive X value drawn")
    assert not all(clears)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "rate, scale",
    [
        (np.nan, 1.0), (np.inf, 1.0), (0.0, 1.0), (-0.0, 1.0), (-2.0, 1.0), (1e300, 1e10),
        (1e308, 1.0), (1e-300, 1e-10), (1.0, np.nan), (5e-324, 1.0), (2.0**-1000, 2.0**-30),
    ],
)
def test_extreme_row_rates(monkeypatch, budget, rate, scale):
    # One row of a rate that draws NaN, inf, zeros or subnormals, the others
    # unit rates: both screens name the same fault, or agree on the result.
    n = 80
    row_rates, scales = np.ones(n), np.ones(n)
    row_rates[41], scales[41] = rate, scale
    stream = one_rate_stream(n, row_rates, scales)
    with thread_budget(budget):
        keyed, floated, _ = both_screens(monkeypatch, stream, partners_of(n, 3), n - 1)
    assert keyed == floated


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65])
def test_narrow_rows(monkeypatch, budget, n):
    # Fewer columns than TOP_L, and a single cell.
    for seed in range(3):
        rates = DistinctRows(np.full((1, n), 2.5), np.zeros(n, int))
        scale = np.random.default_rng(seed).uniform(0.5, 2.0, n)
        stream = ValueStream("Y", stream_key(seed, n), rates, scale)
        with thread_budget(budget):
            keyed, floated, clears = both_screens(monkeypatch, stream, partners_of(n, seed), n)
        assert keyed == floated and all(clears)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "faults, message",
    [
        ([(10, "top"), (80, "tie")], "non-finite or non-positive X value drawn"),
        ([(10, "tie"), (80, "top")], "tied X values drawn"),
        ([(80, "tie")], "tied X values drawn"),
        ([(80, "top")], "non-finite or non-positive X value drawn"),
    ],
)
def test_a_fault_in_a_late_block_below_one_in_an_early_block(monkeypatch, budget, faults, message):
    n = 100
    words = random_words((n, n), 5)
    for row, kind in faults:
        if kind == "tie":
            words[row, 3] = words[row, 70]
        else:
            words[row, 3] = TOP_WORD
    with monkeypatch.context() as patch:
        # Five rows a block: the faults sit in blocks 2 and 16 of 20.
        patch.setattr(rng, "BLOCK", 5 * n)
        with thread_budget(budget), planted(monkeypatch, words):
            keyed, floated, _ = both_screens(monkeypatch, one_rate_stream(n), partners_of(n, 4), n)
    assert keyed == floated
    assert keyed.startswith(message)


# --- against the float screen over seeds ---------------------------------------


@st.composite
def one_rate_sides(draw):
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["uniform", "backfilled", "rates"]))
    seed = draw(st.integers(0, 2**32))
    if kind == "rates":
        rates = np.random.default_rng(seed).uniform(0.1, 10.0, draw(st.integers(1, 4)))
        index = np.random.default_rng(seed + 1).integers(0, rates.size, n)
        scale = np.random.default_rng(seed + 2).uniform(0.5, 2.0, n)
        return ValueStream("X", stream_key(seed, "sides"), DistinctRows(
            np.repeat(rates[:, None], n, axis=1), index), scale), n
    k = draw(st.integers(0, n - 1)) if kind == "backfilled" else 0
    bal = sinkhorn_balance(backfill_imbalanced(uniform_market(n - k, n), k))
    return latent_streams(bal, seed)[draw(st.integers(0, 1))], n


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=40, deadline=None)
@given(side=one_rate_sides(), data=st.data())
def test_the_key_screen_equals_the_float_screen(budget, side, data):
    stream, n = side
    partners = np.array(data.draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)))
    ncols = data.draw(st.integers(1, n))
    with thread_budget(budget), pytest.MonkeyPatch.context() as monkeypatch:
        keyed, floated, clears = both_screens(monkeypatch, stream, partners, ncols)
    assert keyed == floated
    assert not isinstance(keyed, str)


# --- the margin's assumption -----------------------------------------------------


def tail_logs(words: np.ndarray) -> np.ndarray:
    """np.log of the uniforms of ``words``, as the draws take them."""
    out = np.empty(words.shape)
    _word_values(words, out)
    return np.log(out, out=out)


def test_logs_of_words_g_apart_are_strictly_ordered():
    # Around every 2^-k boundary of the uniforms, including the top word,
    # and at random words: np.log on the CPU that runs it keeps words G
    # apart in order, the assumption under the key screen's margin (see
    # sampling._WORD_MARGIN), which asks for words more than G apart.
    steps = np.arange(-64, 65, dtype=np.int64) * G
    for k in range(0, 54):
        words = ((1 << (53 - k)) if k else TOP_WORD) + steps
        words = words[(words >= 0) & (words <= TOP_WORD)]
        assert words.size >= 64 and (np.diff(tail_logs(words)) > 0).all(), k
    rng_ = np.random.default_rng(44)
    for size in (1, 7, 4096, 1 << 16):
        low = rng_.integers(0, 2**53 - G, size, dtype=np.int64)
        assert (tail_logs(low + G) > tail_logs(low)).all()
        # The values of one rate run the other way, strictly.
        values = [np.empty(size), np.empty(size)]
        for word_shift, out in zip((0, G), values):
            _word_values(low + word_shift, out, np.full(size, 1.7), -0.8)
        assert (values[1] < values[0]).all()
