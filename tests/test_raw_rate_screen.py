"""A C-bounded value-family trial screened at its raw scores, against the balanced path.

Such a trial (``experiments._cbounded_matchings``) screens each side's
values in the pass that builds its part of the balancing kernel, at the
raw scores, before the balance: within a row the balanced values are the
raw-rate ones times a row constant, to within four roundings, so where a
row's raw-rate values are certified apart (``sampling._RAW_MARGIN``) they
order it as the balanced ones do.  Every record, and every exception, must
equal the balanced path's: ``_trial_market`` then ``_optimal_matchings``,
which the trial runs itself wherever a row is not certified.  That path is
reached here through the same fallback, with the certificate made to fail.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mml.sampling
from mml import experiments, rng
from mml.errors import DuplicateValue, NonPositiveEntry
from mml.experiments import parse_config, records_to_csv, run_trial
from mml.market import _UNDERFLOW
from mml.rng import _word_values, stream_key, thread_budget
from mml.sampling import (
    _RAW_MARGIN, TOP_L, RawRateScreen, Uncertified, ValueStream, latent_streams,
)

BUDGETS = (1, 2)
EXPERIMENTS = ("value_dist", "rank_dist", "hyperbola")
TOP_WORD = 2**53 - 1
SEED = 5


def config(experiment: str, n: int, c: float, seed: int = SEED):
    return parse_config(
        f"experiment = {experiment}\nmarket = cbounded\nc = {c}\nn = {n}\n"
        f"trials = 1\nmaster_seed = {seed}\n"
    )


def outcome(cfg, t: int = 0) -> str:
    """Trial t's records as CSV, or the exception it raises, named."""
    try:
        return records_to_csv(run_trial(cfg, t))
    except (DuplicateValue, NonPositiveEntry) as exc:
        return f"{type(exc).__name__}: {exc}"


def fused_and_balanced(monkeypatch, cfg, t: int = 0) -> tuple[str, str, int]:
    """(trial t's outcome, its outcome on the balanced path, its fallbacks to that path)."""
    built = []
    trial_market = experiments._trial_market

    def counting(cfg, t):
        built.append(t)
        return trial_market(cfg, t)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_trial_market", counting)
        fused = outcome(cfg, t)
    fallbacks = len(built)
    with monkeypatch.context() as patch:
        patch.setattr(mml.sampling, "_raw_rates_apart", lambda ordered: False)
        balanced = outcome(cfg, t)
    return fused, balanced, fallbacks


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("c", [1, 2, 10])
@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 257])
def test_records_equal_the_balanced_path(monkeypatch, n, c, experiment):
    for budget in BUDGETS:
        with thread_budget(budget):
            fused, balanced, fallbacks = fused_and_balanced(monkeypatch, config(experiment, n, c))
        assert fused == balanced
        assert fallbacks == 0 and "," in fused


@pytest.mark.parametrize("c", [2, 10])
def test_deep_walks_on_raw_rates(monkeypatch, c):
    # Tables two columns wide: most walks read their rows again past them.
    monkeypatch.setattr(mml.sampling, "TOP_L", 2)
    cfg = config("rank_dist", 257, c)
    for budget in BUDGETS:
        with thread_budget(budget):
            fused, balanced, fallbacks = fused_and_balanced(monkeypatch, cfg)
        assert fused == balanced and fallbacks == 0


@contextlib.contextmanager
def recorded_screens(patch):
    """Within the ``with`` statement, the trials' ``RawRateScreen`` objects, in order."""
    screens = []

    class Recorded(RawRateScreen):
        def __init__(self, *args):
            super().__init__(*args)
            screens.append(self)

    patch.setattr(experiments, "RawRateScreen", Recorded)
    yield screens


# --- planted words ----------------------------------------------------------------


@contextlib.contextmanager
def planted(monkeypatch, words: dict[tuple[int, int], int]):
    """Within the ``with`` statement, stream ``key``'s 53-bit word at ``counter`` is
    ``words[key, counter]``, however it is drawn: in a walk's block or a gather's cells.

    Each buffer's counters are found as its words are made, from the first
    counter of a walk's block or the cells of a gather.
    """
    counters = {}
    counter_words, cell_words, unit_words = rng._counter_words, rng._cell_words, rng._unit_words

    def walking(z, first):
        counter_words(z, first)
        counters[z.ctypes.data] = np.arange(first, first + z.size)

    def gathering(z, rows, cols, ncols, shape):
        flat = np.broadcast_to(np.multiply(rows, ncols, dtype=np.int64) + cols, shape)
        counters[z.ctypes.data] = flat.reshape(-1).copy()
        cell_words(z, rows, cols, ncols, shape)

    def planting(z, t, key, given=None):
        unit_words(z, t, key, given)
        # A rate's uniforms read the mixed counter words of the values' buffer.
        at = counters[(z if given is None else given).ctypes.data]
        for (planted_key, counter), word in words.items():
            if planted_key == int(key):
                z[at == counter] = word

    with monkeypatch.context() as patch:
        patch.setattr(rng, "_counter_words", walking)
        patch.setattr(rng, "_cell_words", gathering)
        patch.setattr(rng, "_unit_words", planting)
        yield


N = 100
ROW, COL_A, COL_B = 37, 5, 60
# A uniform near 1/4: there one word moves log(u) by about two ulps.
QUARTER = 1 << 51


def side_keys(side: str) -> tuple[int, int]:
    """Trial 0's keys of the side's values and of its raw scores."""
    trial_seed = stream_key(SEED, "trial", 0)
    market_key = stream_key(SEED, "market", 0)
    raw = "a_raw" if side == "X" else "b_raw"
    return stream_key(trial_seed, side), stream_key(market_key, raw)


def raw_rate_gap(c: float, gap: int) -> int:
    """Ulps between the raw-rate values of words QUARTER and QUARTER + gap at one raw score."""
    raw = c ** (2.0 * (QUARTER + 0.5) * 2.0**-53 - 1.0)
    values = np.empty(2)
    _word_values(np.array([QUARTER, QUARTER + gap]), values, np.full(2, raw))
    return abs(int(np.diff(values.view(np.int64))[0]))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("side", ["Y", "X"])
@pytest.mark.parametrize("gap", [0, 1, 5, 12, 40])
def test_two_close_values_in_one_row(monkeypatch, budget, side, gap):
    # Two cells of one woman's (Y) or one man's (X) row share their raw score
    # and draw values ``gap`` words apart: within the margin the row falls
    # back, with the balanced path's records, or its message at a tie.
    c = 2.0
    value_key, raw_key = side_keys(side)
    ulps = raw_rate_gap(c, gap)
    words = {
        (raw_key, ROW * N + COL_A): QUARTER, (raw_key, ROW * N + COL_B): QUARTER,
        (value_key, ROW * N + COL_A): QUARTER, (value_key, ROW * N + COL_B): QUARTER + gap,
    }
    with thread_budget(budget), planted(monkeypatch, words):
        fused, balanced, fallbacks = fused_and_balanced(monkeypatch, config("rank_dist", N, c))
    assert fused == balanced
    assert fallbacks == (ulps <= _RAW_MARGIN)
    if gap == 0:
        assert fused == f"DuplicateValue: tied {side} values drawn (probability-zero event); reseed"
    else:
        assert "," in fused


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("side", ["Y", "X"])
def test_the_top_word_falls_back(monkeypatch, budget, side):
    # Word 2^53 - 1 has the uniform 1.0 and the value -0.0, which no row certifies.
    value_key, _ = side_keys(side)
    with thread_budget(budget), planted(monkeypatch, {(value_key, ROW * N + COL_A): TOP_WORD}):
        fused, balanced, fallbacks = fused_and_balanced(monkeypatch, config("value_dist", N, 2.0))
    assert fused == balanced and fallbacks == 1
    assert fused == f"DuplicateValue: non-finite or non-positive {side} value drawn; reseed"


@pytest.mark.parametrize("budget", BUDGETS)
def test_an_infinite_value_falls_back(monkeypatch, budget):
    # At c = 1e307 the least raw score, 1e-307, rates the least uniform's
    # value past the largest double; the kernel then fails its checks.
    value_key, raw_key = side_keys("Y")
    words = {(raw_key, ROW * N + COL_A): 0, (value_key, ROW * N + COL_A): 0}
    seen = []
    apart = mml.sampling._raw_rates_apart

    def recording(ordered):
        seen.append(bool(np.isfinite(ordered).all()))
        return apart(ordered)

    monkeypatch.setattr(mml.sampling, "_raw_rates_apart", recording)
    with thread_budget(budget), planted(monkeypatch, words):
        fused, balanced, fallbacks = fused_and_balanced(monkeypatch, config("hyperbola", N, 1e307))
    assert seen == [False]
    assert fused == balanced and fallbacks == 1
    assert fused.startswith("NonPositiveEntry: b_hat must have strictly positive finite entries")


@pytest.mark.parametrize("budget", BUDGETS)
def test_an_underflowing_kernel_raises_the_balanced_paths_exception(monkeypatch, budget):
    with thread_budget(budget):
        fused, balanced, _ = fused_and_balanced(monkeypatch, config("rank_dist", 30, 1e150))
    assert fused == balanced == f"NonPositiveEntry: {_UNDERFLOW}"


@pytest.mark.parametrize(
    "row",
    [[1.0, np.nan, 2.0], [1.0, np.inf, 2.0], [1.0, -0.0, 2.0], [1.0, 5e-324, 2.0],
     [1.0, np.nextafter(1.0, 2.0), 2.0]],
)
def test_a_block_that_is_not_apart_is_not_certified(row):
    # NaN, an infinity, a non-positive or subnormal value, or two within the margin.
    block = np.array([[3.0, 4.0, 5.0], row])
    stream = ValueStream("Y", 0, np.ones((2, 3)), None)
    screen = RawRateScreen(stream, 2)

    def values():
        return block.copy(), np.empty_like(block)

    with pytest.raises(Uncertified, match="^Y rows 0-1$"):
        screen(slice(0, 2), None, None, values, np.ones((2, 3)))
    block[1] = [1.0, 1.5, 2.0]
    screen(slice(0, 2), None, None, values, np.ones((2, 3)))
    assert screen.top.tolist() == [[0, 1], [0, 1]]


@pytest.mark.parametrize("factor", [1e-310, 1e308, np.inf, np.nan])
def test_balanced_extremes_out_of_the_normal_range_are_not_certified(monkeypatch, factor):
    # A fitness that takes the balanced values (or their rates) out of the
    # normal range voids the raw-rate order, however far apart it is.
    cfg = config("value_dist", 200, 10)
    with monkeypatch.context() as patch, recorded_screens(patch) as screens:
        bal, _ = experiments._two_pass_matchings(cfg, 0, stream_key(SEED, "trial", 0))
    x, y = latent_streams(bal, stream_key(SEED, "trial", 0))
    for screen, stream in zip(screens, (y, x)):
        screen.certify(stream)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            scaled = ValueStream(stream.name, stream.key, stream.rates, stream.scale * factor)
            with pytest.raises(Uncertified, match=f"^{stream.name} extremes$"):
                screen.certify(scaled)


# --- against the balanced path over seeds ----------------------------------------


def solved_bytes(solved) -> list:
    return [
        (matching.mu, outcome.value_men.tobytes(), outcome.value_women.tobytes(),
         None if outcome.rank_men is None else outcome.rank_men.tobytes(), outcome.proposal_count)
        for matching, outcome in solved
    ]


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 300), c=st.sampled_from([1.5, 3.0, 50.0]))
def test_raw_rate_tables_and_matchings_equal_the_balanced_ones(budget, seed, n, c):
    cfg = config("rank_dist", n, c, seed)
    trial_seed = stream_key(seed, "trial", 0)
    tops = {}
    screened_tables = experiments.screened_tables

    def recording(prop, recv, top):
        tops[prop.name] = top.tobytes()
        return screened_tables(prop, recv, top)

    with thread_budget(budget), pytest.MonkeyPatch.context() as patch, \
            recorded_screens(patch) as screens:
        patch.setattr(experiments, "screened_tables", recording)
        fused_bal, fused = experiments._two_pass_matchings(cfg, 0, trial_seed)
        bal = experiments._trial_market(cfg, 0)
        balanced = experiments._optimal_matchings(bal, trial_seed)
        x, y = latent_streams(bal, trial_seed)
        width = min(TOP_L, n)
        women_top, _ = y.screen(width)
        men_top, ranks = x.screen(width, balanced[1][0].mu_array)
    assert solved_bytes(fused) == solved_bytes(balanced)
    for fitness in ("phi", "psi"):
        assert getattr(fused_bal, fitness).tobytes() == getattr(bal, fitness).tobytes()
    assert tops == {"Y": women_top.tobytes(), "X": men_top.tobytes()}
    assert [screen.ranks is None for screen in screens] == [True, False]
    assert screens[1].ranks.tobytes() == ranks.tobytes()
