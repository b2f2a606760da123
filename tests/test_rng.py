"""Stream-key derivation and counter-based draw tests.

The frozen constants below pin the exact key/counter layout: every sampled
artifact in the package (and every CSV under version control elsewhere)
depends on it, so a change here is a breaking format change, not a refactor.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml import rng
from mml.errors import ConfigError
from mml.rng import (
    BLOCK,
    DistinctRows,
    exponential_cells,
    exponentials,
    stream_key,
    unit_uniforms,
)
from oracles import reference_uniforms

# Generated once from the implementation at freeze time.
FROZEN_KEYS = {
    (42,): 56425312211808431,
    (42, "X"): 14342964096523125717,
    (0, "trial", 0): 15030071172998137874,
    ("a", "b"): 2902341472518403890,
    ("ab",): 11041775780777108814,
}
FROZEN_UNIFORMS_KEY7 = [
    0.019359071233863434,
    0.7797297571273674,
    0.2503015580784563,
]


def test_stream_key_frozen_values():
    for tokens, expected in FROZEN_KEYS.items():
        assert stream_key(*tokens) == expected


def test_stream_key_tokens_are_tagged():
    # Length prefixes and type tags keep distinct tuples from colliding.
    assert stream_key("a", "b") != stream_key("ab")
    assert stream_key(1, "ab") != stream_key(1, "a", "b")
    assert stream_key(1) != stream_key("1")
    assert stream_key(12, 3) != stream_key(1, 23)


def test_stream_key_range():
    for tokens in FROZEN_KEYS:
        key = stream_key(*tokens)
        assert 0 <= key < 2**64


def test_unit_uniforms_frozen_values():
    np.testing.assert_array_equal(
        unit_uniforms(stream_key(7), 3), np.array(FROZEN_UNIFORMS_KEY7)
    )


def test_unit_uniforms_deterministic():
    key = stream_key(99, "det")
    np.testing.assert_array_equal(unit_uniforms(key, 1000), unit_uniforms(key, 1000))


@given(
    seed=st.integers(0, 2**32),
    count=st.integers(1, 40),
    offset=st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_offset_slices_the_same_stream(seed, count, offset):
    key = stream_key(seed, "slice")
    whole = unit_uniforms(key, offset + count)
    part = unit_uniforms(key, count, offset=offset)
    np.testing.assert_array_equal(whole[offset:], part)


def test_unit_uniforms_open_interval():
    u = unit_uniforms(stream_key(3, "interval"), 1_000_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # Logs of both tails must stay finite for the exponential transform.
    assert np.isfinite(np.log(u)).all()
    assert np.isfinite(np.log1p(-u)).all()


def test_uniform_moments():
    n = 200_000
    u = unit_uniforms(stream_key(11, "moments"), n)
    assert abs(u.mean() - 0.5) < 3.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(u.var() - 1.0 / 12.0) < 1e-3
    lag1 = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(lag1) < 3.0 / math.sqrt(n)


def test_uniform_bins_chi_square():
    # 16 equal bins, df = 15; 1% critical value 30.578.
    n = 160_000
    u = unit_uniforms(stream_key(12, "bins"), n)
    counts = np.bincount((u * 16).astype(int), minlength=16)
    chi2 = float(((counts - n / 16) ** 2 / (n / 16)).sum())
    assert chi2 < 30.578


def test_streams_with_different_keys_are_uncorrelated():
    n = 100_000
    a = unit_uniforms(stream_key(5, "left"), n)
    b = unit_uniforms(stream_key(5, "right"), n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 3.0 / math.sqrt(n)


def test_exponentials_counter_layout():
    # Cell (i, j) always consumes counter i*ncols + j, so the matrix draw is
    # the flat stream reshaped -- independent of how much is drawn elsewhere.
    key = stream_key(21, "layout")
    rates = np.full((3, 4), 2.0)
    expected = -np.log(unit_uniforms(key, 12).reshape(3, 4)) / 2.0
    assert exponentials(key, rates).tobytes() == expected.tobytes()


def test_a_uniform_of_one_draws_a_negative_zero(monkeypatch):
    # log(1) / -rate is -0.0, as -log(1) / rate is: the draw keeps signed zeros.
    def ones(z, t, key, out, words=None):
        out[...] = 1.0

    monkeypatch.setattr(rng, "_unit_floats", ones)
    rates = np.array([[0.5, 2.0, np.inf]])
    cells = exponential_cells(3, rates, np.zeros(3, int), np.arange(3))
    for drawn in (exponentials(3, rates), cells):
        assert drawn.tobytes() == (-np.log(np.ones(3)) / rates).reshape(drawn.shape).tobytes()
        assert np.signbit(drawn).all()


# Around a chunk of counter words (BLOCK / 8) and a block.
@pytest.mark.parametrize(
    "count",
    [1, BLOCK // 8 - 1, BLOCK // 8, BLOCK // 8 + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17],
)
@pytest.mark.parametrize("offset", [0, 1, BLOCK])
def test_blocked_draws_match_the_one_shot_reference(count, offset):
    key = stream_key(count, offset, "blocked")
    reference = reference_uniforms(key, count, offset)
    assert unit_uniforms(key, count, offset).tobytes() == reference.tobytes()
    # The same counters as one or two rows: an odd count above BLOCK is one
    # row wider than a block.
    rows = 2 if count % 2 == 0 else 1
    assert unit_uniforms(key, (rows, count // rows), offset).tobytes() == reference.tobytes()
    # A matrix whose rows straddle block boundaries, with distinct rates.
    cols = max(d for d in range(1, 301) if count % d == 0)
    rates = np.linspace(0.5, 3.0, count).reshape(count // cols, cols)
    expected = -np.log(reference_uniforms(key, count).reshape(rates.shape)) / rates
    assert exponentials(key, rates).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (3, 7), (300, 301), (2, BLOCK + 5),
     (3, BLOCK // 8 - 1), (2, BLOCK // 8), (9, BLOCK // 8 + 1)],
)
def test_factored_rates_match_the_one_shot_reference(shape):
    # Row i's rates are scale[i] * rates[i], for dense rates and rates held
    # as distinct rows (one shared row, or rows of a three-row table),
    # including rows longer than a block.
    rows, cols = shape
    key = stream_key(rows, cols, "factored")
    scale = np.linspace(0.5, 2.0, rows)
    reference = reference_uniforms(key, rows * cols).reshape(shape)
    table = np.linspace(0.25, 4.0, 3 * cols).reshape(3, cols)
    for rates in (np.linspace(0.25, 4.0, rows * cols).reshape(shape),
                  DistinctRows(table[:1], np.zeros(rows, np.intp)),
                  DistinctRows(table, np.arange(rows) % 3)):
        expected = -np.log(reference) / (scale[:, None] * np.asarray(rates))
        np.testing.assert_array_equal(exponentials(key, rates, scale=scale), expected)
    with pytest.raises(ValueError, match="scale"):
        exponentials(key, np.ones(shape), scale=np.ones(rows + 1))


@pytest.mark.parametrize("layout", ["shared_row", "two_rows", "dense"])
def test_gathered_cells_equal_the_full_draw_across_blocks(layout):
    # An int32 (n, L) table against an (n, 1) column, as the walks gather
    # them, over more than one block of cells, and 0-d and 1-d indices:
    # rates held as distinct rows are taken from their one shared row or
    # gathered from their table, dense ones by the cells' two indices.
    n, width = 1100, 64
    key = stream_key(n, "cells")
    rate_rows = np.linspace(0.25, 4.0, 2 * n).reshape(2, n)
    rates = {
        "shared_row": DistinctRows(rate_rows[:1], np.zeros(n, np.intp)),
        "two_rows": DistinctRows(rate_rows, (np.arange(n) >= 700).astype(np.intp)),
        "dense": np.linspace(0.25, 4.0, n * n).reshape(n, n),
    }[layout]
    table = np.random.default_rng(n).integers(0, n, (n, width)).astype(np.int32)
    column = np.arange(n)[:, None]
    picked = np.random.default_rng(width).integers(0, n, 3 * BLOCK // 2)
    assert table.size > BLOCK and picked.size > BLOCK
    cases = [
        (table, column),
        (column, table),
        (7, 1099),
        (np.int32(5), picked.astype(np.int32)),
        (picked, 3),
        (picked, picked[::-1]),
    ]
    for scale in (None, np.linspace(0.5, 2.0, n)):
        full = exponentials(key, rates, scale=scale)
        for rows, cols in cases:
            expected = full[rows, cols]
            got = exponential_cells(key, rates, rows, cols, scale)
            assert got.shape == np.shape(expected)
            assert got.tobytes() == np.asarray(expected).tobytes()


def test_gather_scratch_does_not_grow_with_the_table():
    # A walk's (n, 64) table against its column of rows, with one shared
    # rate row and a scale, as the trials gather the receivers' values.  The
    # scratch is two uint64 buffers of BLOCK / 8 cells and block-sized
    # temporaries (the rates taken, numpy's casting buffer): about 260 KB at
    # every n, where buffers of BLOCK cells took 2.1 MB.
    extras = []
    for n in (1000, 3000):
        rates = DistinctRows(np.linspace(0.25, 4.0, n)[None], np.zeros(n, np.intp))
        scale = np.linspace(0.5, 2.0, n)
        table = np.random.default_rng(n).integers(0, n, (n, 64)).astype(np.int32)
        column = np.arange(n)[:, None]
        tracemalloc.start()
        try:
            got = exponential_cells(stream_key(n, "gather"), rates, column, table, scale)
            extras.append(tracemalloc.get_traced_memory()[1] - got.nbytes)
        finally:
            tracemalloc.stop()
    assert abs(extras[0] - extras[1]) < 4096, extras
    assert max(extras) < 5 * 8 * (BLOCK // 8), extras


def test_exponentials_rate_scaling_is_exact():
    key = stream_key(22, "scaling")
    ones = np.ones(500)
    np.testing.assert_array_equal(
        exponentials(key, 2.0 * ones), exponentials(key, ones) / 2.0
    )


def test_exponentials_mean():
    n = 100_000
    draws = exponentials(stream_key(23, "mean"), np.full(n, 3.0))
    assert abs(draws.mean() - 1.0 / 3.0) < 3.0 / (3.0 * math.sqrt(n))
    assert (draws > 0.0).all()


@given(count=st.integers(1, 1000))
@settings(max_examples=30, deadline=None)
def test_unit_uniforms_count(count):
    assert unit_uniforms(stream_key(1, "count"), count).shape == (count,)


def test_unit_uniforms_zero_count():
    assert unit_uniforms(stream_key(1, "zero"), 0).shape == (0,)


def test_negative_and_large_int_tokens():
    # Signed and > 64-bit ints are valid tokens and hash distinctly.
    assert stream_key(-1) != stream_key(1)
    assert stream_key(2**80) != stream_key(2**80 + 1)
    assert isinstance(stream_key(-(2**70)), int)


def test_int_tokens_span_the_signed_128_bit_range():
    assert stream_key(2**127 - 1) != stream_key(-(2**127))
    for token in (2**127, -(2**127) - 1, 2**200):
        with pytest.raises(ConfigError, match=f"^seed {token} is outside the signed 128-bit range"):
            stream_key(token, "trial", 0)
