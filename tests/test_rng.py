"""Stream-key derivation and counter-based draw tests.

The frozen constants below pin the exact key/counter layout: every sampled
artifact in the package (and every CSV under version control elsewhere)
depends on it, so a change here is a breaking format change, not a refactor.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mml.errors import ConfigError
from mml.rng import BLOCK, exponential_cells, exponentials, stream_key, unit_uniforms
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
    np.testing.assert_array_equal(exponentials(key, rates), expected)


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
@pytest.mark.parametrize("offset", [0, 1, BLOCK])
def test_blocked_draws_match_the_one_shot_reference(count, offset):
    key = stream_key(count, offset, "blocked")
    np.testing.assert_array_equal(
        unit_uniforms(key, count, offset), reference_uniforms(key, count, offset)
    )
    # A matrix whose rows straddle block boundaries, with distinct rates.
    cols = max(d for d in range(1, 301) if count % d == 0)
    rates = np.linspace(0.5, 3.0, count).reshape(count // cols, cols)
    expected = -np.log(reference_uniforms(key, count).reshape(rates.shape)) / rates
    np.testing.assert_array_equal(exponentials(key, rates), expected)


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (300, 301), (2, BLOCK + 5)])
def test_factored_rates_match_the_one_shot_reference(shape):
    # Row i's rates are scale[i] * rates[i], for dense and broadcast rates,
    # including rows longer than a block.
    rows, cols = shape
    key = stream_key(rows, cols, "factored")
    scale = np.linspace(0.5, 2.0, rows)
    reference = reference_uniforms(key, rows * cols).reshape(shape)
    for rates in (np.linspace(0.25, 4.0, rows * cols).reshape(shape),
                  np.broadcast_to(np.linspace(0.25, 4.0, cols), shape)):
        expected = -np.log(reference) / (scale[:, None] * rates)
        np.testing.assert_array_equal(exponentials(key, rates, scale=scale), expected)
    with pytest.raises(ValueError, match="scale"):
        exponentials(key, np.ones(shape), scale=np.ones(rows + 1))


@pytest.mark.parametrize("layout", ["broadcast_row", "dense"])
def test_gathered_cells_equal_the_full_draw_across_blocks(layout):
    # An int32 (n, L) table against an (n, 1) column, as the walks gather
    # them, over more than one block of cells, and 0-d and 1-d indices:
    # broadcast-row rates are read from their row, dense ones by the cells'
    # two indices.
    n, width = 1100, 64
    key = stream_key(n, "cells")
    rates = {
        "broadcast_row": np.broadcast_to(np.linspace(0.25, 4.0, n), (n, n)),
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
