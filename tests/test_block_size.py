"""The counter draw's bits do not depend on its block sizes.

Every row-block walk reads ``rng.BLOCK`` (``rng._COUNTED_BLOCK`` where its
rates are drawn by counter) and every gather ``rng._GATHER_BLOCK`` when it
runs, so setting them small re-blocks the screened passes, the score build
and the gathers of a whole trial.  Each output below must keep its bytes,
on one thread and on two.
"""

import numpy as np
import pytest

from mml import rng
from mml.experiments import parse_config, records_to_csv, run_trial
from mml.market import cbounded_kernel_market, uniform_market
from mml.rng import single_threaded_blas, thread_budget
from mml.sampling import latent_streams

N = 300
CONFIGS = [
    "experiment = rank_dist\nmarket = cbounded\nc = 3.0\nn = 300\ntrials = 2\nmaster_seed = 11\n",
    "experiment = hyperbola\nmarket = uniform\nn = 300\ntrials = 2\nmaster_seed = 12\n",
    "experiment = imbalance\nmarket = cbounded\nc = 10\nn = 300\nk = 40\ntrials = 2\n"
    "master_seed = 13\n",
]


def draw_bytes() -> list[bytes]:
    """Screens, gathers, kernels and trial records, as bytes."""
    out = []
    markets = [uniform_market(N), cbounded_kernel_market(N, 3.0, 5),
               cbounded_kernel_market(N, 10.0, 6, k=70)]
    for market in markets[1:]:
        out += [market.kernel.tobytes(), market.a_hat.sums.tobytes(), market.b_hat.sums.tobytes()]
    rows = np.arange(N)[:, None]
    for market in markets:
        with single_threaded_blas():
            streams = latent_streams(market, 21)
        for stream in streams:
            top, counts = stream.screen(64, 20.0 / stream.scale)
            out += [top.tobytes(), counts.tobytes(), stream.cells(rows, top).tobytes(),
                    stream.cells(rows[::7, 0], top[::7, 3]).tobytes()]
    for text in CONFIGS:
        cfg = parse_config(text)
        out += [records_to_csv(run_trial(cfg, t)).encode() for t in range(cfg.trials)]
    return out


def counted_draw(monkeypatch) -> tuple[list[bytes], int]:
    """``draw_bytes()`` and the number of row blocks its walks and gathers took."""
    blocks = 0
    row_blocks = rng.row_blocks

    def counting(*args):
        nonlocal blocks
        listed = list(row_blocks(*args))
        blocks += len(listed)
        return iter(listed)

    with monkeypatch.context() as patch:
        patch.setattr(rng, "row_blocks", counting)
        return draw_bytes(), blocks


@pytest.mark.parametrize("budget", [1, 2])
def test_draws_do_not_depend_on_the_block_size(monkeypatch, budget):
    with thread_budget(budget):
        default, default_blocks = counted_draw(monkeypatch)
        for cells in (2**9, 2**12):
            with monkeypatch.context() as patch:
                for name in ("BLOCK", "_COUNTED_BLOCK", "_GATHER_BLOCK"):
                    patch.setattr(rng, name, cells)
                small, small_blocks = counted_draw(monkeypatch)
            # row_blocks and map_row_blocks default to the BLOCK of import
            # time: the walks must really have taken the small blocks.
            assert small_blocks > 2 * default_blocks, (cells, small_blocks, default_blocks)
            assert len(small) == len(default)
            for number, (got, want) in enumerate(zip(small, default)):
                assert got == want, (cells, number)
