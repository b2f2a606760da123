"""Row blocks on the thread budget: the same bits at every budget, and fork safety.

``map_row_blocks`` spreads the counter draw's row blocks over the threads the
process may use; the other blocked stages walk on the calling thread.  Each
block writes only its own rows, so every stage must give bit-identical
results at any budget, raise the sequential walk's exception, leave no
thread alive once it returns, and survive a fork into pool workers.
A trial's BLAS calls run on its calling thread, whatever thread count
numpy's OpenBLAS had before the trial.
"""

import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import mml
from mml import experiments
from mml.errors import DuplicateValue
from mml.experiments import parse_config, records_to_csv, run_experiment, run_trial
from mml.market import backfill_imbalanced, random_cbounded_market, sinkhorn_balance
from mml.matching import Side, _matrix_tables, deferred_acceptance
from mml.rng import (
    BLOCK, _openblas, exponential_cells, exponentials, map_row_blocks, row_blocks,
    single_threaded_blas, stream_key, thread_budget, unit_uniforms,
)
from mml.sampling import LatentValues
from oracles import bounds_records, held_kernel_balance

BUDGETS = (1, 2, 3)
# Square sizes below, at and above one block of 256^2 cells, and a
# rectangular market whose rows split into several blocks.
SHAPES = [(1, 1), (255, 255), (256, 256), (257, 257), (700, 700), (300, 700)]


def at_every_budget(compute):
    """compute()'s result at each budget, with frequent thread switches."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        for budget in BUDGETS:
            with thread_budget(budget):
                results.append(compute())
        return results
    finally:
        sys.setswitchinterval(interval)


def assert_bit_identical(results):
    reference, *others = results
    for other in others:
        assert len(other) == len(reference)
        for ref, got in zip(reference, other):
            assert ref.dtype == got.dtype and ref.shape == got.shape
            assert ref.tobytes() == got.tobytes()


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_draws_are_bit_identical_at_every_budget(shape):
    rows, cols = shape
    key = stream_key(rows, cols, "budget")
    dense = np.linspace(0.25, 4.0, rows * cols).reshape(shape)
    broadcast = np.broadcast_to(np.linspace(0.25, 4.0, cols), shape)
    scale = np.linspace(0.5, 2.0, rows)

    def draws():
        return [
            exponentials(key, dense),
            exponentials(key, broadcast),
            exponentials(key, broadcast, scale=scale),
            exponentials(key, dense, scale=scale),
            unit_uniforms(key, rows * cols, offset=7),
        ]

    assert_bit_identical(at_every_budget(draws))


@pytest.mark.parametrize("shape", [(1, 1), (1, 700), (257, 257), (300, 700)], ids=str)
def test_gathered_cells_equal_the_full_draw_at_every_budget(shape):
    rows, cols = shape
    key = stream_key(rows, cols, "gather")
    dense = np.linspace(0.25, 4.0, rows * cols).reshape(shape)
    broadcast = np.broadcast_to(np.linspace(0.25, 4.0, cols), shape)
    scale = np.linspace(0.5, 2.0, rows)
    # More cells than two gather blocks, and not a multiple of one.
    picked = np.random.default_rng(rows * cols).integers(0, rows * cols, 2 * BLOCK + 17)
    i, j = np.divmod(picked, cols)
    # A table of each column's rows, as deferred acceptance gathers the
    # receivers' values at the proposers' best 64: int32 against a column.
    table = np.random.default_rng(cols).integers(0, rows, (cols, 64)).astype(np.int32)
    proposers = np.arange(cols)[:, None]
    cases = [
        (dense, i, j, None),
        (dense, i, j, scale),
        (broadcast, i, j, None),
        (broadcast, i, j, scale),
        (dense, table, proposers, scale),
        (broadcast, table, proposers, scale),
    ]
    expected = [exponentials(key, rates, scale=scale)[r, c] for rates, r, c, scale in cases]

    def gathered():
        return [exponential_cells(key, rates, r, c, scale) for rates, r, c, scale in cases]

    assert_bit_identical([expected, *at_every_budget(gathered)])


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_top_l_and_ranks_are_bit_identical_at_every_budget(shape):
    rows, cols = shape
    values = LatentValues(
        X=exponentials(stream_key(rows, cols, "X"), np.ones(shape)),
        Y=exponentials(stream_key(rows, cols, "Y"), np.ones((cols, rows))),
    )

    def stages():
        # The tie screen runs again in the constructor.
        screened = LatentValues(X=values.X, Y=values.Y)
        out = []
        for side in Side:
            tables = _matrix_tables(screened, side)
            own = tables.own(np.arange(tables.top.shape[0])[:, None], tables.top)
            out += [tables.top, own, tables.recv]
            matching, outcome = deferred_acceptance(screened, side)
            out += [matching.mu_array, outcome.rank_men]
        return out

    assert_bit_identical(at_every_budget(stages))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_scores_and_mutual_product_are_bit_identical_at_every_budget(shape):
    n_men, n_women = shape

    def build():
        market = random_cbounded_market(n_men, 2.5, seed=n_women, n_women=n_women)
        out = [market.a_hat, market.b_hat]
        if market.is_square:
            bal = sinkhorn_balance(market)
            y = np.linspace(0.5, 2.0, 2 * n_men).reshape(n_men, 2)
            out += [bal.mutual_matmul(y), bal.mutual_matmul(y[:, 0])]
        return out

    assert_bit_identical(at_every_budget(build))


def planted_values(faults):
    """A 700 x 700 draw with (row, kind) faults planted in its X rows."""
    x = exponentials(stream_key(8, "late"), np.ones((700, 700)))
    for row, kind in faults:
        if kind == "tie":
            x[row, 5] = x[row, 600]
        else:
            x[row, 3] = np.nan
    return x, exponentials(stream_key(8, "other"), np.ones((700, 700)))


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "faults, message",
    [
        ([(690, "tie")], "tied X values drawn"),
        ([(690, "nan")], "non-finite or non-positive X value drawn"),
        # Two failing blocks: the lower one's error, as in the sequential walk.
        ([(200, "nan"), (690, "tie")], "non-finite or non-positive X value drawn"),
        ([(200, "tie"), (690, "nan")], "tied X values drawn"),
    ],
)
def test_a_fault_in_a_late_block_raises_its_message(budget, faults, message):
    assert [rows.start for rows in row_blocks(700, 700)][-1] < 690
    x, y = planted_values(faults)
    with thread_budget(budget), pytest.raises(DuplicateValue, match=message):
        LatentValues(X=x, Y=y)


def test_every_walk_gets_its_own_scratch_made_on_the_calling_thread():
    caller = threading.get_ident()
    for budget in BUDGETS:
        walks = []  # (walking thread, its scratch)
        with thread_budget(budget):
            map_row_blocks(
                lambda bs, own: walks.append((threading.get_ident(), own, list(bs))),
                700, 700, lambda: [threading.get_ident()],
            )
        # A helper's ident may be reused once it ends: count the walks instead.
        assert len(walks) == budget
        assert sum(thread != caller for thread, _, _ in walks) == budget - 1
        assert len({id(own) for _, own, _ in walks}) == budget
        # Helper threads walk, but only the caller allocates.
        assert [own for _, own, _ in walks] == [[caller]] * budget


def test_an_exception_in_a_pool_thread_reaches_the_caller():
    def fail_late(blocks, _scratch):
        for rows in blocks:
            if rows.start >= 600:
                raise KeyError(rows.start)

    for budget in BUDGETS:
        with thread_budget(budget), pytest.raises(KeyError) as excinfo:
            map_row_blocks(fail_late, 700, 700, tuple)
        assert excinfo.value.args[0] == min(
            r.start for r in row_blocks(700, 700) if r.start >= 600
        )


def test_the_budget_sets_the_walks_and_is_restored():
    def walks(nrows, ncols):
        threads = []
        map_row_blocks(
            lambda bs, _: threads.append((threading.get_ident(), list(bs))), nrows, ncols, tuple
        )
        return threads

    everything = list(row_blocks(700, 700))
    with thread_budget(3):
        with thread_budget(1):
            # One walk over every block on the calling thread: the sequential loop.
            assert walks(700, 700) == [(threading.get_ident(), everything)]
        assert len(walks(700, 700)) == 3
        assert len(walks(256, 256)) == 1  # a single block runs inline
    with thread_budget(2):
        claimed = walks(700, 700)
    assert len(claimed) == 2
    assert sorted(r.start for _, bs in claimed for r in bs) == [r.start for r in everything]


def test_no_row_block_thread_outlives_its_call():
    before = threading.active_count()
    walks = []
    with thread_budget(3):
        map_row_blocks(lambda blocks, _: walks.append(list(blocks)), 700, 700, tuple)
    assert len(walks) == 3
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("mml-rows")]


def test_only_the_counter_draw_starts_threads(monkeypatch):
    key = stream_key(3, "threads")
    rates = np.ones((700, 700))
    cells = np.arange(3 * BLOCK) % rates.size
    bal = sinkhorn_balance(random_cbounded_market(600, 2.5, seed=3))
    x, y = exponentials(key, rates), exponentials(key + 1, rates)
    y_vector = np.linspace(0.5, 2.0, 600)
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    with thread_budget(3):
        for stage in (
            lambda: exponential_cells(key, rates, *np.divmod(cells, 700)),
            lambda: bal.mutual_matmul(y_vector),
            lambda: LatentValues(X=x, Y=y),
        ):
            stage()
            assert started == []
        unit_uniforms(key, (700, 700))
    assert started == ["mml-rows"] * 2


POOL_CONFIG = """
experiment = hyperbola
market = uniform
n = 300
trials = 4
master_seed = 5
"""

# Walks row blocks on several threads in this process, then runs a two-worker
# pool on a simulated four-core machine, so each forked worker gets two threads.
# The fork must find no other thread alive: Python >= 3.12 warns when a
# process with live threads forks, and the test makes that warning an error.
FORKED_RUN = """
import os, sys, threading, time
os.sched_getaffinity = lambda pid: set(range(4))
from mml import experiments, rng
idents = set()
def walk(blocks, _scratch):
    for _ in blocks:
        idents.add(threading.get_ident())
        time.sleep(0.001)
rng.map_row_blocks(walk, 700, 700, tuple)
assert len(idents) > 1, "the row blocks ran on one thread"
assert threading.active_count() == 1, "a row-block thread outlived its walk"
_, records = experiments.run_experiment(experiments.parse_config(sys.argv[1]))
sys.stdout.write(experiments.records_to_csv(records))
"""


def test_forked_pool_workers_use_threads_and_keep_the_bytes(monkeypatch):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mml.__file__)))
    env = dict(os.environ, MML_WORKERS="2")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # Its own session, so that a hang also stops the pool workers.
    with subprocess.Popen(
        [sys.executable, "-W", "error:This process:DeprecationWarning", "-c", FORKED_RUN,
         POOL_CONFIG], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("a forked pool worker hung")
    assert proc.returncode == 0, stderr

    monkeypatch.setenv("MML_WORKERS", "1")
    with thread_budget(1):
        _, serial = run_experiment(parse_config(POOL_CONFIG))
    assert stdout == records_to_csv(serial)


needs_openblas = pytest.mark.skipif(
    _openblas() is None, reason="numpy's BLAS is not an OpenBLAS found beside numpy"
)


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread getter and setter; the count is restored after the test."""
    get, set_ = _openblas()
    saved = get()
    yield get, set_
    set_(saved)


def market_of(kind, n):
    """Trial 0's square market of the given kind, each side of size n."""
    market = kind.removesuffix(" backfilled")
    cfg = parse_config(
        f"experiment = rank_dist\nmarket = {market}\nc = 2.5\nn = {n}\n"
        "trials = 1\nmaster_seed = 3\n"
    )
    if kind == market:
        return experiments._build_market(cfg, 0, n)
    k = min(10, n - 1)  # k = 0 (n = 1) leaves the market as it is
    return backfill_imbalanced(experiments._build_market(cfg, 0, n - k), k)


def balance_fields(bal):
    return (bal.phi.tobytes(), bal.psi.tobytes(), bal.residual, bal.c_bound, bal.sinkhorn_iters)


# Around one row block, and two sizes where OpenBLAS's 2-thread matvecs
# round differently from its 1-thread ones.
@needs_openblas
@pytest.mark.parametrize("n", [1, 255, 257, 700, 1001])
@pytest.mark.parametrize(
    "kind", ["cbounded", "public_scores", "cbounded backfilled", "public_scores backfilled"]
)
def test_balance_under_the_blas_cap_keeps_its_bits_at_any_thread_count(kind, n, blas_threads):
    get, set_ = blas_threads
    market = market_of(kind, n)
    threaded = sinkhorn_balance(market)
    capped = []
    for threads in (1, 2, 3):
        set_(threads)
        with single_threaded_blas():
            assert get() == 1
            capped.append(balance_fields(sinkhorn_balance(market)))
        assert get() == threads
    assert capped[1:] == capped[:1] * 2
    # Without the cap, a threaded matvec may round differently in the last
    # ulps (seen at n = 700 and 1001 on 2 threads): the sweeps, not the bits,
    # are the same.
    phi, psi, residual, c_bound, sweeps = capped[0]
    assert sweeps == threaded.sinkhorn_iters
    np.testing.assert_allclose(np.frombuffer(phi), threaded.phi, rtol=1e-13, atol=0)
    np.testing.assert_allclose(np.frombuffer(psi), threaded.psi, rtol=1e-13, atol=0)
    assert abs(residual - threaded.residual) <= 1e-14
    assert c_bound == pytest.approx(threaded.c_bound, rel=1e-14, abs=0)


# Around the 64-row blocks of the balancing products, whose last block takes
# the remainder, and one size with a 41-row remainder.
BLOCKED_SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 257, 1001]
BLOCKED_KINDS = [
    "uniform", "public_scores", "cbounded", "public_scores backfilled", "cbounded backfilled",
]


def blocked_balance_mismatches(kinds=BLOCKED_KINDS, sizes=BLOCKED_SIZES):
    """The (kind, n) whose blocked balance differs in a bit from the held kernel's sweeps."""
    mismatches = []
    with single_threaded_blas():
        for kind in kinds:
            for n in sizes:
                market = market_of(kind, n)
                blocked, held = sinkhorn_balance(market), held_kernel_balance(market)
                if (blocked.phi.tobytes(), blocked.psi.tobytes(), blocked.sinkhorn_iters) != (
                    held.phi.tobytes(), held.psi.tobytes(), held.sinkhorn_iters
                ):
                    mismatches.append((kind, n))
    return mismatches


@needs_openblas
@pytest.mark.parametrize("kind", BLOCKED_KINDS)
def test_blocked_balance_equals_the_held_kernel_bit_for_bit(kind):
    assert blocked_balance_mismatches([kind]) == []


CORETYPE_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import test_thread_budget
print(test_thread_budget.blocked_balance_mismatches())
"""


# OpenBLAS picks other matvec kernels on these CPUs; each walks rows in its own groups.
@needs_openblas
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_blocked_balance_keeps_the_held_bits_on_other_blas_kernels(coretype):
    src = os.path.dirname(os.path.dirname(os.path.abspath(mml.__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CORETYPE_RUN, os.path.dirname(os.path.abspath(__file__))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@needs_openblas
@pytest.mark.parametrize("n", [50, 257])
def test_bounds_records_are_equal_with_and_without_the_cap(n, blas_threads):
    # The Chernoff batch's matvecs are the only BLAS calls that run on the row-block threads.
    _, set_ = blas_threads
    records = []
    for threads in (1, 2, 3):
        set_(threads)
        records.append(bounds_records(n, 4, 0))
        with single_threaded_blas():
            records.append(bounds_records(n, 4, 0))
    assert records[1:] == records[:1] * 5


@needs_openblas
def test_run_trial_holds_blas_at_one_thread_and_restores_it(monkeypatch, blas_threads):
    get, set_ = blas_threads
    cfg = parse_config("experiment = stable_count\nn = 5\ntrials = 1\nmaster_seed = 4\n")
    seen = []

    def body(cfg, t):
        seen.append(get())
        if t:
            raise KeyError(t)
        return []

    monkeypatch.setitem(experiments._TRIAL_BODIES, cfg.experiment, body)
    for threads in (1, 2, 3):
        set_(threads)
        assert run_trial(cfg, 0) == []
        assert get() == threads
        with pytest.raises(KeyError):
            run_trial(cfg, 1)
        assert get() == threads
    assert seen == [1] * 6


@needs_openblas
def test_trial_records_do_not_depend_on_blas_threads(blas_threads):
    # Uncapped, 1 and 2 OpenBLAS threads give different last bits here.
    _, set_ = blas_threads
    cfg = parse_config(
        "experiment = rank_dist\nmarket = cbounded\nn = 700\ntrials = 1\nmaster_seed = 4\n"
    )
    csvs = []
    for threads in (1, 2, 3):
        set_(threads)
        csvs.append(records_to_csv(run_trial(cfg, 0)))
    assert csvs[1:] == csvs[:1] * 2
