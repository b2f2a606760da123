"""Reference implementations the package is checked against; tests only.

* ``LatentValues`` / ``sample_latent``: both value matrices of a draw held
  whole and screened row block by row block, the cells ``latent_streams``
  draws by counter.  ``outcome_of``, ``blocking_mask``, ``is_stable`` and
  ``greedy_alpha_certificate`` read them by definition, and
  ``held_deferred_acceptance`` walks tables sorted from the held rows
  (``matrix_tables``), the receiving men's ranks counted over their rows.
* ``list_deferred_acceptance``: deferred acceptance on explicit preference
  lists with inverse-rank tables, the textbook form of Gale and Shapley.
* ``logit_sample_prefs``: preference lists drawn by sequential logit choice,
  an independent route to the law that sorting latent values realizes.
* ``prefs_from_values`` / ``values_from_prefs``: the two directions between
  value matrices and preference lists (best partner first, 0-based).
* ``is_alpha_stable_exact``: exhaustive search for a stable (1 - alpha)
  fraction of pairs, the exact counterpart of ``greedy_alpha_certificate``.
* ``rebuilt_alpha_certificate``: ``greedy_alpha_certificate`` with the
  blocking mask rebuilt from scratch after every peel.
* ``EmpiricalCDF``: the right-continuous empirical CDF, evaluated on a grid
  to check the exact ``ks_distance_to_exp``.
* ``reference_uniforms``: the counter stream computed in one shot over all
  counters, the formula the blocked in-place kernel of ``mml.rng`` realizes.
* ``exponential_blocks``: a walk of ``rng.exponential_words`` that hands
  each row block's values to its consumer, for tests that reduce blocks.
* ``random_cbounded_market``: a C-bounded market with its scores held, built
  by ``cbounded_kernel_market``'s score passes: the held reference of the
  square market that a trial draws again by counter.
* ``two_pass_cbounded_market``: a C-bounded market built in two passes (all
  uniforms, then all scores), the arithmetic ``random_cbounded_market`` fuses
  into its draw; given k, the backfilled market ``cbounded_kernel_market``
  draws by counter, its women's uniforms laid out at their values' counters.
* ``argpartition_lowest_columns``: each row's lowest columns by a selection
  pass and a sort of the selected values.
* ``strided_mutual_matmul``: ``BalancedMarket.mutual_matmul`` with each
  64-row kernel block multiplied out of a transposed view of ``b_hat``.
* ``held_kernel_balance``: ``sinkhorn_balance`` on the whole n x n kernel,
  each sweep two full matvecs, the form its blocked products realize.
* ``separate_kernel_balance``: ``sinkhorn_balance`` with the kernel held in
  an array of its own, its products walking views of its 64-row blocks (the
  last taking the remainder), where a held market's products build each
  block from the scores.
* ``scalar_ks_exp``: the exact KS distance to Exp(rate), one rate per call.
* ``scalar_best_fit``: ``best_fit_exponential`` with each KS distance, of
  its grid and of its golden-section steps, taken by ``scalar_ks_exp``.
* ``loop_truncate_delta``: ``truncate_delta`` with a Python loop over the men.
* ``profile_table`` / ``exact_laws``: every profile of strict orders of a
  small square market, each checked against the definition of stability,
  weighted by its Plackett-Luce probability: the exact law of the stable
  count and of the man-optimal stable matching.
* ``g_test``: the G statistic of a histogram against a law, with its
  chi-square p-value.
* ``held_approx_stable_records`` / ``held_imbalance_records``: the
  approx_stable and imbalance trials on both held value matrices: the
  perturbed outcome by ``outcome_of``, the certificate on the whole blocking
  mask, and the completion written into the drawn Y.
* ``p_mu`` / ``q_xy`` / ``naive_p_upper`` / ``chernoff_lower_tail`` /
  ``dkw_bound``: the closed forms and inequalities of the proofs, which no
  trial reads: the exact probability that a matching is stable given its
  matched values, its small-value surrogate, its bound under contiguity, the
  Chernoff lower tail of a weighted exponential sum and the generalized DKW
  band bound.
* ``bounds_records`` / ``bounds_run``: the two bounds checked on synthetic
  exponentials, as trial records (criterion 8).
"""

import dataclasses
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from mml import experiments, sampling
from mml.errors import EmptySample, NotNormalized, ShapeMismatch, TooLarge
from mml.market import BalancedMarket, CanonicalMarket, _cbounded_pass, _check_cbounded
from mml.matching import (
    Matching, MatchingOutcome, ProposerTables, Side, _floor_stable, _inverse,
    deferred_acceptance, peel_blocking_pairs,
)
from mml.rng import (
    _GOLDEN, _MIX_1, _MIX_2, _U64, _on_values, exponential_words, exponentials, row_blocks,
    stream_key, unit_uniforms,
)
from mml.sampling import _screened_rows, latent_streams

EXACT_ALPHA_LIMIT = 12


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX_1
    z = (z ^ (z >> _U64(27))) * _MIX_2
    return z ^ (z >> _U64(31))


def exponential_blocks(
    key: int, rates, consume: Callable[[slice, np.ndarray, np.ndarray], None],
    scale: np.ndarray | None = None,
) -> None:
    """``consume(rows, block, spare)`` on each row block of ``exponentials(key, rates, scale)``.

    The walk of ``rng.exponential_words``, each block's values drawn for the
    consumer: ``block`` and ``spare`` (float scratch of its shape) are the
    walk's buffers, valid only during the call.
    """
    exponential_words(key, rates, _on_values(consume), scale)


def reference_uniforms(key: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniforms at counters offset..offset+count-1, each step on the whole array."""
    counters = np.arange(offset, offset + count, dtype=np.uint64)
    bits = _mix(_mix(counters * _GOLDEN + _GOLDEN) ^ _U64(key))
    return ((bits >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


def random_cbounded_market(
    n_men: int, c_target: float, seed: int, n_women: int | None = None
) -> CanonicalMarket:
    """Random market with raw scores log-uniform on [1/c_target, c_target], held.

    Within each canonical row the score ratio is therefore at most c_target**2.
    c_target = 1 gives the uniform market. Square unless ``n_women`` is given.
    Deterministic in the seed.  Each row block of uniforms becomes canonical
    scores, checked as the constructor checks them, while it is in cache.
    Square, these are the scores that ``cbounded_kernel_market`` draws
    again by counter instead of holding, with the same bits.
    """
    if n_women is None:
        n_women = n_men
    _check_cbounded(n_men, n_women, c_target)
    a, b = np.empty((n_men, n_women)), np.empty((n_women, n_men))
    for side, out in (("a", a), ("b", b)):

        def keep(rows, block, out=out):
            out[rows] = block

        _cbounded_pass(seed, side, out.shape, c_target, keep)
    return CanonicalMarket._checked(a, b)


def two_pass_cbounded_market(
    n_men: int, c_target: float, seed: int, n_women: int | None = None, k: int = 0
) -> CanonicalMarket:
    """The market of ``random_cbounded_market``: every uniform, then every score.

    Given k, the square market of ``cbounded_kernel_market(n_men, c_target,
    seed, k)``: its last k men score every woman 1/n, and the women's
    uniforms fill an n x n grid whose first n - k columns are real; the
    dummies' columns are 1/(n - k), and the rows are normalised again.
    """
    n_women = n_men if n_women is None else n_women
    m = n_men - k
    scores = []
    for name, shape, real in (("a_raw", (m, n_women), n_women), ("b_raw", (n_women, n_men), m)):
        u = unit_uniforms(stream_key(seed, name), shape[0] * shape[1]).reshape(shape)[:, :real]
        raw = c_target ** (2.0 * u - 1.0)
        scores.append(raw / raw.sum(axis=1, keepdims=True))
    if k:
        b_raw = np.hstack([scores[1], np.full((n_women, k), 1.0 / m)])
        scores = [np.vstack([scores[0], np.full((k, n_women), 1.0 / n_women)]),
                  b_raw / b_raw.sum(axis=1, keepdims=True)]
    return CanonicalMarket(*scores)


def argpartition_lowest_columns(block: np.ndarray, width: int) -> np.ndarray:
    """Each tie-free row's ``width`` lowest columns, lowest first."""
    idx = np.argpartition(block, width - 1, axis=1)[:, :width]
    order = np.argsort(np.take_along_axis(block, idx, axis=1), axis=1)
    return np.take_along_axis(idx, order, axis=1)


def strided_mutual_matmul(bal: BalancedMarket, y: np.ndarray) -> np.ndarray:
    """``phi * (K @ (psi * y))``, K = a_hat * b_hat^T / n formed 64 rows at a
    time (the last block taking the remainder)."""
    n, a_hat, b_hat = bal.n, np.asarray(bal.a_hat), np.asarray(bal.b_hat)
    weighted = (bal.psi * y.T).T
    out = np.empty(y.shape)
    stops = [*range(64, n - 63, 64), n]
    for start, stop in zip([0, *stops], stops):
        out[start:stop] = (a_hat[start:stop] * b_hat[:, start:stop].T / n) @ weighted
    return (out.T * bal.phi).T


def held_kernel_balance(market, tol: float = 1e-10) -> BalancedMarket:
    """Sinkhorn's sweeps as whole products of the held kernel ``a_hat * b_hat^T / n``.

    A market held as its kernel has its scores materialised first.
    """
    n = market.n_men
    kernel = np.asarray(market.a_hat) * np.asarray(market.b_hat).T
    kernel /= n
    ks = kernel @ np.ones(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iters in range(1, 10_001):
            r = 1.0 / ks
            s = 1.0 / (kernel.T @ r)
            ks = kernel @ s
            if float(np.abs(r * ks - 1.0).max()) <= 0.5 * tol:
                break
        c = float(np.exp(0.5 * (np.mean(np.log(s)) - np.mean(np.log(r)))))
    return BalancedMarket(market.a_hat, market.b_hat, c * r, s / c, iters)


def separate_kernel_balance(market: CanonicalMarket, tol: float = 1e-10) -> BalancedMarket:
    """Sinkhorn's sweeps on a separate kernel ``a_hat * b_hat^T / n``, in 64-row blocks."""
    n = market.n_men
    kernel = np.asarray(market.a_hat) * np.asarray(market.b_hat).T
    kernel /= n
    starts = list(range(0, max(n - 64, 0) + 1, 64))
    blocks = [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]

    def times(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        for rows in blocks:
            np.matmul(matrix[rows], v, out=out[rows])
        return out

    ks = times(kernel, np.ones(n))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iters in range(1, 10_001):
            r = 1.0 / ks
            s = 1.0 / times(kernel.T, r)
            ks = times(kernel, s)
            if float(np.abs(r * ks - 1.0).max()) <= 0.5 * tol:
                break
        c = float(np.exp(0.5 * (np.mean(np.log(s)) - np.mean(np.log(r)))))
    return BalancedMarket(market.a_hat, market.b_hat, c * r, s / c, iters)


def scalar_ks_exp(xs: np.ndarray, rate: float) -> float:
    """Exact KS distance between the sorted sample ``xs`` and Exp(rate)."""
    n = xs.size
    cdf = -np.expm1(-rate * xs)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1.0) / n)))


def scalar_best_fit(samples: np.ndarray) -> tuple[float, float]:
    """``best_fit_exponential``'s (rate, KS distance), one ``scalar_ks_exp`` per rate."""
    samples = np.asarray(samples, dtype=np.float64)
    mean = float(samples.mean())
    xs = np.sort(samples)
    points, steps, inv_golden = 64, 40, (math.sqrt(5.0) - 1.0) / 2.0
    log_grid = np.linspace(math.log(0.01 / mean), math.log(100.0 / mean), points)
    ks_grid = [scalar_ks_exp(xs, math.exp(g)) for g in log_grid]
    best = int(np.argmin(ks_grid))
    a, b = log_grid[max(best - 1, 0)], log_grid[min(best + 1, points - 1)]
    c, d = b - inv_golden * (b - a), a + inv_golden * (b - a)
    fc, fd = scalar_ks_exp(xs, math.exp(c)), scalar_ks_exp(xs, math.exp(d))
    for _ in range(steps):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_golden * (b - a)
            fc = scalar_ks_exp(xs, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + inv_golden * (b - a)
            fd = scalar_ks_exp(xs, math.exp(d))
    log_rate, ks = (c, fc) if fc <= fd else (d, fd)
    if ks_grid[best] < ks:
        log_rate, ks = log_grid[best], ks_grid[best]
    return math.exp(log_rate), ks


def loop_truncate_delta(
    mu: Matching, outcome: MatchingOutcome, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """``truncate_delta`` for delta in (0, 1), its kept men chosen one by one."""
    mu_arr = mu.mu_array
    support = np.nonzero(mu_arr >= 0)[0]
    s = int(support.size)
    drop_total = _floor_stable(delta * s)
    drop_half = drop_total // 2
    keep = s - drop_total

    men_vals = outcome.value_men[support]
    worst_men = support[np.lexsort((support, -men_vals))[:drop_half]]
    women = mu_arr[support]
    women_vals = outcome.value_women[women]
    worst_women = women[np.lexsort((women, -women_vals))[:drop_half]]
    partners = mu.inverse()[worst_women]

    excluded = set(worst_men.tolist()) | set(partners.tolist())
    eligible = [int(i) for i in support if int(i) not in excluded]
    x_delta = np.zeros(mu.n_men)
    y_delta = np.zeros(mu.n_women)
    for i in eligible[:keep]:
        x_delta[i] = outcome.value_men[i]
        y_delta[mu.mu[i]] = outcome.value_women[mu.mu[i]]
    return x_delta, y_delta


# --- Both value matrices held -------------------------------------------------
#
# A draw's X and Y held whole, and the references that read them: outcomes,
# blocking and stability by definition, and deferred acceptance on tables
# sorted from the held rows.  The program streams every side it walks.


def _screen_matrix(name: str, values: np.ndarray) -> None:
    """Screen per row block, so that a fault names the lowest block that has one."""
    for rows in row_blocks(*values.shape):
        _screened_rows(name, values[rows])


@dataclass(frozen=True)
class LatentValues:
    """Realized values for one market draw; X is men's, Y is women's.

    ``X[i, j]`` is man i's value for woman j (rate ``A[i, j]``), ``Y[j, i]``
    woman j's value for man i (rate ``B[j, i]``).  Man i prefers j1 to j2 iff
    ``X[i, j1] < X[i, j2]``.  Construction rejects mismatched shapes and
    non-finite, non-positive or tied values, so every row is a strict order.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        x, y = self.X, self.Y
        if x.ndim != 2 or y.shape != x.shape[::-1]:
            raise ShapeMismatch(
                f"value matrices must have transposed shapes, got {x.shape} and {y.shape}"
            )
        _screen_matrix("X", x)
        _screen_matrix("Y", y)


def sample_latent(market, seed: int) -> LatentValues:
    """Draw one matrix of values per side from the streams of ``latent_streams``."""
    x, y = latent_streams(market, seed)
    return LatentValues(
        X=exponentials(x.key, x.rates, scale=x.scale),
        Y=exponentials(y.key, y.rates, scale=y.scale),
    )


def _check_values_shape(mu: Matching, values: LatentValues) -> None:
    if values.X.shape != (mu.n_men, mu.n_women) or values.Y.shape != (mu.n_women, mu.n_men):
        raise ShapeMismatch(
            f"latent values {values.X.shape}/{values.Y.shape} do not match a "
            f"{mu.n_men} x {mu.n_women} matching"
        )


def outcome_of(mu: Matching, values: LatentValues, proposal_count: int = 0) -> MatchingOutcome:
    """Values of every matched agent under ``mu``, and the men's full-market ranks."""
    _check_values_shape(mu, values)
    x, y = values.X, values.Y
    mu_arr = mu.mu_array
    inv = mu.inverse()

    value_men = np.zeros(mu.n_men)
    sup_m = np.nonzero(mu_arr >= 0)[0]
    value_men[sup_m] = x[sup_m, mu_arr[sup_m]]
    # Values are positive, so an unmatched man's threshold 0 counts rank 0.
    rank_men = (x <= value_men[:, None]).sum(axis=1)

    value_women = np.zeros(mu.n_women)
    sup_w = np.nonzero(inv >= 0)[0]
    value_women[sup_w] = y[sup_w, inv[sup_w]]
    return MatchingOutcome(value_men, value_women, rank_men, proposal_count)


def matrix_tables(values: LatentValues, proposing_side: Side) -> ProposerTables:
    """The proposers' tables from one argsort of each of their held rows."""
    prop, recv = (values.X, values.Y) if proposing_side == Side.MEN else (values.Y, values.X)
    order = np.argsort(prop, axis=1)
    top = order[:, : sampling.TOP_L].astype(np.int32)
    proposers = np.arange(prop.shape[0])[:, None]

    def own(rows, cols):
        return prop[rows, cols]

    def deep(p: int, stop: int):
        return order[p, :stop], recv[order[p, :stop], p]

    return ProposerTables(top, recv[top, proposers], prop.shape[1], own, deep)


def held_deferred_acceptance(
    values: LatentValues, proposing_side: Side = Side.MEN
) -> tuple[Matching, MatchingOutcome]:
    """``deferred_acceptance`` on ``matrix_tables``; when the men receive,
    their ranks are counted over their held rows."""
    matching, outcome = deferred_acceptance(matrix_tables(values, proposing_side), proposing_side)
    if proposing_side == Side.WOMEN:
        # Values are positive, so an unmatched man's held 0 counts rank 0.
        rank = (values.X <= outcome.value_men[:, None]).sum(axis=1)
        outcome = dataclasses.replace(outcome, rank_men=rank)
    return matching, outcome


def blocking_mask(
    x: np.ndarray, y: np.ndarray, mu_arr: np.ndarray, count_unmatched: bool
) -> np.ndarray:
    """Which pairs (i, j) block ``mu_arr``: both strictly prefer each other to their partners.

    Blocking is evaluated among matched pairs (the sub-market spanned by the
    matching).  ``count_unmatched`` additionally lets unmatched agents block,
    the right notion for imbalanced markets, where an unmatched agent prefers
    any partner to staying single.
    """
    n_men, n_women = x.shape
    sup_m = np.nonzero(mu_arr >= 0)[0]
    inv = _inverse(mu_arr, n_women)
    sup_w = np.nonzero(inv >= 0)[0]

    # Unmatched agents prefer anyone to staying single: threshold +inf.
    thr_men = np.full(n_men, np.inf)
    thr_men[sup_m] = x[sup_m, mu_arr[sup_m]]
    thr_women = np.full(n_women, np.inf)
    thr_women[sup_w] = y[sup_w, inv[sup_w]]

    block = (x < thr_men[:, None]) & (y.T < thr_women[None, :])  # strict: no matched pair blocks
    if not count_unmatched:
        block[mu_arr < 0, :] = False
        block[:, inv < 0] = False
    return block


def is_stable(mu: Matching, values: LatentValues, count_unmatched_agents: bool = False) -> bool:
    _check_values_shape(mu, values)
    return not blocking_mask(values.X, values.Y, mu.mu_array, count_unmatched_agents).any()


def greedy_alpha_certificate(mu: Matching, values: LatentValues) -> tuple[float, Matching]:
    """Upper-bound the instability fraction: the peel of ``peel_blocking_pairs``
    on the blocking pairs among ``mu``'s matched agents."""
    _check_values_shape(mu, values)
    block = blocking_mask(values.X, values.Y, mu.mu_array, count_unmatched=False)
    return peel_blocking_pairs(mu, *np.nonzero(block))


def prefs_from_values(values: LatentValues) -> tuple[np.ndarray, np.ndarray]:
    """Men's and women's preference lists: each value row sorted ascending."""
    return np.argsort(values.X, axis=1), np.argsort(values.Y, axis=1)


def values_from_prefs(men_prefs, women_prefs) -> LatentValues:
    """Values whose rows sort into the given lists: the k-th choice gets k + 1."""
    men_prefs = np.asarray(men_prefs)
    women_prefs = np.asarray(women_prefs)

    def positions(prefs):
        out = np.empty(prefs.shape)
        out[np.arange(prefs.shape[0])[:, None], prefs] = np.arange(1.0, prefs.shape[1] + 1.0)
        return out

    return LatentValues(X=positions(men_prefs), Y=positions(women_prefs))


def list_deferred_acceptance(men_prefs, women_prefs, proposing_side=Side.MEN):
    """Man-side matching tuple and proposal count of DA on preference lists."""
    if proposing_side == Side.MEN:
        prop, recv = np.asarray(men_prefs), np.asarray(women_prefs)
    else:
        prop, recv = np.asarray(women_prefs), np.asarray(men_prefs)
    n_prop, n_recv = prop.shape
    recv_rank = np.empty(recv.shape, dtype=np.int64)
    recv_rank[np.arange(n_recv)[:, None], recv] = np.arange(n_prop)[None, :]
    recv_rank = recv_rank.tolist()
    prop_lists = prop.tolist()

    next_idx = [0] * n_prop
    match_of = [-1] * n_recv
    proposals = 0
    pending = list(range(n_prop - 1, -1, -1))
    while pending:
        p = pending.pop()
        row = prop_lists[p]
        while True:
            k = next_idx[p]
            if k == n_recv:
                break
            r = row[k]
            next_idx[p] = k + 1
            proposals += 1
            cur = match_of[r]
            if cur < 0:
                match_of[r] = p
                break
            ranks = recv_rank[r]
            if ranks[p] < ranks[cur]:
                match_of[r] = p
                p = cur
                row = prop_lists[p]

    if proposing_side == Side.WOMEN:
        return tuple(match_of), proposals
    mu = [-1] * n_prop
    for woman, man in enumerate(match_of):
        if man >= 0:
            mu[man] = woman
    return tuple(mu), proposals


def _sequential_order(scores: np.ndarray, uniforms: np.ndarray) -> list[int]:
    # Sample without replacement, picking proportionally to the remaining scores.
    remaining = list(range(scores.size))
    order: list[int] = []
    for u in uniforms:
        weights = np.cumsum(scores[remaining])
        pick = int(np.searchsorted(weights, u * weights[-1], side="right"))
        pick = min(pick, len(remaining) - 1)
        order.append(remaining.pop(pick))
    return order


def logit_sample_prefs(bal, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Men's and women's lists by sequential logit choice over canonical scores.

    Distributionally identical to ``prefs_from_values(sample_latent(bal,
    seed))`` (an exponential race realizes the same choice law), but drawn
    through a different route and different streams.
    """
    n, a_hat, b_hat = bal.n, bal.a_hat, bal.b_hat
    men = np.empty((n, n), dtype=np.int64)
    women = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        men[i] = _sequential_order(a_hat[i], unit_uniforms(stream_key(seed, "logit_men", i), n))
    for j in range(n):
        women[j] = _sequential_order(b_hat[j], unit_uniforms(stream_key(seed, "logit_women", j), n))
    return men, women


def _ceil_stable(v: float) -> int:
    return math.ceil(v - 1e-9)


def is_alpha_stable_exact(mu: Matching, values: LatentValues, alpha: float) -> bool:
    """Exhaustively decide whether some (1-alpha) fraction of pairs is stable.

    Uses the fact that sub-sets of a stable pair set are stable: it suffices to
    scan pair subsets of size exactly ceil((1-alpha)*n).  Exponential, so
    limited to n <= 12.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    _check_values_shape(mu, values)
    n = mu.n_men
    if n > EXACT_ALPHA_LIMIT:
        raise TooLarge(n, EXACT_ALPHA_LIMIT, "is_alpha_stable_exact")
    need = _ceil_stable((1.0 - alpha) * n)
    if need <= 0:
        return True
    mu_arr = mu.mu_array
    men = np.nonzero(mu_arr >= 0)[0]
    if need > men.size:
        return False

    block = blocking_mask(values.X, values.Y, mu_arr, count_unmatched=False)
    # conflict[p, q]: pairs p and q cannot coexist in a stable subset.
    adj = block[np.ix_(men, mu_arr[men])]
    conflict = adj | adj.T
    masks = [int(sum(1 << q for q in np.nonzero(conflict[p])[0])) for p in range(men.size)]

    for combo in itertools.combinations(range(men.size), need):
        chosen = 0
        for p in combo:
            chosen |= 1 << p
        if all(masks[p] & chosen == 0 for p in combo):
            return True
    return False


def rebuilt_alpha_certificate(mu: Matching, values: LatentValues) -> tuple[float, Matching]:
    """The greedy peel, rebuilding the blocking mask and degrees after each peel."""
    cur = np.array(mu.mu, dtype=np.int64)
    removed = 0
    while True:
        block = blocking_mask(values.X, values.Y, cur, count_unmatched=False)
        if not block.any():
            break
        cur[int(np.argmax(block.sum(axis=1)))] = -1
        removed += 1
    return removed / mu.n_men, Matching(mu=tuple(int(v) for v in cur), n_women=mu.n_women)


@dataclass(frozen=True)
class EmpiricalCDF:
    """Right-continuous empirical CDF of a sample."""

    sorted_samples: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalCDF":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size == 0:
            raise EmptySample("empirical CDF needs at least one sample")
        return cls(sorted_samples=np.sort(samples))

    @property
    def n(self) -> int:
        return self.sorted_samples.size

    def evaluate(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=np.float64)
        out = np.searchsorted(self.sorted_samples, t_arr, side="right") / self.n
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


@dataclass(frozen=True)
class ProfileTable:
    """Every profile of strict orders of an n x n market, and its stable matchings.

    ``orders[k]`` is a strict order of the n partners, best first; read as
    a matching (man i gets woman ``orders[k][i]``) it is the k-th perfect
    matching.  Profile p gives man i the order ``orders[men[p, i]]`` and
    woman j the order ``orders[women[p, j]]``.  ``stable[p, k]`` says
    whether the k-th matching is stable in profile p, and ``mosm[p]`` is the
    k of its man-optimal stable matching.
    """

    orders: np.ndarray
    men: np.ndarray
    women: np.ndarray
    stable: np.ndarray
    mosm: np.ndarray


@functools.cache
def profile_table(n: int) -> ProfileTable:
    """All (n!)^(2n) profiles: 16 at n = 2, 46,656 at n = 3.

    Stability is checked against its definition, vectorized over profiles:
    a perfect matching is stable unless some man and woman each rank the
    other above their partner.  Every man weakly prefers the man-optimal
    stable matching to any other stable one, so it has the least sum of the
    men's partner ranks.
    """
    orders = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    rank_of = np.argsort(orders, axis=1)  # rank_of[k][partner]: its place in order k
    profiles = np.indices((len(orders),) * (2 * n)).reshape(2 * n, -1).T
    men, women = profiles[:, :n], profiles[:, n:]
    men_rank, women_rank = rank_of[men], rank_of[women]  # [p, i, j] and [p, j, i]
    agents = np.arange(n)
    stable = np.empty((len(profiles), len(orders)), dtype=bool)
    men_cost = np.empty(stable.shape, dtype=np.int64)
    for k, mu in enumerate(orders):
        own = men_rank[:, agents, mu]
        men_want = men_rank < own[:, :, None]
        # A permutation's argsort is its inverse: rank_of[k][j] is woman j's partner.
        women_want = women_rank < women_rank[:, agents, rank_of[k]][:, :, None]
        stable[:, k] = ~(men_want & women_want.transpose(0, 2, 1)).any(axis=(1, 2))
        men_cost[:, k] = own.sum(axis=1)
    mosm = np.where(stable, men_cost, np.iinfo(np.int64).max).argmin(axis=1)
    # Cached, so every caller shares these arrays: none may write to them.
    for array in (orders, men, women, stable, mosm):
        array.flags.writeable = False
    return ProfileTable(orders, men, women, stable, mosm)


def plackett_luce(rates: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """``[i, k]``: the probability that row i of ``rates`` ranks its partners as ``orders[k]``.

    ``PL(a, sigma) = prod_k a[sigma_k] / sum_{l >= k} a[sigma_l]``, the law of
    sorting independent Exp(a) values ascending.
    """
    chosen = np.asarray(rates, dtype=np.float64)[:, orders]
    remaining = np.cumsum(chosen[..., ::-1], axis=-1)[..., ::-1]
    return np.prod(chosen / remaining, axis=-1)


def profile_probabilities(bal: BalancedMarket, table: ProfileTable) -> np.ndarray:
    """Each profile's probability: the product of its 2n agents' Plackett-Luce terms."""
    rows = [*plackett_luce(bal.A, table.orders), *plackett_luce(bal.B, table.orders)]
    prob = rows[0]
    for row in rows[1:]:
        prob = np.multiply.outer(prob, row).ravel()
    return prob


def exact_laws(bal: BalancedMarket) -> tuple[np.ndarray, np.ndarray]:
    """The exact laws of the stable count and of the man-optimal stable matching.

    ``count_law[c]`` is P(c stable matchings); ``mosm_law[k]`` is P(the
    man-optimal matching is ``profile_table(n).orders[k]``).
    """
    table = profile_table(bal.n)
    prob = profile_probabilities(bal, table)
    count_law = np.bincount(table.stable.sum(axis=1), weights=prob)
    mosm_law = np.bincount(table.mosm, weights=prob, minlength=len(table.orders))
    return count_law, mosm_law


def chi2_sf(x: float, df: int) -> float:
    """P(chi-square with ``df`` degrees of freedom > x), for integer df >= 1.

    From Q(x; 1) = erfc(sqrt(x / 2)) or Q(x; 2) = e^{-x/2}, stepping up by
    Q(x; k + 2) = Q(x; k) + (x/2)^{k/2} e^{-x/2} / Gamma(k/2 + 1).
    """
    if x <= 0.0:
        return 1.0
    q, k = (math.erfc(math.sqrt(x / 2.0)), 1) if df % 2 else (math.exp(-x / 2.0), 2)
    for k in range(k, df, 2):
        q += math.exp(k / 2.0 * math.log(x / 2.0) - x / 2.0 - math.lgamma(k / 2.0 + 1.0))
    return q


def g_test(observed: np.ndarray, law: np.ndarray) -> tuple[float, int, float]:
    """G statistic, degrees of freedom and p-value of a histogram against ``law``.

    ``observed[k]`` counts outcome k, of probability ``law[k]``.  Outcomes of
    probability zero count for no degree of freedom; one observed anyway
    gives G = inf.
    """
    observed = np.asarray(observed, dtype=np.float64)
    law = np.asarray(law, dtype=np.float64)
    if observed.shape != law.shape:
        raise ValueError(f"histogram {observed.shape} and law {law.shape} differ in shape")
    if observed[law == 0.0].any():
        return math.inf, 0, 0.0
    seen = observed > 0.0
    expected = observed.sum() * law[seen]
    g = 2.0 * float((observed[seen] * np.log(observed[seen] / expected)).sum())
    df = int((law > 0.0).sum()) - 1
    return g, df, chi2_sf(g, df)


def held_approx_stable_records(cfg, t: int) -> list:
    """The approx_stable trial on both held matrices."""
    trial_seed = stream_key(cfg.master_seed, "trial", t)
    bal = experiments._trial_market(cfg, t)
    values = sample_latent(bal, trial_seed)
    matching, outcome = held_deferred_acceptance(values, Side.MEN)
    mu = list(matching.mu)
    key = stream_key(trial_seed, "swaps")
    draws = itertools.count()

    def draw_index() -> int:
        return min(int(unit_uniforms(key, 1, offset=next(draws))[0] * cfg.n), cfg.n - 1)

    for _ in range(cfg.k):
        i1 = draw_index()
        i2 = draw_index()
        while i2 == i1:
            i2 = draw_index()
        mu[i1], mu[i2] = mu[i2], mu[i1]
    perturbed = Matching(mu=tuple(mu), n_women=cfg.n)
    pert_outcome = outcome_of(perturbed, values, proposal_count=outcome.proposal_count)
    alpha_cert, _ = greedy_alpha_certificate(perturbed, values)
    fitness = (bal.mutual_matmul(pert_outcome.value_women), bal.phi)
    record = experiments._matching_stats(
        cfg, t, "perturbed", perturbed, pert_outcome, pert_outcome.value_men, fitness=fitness
    )
    return [dataclasses.replace(record, alpha_cert=alpha_cert)]


def held_imbalance_records(cfg, t: int) -> list:
    """The imbalance trial on both held matrices, the completion written into Y."""
    trial_seed = stream_key(cfg.master_seed, "trial", t)
    m = cfg.n - cfg.k
    bal = experiments._trial_market(cfg, t)
    values = sample_latent(bal, trial_seed)
    y = values.Y
    y[:, m:] = y[:, :m].max(axis=1, keepdims=True) + np.arange(1, cfg.k + 1)
    men = matrix_tables(values, Side.MEN)
    rect = dataclasses.replace(men, top=men.top[:m], recv=men.recv[:m])
    rect_match, rect_outcome = deferred_acceptance(rect, Side.MEN)
    completed_match, _ = deferred_acceptance(men, Side.MEN)
    agree = completed_match.mu[:m] == rect_match.mu
    record = experiments._matching_stats(
        cfg, t, "mosm", rect_match, rect_outcome, rect_outcome.value_men
    )
    return [dataclasses.replace(record, da_agree=int(agree))]


# --- The proofs' closed forms and bounds ----------------------------------------
#
# p_mu is the exact probability that a given matching is stable conditional on
# the matched values: each unmatched pair (i, j) fails to block unless both
# X_ij < x_i and Y_ji < y_j, independently across cells.

_WEIGHT_SUM_TOL = 1e-9


def _masked_log1p_sum(t: np.ndarray, mu: Matching) -> float:
    # t[i, j] = (1 - e^{-a x_i})(1 - e^{-b y_j}); matched cells contribute 1.
    terms = np.log1p(-t)
    mu_arr = mu.mu_array
    sup = np.nonzero(mu_arr >= 0)[0]
    if sup.size:
        terms[sup, mu_arr[sup]] = 0.0
    return float(terms.sum())


def p_mu(
    x: np.ndarray, y: np.ndarray, A: np.ndarray, B: np.ndarray, mu: Matching
) -> float:
    """Probability that matching ``mu`` is stable given the matched values.

    ``x`` and ``y`` are per-agent value vectors (zeros off support; off-support
    agents contribute factors of 1).  Computed in log space, so products of
    thousands of near-one factors stay exact to machine precision.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # expm1(-a x_i) * expm1(-b y_j) = (1 - e^{-a x_i})(1 - e^{-b y_j}) >= 0
    t = np.expm1(-np.asarray(A) * x[:, None]) * np.expm1(-np.asarray(B).T * y[None, :])
    return math.exp(_masked_log1p_sum(t, mu))


def q_xy(x: np.ndarray, y: np.ndarray, M: np.ndarray) -> float:
    """Small-value surrogate exp(-n * x' M y) for the stability probability."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    return math.exp(-float(n) * float(np.asarray(x) @ M @ np.asarray(y)))


def naive_p_upper(
    x: np.ndarray,
    y: np.ndarray,
    mu: Matching,
    A: np.ndarray,
    B: np.ndarray,
    C: float,
) -> float:
    """Upper bound on p_mu with every cross rate slowed to its 1/C^2 extreme.

    Uses the matched-pair rates to normalize the values (x_hat_i = x_i * a_{i, mu(i)}),
    then treats every unmatched cell as if its rates were at the contiguity floor.
    Equals p_mu exactly for the uniform market (C = 1).
    """
    if C < 1.0:
        raise ValueError("contiguity constant must be >= 1")
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu_arr = mu.mu_array
    inv = mu.inverse()

    x_hat = np.zeros_like(x)
    sup_m = np.nonzero(mu_arr >= 0)[0]
    x_hat[sup_m] = x[sup_m] * A[sup_m, mu_arr[sup_m]]
    y_hat = np.zeros_like(y)
    sup_w = np.nonzero(inv >= 0)[0]
    y_hat[sup_w] = y[sup_w] * B[sup_w, inv[sup_w]]

    c2 = C * C
    t = np.expm1(-x_hat / c2)[:, None] * np.expm1(-y_hat / c2)[None, :]
    return math.exp(_masked_log1p_sum(t, mu))


def chernoff_lower_tail(u: np.ndarray, t: float) -> float:
    """Bound P(sum u_i Z_i <= t n) for unit exponentials Z and weights with sum n.

    Returns min(1, (t e^{1-t})^n * prod(1 / u_i)); for t >= 1 the bound is
    trivially 1.  Weights must be positive with ||u||_1 = n within 1e-9.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        raise ValueError("weights must be strictly positive")
    n = u.size
    if abs(float(u.sum()) - n) > _WEIGHT_SUM_TOL:
        raise NotNormalized(
            f"weights must sum to n = {n} within {_WEIGHT_SUM_TOL:g}, got {float(u.sum())!r}"
        )
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if t >= 1.0:
        return 1.0
    if t == 0.0:
        return 0.0
    log_bound = n * (math.log(t) + 1.0 - t) - float(np.log(u).sum())
    return 1.0 if log_bound >= 0.0 else math.exp(log_bound)


def dkw_bound(n: int, delta: float, epsilon: float) -> float:
    """Tail bound 4 * exp(-2 n eps^2 / 9) for empirical-CDF deviation.

    Bounds the probability that the empirical CDF of n independent draws, each
    within KS distance delta of a common F, deviates from F by more than
    2*delta + epsilon.  (delta shifts the event, not the bound.)
    """
    if n < 1:
        raise ValueError("n must be positive")
    if delta < 0.0 or epsilon <= 0.0:
        raise ValueError("need delta >= 0 and epsilon > 0")
    return 4.0 * math.exp(-2.0 * n * epsilon * epsilon / 9.0)


# Fixed sizes and levels of one bounds trial.
CHERNOFF_T = (0.1, 0.3, 0.5)  # lower-tail levels t of the weighted sum
CHERNOFF_SAMPLES = 100_000  # unit-exponential batches per trial
DKW_EPS = (0.1, 0.2)  # deviations epsilon beyond 2 * DKW_DELTA
DKW_N = 200  # draws per empirical CDF
DKW_DELTA = 0.02  # KS distance of each draw's law from Exp(1)
DKW_BAND = 0.02  # rates jitter inside [1 - DKW_BAND, 1 + DKW_BAND]
DKW_EXPERIMENTS = 1_000  # empirical CDFs per trial
# Criterion 8's run: weights of length n, trials, master seed.
BOUNDS_N, BOUNDS_TRIALS, BOUNDS_SEED = 50, 10, 801


def bounds_records(n: int, master_seed: int, t: int) -> list:
    """Trial t's observed frequency and bound for each Chernoff level and DKW deviation."""
    trial_seed = stream_key(master_seed, "trial", t)
    records = []

    # Weighted-sum lower tail: fixed weights, many unit-exponential batches.
    u01 = unit_uniforms(stream_key(trial_seed, "chernoff_u"), n)
    weights = 2.0 ** (2.0 * u01 - 1.0)
    weights *= n / weights.sum()
    # Unit exponentials at a broadcast rate of 1, reduced one row block at a time.
    dots = np.empty(CHERNOFF_SAMPLES)

    def weigh(rows, block, _spare):
        dots[rows] = block @ weights

    exponential_blocks(
        stream_key(trial_seed, "chernoff_z"), np.broadcast_to(1.0, (CHERNOFF_SAMPLES, n)), weigh
    )
    for t_val in CHERNOFF_T:
        records.append(
            experiments.TrialRecord(
                trial_id=t,
                matching_kind=f"chernoff_t={t_val:g}",
                observed=float(np.mean(dots <= t_val * n)),
                bound=chernoff_lower_tail(weights, t_val),
            )
        )

    # Empirical-CDF deviation: draws with rates jittered inside [1-band, 1+band]
    # (each within KS distance ~band/e <= DKW_DELTA of the unit exponential).
    e_count, dn = DKW_EXPERIMENTS, DKW_N
    jitter = unit_uniforms(stream_key(trial_seed, "dkw_rates"), e_count * dn)
    rates = 1.0 + DKW_BAND * (2.0 * jitter.reshape(e_count, dn) - 1.0)
    xs = np.sort(exponentials(stream_key(trial_seed, "dkw_x"), rates), axis=1)
    cdf = -np.expm1(-xs)
    i = np.arange(1, dn + 1, dtype=np.float64) / dn
    dev = np.maximum(
        (i[None, :] - cdf).max(axis=1), (cdf - i[None, :] + 1.0 / dn).max(axis=1)
    )
    for eps in DKW_EPS:
        records.append(
            experiments.TrialRecord(
                trial_id=t,
                matching_kind=f"dkw_eps={eps:g}",
                observed=float(np.mean(dev > 2.0 * DKW_DELTA + eps)),
                bound=dkw_bound(dn, DKW_DELTA, eps),
            )
        )
    return records


@functools.cache
def bounds_run() -> tuple:
    """Criterion 8's records, trial by trial in the order a run writes them."""
    return tuple(
        record for t in range(BOUNDS_TRIALS) for record in bounds_records(BOUNDS_N, BOUNDS_SEED, t)
    )
