"""Reference implementations the package is checked against; tests only.

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
* ``two_pass_cbounded_market``: a C-bounded market built in two passes (all
  uniforms, then all scores), the arithmetic ``random_cbounded_market`` fuses
  into its draw.
* ``argpartition_lowest_columns``: each row's lowest columns by a selection
  pass and a sort of the selected values.
* ``strided_mutual_matmul``: ``BalancedMarket.mutual_matmul`` with each
  kernel block multiplied by a transposed view of ``b_hat``.
* ``held_kernel_balance``: ``sinkhorn_balance`` on the whole n x n kernel,
  each sweep two full matvecs, the form its blocked products realize.
* ``scalar_ks_exp``: the exact KS distance to Exp(rate), one rate per call.
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
"""

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from mml import experiments
from mml.errors import EmptySample, TooLarge
from mml.market import BalancedMarket, CanonicalMarket, backfill_imbalanced, sinkhorn_balance
from mml.matching import (
    Matching, MatchingOutcome, Side, _blocking_mask, _check_values_shape, _floor_stable,
    _matrix_tables, deferred_acceptance, greedy_alpha_certificate, outcome_of,
)
from mml.rng import _GOLDEN, _MIX_1, _MIX_2, _U64, row_blocks, stream_key, unit_uniforms
from mml.sampling import LatentValues, sample_latent

EXACT_ALPHA_LIMIT = 12


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX_1
    z = (z ^ (z >> _U64(27))) * _MIX_2
    return z ^ (z >> _U64(31))


def reference_uniforms(key: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniforms at counters offset..offset+count-1, each step on the whole array."""
    counters = np.arange(offset, offset + count, dtype=np.uint64)
    bits = _mix(_mix(counters * _GOLDEN + _GOLDEN) ^ _U64(key))
    return ((bits >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


def two_pass_cbounded_market(
    n_men: int, c_target: float, seed: int, n_women: int | None = None
) -> CanonicalMarket:
    """The market of ``random_cbounded_market``: every uniform, then every score."""
    n_women = n_men if n_women is None else n_women
    scores = []
    for name, shape in (("a_raw", (n_men, n_women)), ("b_raw", (n_women, n_men))):
        u = unit_uniforms(stream_key(seed, name), shape[0] * shape[1]).reshape(shape)
        raw = c_target ** (2.0 * u - 1.0)
        scores.append(raw / raw.sum(axis=1, keepdims=True))
    return CanonicalMarket(*scores)


def argpartition_lowest_columns(block: np.ndarray, width: int) -> np.ndarray:
    """Each tie-free row's ``width`` lowest columns, lowest first."""
    idx = np.argpartition(block, width - 1, axis=1)[:, :width]
    order = np.argsort(np.take_along_axis(block, idx, axis=1), axis=1)
    return np.take_along_axis(idx, order, axis=1)


def strided_mutual_matmul(bal: BalancedMarket, y: np.ndarray) -> np.ndarray:
    """``M @ y`` from the factors, one row block of the kernel at a time."""
    weighted = (bal.psi * y.T).T
    out = np.empty(y.shape)
    for rows in row_blocks(bal.n, bal.n):
        out[rows] = (bal.a_hat[rows] * bal.b_hat[:, rows].T) @ weighted
    return (out.T * (bal.phi / bal.n)).T


def held_kernel_balance(market: CanonicalMarket, tol: float = 1e-10) -> BalancedMarket:
    """Sinkhorn's sweeps as whole products of the held kernel ``a_hat * b_hat^T / n``."""
    n = market.n_men
    kernel = market.a_hat * market.b_hat.T
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


def scalar_ks_exp(xs: np.ndarray, rate: float) -> float:
    """Exact KS distance between the sorted sample ``xs`` and Exp(rate)."""
    n = xs.size
    cdf = -np.expm1(-rate * xs)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1.0) / n)))


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

    block = _blocking_mask(values.X, values.Y, mu_arr, count_unmatched=False)
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
        block = _blocking_mask(values.X, values.Y, cur, count_unmatched=False)
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
    bal = experiments._build_balanced(cfg, t)
    values = sample_latent(bal, trial_seed)
    matching, outcome = deferred_acceptance(values, Side.MEN)
    mu = list(matching.mu)
    key = stream_key(trial_seed, "swaps")
    draws = itertools.count()

    def draw_index() -> int:
        return int(unit_uniforms(key, 1, offset=next(draws))[0] * cfg.n)

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
    bal = sinkhorn_balance(backfill_imbalanced(experiments._build_market(cfg, t, m), cfg.k))
    values = sample_latent(bal, trial_seed)
    y = values.Y
    y[:, m:] = y[:, :m].max(axis=1, keepdims=True) + np.arange(1, cfg.k + 1)
    men = _matrix_tables(values, Side.MEN)
    rect = dataclasses.replace(men, top=men.top[:m], own=men.own[:m], recv=men.recv[:m])
    rect_match, rect_outcome = deferred_acceptance(rect, Side.MEN)
    completed_match, _ = deferred_acceptance(men, Side.MEN)
    agree = completed_match.mu[:m] == rect_match.mu
    record = experiments._matching_stats(
        cfg, t, "mosm", rect_match, rect_outcome, rect_outcome.value_men
    )
    return [dataclasses.replace(record, da_agree=int(agree))]
