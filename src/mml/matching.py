"""Stable matchings: deferred acceptance, enumeration, truncation, certificates.

Conventions used throughout:

* A matching is stored man-side: ``mu[i]`` is the woman matched to man i, or
  -1 when he is unmatched.  Matched women are always distinct.
* Blocking is evaluated among matched pairs (the sub-market spanned by the
  matching).  Pass ``count_unmatched_agents=True`` to additionally let
  unmatched agents block — the right notion for imbalanced markets, where an
  unmatched agent prefers any partner to staying single.
* Ranks are counted over the full market even for partial matchings:
  ``rank_men[i]`` is the number of women whose value to man i is at most his
  partner's value (so the best partner has rank 1).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DeltaOutOfRange, ShapeMismatch, TooLarge
from .sampling import LatentValues

ENUMERATION_LIMIT = 10
EXACT_ALPHA_LIMIT = 12


class Side(Enum):
    MEN = "men"
    WOMEN = "women"


def _floor_stable(v: float) -> int:
    # floor() that forgives k*delta landing a few ulps below an integer
    # (0.3 * 10 == 2.9999999999999996 must count as 3).
    f = math.floor(v)
    return f + 1 if v - f > 1.0 - 1e-9 else f


def _ceil_stable(v: float) -> int:
    return math.ceil(v - 1e-9)


@dataclass(frozen=True)
class Matching:
    """Man-side matching; hashable and comparable by value."""

    mu: tuple[int, ...]
    n_women: int

    def __post_init__(self):
        matched = [j for j in self.mu if j >= 0]
        if any(j >= self.n_women or j < -1 for j in self.mu):
            raise ShapeMismatch("matching refers to a woman outside the market")
        if len(set(matched)) != len(matched):
            raise ShapeMismatch("two men are matched to the same woman")

    @property
    def n_men(self) -> int:
        return len(self.mu)

    @property
    def men_support(self) -> np.ndarray:
        return np.nonzero(self.mu_array >= 0)[0]

    @property
    def women_support(self) -> np.ndarray:
        arr = self.mu_array
        return np.sort(arr[arr >= 0])

    @property
    def mu_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=np.int64)

    @property
    def is_full(self) -> bool:
        return all(j >= 0 for j in self.mu) and len(self.mu) == self.n_women

    def inverse(self) -> np.ndarray:
        """Woman-side view: inverse()[j] is the man matched to woman j, or -1."""
        inv = np.full(self.n_women, -1, dtype=np.int64)
        for i, j in enumerate(self.mu):
            if j >= 0:
                inv[j] = i
        return inv

    def to_text(self) -> str:
        """One 'man woman' pair per line, 1-based, sorted by man index."""
        lines = [f"{i + 1} {j + 1}" for i, j in enumerate(self.mu) if j >= 0]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str, n_men: int, n_women: int) -> "Matching":
        mu = [-1] * n_men
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ShapeMismatch(f"matching line {line!r} is not 'man woman'")
            i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            if not (0 <= i < n_men) or not (0 <= j < n_women):
                raise ShapeMismatch(f"matching line {line!r} is out of range")
            if mu[i] >= 0:
                raise ShapeMismatch(f"man {i + 1} listed twice")
            mu[i] = j
        return cls(mu=tuple(mu), n_women=n_women)


@dataclass(frozen=True)
class MatchingOutcome:
    """Per-agent values and ranks of a matching, plus the proposal count.

    Off-support entries are 0 by convention.
    """

    value_men: np.ndarray
    value_women: np.ndarray
    rank_men: np.ndarray
    rank_women: np.ndarray
    proposal_count: int = 0


@dataclass(frozen=True)
class BlockingPair:
    man: int
    woman: int


def _check_values_shape(mu: Matching, values: LatentValues) -> None:
    if values.X.shape != (mu.n_men, mu.n_women) or values.Y.shape != (
        mu.n_women,
        mu.n_men,
    ):
        raise ShapeMismatch(
            f"latent values {values.X.shape}/{values.Y.shape} do not match a "
            f"{mu.n_men} x {mu.n_women} matching"
        )


def outcome_of(mu: Matching, values: LatentValues, proposal_count: int = 0) -> MatchingOutcome:
    """Values and full-market ranks of every matched agent under ``mu``."""
    _check_values_shape(mu, values)
    x, y = values.X, values.Y
    mu_arr = mu.mu_array
    inv = mu.inverse()

    value_men = np.zeros(mu.n_men)
    rank_men = np.zeros(mu.n_men, dtype=np.int64)
    sup_m = np.nonzero(mu_arr >= 0)[0]
    if sup_m.size:
        matched = x[sup_m, mu_arr[sup_m]]
        value_men[sup_m] = matched
        rank_men[sup_m] = (x[sup_m] <= matched[:, None]).sum(axis=1)

    value_women = np.zeros(mu.n_women)
    rank_women = np.zeros(mu.n_women, dtype=np.int64)
    sup_w = np.nonzero(inv >= 0)[0]
    if sup_w.size:
        matched = y[sup_w, inv[sup_w]]
        value_women[sup_w] = matched
        rank_women[sup_w] = (y[sup_w] <= matched[:, None]).sum(axis=1)

    return MatchingOutcome(
        value_men=value_men,
        value_women=value_women,
        rank_men=rank_men,
        rank_women=rank_women,
        proposal_count=proposal_count,
    )


def deferred_acceptance(
    values: LatentValues, proposing_side: Side = Side.MEN
) -> tuple[Matching, MatchingOutcome]:
    """Proposal-queue deferred acceptance; optimal for the proposing side.

    Proposers walk their value rows in ascending order; a receiver holds the
    proposer she values lowest so far.  Works for rectangular markets (agents
    on the long side can end up unmatched).  Every proposal, including
    rejected ones, is counted.
    """
    if proposing_side == Side.MEN:
        prop, recv = values.X, values.Y
    else:
        prop, recv = values.Y, values.X
    n_prop, n_recv = prop.shape
    order = np.argsort(prop, axis=1)

    next_idx = [0] * n_prop
    match_of = [-1] * n_recv
    proposals = 0
    pending = list(range(n_prop - 1, -1, -1))
    while pending:
        p = pending.pop()
        while True:
            k = next_idx[p]
            if k == n_recv:
                break  # exhausted every receiver; stays unmatched
            r = order.item(p, k)
            next_idx[p] = k + 1
            proposals += 1
            cur = match_of[r]
            if cur < 0:
                match_of[r] = p
                break
            if recv.item(r, p) < recv.item(r, cur):
                match_of[r] = p
                p = cur  # displaced proposer continues immediately

    n_men, n_women = values.X.shape
    if proposing_side == Side.MEN:
        mu = [-1] * n_men
        for woman, man in enumerate(match_of):
            if man >= 0:
                mu[man] = woman
    else:
        mu = match_of
    matching = Matching(mu=tuple(mu), n_women=n_women)
    return matching, outcome_of(matching, values, proposal_count=proposals)


def _blocking_mask(
    x: np.ndarray, y: np.ndarray, mu_arr: np.ndarray, count_unmatched: bool
) -> np.ndarray:
    n_men, n_women = x.shape
    sup_m = np.nonzero(mu_arr >= 0)[0]
    inv = np.full(n_women, -1, dtype=np.int64)
    inv[mu_arr[sup_m]] = sup_m
    sup_w = np.nonzero(inv >= 0)[0]

    # Unmatched agents prefer anyone to staying single: threshold +inf.
    thr_men = np.full(n_men, np.inf)
    thr_men[sup_m] = x[sup_m, mu_arr[sup_m]]
    thr_women = np.full(n_women, np.inf)
    thr_women[sup_w] = y[sup_w, inv[sup_w]]

    block = (x < thr_men[:, None]) & (y.T < thr_women[None, :])
    if not count_unmatched:
        block[mu_arr < 0, :] = False
        block[:, inv < 0] = False
    if sup_m.size:
        block[sup_m, mu_arr[sup_m]] = False
    return block


def find_blocking_pairs(
    mu: Matching, values: LatentValues, count_unmatched_agents: bool = False
) -> list[BlockingPair]:
    """All pairs that both strictly prefer each other over their partners.

    By default only matched agents can block (the sub-market spanned by the
    matching); with ``count_unmatched_agents=True`` unmatched agents block too.
    """
    _check_values_shape(mu, values)
    block = _blocking_mask(values.X, values.Y, mu.mu_array, count_unmatched_agents)
    return [BlockingPair(int(i), int(j)) for i, j in np.argwhere(block)]


def is_stable(
    mu: Matching, values: LatentValues, count_unmatched_agents: bool = False
) -> bool:
    _check_values_shape(mu, values)
    return not _blocking_mask(
        values.X, values.Y, mu.mu_array, count_unmatched_agents
    ).any()


def enumerate_stable(values: LatentValues) -> list[Matching]:
    """All stable matchings, in lexicographic order of (mu[0], mu[1], ...).

    Backtracking over men with incremental blocking checks: a blocking pair
    between two already-placed pairs survives any extension, so such branches
    are pruned immediately.  For markets with more women than men, leaves are
    additionally screened against blocks by women left unmatched.  Exhaustive,
    so limited to markets with at most 10 agents per side.
    """
    n_men, n_women = values.X.shape
    if n_men > n_women:
        raise ShapeMismatch("enumeration expects n_men <= n_women")
    if n_women > ENUMERATION_LIMIT:
        raise TooLarge(n_women, ENUMERATION_LIMIT, "enumerate_stable")

    # Python floats: the backtracking reads single cells, at most 10 x 10.
    x = values.X.tolist()
    y = values.Y.tolist()
    mu = [-1] * n_men
    used = [False] * n_women
    found: list[Matching] = []

    def extend(i: int) -> None:
        if i == n_men:
            for j in range(n_women):
                if not used[j]:
                    # Unmatched woman: blocks with any man who prefers her.
                    for i2 in range(n_men):
                        if x[i2][j] < x[i2][mu[i2]]:
                            return
            found.append(Matching(mu=tuple(mu), n_women=n_women))
            return
        row = x[i]
        for w in range(n_women):
            if used[w]:
                continue
            ok = True
            for i2 in range(i):
                w2 = mu[i2]
                if row[w2] < row[w] and y[w2][i] < y[w2][i2]:
                    ok = False  # (i, w2) would block
                    break
                r2 = x[i2]
                if r2[w] < r2[w2] and y[w][i2] < y[w][i]:
                    ok = False  # (i2, w) would block
                    break
            if ok:
                mu[i] = w
                used[w] = True
                extend(i + 1)
                used[w] = False
        mu[i] = -1

    extend(0)
    return found


def truncate_delta(
    mu: Matching, outcome: MatchingOutcome, delta: float
) -> tuple[Matching, np.ndarray, np.ndarray]:
    """Drop the least happy fringe of a matching, keeping exact counts.

    With s matched pairs, the floor(delta*s/2) matched men with the largest
    values and the partners of the floor(delta*s/2) matched women with the
    largest values are excluded; among the remaining men the s - floor(delta*s)
    with the lowest indices are kept.  Returns the partial matching and the
    kept value vectors (zeros off support).
    """
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {delta}")

    mu_arr = mu.mu_array
    support = np.nonzero(mu_arr >= 0)[0]
    s = int(support.size)
    drop_total = _floor_stable(delta * s)
    drop_half = drop_total // 2
    keep = s - drop_total

    men_vals = outcome.value_men[support]
    # Largest value first; ties broken toward the lower index.
    worst_men = support[np.lexsort((support, -men_vals))[:drop_half]]

    women = mu_arr[support]
    women_vals = outcome.value_women[women]
    worst_women = women[np.lexsort((women, -women_vals))[:drop_half]]
    inv = mu.inverse()
    partners = inv[worst_women]

    excluded = set(worst_men.tolist()) | set(partners.tolist())
    eligible = [int(i) for i in support if int(i) not in excluded]
    kept_men = eligible[:keep]

    new_mu = [-1] * mu.n_men
    for i in kept_men:
        new_mu[i] = mu.mu[i]
    truncated = Matching(mu=tuple(new_mu), n_women=mu.n_women)

    x_delta = np.zeros(mu.n_men)
    y_delta = np.zeros(mu.n_women)
    for i in kept_men:
        x_delta[i] = outcome.value_men[i]
        y_delta[mu.mu[i]] = outcome.value_women[mu.mu[i]]
    return truncated, x_delta, y_delta


def greedy_alpha_certificate(
    mu: Matching, values: LatentValues
) -> tuple[float, Matching]:
    """Upper-bound the instability fraction by peeling off troublesome pairs.

    Repeatedly removes the matched pair whose man appears in the most blocking
    pairs (ties toward the lowest index) until the remaining sub-matching is
    internally stable.  Returns (removed / n_men, remaining matching).
    """
    _check_values_shape(mu, values)
    cur = np.array(mu.mu, dtype=np.int64)
    removed = 0
    while True:
        block = _blocking_mask(values.X, values.Y, cur, count_unmatched=False)
        if not block.any():
            break
        degree = block.sum(axis=1)
        cur[int(np.argmax(degree))] = -1
        removed += 1
    remaining = Matching(mu=tuple(int(v) for v in cur), n_women=mu.n_women)
    return removed / mu.n_men, remaining


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
