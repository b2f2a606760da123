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

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import sampling
from .errors import DeltaOutOfRange, ShapeMismatch, TooLarge
from .sampling import LatentValues, ValueStream

ENUMERATION_LIMIT = 10


class Side(Enum):
    MEN = "men"
    WOMEN = "women"


def _floor_stable(v: float) -> int:
    # floor() that forgives k*delta landing a few ulps below an integer
    # (0.3 * 10 == 2.9999999999999996 must count as 3).
    f = math.floor(v)
    return f + 1 if v - f > 1.0 - 1e-9 else f


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
    def mu_array(self) -> np.ndarray:
        return np.asarray(self.mu, dtype=np.int64)

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


@dataclass(frozen=True)
class MatchingOutcome:
    """Per-agent values of a matching, the men's ranks, and the proposal count.

    Off-support entries are 0 by convention.  ``rank_men`` is None when a
    walk on streamed values had the men receive: it read no man's whole row.
    """

    value_men: np.ndarray
    value_women: np.ndarray
    rank_men: np.ndarray | None
    proposal_count: int = 0


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


@dataclass(frozen=True)
class ProposerTables:
    """What deferred acceptance reads of the proposing side's walks.

    ``top[p, k]`` is proposer p's k-th best receiver and ``recv[p, k]`` that
    receiver's value for p, for k below the tables' width.  A walk that goes
    deeper calls ``deep(p, stop)`` for the same two arrays over p's ``stop``
    best receivers (all of them if there are fewer), best first.
    ``own(proposers, receivers)`` reads the proposers' values for the
    receivers, broadcast together: the walks compare only the receivers'
    values, so their own are read once, for the final partners.
    """

    top: np.ndarray
    recv: np.ndarray
    n_recv: int
    own: Callable[[np.ndarray, np.ndarray], np.ndarray]
    deep: Callable[[int, int], tuple[np.ndarray, np.ndarray]]


def _matrix_tables(values: LatentValues, proposing_side: Side) -> ProposerTables:
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


def proposer_tables(
    prop: ValueStream, recv: ValueStream, thresholds: np.ndarray | None = None
) -> tuple[ProposerTables, np.ndarray | None]:
    """The proposers' tables from one screened pass over their rows, and its counts.

    No matrix is held: the receivers' values at the proposers' top cells, the
    proposers' own values and a deep walk's row and cells are drawn by
    counter.  The counts are ``ValueStream.screen``'s.
    """
    n_prop, n_recv = prop.shape
    top, counts = prop.screen(min(sampling.TOP_L, n_recv), thresholds)

    def deep(p: int, stop: int):
        row = prop.cells(p, np.arange(n_recv))
        best = np.argpartition(row, min(stop, n_recv) - 1)[:stop]
        order = best[np.argsort(row[best])]
        return order, recv.cells(order, p)

    tables = ProposerTables(
        top, recv.cells(top, np.arange(n_prop)[:, None]), n_recv, prop.cells, deep
    )
    return tables, counts


def deferred_acceptance(
    values: LatentValues | ProposerTables, proposing_side: Side = Side.MEN
) -> tuple[Matching, MatchingOutcome]:
    """Proposal-queue deferred acceptance; optimal for the proposing side.

    Proposers walk their value rows in ascending order; a receiver holds the
    proposer she values lowest so far.  Works for rectangular markets (agents
    on the long side can end up unmatched).  Every proposal, including
    rejected ones, is counted: the count is the sum of the walks' depths.  A
    walk reads its row's presorted top-L, through flat typed views of the
    tables.  Past them, a walk at depth k reads its row's best 16k receivers
    and their values for it, and does so again when it reaches the end of
    those, so it holds at most 16 times what it has walked, not its whole
    row, and draws its row at most ceil(log16(n / L)) times: a walk through
    most of a row of 2000 draws it twice.  Each matched proposer's value
    for its partner is read once, after the walks.

    The outcome holds the values the walks read, and a proposer's rank of
    its partner is its walk's depth.  When the men receive, no walk read
    their rows: on a draw's matrices their ranks are ``outcome_of``'s count
    over those rows, and on the tables of ``proposer_tables`` they are None.
    """
    streamed = isinstance(values, ProposerTables)
    tables = values if streamed else _matrix_tables(values, proposing_side)
    n_prop, width = tables.top.shape
    n_recv = tables.n_recv
    # Flat views whose items read as Python ints and floats: cell (p, k) of
    # a table sits at p * width + k.  A deep walk's arrays are read the same way.
    top, recv = memoryview(tables.top.ravel()), memoryview(tables.recv.ravel())
    deep: dict[int, tuple[memoryview, memoryview]] = {}  # each deep walk's best receivers
    deep_end = [width] * n_prop  # where each walk's current table ends

    next_idx = [0] * n_prop
    match_of = [-1] * n_recv
    held = [0.0] * n_recv  # each receiver's value for the proposer it holds
    for p in range(n_prop):
        while True:
            k = next_idx[p]
            if k == n_recv:
                break  # exhausted every receiver; stays unmatched
            if k < width:
                r, v = top[p * width + k], recv[p * width + k]
            else:
                if k == deep_end[p]:
                    deep[p] = tuple(map(memoryview, tables.deep(p, 16 * k)))
                    deep_end[p] = len(deep[p][0])
                walk_r, walk_v = deep[p]
                r, v = walk_r[k], walk_v[k]
            next_idx[p] = k + 1
            cur = match_of[r]
            if cur < 0:
                match_of[r], held[r] = p, v
                break
            if v < held[r]:
                match_of[r], held[r] = p, v
                p = cur  # displaced proposer continues immediately
    proposals = sum(next_idx)

    if proposing_side == Side.MEN:
        mu = [-1] * n_prop
        for woman, man in enumerate(match_of):
            if man >= 0:
                mu[man] = woman
        matching = Matching(mu=tuple(mu), n_women=n_recv)
    else:
        matching = Matching(mu=tuple(match_of), n_women=n_prop)
    if proposing_side == Side.WOMEN and not streamed:
        return matching, outcome_of(matching, values, proposal_count=proposals)

    partner_of = np.array(match_of, dtype=np.int64)
    receivers = np.flatnonzero(partner_of >= 0)
    proposers = partner_of[receivers]
    own = np.zeros(n_prop)
    own[proposers] = tables.own(proposers, receivers)
    rank = np.zeros(n_prop, dtype=np.int64)
    rank[proposers] = np.array(next_idx, dtype=np.int64)[proposers]
    if proposing_side == Side.MEN:
        return matching, MatchingOutcome(own, np.array(held), rank, proposals)
    return matching, MatchingOutcome(np.array(held), own, None, proposals)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the least happy fringe of a matching, keeping exact counts.

    With s matched pairs, the floor(delta*s/2) matched men with the largest
    values and the partners of the floor(delta*s/2) matched women with the
    largest values are excluded; among the remaining men the s - floor(delta*s)
    with the lowest indices are kept.  Returns the kept pairs' value vectors
    (zeros off the kept pairs).
    """
    if not (0.0 < delta < 1.0):
        raise DeltaOutOfRange(f"delta must be in (0, 1), got {delta}")

    mu_arr = mu.mu_array
    support = np.flatnonzero(mu_arr >= 0)
    s = int(support.size)
    drop_total = _floor_stable(delta * s)
    drop_half = drop_total // 2
    keep = s - drop_total

    men_vals = outcome.value_men[support]
    # Largest value first; ties broken toward the lower index.
    worst_men = support[np.lexsort((support, -men_vals))[:drop_half]]

    women = mu_arr[support]
    women_vals = outcome.value_women[women]
    # Woman women[k] is matched to man support[k].
    partners = support[np.lexsort((women, -women_vals))[:drop_half]]

    eligible = mu_arr >= 0
    eligible[worst_men] = False
    eligible[partners] = False
    kept_men = np.flatnonzero(eligible)[:keep]
    kept_women = mu_arr[kept_men]

    x_delta = np.zeros(mu.n_men)
    y_delta = np.zeros(mu.n_women)
    x_delta[kept_men] = outcome.value_men[kept_men]
    y_delta[kept_women] = outcome.value_women[kept_women]
    return x_delta, y_delta


def greedy_alpha_certificate(
    mu: Matching, values: LatentValues
) -> tuple[float, Matching]:
    """Upper-bound the instability fraction by peeling off troublesome pairs.

    The peel of :func:`peel_blocking_pairs` on the blocking pairs among
    ``mu``'s matched agents.
    """
    _check_values_shape(mu, values)
    block = _blocking_mask(values.X, values.Y, mu.mu_array, count_unmatched=False)
    return peel_blocking_pairs(mu, block)


def peel_blocking_pairs(mu: Matching, block: np.ndarray) -> tuple[float, Matching]:
    """Peel ``mu`` until none of the blocking pairs in ``block`` is left.

    ``block[i, j]`` marks (man i, woman j) as blocking; the mask is consumed.
    Repeatedly removes the matched pair whose man appears in the most blocking
    pairs (ties toward the lowest index) until the remaining sub-matching is
    internally stable.  Returns (removed / n_men, remaining matching).
    """
    cur = mu.mu_array
    degree = block.sum(axis=1)
    removed = 0
    # A peel zeroes the man's row and his partner's column; no other threshold moves.
    while degree.any():
        i = int(np.argmax(degree))
        degree -= block[:, cur[i]]
        degree[i] = 0
        block[:, cur[i]] = block[i] = False
        cur[i] = -1
        removed += 1
    remaining = Matching(mu=tuple(int(v) for v in cur), n_women=mu.n_women)
    return removed / mu.n_men, remaining
