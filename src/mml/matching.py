"""Stable matchings: deferred acceptance, enumeration, truncation, certificates.

Conventions used throughout:

* A matching is stored man-side: ``mu[i]`` is the woman matched to man i, or
  -1 when he is unmatched.  Matched women are always distinct.
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
from .sampling import ValueStream

ENUMERATION_LIMIT = 10


class Side(Enum):
    MEN = "men"
    WOMEN = "women"


def _floor_stable(v: float) -> int:
    # floor() that forgives k*delta landing a few ulps below an integer
    # (0.3 * 10 == 2.9999999999999996 must count as 3).
    f = math.floor(v)
    return f + 1 if v - f > 1.0 - 1e-9 else f


def _inverse(partner: np.ndarray, size: int) -> np.ndarray:
    """The other side's view of a matching: ``inv[partner[a]] = a``, or -1 if unmatched."""
    inv = np.full(size, -1, dtype=np.int64)
    matched = np.flatnonzero(partner >= 0)
    inv[partner[matched]] = matched
    return inv


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
        return _inverse(self.mu_array, self.n_women)

    def to_text(self) -> str:
        """One 'man woman' pair per line, 1-based, sorted by man index."""
        lines = [f"{i + 1} {j + 1}" for i, j in enumerate(self.mu) if j >= 0]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class MatchingOutcome:
    """Per-agent values of a matching, the men's ranks, and the proposal count.

    Off-support entries are 0 by convention.  ``rank_men`` is None when the
    men received: no walk read a man's whole row.
    """

    value_men: np.ndarray
    value_women: np.ndarray
    rank_men: np.ndarray | None
    proposal_count: int = 0


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


def proposer_tables(
    prop: ValueStream, recv: ValueStream, partners: np.ndarray | None = None
) -> tuple[ProposerTables, np.ndarray | None]:
    """The proposers' tables from one screened pass over their rows, and its ranks.

    Given ``partners`` (a receiver per proposer, or -1), the ranks are each
    proposer's rank of its partner, ``ValueStream.screen``'s.
    """
    top, ranks = prop.screen(min(sampling.TOP_L, prop.shape[1]), partners)
    return screened_tables(prop, recv, top), ranks


def screened_tables(prop: ValueStream, recv: ValueStream, top: np.ndarray) -> ProposerTables:
    """The proposers' tables of their screened best columns ``top``, lowest first.

    No matrix is held: the receivers' values at the proposers' top cells, the
    proposers' own values and a deep walk's row and cells are drawn by
    counter.
    """
    n_prop, n_recv = prop.shape

    def deep(p: int, stop: int):
        row = prop.cells(p, np.arange(n_recv))
        best = np.argpartition(row, min(stop, n_recv) - 1)[:stop]
        order = best[np.argsort(row[best])]
        return order, recv.cells(order, p)

    return ProposerTables(
        top, recv.cells(top, np.arange(n_prop)[:, None]), n_recv, prop.cells, deep
    )


def deferred_acceptance(
    tables: ProposerTables, proposing_side: Side = Side.MEN
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
    their rows, and their ranks are None.
    """
    n_prop, width = tables.top.shape
    n_recv = tables.n_recv
    # Flat views whose items read as Python ints and floats: cell (p, k) of
    # a table sits at p * width + k.  A deep walk's arrays are read the same way.
    top, recv = memoryview(tables.top.ravel()), memoryview(tables.recv.ravel())
    deep: dict[int, tuple[memoryview, memoryview]] = {}  # each deep walk's best receivers

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
                walk = deep.get(p)
                if walk is None or k == len(walk[0]):  # past the top-L, or this walk's end
                    walk = deep[p] = tuple(map(memoryview, tables.deep(p, 16 * k)))
                r, v = walk[0][k], walk[1][k]
            next_idx[p] = k + 1
            cur = match_of[r]
            if cur < 0:
                match_of[r], held[r] = p, v
                break
            if v < held[r]:
                match_of[r], held[r] = p, v
                p = cur  # displaced proposer continues immediately
    proposals = sum(next_idx)

    partner_of = np.array(match_of, dtype=np.int64)
    receivers = np.flatnonzero(partner_of >= 0)
    proposers = partner_of[receivers]
    own = np.zeros(n_prop)
    own[proposers] = tables.own(proposers, receivers)
    if proposing_side == Side.MEN:
        rank = np.zeros(n_prop, dtype=np.int64)
        rank[proposers] = np.array(next_idx, dtype=np.int64)[proposers]
        matching = Matching(mu=tuple(_inverse(partner_of, n_prop).tolist()), n_women=n_recv)
        return matching, MatchingOutcome(own, np.array(held), rank, proposals)
    matching = Matching(mu=tuple(match_of), n_women=n_prop)
    return matching, MatchingOutcome(np.array(held), own, None, proposals)


def check_enumerable(n_men: int, n_women: int) -> None:
    """Refuse a market :func:`enumerate_stable` cannot take, before any draw."""
    if n_men > n_women:
        raise ShapeMismatch("enumeration expects n_men <= n_women")
    if n_women > ENUMERATION_LIMIT:
        raise TooLarge(n_women, ENUMERATION_LIMIT, "enumerate_stable")


def enumerate_stable(x: np.ndarray, y: np.ndarray) -> list[Matching]:
    """All stable matchings, in lexicographic order of (mu[0], mu[1], ...).

    ``x`` and ``y`` are one draw's X and Y (:meth:`ValueStream.matrix`).
    Backtracking over men with incremental blocking checks: a blocking pair
    between two already-placed pairs survives any extension, so such branches
    are pruned immediately.  For markets with more women than men, leaves are
    additionally screened against blocks by women left unmatched.  Exhaustive,
    so limited to markets with at most 10 agents per side.
    """
    n_men, n_women = x.shape
    check_enumerable(n_men, n_women)

    # Python floats: the backtracking reads single cells, at most 10 x 10.
    x = x.tolist()
    y = y.tolist()
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


def peel_blocking_pairs(mu: Matching, men: np.ndarray, women: np.ndarray) -> tuple[float, Matching]:
    """Peel ``mu`` until none of the blocking pairs (``men[p]``, ``women[p]``) is left.

    The pairs are distinct, in any order, and join matched agents; neither array is written.
    Repeatedly removes the matched pair whose man appears in the most blocking
    pairs (ties toward the lowest index) until the remaining sub-matching is
    internally stable.  Returns (removed / n_men, remaining matching).
    """
    cur = mu.mu_array
    degree = np.bincount(men, minlength=mu.n_men)
    # Each woman's men: by_woman[start[j]:start[j + 1]].
    order = np.argsort(women)
    by_woman = men[order]
    start = np.searchsorted(women, np.arange(mu.n_women + 1), sorter=order)
    removed = 0
    # A peel drops the man's pairs and his partner's; no other threshold moves.
    # A man of her slice with pairs left is unpeeled, so he loses his pair with her.
    while degree.any():
        i = int(np.argmax(degree))
        degree[i] = 0
        col = by_woman[start[cur[i]] : start[cur[i] + 1]]
        degree[col] -= degree[col] > 0
        cur[i] = -1
        removed += 1
    return removed / mu.n_men, Matching(mu=tuple(cur.tolist()), n_women=mu.n_women)
