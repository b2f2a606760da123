"""Reference implementations the package is checked against; tests only.

* ``list_deferred_acceptance``: deferred acceptance on explicit preference
  lists with inverse-rank tables, the textbook form of Gale and Shapley.
* ``logit_sample_prefs``: preference lists drawn by sequential logit choice,
  an independent route to the law that sorting latent values realizes.
* ``prefs_from_values`` / ``values_from_prefs``: the two directions between
  value matrices and preference lists (best partner first, 0-based).
* ``is_alpha_stable_exact``: exhaustive search for a stable (1 - alpha)
  fraction of pairs, the exact counterpart of ``greedy_alpha_certificate``.
* ``EmpiricalCDF``: the right-continuous empirical CDF, evaluated on a grid
  to check the exact ``ks_distance_to_exp``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mml.errors import EmptySample, TooLarge
from mml.matching import Matching, Side, _blocking_mask, _check_values_shape
from mml.rng import stream_key, unit_uniforms
from mml.sampling import LatentValues

EXACT_ALPHA_LIMIT = 12


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
    n = bal.n
    a_hat = bal.A / bal.phi[:, None]
    b_hat = bal.B / bal.psi[:, None]
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
