"""In-memory spans around calls into mml's layers, and the per-layer metrics.

`install` replaces each traced function with a wrapper at the places where
mml.experiments, mml.sampling, mml.matching and mml.market look it up, so
calls between modules open a span while the package source stays unchanged.
A span records the traced function, start, end, parent span and trial id in
flat arrays; `layer_metrics` turns them into self times and per-trial counts.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LOOKUP_MODULES = ("mml.experiments", "mml.sampling", "mml.matching", "mml.market")


def _count_da(count, result):
    matching, outcome = result
    count("matching.da_calls", 1)
    count("matching.proposals", outcome.proposal_count)
    count("matching.matched", sum(1 for j in matching.mu if j >= 0))


def _count_balance(count, bal):
    count("market.balance_calls", 1)
    count("market.sinkhorn_sweeps", bal.sinkhorn_iters)


def _count_latent(count, values):
    count("sampling.cells", values.X.size + values.Y.size)
    count("sampling.bytes", values.X.nbytes + values.Y.nbytes)


def _count_prefs(count, prefs):
    count("sampling.bytes", prefs.men_prefs.nbytes + prefs.women_prefs.nbytes)


def _count_draws(count, draws):
    count("rng.draws", draws.size)


def _count_stats(count, _result):
    count("stats.calls", 1)


# (bucket, function, counter hook).  The bucket's first component is the
# layer; its self time is reported as "<bucket>.self_s" for one-part buckets
# and "<bucket>_self_s" otherwise.  Memory is the computed nbytes of returned
# arrays, not a tracemalloc measurement (which slows an n = 2000 trial ~10x).
TRACED = (
    ("rng", "stream_key", lambda count, _r: count("rng.stream_keys", 1)),
    ("rng", "unit_uniforms", _count_draws),
    ("rng", "exponentials", _count_draws),
    ("market.balance", "sinkhorn_balance", _count_balance),
    ("market.build", "uniform_market", None),
    ("market.build", "random_cbounded_market", None),
    ("market.build", "public_scores_market", None),
    ("market.build", "canonical_from_raw", None),
    ("market.build", "backfill_imbalanced", None),
    ("sampling.latent", "sample_latent", _count_latent),
    ("sampling.prefs", "prefs_from_latent", _count_prefs),
    ("matching.da", "deferred_acceptance", _count_da),
    ("matching.outcome", "outcome_of", None),
    ("matching.truncate", "truncate_delta", None),
    ("stats", "best_fit_exponential", _count_stats),
    ("stats", "ks_distance_to_exp", _count_stats),
    ("stats", "hyperbola_product", _count_stats),
    ("stats", "eig_dispersion", _count_stats),
    ("stats", "rank_value_ratio_report", _count_stats),
    ("stats", "rescaled_ranks", _count_stats),
    ("stats", "dkw_bound", _count_stats),
    ("experiments.trial", "run_trial", None),
)

BUCKETS = tuple(dict.fromkeys(bucket for bucket, _, _ in TRACED))
_BUCKET_OF = np.array([BUCKETS.index(bucket) for bucket, _, _ in TRACED])
LAYERS = tuple(dict.fromkeys(bucket.split(".")[0] for bucket in BUCKETS))


def self_metric(bucket: str) -> str:
    return f"{bucket}.self_s" if "." not in bucket else f"{bucket}_self_s"


class Tracer:
    """Spans and counters of one process; calls are sequential, so spans nest."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.fn = array("i")
        self.parent = array("q")
        self.trial = array("q")
        self.stack: list[int] = []
        self.current_trial = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def count(self, key: str, value) -> None:
        self.counts[(self.current_trial, key)] += value

    def wrap(self, entry: int, fn, error_type):
        bucket, _, hook = TRACED[entry]
        layer = bucket.split(".")[0]
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            sid = len(self.start)
            self.start.append(clock())
            self.end.append(0.0)
            self.fn.append(entry)
            self.parent.append(parent)
            self.trial.append(self.current_trial)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                # Count an error once per layer boundary it crosses.
                if parent < 0 or TRACED[self.fn[parent]][0].split(".")[0] != layer:
                    self.count(f"{layer}.errors", 1)
                raise
            finally:
                self.end[sid] = clock()
                self.stack.pop()
            if hook is not None:
                hook(self.count, result)
            return result

        return traced

    def save(self, path: str) -> None:
        """Write the spans as arrays; `fn` indexes the function names in `names`."""
        np.savez_compressed(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            trial=np.frombuffer(self.trial, dtype=np.int64),
            names=np.array([name for _, name, _ in TRACED]),
        )


def install(tracer: Tracer) -> None:
    """Route every lookup of a TRACED function in LOOKUP_MODULES through tracer."""
    from mml.errors import MmlError

    modules = [importlib.import_module(name) for name in LOOKUP_MODULES]
    for entry, (_, name, _) in enumerate(TRACED):
        for module in modules:
            fn = getattr(module, name, None)
            if fn is not None:
                setattr(module, name, tracer.wrap(entry, fn, MmlError))


def layer_metrics(tracer: Tracer, first_trial: int, n_trials: int) -> dict[str, float]:
    """Per-trial self times and counts over trials first_trial .. first_trial+n_trials-1.

    A span's self time is its duration minus its children's durations; the
    children of one span never overlap because calls are sequential.
    """
    start = np.frombuffer(tracer.start, dtype=np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    bucket = _BUCKET_OF[np.frombuffer(tracer.fn, dtype=np.int32)]
    trial = np.frombuffer(tracer.trial, dtype=np.int64)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    timed = (trial >= first_trial) & (trial < first_trial + n_trials)
    self_s = np.bincount(bucket[timed], weights=(dur - child)[timed], minlength=len(BUCKETS))

    totals: dict[str, float] = defaultdict(float)
    for (t, key), value in tracer.counts.items():
        if first_trial <= t < first_trial + n_trials:
            totals[key] += value

    out = {self_metric(b): float(self_s[i]) / n_trials for i, b in enumerate(BUCKETS)}
    for key in ("rng.draws", "rng.stream_keys", "market.balance_calls",
                "market.sinkhorn_sweeps", "sampling.cells", "sampling.bytes",
                "matching.da_calls", "matching.proposals", "stats.calls"):
        out[key] = totals[key] / n_trials
    rng_s = float(self_s[BUCKETS.index("rng")])
    out["rng.draws_per_s"] = totals["rng.draws"] / rng_s if rng_s > 0 else 0.0
    proposals = totals["matching.proposals"]
    out["matching.proposal_yield"] = totals["matching.matched"] / proposals if proposals else 0.0
    for layer in LAYERS:
        out[f"{layer}.errors"] = totals[f"{layer}.errors"]
    return out
