"""Config-driven experiments with deterministic, parallelizable trials.

Each trial is a pure function of (config, trial_id): trial t derives its seed
from (master_seed, "trial", t), so results are bit-identical no matter how
many worker processes run them or in which order they finish.  Records are
sorted by (trial_id, matching_kind) before writing, making the CSV output
byte-for-byte reproducible.
"""
from __future__ import annotations

import csv
import ctypes
import functools
import io
import itertools
import json
import math
import operator
import os
import typing
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum

import numpy as np

from . import sampling
from .errors import ConfigError, NonPositiveEntry, NotNormalized, ShapeMismatch
from .market import (
    BalancedMarket,
    KernelBuild,
    _raw_scores,
    backfill_imbalanced,
    cbounded_kernel_market,
    public_scores_market,
    sinkhorn_balance,
    uniform_market,
)
from .matching import (
    Matching,
    MatchingOutcome,
    Side,
    deferred_acceptance,
    enumerate_stable,
    peel_blocking_pairs,
    proposer_tables,
    screened_tables,
    truncate_delta,
)
from .rng import single_threaded_blas, stream_key, thread_budget, unit_uniforms, usable_cores
from .sampling import RawRateScreen, Uncertified, ValueStream, latent_streams
from .stats import (
    best_fit_exponential,
    eig_dispersion,
    hyperbola_product,
    ks_distance_to_exp,
    rank_value_ratio_report,
    rescaled_ranks,
    value_law_sample,
)


# Fixed parameters of the trial statistics; no config sets them.
ZETA = 0.25  # eig_dispersion: a coordinate violates when |e_i - t*| >= sqrt(ZETA) t*
THETA = 0.5  # rank_value_ratio_report: relative rank/value disagreement allowed


class ExperimentKind(Enum):
    VALUE_DIST = "value_dist"
    RANK_DIST = "rank_dist"
    HYPERBOLA = "hyperbola"
    APPROX_STABLE = "approx_stable"
    IMBALANCE = "imbalance"
    STABLE_COUNT = "stable_count"


class MarketKind(Enum):
    UNIFORM = "uniform"
    PUBLIC_SCORES = "public_scores"
    CBOUNDED = "cbounded"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: ExperimentKind
    n: int
    trials: int
    master_seed: int
    market: MarketKind = MarketKind.UNIFORM
    c: float = 2.0
    delta: float = 0.05
    k: int = 0
    tolerances: tuple[tuple[str, float], ...] = ()

    def tol(self, name: str | None, default: float | None) -> float | None:
        return dict(self.tolerances).get(name, default)


def _normalize_enum(raw: str) -> str:
    return raw.strip().lower().replace("_", "").replace("-", "")


def _parse_value(key: str, field_type, value: str):
    """Convert a config value to the type of its ``ExperimentConfig`` field."""
    if isinstance(field_type, type) and issubclass(field_type, Enum):
        for member in field_type:
            if _normalize_enum(member.value) == _normalize_enum(value):
                return member
        raise ConfigError(
            f"{key}: unknown kind {value!r} "
            f"(expected one of {sorted(m.value for m in field_type)})"
        )
    return field_type(value)


# Config keys are the dataclass fields; tolerances arrive as ``tol.<name>`` lines.
_FIELD_TYPES = {
    name: field_type
    for name, field_type in typing.get_type_hints(ExperimentConfig).items()
    if name != "tolerances"
}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
# The keys that only some experiments or markets read: setting one elsewhere is refused.
_READ_BY = {
    "k": ("experiment", {ExperimentKind.APPROX_STABLE, ExperimentKind.IMBALANCE}),
    "c": ("market", {MarketKind.PUBLIC_SCORES, MarketKind.CBOUNDED}),
    "delta": ("experiment", set(ExperimentKind) - {ExperimentKind.STABLE_COUNT}),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat ``key = value`` config (``#`` comments, blank lines ignored).

    Keys are case-insensitive, and each may be set once.
    """
    data: dict[str, object] = {}
    tolerances: dict[str, float] = {}
    line_of: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ConfigError(f"line {lineno}: no value for key {key!r}")
        if key in line_of:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            if key.startswith("tol."):
                if key[4:] not in _TOL_NAMES:
                    raise ConfigError(
                        f"line {lineno}: unknown tolerance {key!r} "
                        f"(expected one of {sorted(_TOL_NAMES)})"
                    )
                tolerances[key[4:]] = float(value)
                if not math.isfinite(tolerances[key[4:]]):
                    raise ConfigError(f"line {lineno}: {key} must be finite, got {value!r}")
            elif key in _FIELD_TYPES:
                data[key] = _parse_value(key, _FIELD_TYPES[key], value)
            else:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    for required in _REQUIRED_KEYS:
        if required not in data:
            raise ConfigError(f"{required}: required key is missing")
    if tolerances:
        data["tolerances"] = tuple(sorted(tolerances.items()))
    cfg = ExperimentConfig(**data)  # type: ignore[arg-type]

    if cfg.n < 1:
        raise ConfigError("n: must be >= 1")
    if cfg.trials < 1:
        raise ConfigError("trials: must be >= 1")
    # Written so that NaN fails each bound.
    if not 1.0 <= cfg.c < math.inf:
        raise ConfigError("c: must be finite and >= 1")
    if not (0.0 <= cfg.delta < 1.0):
        raise ConfigError("delta: must be in [0, 1)")
    if cfg.k < 0:
        raise ConfigError("k: must be >= 0")
    if cfg.experiment is ExperimentKind.STABLE_COUNT and cfg.n > 10:
        raise ConfigError("n: stable_count enumerates exhaustively and needs n <= 10")
    if cfg.experiment is ExperimentKind.IMBALANCE and not (1 <= cfg.k < cfg.n):
        raise ConfigError("k: imbalance needs 1 <= k < n")
    if cfg.experiment is ExperimentKind.APPROX_STABLE and cfg.k > 0 and cfg.n < 2:
        raise ConfigError("k: approx_stable swaps the partners of two men and needs n >= 2")
    for key, (field, readers) in _READ_BY.items():
        if key in data and getattr(cfg, field) not in readers:
            raise ConfigError(f"{key}: {field} = {getattr(cfg, field).value} reads no {key}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 text file") from None
    return parse_config(text)


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    matching_kind: str
    lambda_fit: float | None = None
    lambda_ysum: float | None = None
    ks_fit: float | None = None
    ks_ysum: float | None = None
    hyperbola: float | None = None
    dispersion: float | None = None
    rank_ratio_frac: float | None = None
    proposal_count: int | None = None
    stable_count: int | None = None
    alpha_cert: float | None = None
    bound: float | None = None
    observed: float | None = None
    da_agree: int | None = None


CSV_COLUMNS = [f.name for f in fields(TrialRecord)]
_RECORD_TYPES = typing.get_type_hints(TrialRecord)
_INT_COLUMNS = {name for name, hint in _RECORD_TYPES.items() if hint in (int, int | None)}
_REQUIRED_COLUMNS = [f.name for f in fields(TrialRecord) if f.default is MISSING]


# --- market construction -----------------------------------------------------


def _trial_market(cfg: ExperimentConfig, t: int) -> BalancedMarket:
    """Trial t's market of ``cfg.n`` agents a side, balanced to its fitness.

    ``imbalance``'s last ``cfg.k`` men are backfilled dummies; elsewhere k adds
    none.  The uniform market is balanced once per (n, k) (``_uniform_balanced``);
    a C-bounded one is held as its balancing kernel, its scores drawn by counter.
    """
    k = cfg.k if cfg.experiment is ExperimentKind.IMBALANCE else 0
    if cfg.market is MarketKind.UNIFORM:
        return _uniform_balanced(cfg.n, k)
    if cfg.market is MarketKind.PUBLIC_SCORES:
        a = _raw_scores(unit_uniforms(stream_key(cfg.master_seed, "public_a", t), cfg.n), cfg.c)
        b = _raw_scores(unit_uniforms(stream_key(cfg.master_seed, "public_b", t), cfg.n - k), cfg.c)
        return sinkhorn_balance(backfill_imbalanced(public_scores_market(a, b), k))
    market_key = stream_key(cfg.master_seed, "market", t)
    return sinkhorn_balance(cbounded_kernel_market(cfg.n, cfg.c, market_key, k))


@functools.cache
def _uniform_balanced(n: int, k: int) -> BalancedMarket:
    """The uniform market, balanced once per (n, k) and process; it holds O(n) memory."""
    return sinkhorn_balance(backfill_imbalanced(uniform_market(n - k, n), k))


# --- trial bodies ------------------------------------------------------------


def _matching_stats(
    cfg: ExperimentConfig,
    t: int,
    kind: str,
    matching: Matching,
    outcome,
    sample: np.ndarray,
    rate: float | None = None,
    fitness: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrialRecord:
    """One matching's record; ``rate`` defaults to the first-order ``||Y_delta||_1``.

    The fitness statistics (dispersion, rank ratio) are recorded only when
    ``fitness`` gives ``M @ y`` for this matching's women's values and the
    men's fitness ``phi`` of the balanced market.
    """
    if cfg.delta > 0.0:
        x_d, y_d = truncate_delta(matching, outcome, cfg.delta)
    else:
        x_d, y_d = outcome.value_men, outcome.value_women
    lam_ysum = float(y_d.sum()) if rate is None else rate
    fit = best_fit_exponential(sample)
    dispersion = ratio = None
    if fitness is not None:
        mutual_y, phi = fitness
        dispersion = eig_dispersion(mutual_y, ZETA)[1]
        ratio = rank_value_ratio_report(outcome, phi, THETA)
    return TrialRecord(
        trial_id=t,
        matching_kind=kind,
        lambda_fit=fit.rate,
        lambda_ysum=lam_ysum,
        ks_fit=fit.ks_distance,
        ks_ysum=ks_distance_to_exp(sample, lam_ysum),
        hyperbola=hyperbola_product(x_d, y_d, matching.n_men),
        dispersion=dispersion,
        rank_ratio_frac=ratio,
        proposal_count=outcome.proposal_count,
    )


def _optimal_matchings(bal: BalancedMarket, seed: int) -> list[tuple[Matching, MatchingOutcome]]:
    """The man- and woman-optimal matchings of ``seed``'s draw, holding neither value matrix.

    The women's pass feeds the woman-proposing walk; the men's pass also
    counts each man's rank of his woman-optimal partner.
    """
    x, y = latent_streams(bal, seed)
    wosm, wosm_outcome = deferred_acceptance(proposer_tables(y, x)[0], Side.WOMEN)
    men, wosm_ranks = proposer_tables(x, y, partners=wosm.mu_array)
    return [
        deferred_acceptance(men, Side.MEN),
        (wosm, replace(wosm_outcome, rank_men=wosm_ranks)),
    ]


def _balanced_outcome(
    matching: Matching, outcome: MatchingOutcome, x: ValueStream, y: ValueStream
) -> MatchingOutcome:
    """``outcome`` with each matched pair's two values drawn from the streams x and y."""
    mu = matching.mu_array
    men = np.flatnonzero(mu >= 0)
    value_men, value_women = np.zeros(mu.size), np.zeros(matching.n_women)
    value_men[men] = x.cells(men, mu[men])
    value_women[mu[men]] = y.cells(mu[men], men)
    return replace(outcome, value_men=value_men, value_women=value_women)


def _two_pass_matchings(
    cfg: ExperimentConfig, t: int, seed: int
) -> tuple[BalancedMarket, list[tuple[Matching, MatchingOutcome]]]:
    """Trial t's C-bounded market, balanced, and ``_optimal_matchings(bal, seed)``, in
    one n^2 pass a side; raises Uncertified where a row's order is not certified.

    Within a row, the balanced values are the raw-rate ones
    (``RawRateScreen``) times a row constant, to within four roundings, so
    both sides' orders, and with them both matchings, the ranks and the
    proposal counts, are found at the raw scores, before the balance.  The
    women's pass writes K's columns and screens Y at the raw scores; the
    woman-proposing walks run on the men's raw-rate values, drawn by counter;
    the men's pass multiplies in K's rows, screens X and counts each man's
    rank of his partner.  After the balance and the man-proposing walks, the
    rows' certificates are finished at the balanced rates, and only the
    matched pairs' values are drawn at them.
    """
    build = KernelBuild(cfg.n, cfg.c, stream_key(cfg.master_seed, "market", t))
    x_raw = ValueStream("X", stream_key(seed, "X"), build.raw_scores("a"), None)
    y_raw = ValueStream("Y", stream_key(seed, "Y"), build.raw_scores("b"), None)
    width = min(sampling.TOP_L, cfg.n)
    women = RawRateScreen(y_raw, width)
    build.women((y_raw.key, women))
    wosm, wosm_outcome = deferred_acceptance(
        screened_tables(y_raw, x_raw, women.top), Side.WOMEN
    )
    women.top = None  # read by no later step: the men's pass holds only the men's
    men = RawRateScreen(x_raw, width, wosm.mu_array)
    bal = sinkhorn_balance(build.men((x_raw.key, men)))
    mosm, mosm_outcome = deferred_acceptance(screened_tables(x_raw, y_raw, men.top), Side.MEN)
    x, y = latent_streams(bal, seed)
    women.certify(y)
    men.certify(x)
    return bal, [
        (mosm, _balanced_outcome(mosm, mosm_outcome, x, y)),
        (wosm, _balanced_outcome(wosm, replace(wosm_outcome, rank_men=men.ranks), x, y)),
    ]


def _cbounded_matchings(
    cfg: ExperimentConfig, t: int, seed: int
) -> tuple[BalancedMarket, list[tuple[Matching, MatchingOutcome]]]:
    """Trial t's C-bounded market, balanced, and its optimal matchings of ``seed``'s draw.

    Found in two n^2 passes (``_two_pass_matchings``).  Where a row is not
    certified, or the kernel build raises, that work is dropped and the
    trial runs again as every other trial runs, with ``_trial_market`` and
    ``_optimal_matchings``: those give its market and matchings, or its
    exception.
    """
    try:
        return _two_pass_matchings(cfg, t, seed)
    except (Uncertified, NonPositiveEntry, NotNormalized):
        bal = _trial_market(cfg, t)
        return bal, _optimal_matchings(bal, seed)


def _value_family_records(
    cfg: ExperimentConfig, t: int, trial_seed: int, bal: BalancedMarket
) -> list[TrialRecord]:
    return _value_family_stats(cfg, t, bal, _optimal_matchings(bal, trial_seed))


def _value_family_stats(
    cfg: ExperimentConfig, t: int, bal: BalancedMarket,
    solved: list[tuple[Matching, MatchingOutcome]],
) -> list[TrialRecord]:
    # Both matchings' M @ y in one pass over the factors.
    mutual_y = bal.mutual_matmul(np.column_stack([o.value_women for _, o in solved]))
    records = []
    for col, (kind, (matching, outcome)) in enumerate(zip(("mosm", "wosm"), solved)):
        rate = None
        if cfg.experiment is ExperimentKind.RANK_DIST:
            sample = rescaled_ranks(outcome.rank_men, bal.phi)
        elif cfg.experiment is ExperimentKind.VALUE_DIST:
            sample, rate = value_law_sample(outcome.value_men, outcome.value_women)
        else:
            sample = outcome.value_men
        fitness = (mutual_y[:, col], bal.phi)
        records.append(_matching_stats(cfg, t, kind, matching, outcome, sample, rate, fitness))
    return records


def _approx_stable_records(
    cfg: ExperimentConfig, t: int, trial_seed: int, bal: BalancedMarket
) -> list[TrialRecord]:
    x, y = latent_streams(bal, trial_seed)
    men, _ = proposer_tables(x, y)
    y.row_max(cfg.n)  # the women never walk: their one pass only screens their values
    matching, outcome = deferred_acceptance(men, Side.MEN)
    del men  # what the certificate and statistics read is drawn by counter

    # Perturb the stable matching by k random partner swaps.  A uniform can
    # round to 1.0 (see unit_uniforms), which would index man n.
    key = stream_key(trial_seed, "swaps")
    draws = (
        min(int(unit_uniforms(key, 1, offset=c)[0] * cfg.n), cfg.n - 1) for c in itertools.count()
    )
    mu = list(matching.mu)
    for _ in range(cfg.k):
        i1, i2 = next(draws), next(draws)
        while i2 == i1:
            i2 = next(draws)
        mu[i1], mu[i2] = mu[i2], mu[i1]
    perturbed = Matching(mu=tuple(mu), n_women=cfg.n)

    # Every agent is matched.  Only the moved men and their women change
    # partner: their entries of the outcome are drawn afresh by counter.
    pert = perturbed.mu_array
    moved = np.flatnonzero(pert != matching.mu_array)
    women = pert[moved]
    agents = np.arange(cfg.n)
    value_men, value_women = outcome.value_men.copy(), outcome.value_women.copy()
    value_men[moved] = x.cells(moved, women)
    value_women[women] = y.cells(women, moved)
    x_moved = x.cells(moved[:, None], agents)  # the moved men's rows
    rank_men = outcome.rank_men.copy()
    rank_men[moved] = (x_moved <= value_men[moved, None]).sum(axis=1)
    pert_outcome = MatchingOutcome(value_men, value_women, rank_men, outcome.proposal_count)

    def blocking(x_ij, i, j):
        """Whether each pair of man i and woman j, broadcast together, blocks; X[i, j] is x_ij."""
        return (x_ij < value_men[i]) & (y.cells(j, i) < value_women[j])

    # A pair of two unmoved agents keeps both thresholds, so it would block the
    # stable matching too: only the moved men's rows and the moved women's
    # columns can block, the columns' moved men being in the rows already.
    rows = np.nonzero(blocking(x_moved, moved[:, None], agents))
    del x_moved
    unmoved = np.flatnonzero(pert == matching.mu_array)
    cols = np.nonzero(blocking(x.cells(unmoved[:, None], women), unmoved[:, None], women))
    pairs = (moved[rows[0]], unmoved[cols[0]]), (rows[1], women[cols[1]])  # men, then women
    alpha_cert, _ = peel_blocking_pairs(perturbed, *map(np.concatenate, pairs))

    fitness = (bal.mutual_matmul(value_women), bal.phi)
    record = _matching_stats(
        cfg, t, "perturbed", perturbed, pert_outcome, value_men, fitness=fitness
    )
    return [replace(record, alpha_cert=alpha_cert)]


def _imbalance_records(
    cfg: ExperimentConfig, t: int, trial_seed: int, bal: BalancedMarket
) -> list[TrialRecord]:
    m = cfg.n - cfg.k
    x, y = latent_streams(bal, trial_seed)
    men, _ = proposer_tables(x, y)
    worst = y.row_max(m)  # each woman's largest value over the real men

    # Completion check: with every woman ranking the k added men below all
    # real men (in index order), square DA must restrict to the rectangular
    # DA exactly.  The real market is the first m proposers; added man m + a
    # gets the receiver values worst + a + 1, in his tables and in a deep walk.
    def completed_deep(p: int, stop: int):
        order, recv = men.deep(p, stop)
        return (order, recv) if p < m else (order, worst[order] + (p - m + 1))

    added = worst[men.top[m:]] + np.arange(1.0, cfg.k + 1)[:, None]
    completed = replace(men, recv=np.vstack([men.recv[:m], added]), deep=completed_deep)
    rect = replace(men, top=men.top[:m], recv=men.recv[:m])
    rect_match, rect_outcome = deferred_acceptance(rect, Side.MEN)
    completed_match, _ = deferred_acceptance(completed, Side.MEN)
    agree = completed_match.mu[:m] == rect_match.mu
    record = _matching_stats(cfg, t, "mosm", rect_match, rect_outcome, rect_outcome.value_men)
    return [replace(record, da_agree=int(agree))]


def _stable_count_records(
    cfg: ExperimentConfig, t: int, trial_seed: int, bal: BalancedMarket
) -> list[TrialRecord]:
    x, y = latent_streams(bal, trial_seed)
    count = len(enumerate_stable(x.matrix(), y.matrix()))
    return [TrialRecord(trial_id=t, matching_kind="all", stable_count=count)]


_TRIAL_BODIES = {
    ExperimentKind.VALUE_DIST: _value_family_records,
    ExperimentKind.RANK_DIST: _value_family_records,
    ExperimentKind.HYPERBOLA: _value_family_records,
    ExperimentKind.APPROX_STABLE: _approx_stable_records,
    ExperimentKind.IMBALANCE: _imbalance_records,
    ExperimentKind.STABLE_COUNT: _stable_count_records,
}


# glibc's mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_heap() -> bool:
    """Have glibc's malloc keep freed memory for the next trial; False where libc has no mallopt.

    First the heap freed before the first trial, most of it while the
    sources compiled at import, is returned to the system (``malloc_trim``,
    where libc has it): no trial would reuse it.  Then blocks below 32 MiB
    come from the heap rather than from their own mappings, and up to
    64 MiB of free heap stays mapped, so a trial reuses the pages that the
    one before it touched instead of faulting in fresh ones.  Runs once per
    process, so only the first trial is preceded by a trim.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no C library to load on this platform
        return False
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.restype, trim.argtypes = ctypes.c_int, [ctypes.c_size_t]
        trim(0)
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int, ctypes.c_int]
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    return True


def run_trial(cfg: ExperimentConfig, t: int) -> list[TrialRecord]:
    """All records of trial t; a pure function of (cfg, t).

    Trial t's seed, keyed (master_seed, "trial", t), and its balanced market
    (``_trial_market``) are made here, once, and handed to the experiment's
    body; a C-bounded value-family trial builds its market with its
    matchings, in one pass a side (``_cbounded_matchings``).  BLAS runs
    every call on the calling thread, so the row-block threads
    (``rng.map_row_blocks``) and the pool's worker processes own the cores.
    Before a process's first trial malloc returns the heap the import freed,
    and from then on it keeps its heap between trials (``_keep_heap``).
    """
    _keep_heap()
    with single_threaded_blas():
        trial_seed = stream_key(cfg.master_seed, "trial", t)
        body = _TRIAL_BODIES[cfg.experiment]
        if cfg.market is MarketKind.CBOUNDED and body is _value_family_records:
            return _value_family_stats(cfg, t, *_cbounded_matchings(cfg, t, trial_seed))
        return body(cfg, t, trial_seed, _trial_market(cfg, t))


def _budgeted_trial(threads: int, cfg: ExperimentConfig, t: int) -> list[TrialRecord]:
    """``run_trial`` in a worker process that may use ``threads`` threads."""
    with thread_budget(threads):
        return run_trial(cfg, t)


# Memory model of one trial process (README, "Memory and scale"): the
# interpreter and numpy with one row-block thread's block scratch, 2 MiB of
# scratch per further thread (a walk's two block buffers, 1 MiB, or three of
# half the size where its rates are drawn by counter, as in a C-bounded
# value trial's kernel build, which screens its values), bytes per row and bytes per
# cell of the n x n stages.  Every trial holds 1.25 KiB per row: a side's best-64 columns
# and their receivers' values, with what deferred acceptance keeps per agent,
# or, while a market is balanced or multiplied by M, the kernel products'
# block buffer.  A market balanced every trial (any but the uniform one)
# adds 12 KiB per row: the tables kept two or three times over by the
# allocator.  Trials stream their values, so the n x n terms are what is
# held: a C-bounded market's balancing kernel, square or backfilled (8), its
# scores drawn again by counter wherever they are read.  A public-scores
# market's least fit proposers walk past their best 64 columns, the further
# the wider the fitness spread and the larger n: its peaks at c = 2, 10, 100
# and 10^10 and n = 2000 to 8000 (README) grow by about 0, 0.8, 5.5 and 12
# bytes a cell, and a walk holds at most its row (16).  approx_stable's
# certificate screens its moved men's rows, then their women's columns, at
# most min(2k, n) x n cells at a time: 8 + 8 + 1 + 1 bytes a cell (the men's
# values, the women's gathered for them, two comparisons).  Its peel's 48
# bytes a blocking pair come to 12 a cell, as at most about a quarter block.
_BASE_BYTES = 40 << 20
_THREAD_BYTES = 2 << 20
_ROW_BYTES = 5 << 8
_REBALANCED_ROW_BYTES = 12 << 10
_MOVED_CELL_BYTES = 8 + 8 + 1 + 1


def memory_estimate(cfg: ExperimentConfig, threads: int) -> int:
    """Estimated peak bytes of one process running cfg's trials on ``threads`` threads."""
    base = _BASE_BYTES + (threads - 1) * _THREAD_BYTES + _ROW_BYTES * cfg.n
    per_cell = 0.0
    if cfg.market is not MarketKind.UNIFORM:
        base += _REBALANCED_ROW_BYTES * cfg.n
    if cfg.market is MarketKind.CBOUNDED:
        per_cell += 8
    if cfg.market is MarketKind.PUBLIC_SCORES:
        per_cell += min(16.0, max(0.0, 6.0 * math.log10(cfg.c) - 5.0))
    if cfg.experiment is ExperimentKind.APPROX_STABLE:
        base += _MOVED_CELL_BYTES * min(2 * cfg.k, cfg.n) * cfg.n
    return base + math.ceil(per_cell * cfg.n**2)


def _thread_share(workers: int) -> int:
    """Row-block threads per process when ``workers`` processes share the usable cores."""
    return max(1, usable_cores() // workers)


def _pool_size(cfg: ExperimentConfig) -> int:
    """The worker processes of cfg's run: ``MML_WORKERS`` if set, else one per
    usable core, or as many as the memory model fits in physical memory if
    that is fewer; at most one per trial.  Raises MemoryError, before any
    market is built, if the count does not fit.
    """
    env = os.environ.get("MML_WORKERS")
    workers = usable_cores()
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"MML_WORKERS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ConfigError("MML_WORKERS must be >= 1")
    workers = min(workers, cfg.trials)
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):  # not reported on this platform
        return workers
    per_process = memory_estimate(cfg, _thread_share(workers))
    while env is None and workers > 1 and workers * per_process > physical:
        workers -= 1
        per_process = memory_estimate(cfg, _thread_share(workers))
    if workers * per_process > physical:
        raise MemoryError(
            f"n = {cfg.n} needs an estimated {workers * per_process / 2**30:.1f} GiB "
            f"({workers} process(es) x {per_process / 2**30:.1f} GiB), "
            f"more than the {physical / 2**30:.1f} GiB of physical memory"
        )
    return workers


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[dict, list[TrialRecord]]:
    """Run all trials, on as many worker processes as ``_pool_size`` gives, and summarize.

    Each worker process runs its row blocks on an equal share of the usable
    cores (see ``rng.map_row_blocks``); a serial run uses them all.  A run the
    memory model says cannot fit raises MemoryError before any trial starts.
    On KeyboardInterrupt the records collected so far are summarized and
    returned with ``summary["interrupted"] = True`` so callers can flush them.
    """
    workers = _pool_size(cfg)
    records: list[TrialRecord] = []
    interrupted = False
    try:
        if workers == 1:
            for t in range(cfg.trials):
                records.extend(run_trial(cfg, t))
        else:
            trial = functools.partial(_budgeted_trial, _thread_share(workers), cfg)
            # Ctrl-C keeps only the chunks that came back: at most 16 trials each.
            chunk = max(1, min(16, cfg.trials // (workers * 4)))
            import concurrent.futures  # only a pool run pays for the import

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for recs in pool.map(trial, range(cfg.trials), chunksize=chunk):
                    records.extend(recs)
    except KeyboardInterrupt:
        interrupted = True
    records.sort(key=lambda r: (r.trial_id, r.matching_kind))
    summary = summarize_experiment(cfg, records)
    if interrupted:
        summary["interrupted"] = True
        summary["passed"] = False
    return summary, records


# --- summaries ---------------------------------------------------------------


def summarize(records: list[TrialRecord]) -> dict[str, dict[str, float]]:
    """Per-column mean/std/min/max over the records where the column is set."""
    table: dict[str, dict[str, float]] = {}
    for column in CSV_COLUMNS:
        if column in ("trial_id", "matching_kind"):
            continue
        values = np.array(
            [getattr(r, column) for r in records if getattr(r, column) is not None],
            dtype=np.float64,
        )
        if values.size == 0:
            continue
        table[column] = {
            "count": int(values.size),
            "mean": float(values.mean()),
            "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
            "min": float(values.min()),
            "max": float(values.max()),
        }
    return table


def _within(xs: list[float], limit: float) -> float:
    return sum(1 for x in xs if x <= limit) / len(xs)


def _mean_distance(xs: list[float], target: float) -> float:
    return abs(sum(xs) / len(xs) - target)


# One row per check, in report order: (experiment, check name, matching kind
# or None for every record, record statistic, reduction, limit, op, threshold).
# A check reads its statistic on the records where it is set, reduces those
# values with the limit to the check's value, and compares the value with the
# threshold.  Limit and threshold are (tol key, default) pairs: a None key is a
# fixed value, and a None default runs the check only if the config sets it.
_E = ExperimentKind
_col = operator.attrgetter
_KS = ("ks", 0.05)
_PASS = ("pass_fraction", 0.9)
_NO_LIMIT = (None, math.nan)
_CHECKS = (
    (_E.VALUE_DIST, "ks_ysum_within[mosm]", "mosm", _col("ks_ysum"), _within, _KS, ">=", _PASS),
    (_E.VALUE_DIST, "ks_ysum_within[wosm]", "wosm", _col("ks_ysum"), _within, _KS, ">=", _PASS),
    *(
        (_E.HYPERBOLA, f"hyperbola_within[{kind}]", kind,
         lambda r: None if r.hyperbola is None else abs(r.hyperbola - 1.0),
         _within, ("hyperbola_err", 0.15), ">=", _PASS)
        for kind in ("mosm", "wosm")
    ),
    # Man-proposing ranks concentrate on a handful of lattice points, so the
    # continuous-fit check is only meaningful on the wosm rows.
    (_E.RANK_DIST, "rank_ks_fit_within[wosm]", "wosm", _col("ks_fit"), _within, _KS, ">=", _PASS),
    (_E.APPROX_STABLE, "alpha_cert_within", None, _col("alpha_cert"), _within,
     ("alpha", 0.05), ">=", _PASS),
    (_E.APPROX_STABLE, "ks_fit_within", None, _col("ks_fit"), _within, _KS, ">=", _PASS),
    (_E.IMBALANCE, "ks_ysum_within", None, _col("ks_ysum"), _within, _KS, ">=", _PASS),
    (_E.IMBALANCE, "da_agrees_with_completion", None, _col("da_agree"),
     lambda xs, _: float(min(xs)), _NO_LIMIT, ">=", (None, 1.0)),
    (_E.STABLE_COUNT, "mean_stable_count_near_target", None, _col("stable_count"),
     _mean_distance, ("target", None), "<=", ("margin", None)),
)
# Every tolerance some check reads; parse_config rejects any other tol.* key.
_TOL_NAMES = frozenset(
    key for *_, limit, _op, threshold in _CHECKS for key, _ in (limit, threshold) if key
)
_OPS = {">=": lambda value, threshold: value >= threshold - 1e-12, "<=": operator.le}


def _checks_for(cfg: ExperimentConfig, records: list[TrialRecord]) -> list[dict]:
    """The experiment's check verdicts; a check with no records to read fails."""
    checks = []
    for experiment, name, kind, statistic, reduce, limit_tol, op, threshold_tol in _CHECKS:
        limit, threshold = cfg.tol(*limit_tol), cfg.tol(*threshold_tol)
        if experiment is not cfg.experiment or limit is None or threshold is None:
            continue
        xs = [
            x
            for r in records
            if kind in (None, r.matching_kind) and (x := statistic(r)) is not None
        ]
        value = reduce(xs, limit) if xs else 0.0
        passed = bool(xs) and bool(_OPS[op](value, threshold))
        checks.append(
            {"name": name, "value": value, "threshold": threshold, "op": op, "passed": passed}
        )
    return checks


def summarize_experiment(cfg: ExperimentConfig, records: list[TrialRecord]) -> dict:
    checks = _checks_for(cfg, records)
    return {
        "experiment": cfg.experiment.value,
        "market": cfg.market.value,
        "n": cfg.n,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "records": len(records),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "stats": summarize(records),
    }


def format_summary(summary: dict) -> str:
    """Human-readable table form of a summary dict."""
    lines = [
        f"experiment: {summary['experiment']}  market: {summary.get('market', '-')}  "
        f"n={summary['n']}  trials={summary['trials']}  records={summary['records']}"
    ]
    if summary.get("interrupted"):
        lines.append("INTERRUPTED: partial results only")
    if summary["checks"]:
        lines.append("")
        lines.append(f"{'check':<34} {'value':>12} {'op':>3} {'threshold':>10}  verdict")
        for c in summary["checks"]:
            lines.append(
                f"{c['name']:<34} {c['value']:>12.6g} {c['op']:>3} "
                f"{c['threshold']:>10.6g}  {'PASS' if c['passed'] else 'FAIL'}"
            )
        lines.append(f"overall: {'PASS' if summary['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n\n" + format_stats(summary["stats"])


def format_stats(stats: dict[str, dict[str, float]]) -> str:
    """The per-column table of ``summarize``, one statistic per line."""
    lines = [f"{'statistic':<18} {'count':>6} {'mean':>12} {'std':>12} {'min':>12} {'max':>12}"]
    for name, row in stats.items():
        lines.append(
            f"{name:<18} {row['count']:>6d} {row['mean']:>12.6g} {row['std']:>12.6g} "
            f"{row['min']:>12.6g} {row['max']:>12.6g}"
        )
    return "\n".join(lines) + "\n"


# --- record serialization ----------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([_format_cell(getattr(record, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def records_from_csv(text: str) -> list[TrialRecord]:
    """Parse ``records_to_csv`` output; bad content raises ShapeMismatch naming the line."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, [])
        missing = [column for column in CSV_COLUMNS if column not in header]
        if missing:
            raise ShapeMismatch(f"line 1: header lacks the trial column(s) {', '.join(missing)}")
        repeated = [column for k, column in enumerate(header) if column in header[:k]]
        if repeated:
            raise ShapeMismatch(f"line 1: header names the column {repeated[0]} twice")
        records = []
        for cells in filter(None, reader):  # a blank line holds no cells
            if len(cells) != len(header):
                raise ShapeMismatch(
                    f"line {reader.line_num}: expected {len(header)} fields as in the header, "
                    f"found {len(cells)}"
                )
            row = dict(zip(header, cells))
            kwargs = {}
            for column in CSV_COLUMNS:
                cell = row[column]
                if not cell and column in _REQUIRED_COLUMNS:
                    raise ShapeMismatch(f"line {reader.line_num}: {column} is empty")
                if column == "matching_kind" or not cell:
                    kwargs[column] = cell or None
                else:
                    convert = int if column in _INT_COLUMNS else float
                    try:
                        kwargs[column] = convert(cell)
                    except ValueError:
                        raise ShapeMismatch(
                            f"line {reader.line_num}: {column}: expected a number, got {cell!r}"
                        ) from None
            records.append(TrialRecord(**kwargs))
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise ShapeMismatch(f"line {reader.line_num}: {exc}") from None
    return records


def records_to_jsonl(records: list[TrialRecord]) -> str:
    lines = [
        json.dumps({k: getattr(r, k) for k in CSV_COLUMNS if getattr(r, k) is not None})
        for r in records
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_outputs(out_dir, cfg: ExperimentConfig, summary: dict, records: list[TrialRecord]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trials.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))
    with open(os.path.join(out_dir, "trials.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(records_to_jsonl(records))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(format_summary(summary))
