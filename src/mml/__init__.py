"""Stable matching in large random markets with multinomial-logit preferences.

The core objects are score matrices in canonical (row-stochastic) form, their
balanced form obtained by iterative proportional fitting, latent exponential
values sampled from the balanced scores, and the matching machinery built on
top: deferred acceptance, exhaustive stable-matching enumeration, approximate
stability certificates, and the distributional statistics used by the
config-driven experiment runner.
"""
from .errors import (
    ConfigError,
    DegenerateSample,
    DeltaOutOfRange,
    DuplicateValue,
    EmptySample,
    MmlError,
    NoConvergence,
    NonPositiveEntry,
    NonPositiveRate,
    NonSquare,
    NotNormalized,
    ShapeMismatch,
    TooLarge,
)
from .rng import exponentials, stream_key, unit_uniforms
from .market import (
    BalancedMarket,
    CanonicalMarket,
    backfill_imbalanced,
    canonical_from_raw,
    cbounded_kernel_market,
    public_scores_market,
    read_market,
    read_matrix_pair,
    sinkhorn_balance,
    uniform_market,
    write_matrix_pair,
)
from .sampling import latent_streams
from .matching import (
    ENUMERATION_LIMIT,
    Matching,
    MatchingOutcome,
    Side,
    deferred_acceptance,
    enumerate_stable,
    proposer_tables,
    truncate_delta,
)
from .stats import (
    ExponentialFit,
    best_fit_exponential,
    eig_dispersion,
    hyperbola_product,
    ks_distance_to_exp,
    rank_value_ratio_report,
    rescaled_ranks,
)
from .experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentKind,
    MarketKind,
    TrialRecord,
    format_summary,
    load_config,
    parse_config,
    records_from_csv,
    records_to_csv,
    records_to_jsonl,
    run_experiment,
    run_trial,
    summarize,
    summarize_experiment,
    write_outputs,
)

__version__ = "0.1.0"
