"""Exception types shared across the package."""
from __future__ import annotations


class MmlError(Exception):
    """Base class for every package-specific error."""


class ShapeMismatch(MmlError, ValueError):
    """Array dimensions do not line up with the market they describe."""


class NonPositiveEntry(MmlError, ValueError):
    """Score matrices must be strictly positive."""


class NonSquare(MmlError, ValueError):
    """Operation requires an equal number of men and women."""


class NotNormalized(MmlError, ValueError):
    """Rows (or weights) were expected to be normalized and are not."""


class NoConvergence(MmlError, RuntimeError):
    """Iterative balancing ran out of iterations before hitting tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"balancing did not reach tolerance after {iterations} iterations "
            f"(last residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


class DuplicateValue(MmlError, RuntimeError):
    """A probability-zero sampling anomaly (tied or non-finite latent value).

    The continuous model rules these out almost surely, so the caller should
    reseed rather than break ties silently.
    """


class TooLarge(MmlError, ValueError):
    """Exhaustive routine invoked above its size limit."""

    def __init__(self, n: int, limit: int, what: str):
        super().__init__(f"{what} supports n <= {limit}, got n = {n}")
        self.n = n
        self.limit = limit


class DeltaOutOfRange(MmlError, ValueError):
    """Truncation fraction must lie strictly between 0 and 1."""


class EmptySample(MmlError, ValueError):
    """Statistic requires at least one sample."""


class NonPositiveRate(MmlError, ValueError):
    """Exponential rates must be strictly positive."""


class DegenerateSample(MmlError, ValueError):
    """Sample admits no exponential fit (all mass at zero, or negative values)."""


class ConfigError(MmlError, ValueError):
    """Experiment configuration or a run parameter is missing, malformed, or inconsistent."""
