"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DegenerateDesignError(ValueError):
    """A design matrix is rank deficient (smallest Gram eigenvalue ~ 0)."""


class ReductionInfeasibleError(ValueError):
    """The constructed noise covariance is not PSD beyond tolerance."""


class EnumerationTooLargeError(ValueError):
    """Exact enumeration would exceed the joint-state ceiling."""


class ConfigError(ValueError):
    """A config or query file failed to parse or validate."""
