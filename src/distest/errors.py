"""Exception types shared across the package, and the integer rule."""

from numbers import Integral


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


def check_integer(value, what: str) -> None:
    """Raise InvalidArgumentError unless value is an integer: a
    numbers.Integral, numpy's included, that is not a bool."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InvalidArgumentError(f"{what} must be an integer, not {value!r}")
