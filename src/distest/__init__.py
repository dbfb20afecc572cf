"""distest: simulation and exact verification for communication-budgeted
distributed statistical estimation. Each module's docstring states its
model; the README lists the modules."""

from . import bounds, codec, designs, families, infotheory, protocols, sweeps
from .errors import (ConfigError, DegenerateDesignError,
                     EnumerationTooLargeError, InvalidArgumentError,
                     ReductionInfeasibleError)

__version__ = "0.1.0"

__all__ = [
    "bounds", "codec", "designs", "families", "infotheory", "protocols",
    "sweeps", "ConfigError", "DegenerateDesignError",
    "EnumerationTooLargeError", "InvalidArgumentError",
    "ReductionInfeasibleError",
]
