"""distest: simulation and exact verification for communication-budgeted
distributed statistical estimation.

Modules
-------
codec       bit-exact quantization, messages, transcripts
families    distribution families, seeded sampling, reductions
protocols   achievability schemes and Monte Carlo risk measurement
bounds      closed-form minimax rate calculators
infotheory  exact finite-alphabet information quantities and DPI checks
sweeps      randomized verification suites over enumerable instances
"""

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
