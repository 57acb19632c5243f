"""Exception types shared across the package."""


class LacsumError(Exception):
    """Base class for computation errors (CLI maps these to exit code 2)."""


class FrequencyTooLarge(LacsumError):
    """The quadrature panel budget cannot resolve the highest frequency."""


class BudgetExceeded(LacsumError):
    """A Monte Carlo configuration exceeds a hard cap: norms.MAX_MC_SAMPLES samples or norms.MAX_CHUNKS chunks."""


class CapacityExceeded(LacsumError):
    """An exact-counting routine was asked for more than it can hold in memory."""


class SearchSpaceTooLarge(LacsumError):
    """Exhaustive enumeration would exceed the evaluation guard."""


class DomainError(LacsumError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""
