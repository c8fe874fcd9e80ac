"""Exception hierarchy shared across the package."""


class DataRewardsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DataRewardsError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ScenarioError(DataRewardsError, ValueError):
    """A scenario file or parameter set fails load-time validation."""


class ScenarioParseError(ScenarioError):
    """A scenario file cannot be read as JSON text."""


class NumericalError(DataRewardsError, RuntimeError):
    """A numerical routine failed to converge or met a non-finite value."""


class UnboundedSearchError(NumericalError):
    """A doubling search exceeded its expansion cap."""


class InternalConsistencyError(DataRewardsError, RuntimeError):
    """A structural property the model guarantees was violated numerically.

    Raised with diagnostics; indicates a bug or an invalid parameter
    combination rather than a user mistake.
    """
