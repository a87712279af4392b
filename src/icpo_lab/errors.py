"""Exception types shared across the package."""


class IcpoError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(IcpoError):
    """A configuration value violates its contract."""


class InvalidDistributionError(IcpoError):
    """A probability vector is off the simplex beyond tolerance."""


class RankDeficiencyError(IcpoError):
    """The second moment is numerically singular."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class StepSizeError(InvalidConfigError):
    """Gradient descent diverged; the step size is too large."""


class NoConsensusError(IcpoError):
    """No candidate produced an extractable answer, so no vote exists."""


class GeneratorError(IcpoError):
    """A text generator failed after exhausting its retry budget."""
