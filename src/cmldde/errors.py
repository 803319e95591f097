"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A documented precondition of an operation is not met."""


class NoHopfError(ValueError):
    """No delay-induced oscillatory instability exists for these parameters."""


class RootNotFoundError(RuntimeError):
    """A bracketing root search found no sign change."""


class IntegrationError(RuntimeError):
    """Numerical integration produced a non-finite value."""

    def __init__(self, message: str, last_valid_time: float):
        super().__init__(message)
        self.last_valid_time = last_valid_time

    def __reduce__(self):
        return type(self), (self.args[0], self.last_valid_time)


class ConditioningError(RuntimeError):
    """A computation is too ill-conditioned to return a trustworthy value."""
