"""Exception types shared across the workbench."""


class FockbenchError(Exception):
    """Base class for all workbench errors."""


class InvalidParameterError(FockbenchError, ValueError):
    """A parameter is out of its documented range."""


class NotARowContractionError(InvalidParameterError):
    """The row norm of the tuple exceeds one beyond tolerance."""

    def __init__(self, excess: float):
        self.excess = float(excess)
        super().__init__(f"row norm exceeds 1 by {self.excess:.3e}")


class PreconditionError(FockbenchError, ValueError):
    """An operation's documented precondition does not hold for the input."""


class OutOfBallError(PreconditionError):
    """A point lies outside the open unit ball."""


class DegenerateInputError(InvalidParameterError):
    """Input is degenerate (e.g. coincident interpolation nodes)."""
