"""Exception types shared across the package."""


class SquareEnergyError(Exception):
    """Base class for errors raised by this package."""


class Graph6Error(SquareEnergyError, ValueError):
    """Malformed graph6 text. Carries the byte offset of the offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ContractViolation(SquareEnergyError, ValueError):
    """A documented precondition of an operation was violated."""


class BudgetExceeded(SquareEnergyError, ValueError):
    """Input too large for an exact exponential-time search budget, or for
    a dense n x n matrix (``graphs.DENSE_MAX_N``)."""


class NumericError(SquareEnergyError, RuntimeError):
    """A numeric kernel failed to meet its accuracy contract."""

