"""Exception types shared across the package.

Most subclass ValueError so callers that only care about "bad input"
can catch the builtin.
"""


class RecError(ValueError):
    """Base class for all package-specific errors."""


class DomainError(RecError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateRegionError(RecError):
    """A region carries no proposal mass (or collapsed to a point)."""


class UnboundedRatioError(RecError):
    """The density ratio has no finite supremum where one is required."""


class AbsoluteContinuityError(RecError):
    """Target support is not contained in proposal support."""


class InvalidCodeError(RecError):
    """Codeword is not one the encoder could have produced."""


class BudgetExhaustedError(RecError):
    """Search exceeded an explicit step or size budget."""


class InfeasibleParameterError(RecError):
    """Requested divergence constraints admit no distribution."""


class MalformedMessageError(RecError):
    """Bitstream does not parse as a well-formed message."""


class DepthExceededError(RecError):
    """Tree depth grew past the width of a packable heap index."""
