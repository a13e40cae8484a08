"""Exception types shared across the package."""


class CaraError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(CaraError, ValueError):
    """An argument violates a documented precondition; ``index`` is the
    offending row when the argument is a batch (e.g. a rotation stack)."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class DuplicateEdgeError(InvalidArgumentError):
    """Two edges were supplied for the same unordered vertex pair."""


class GraphParseError(CaraError, ValueError):
    """Malformed graph/label text; carries the 1-based line number."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class NotConnectedError(CaraError):
    """The (thresholded) graph is disconnected; lists the components."""

    def __init__(self, components, message=None):
        self.components = components
        if message is None:
            message = f"graph is disconnected: {len(components)} components"
        super().__init__(message)


class DegenerateWeightsError(CaraError):
    """The weighted normal equations are singular despite anchoring."""


class DegenerateInputError(InvalidArgumentError):
    """Numerically unrecoverable input (e.g. rank-deficient projection)."""


class GenerationError(CaraError):
    """Synthetic scene generation failed (e.g. disconnected topology)."""
