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
    """The graph is disconnected. ``count`` is its number of components
    and ``components`` lists the first ``LISTED`` of the given ones, which
    come by smallest vertex."""

    LISTED = 10

    def __init__(self, components, count=None):
        self.count = len(components) if count is None else count
        self.components = components[:self.LISTED]
        super().__init__(f"graph is disconnected: {self.count} components")


class DegenerateWeightsError(CaraError):
    """The weighted normal equations are singular despite anchoring."""


class DegenerateInputError(InvalidArgumentError):
    """Numerically unrecoverable input (e.g. rank-deficient projection)."""


class GenerationError(CaraError):
    """Synthetic scene generation failed (e.g. disconnected topology)."""
