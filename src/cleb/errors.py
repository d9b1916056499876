"""Exception types shared across the package."""


class ClebError(Exception):
    """Base class for all package errors."""


class GraphError(ClebError):
    pass


class SelfLoopError(GraphError):
    pass


class UnknownVertexError(GraphError):
    pass


class EmptyBoundaryError(GraphError):
    pass


class DuplicateEdgeIdError(GraphError):
    pass


class NotACycleError(GraphError):
    pass


class TouchesBoundaryError(GraphError):
    pass


class RecordNotTopError(GraphError):
    pass


class NotSpanningError(GraphError):
    pass


class DisconnectedError(ClebError):
    """Some vertex has no path to the boundary."""


class WeightError(ClebError):
    pass


class TieDetectedError(WeightError):
    """Two compared effective weights were equal within tolerance."""

    def __init__(self, a, b, context=""):
        self.pair = (a, b)
        self.context = context
        super().__init__(f"tie between {a!r} and {b!r}" + (f" ({context})" if context else ""))


class GenericityViolationError(WeightError):
    pass


class NoOutgoingEdgeError(WeightError):
    pass


class BadChooserError(ClebError):
    pass


class IncompleteWalkError(ClebError):
    pass


class TooLargeError(ClebError):
    pass


class PreconditionViolatedError(ClebError):
    pass


class SingularSystemError(ClebError):
    pass


class StepCapReachedError(ClebError):
    pass


class UnknownSuiteError(ClebError):
    pass


class ConfigError(ClebError):
    pass
