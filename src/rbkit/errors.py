"""Exception types shared across the toolkit."""


class RBKitError(Exception):
    """Base class for all toolkit errors."""


class BoundaryPoint(RBKitError):
    """A point has last coordinate <= 0, where the half-space metric is singular."""


class DimensionMismatch(RBKitError, ValueError):
    """Operands live in different ambient dimensions, or differ in grade."""


class ExponentOverflow(RBKitError, ValueError):
    """An exponent falls outside the range a packed monomial key holds."""


class GradeOverflow(RBKitError):
    """A wedge power was requested whose grade exceeds the ambient dimension."""


class IndexOutOfRange(RBKitError):
    """Generator index outside 1..n-1."""


class OddSize(RBKitError):
    """Contact machinery needs an odd ambient dimension (even matrix size)."""


class NotClosed(RBKitError):
    """A bracket left the span; structure constants are undefined."""


class FlowEscape(RBKitError):
    """A numeric flow stopped before its horizon.

    Carries the valid prefix of the trajectory in ``trajectory`` (the last
    element is the last valid state), the sequence it is given and not a
    copy, so an escape of a long run costs no second list; it is empty when
    no trajectory ran.
    """

    def __init__(self, message, trajectory=()):
        super().__init__(message)
        self.trajectory = trajectory


class NonFinite(FlowEscape):
    """A numeric trajectory, or its closed form, produced NaN or infinity."""


class ParseError(RBKitError):
    """A parameter file is malformed; message carries the field or line."""


class BoundaryEscape(FlowEscape):
    """A numeric flow left the safe region of the half-space."""
