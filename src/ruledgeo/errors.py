"""Exception types raised across the library."""


class RuledGeoError(Exception):
    """Base class for all library errors."""


class ExpressionSyntaxError(RuledGeoError):
    """Malformed expression source; carries the 0-based offending position."""

    def __init__(self, position: int, message: str):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position
        self.reason = message


class UnknownIdentifier(ExpressionSyntaxError):
    """Identifier that is neither `u`, `pi`, nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(position, f"unknown identifier '{name}'")
        self.name = name


class GaugeViolation(RuledGeoError):
    """Curve pair does not satisfy the standard-form conditions."""


class TorsalRuling(RuledGeoError):
    """Director has (numerically) vanishing spherical speed somewhere."""


class DegenerateDirector(RuledGeoError):
    """Director field has (numerically) zero length somewhere."""


class NonSkew(RuledGeoError):
    """Parameter of distribution vanishes somewhere on the domain."""


class IntegrationFailure(RuledGeoError):
    """Moving-frame integration produced non-finite state."""


class CurveEvaluationError(RuledGeoError):
    """A curve component or an expression profile left the domain of a
    function, divided by zero or overflowed at some u. Each subclass is
    also the built-in error it replaces, so `except ValueError` and the
    like still catch it."""


class CurveDomainError(CurveEvaluationError, ValueError):
    """Square root or logarithm of a non-positive value, or a similar domain error."""


class CurveZeroDivision(CurveEvaluationError, ZeroDivisionError):
    """Division by a zero value."""


class CurveOverflow(CurveEvaluationError, OverflowError):
    """Result too large for a float."""


class InvalidSigma(RuledGeoError):
    """Striction angle outside (-pi/2, pi/2] or sign inconsistent with delta."""


class UnknownGalleryName(RuledGeoError):
    """Requested gallery surface does not exist."""


class ParamOutOfRange(RuledGeoError):
    """Gallery parameter outside its documented range."""


class OutOfDomain(RuledGeoError):
    """Parameter u outside the surface's interval."""


class ZeroDirection(RuledGeoError):
    """Normal curvature requested for the (0, 0) direction."""


class DegenerateField(RuledGeoError):
    """Direction field identically degenerate at the requested point."""


class EmptyGrid(RuledGeoError):
    """Grid with no points: a negative number of points was asked for, or
    none are left after removing degenerate points."""


class InvalidArgument(RuledGeoError):
    """Numeric argument that is not finite, or a range with nothing in it."""


class SpecFormatError(RuledGeoError):
    """Surface spec JSON does not match the documented schema."""


class InternalConsistencyError(RuledGeoError):
    """Numerical identity violated beyond round-off (indicates a bug)."""
