"""Typed errors raised by the library.

Every error carries a stable ``code`` string, its class name; the CLI
prints it on stderr so callers can match on it without parsing prose.
"""

from __future__ import annotations


class PolyDecompError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class DomainMismatch(PolyDecompError):
    """Operands belong to different coefficient domains."""


class VariableMismatch(PolyDecompError):
    """Polynomials in different variables were combined additively."""


class NotMonic(PolyDecompError):
    """A monic polynomial was required."""


class NotMonicInMainVar(PolyDecompError):
    """A multivariate input is not monic in the selected main variable."""


class DegreeNotDivisible(PolyDecompError):
    """The outer degree d does not divide the degree of the input."""


class NotInvertible(PolyDecompError):
    """An integer has no inverse in the coefficient domain."""


class InvalidOuterDegree(PolyDecompError):
    """The outer degree d is outside the valid range 2 <= d <= deg P."""


class EnumerationTooLarge(PolyDecompError):
    """An exhaustive search would exceed the configured size bound."""


class CoefficientTooLarge(PolyDecompError):
    """A coefficient has more digits than the interpreter converts to text."""


class ParseError(PolyDecompError):
    """Malformed polynomial text. ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """An identifier in the input is not a declared variable."""


class DivisionByZeroLiteral(ParseError):
    """A rational literal whose denominator is zero in the field."""


class DegreeTooLarge(ParseError):
    """A product or power in the input would exceed the degree bound."""


class ConstantTooLarge(ParseError):
    """A product or power in the input would pass the coefficient size bound."""
