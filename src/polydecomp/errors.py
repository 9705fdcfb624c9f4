"""Typed errors raised by the library.

Every error carries a stable ``code`` string; the CLI prints it on stderr
so callers can match on it without parsing prose.
"""

from __future__ import annotations


class PolyDecompError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"


class DomainMismatch(PolyDecompError):
    """Operands belong to different coefficient domains."""

    code = "DomainMismatch"


class VariableMismatch(PolyDecompError):
    """Polynomials in different variables were combined additively."""

    code = "VariableMismatch"


class NotMonic(PolyDecompError):
    """A monic polynomial was required."""

    code = "NotMonic"


class NotMonicInMainVar(PolyDecompError):
    """A multivariate input is not monic in the selected main variable."""

    code = "NotMonicInMainVar"


class DegreeNotDivisible(PolyDecompError):
    """The outer degree d does not divide the degree of the input."""

    code = "DegreeNotDivisible"


class NotInvertible(PolyDecompError):
    """An integer has no inverse in the coefficient domain."""

    code = "NotInvertible"


class InvalidOuterDegree(PolyDecompError):
    """The outer degree d is outside the valid range 2 <= d <= deg P."""

    code = "InvalidOuterDegree"


class EnumerationTooLarge(PolyDecompError):
    """An exhaustive search would exceed the configured size bound."""

    code = "EnumerationTooLarge"


class CoefficientTooLarge(PolyDecompError):
    """A coefficient has more digits than the interpreter converts to text."""

    code = "CoefficientTooLarge"


class ParseError(PolyDecompError):
    """Malformed polynomial text. ``position`` is a 0-based offset."""

    code = "ParseError"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """An identifier in the input is not a declared variable."""

    code = "UnknownVariable"


class DivisionByZeroLiteral(ParseError):
    """A rational literal whose denominator is zero in the field."""

    code = "DivisionByZeroLiteral"


class DegreeTooLarge(ParseError):
    """A product or power in the input would exceed the degree bound."""

    code = "DegreeTooLarge"
