"""Exact decomposition of monic polynomials.

Writes a monic polynomial P as h(Q) + R with monic h and Q, where Q is
the approximate d-th root of P, decides d-decomposability over exact
fields in one or several variables, and produces the polynomial
conditions in generic coefficients that cut out the decomposable locus.
All arithmetic is exact; floating point is never used.
"""

from .approot import approx_root
from .decide import (
    DecomposabilityVerdict,
    VarietySystem,
    Witness,
    brute_force_decompose,
    is_decomposable_multi,
    is_decomposable_uni,
    variety_equations,
)
from .decomp import OUTER_VARIABLE, ConditionReport, Decomposition, decompose, verify
from .domain import (
    Domain,
    Element,
    PolynomialRing,
    PrimeField,
    Rationals,
    ground_domain,
    polynomial_tower,
)
from .errors import (
    CoefficientTooLarge,
    ConstantTooLarge,
    DegreeNotDivisible,
    DegreeTooLarge,
    DivisionByZeroLiteral,
    DomainMismatch,
    EnumerationTooLarge,
    InvalidOuterDegree,
    NotInvertible,
    NotMonic,
    NotMonicInMainVar,
    ParseError,
    PolyDecompError,
    UnknownVariable,
    VariableMismatch,
)
from .poly import NEG_INF, Poly

__all__ = [
    "approx_root",
    "DecomposabilityVerdict",
    "VarietySystem",
    "Witness",
    "brute_force_decompose",
    "is_decomposable_multi",
    "is_decomposable_uni",
    "variety_equations",
    "OUTER_VARIABLE",
    "ConditionReport",
    "Decomposition",
    "decompose",
    "verify",
    "Domain",
    "Element",
    "PolynomialRing",
    "PrimeField",
    "Rationals",
    "ground_domain",
    "polynomial_tower",
    "CoefficientTooLarge",
    "ConstantTooLarge",
    "DegreeNotDivisible",
    "DegreeTooLarge",
    "DivisionByZeroLiteral",
    "DomainMismatch",
    "EnumerationTooLarge",
    "InvalidOuterDegree",
    "NotInvertible",
    "NotMonic",
    "NotMonicInMainVar",
    "ParseError",
    "PolyDecompError",
    "UnknownVariable",
    "VariableMismatch",
    "NEG_INF",
    "Poly",
]

__version__ = "0.1.0"
