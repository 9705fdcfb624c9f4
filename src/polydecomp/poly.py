"""Dense univariate polynomials over a coefficient domain.

Coefficients are stored ascending: ``coeffs[i]`` is the coefficient of
``variable**i``.  The tuple never ends in a zero, so the zero polynomial
is the empty tuple and otherwise ``degree == len(coeffs) - 1``.  The
degree of the zero polynomial is the sentinel ``NEG_INF``, which
compares below every integer.

A Poly is immutable; every operation returns a new instance.  A Poly
over ``PolynomialRing(D, v)`` has coefficients that are themselves
polynomial elements, which is how multivariate polynomials are
represented, one variable per tower level.

Products run on the domain's list kernels (``Domain._mul_lists``): the
coefficients' raw values go in and the result is wrapped once.  The
kernels trust that every coefficient is a canonical element of the
Poly's own domain, which ``Domain.element`` and ``Poly.from_coeffs``
guarantee; only the operands' domains and variables are checked.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable

from .domain import Domain, Element
from .errors import DomainMismatch, VariableMismatch


@total_ordering
class _NegInf:
    """Degree of the zero polynomial; ordered below every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


def same_domain(a: Domain, b: Domain) -> None:
    """Raise DomainMismatch unless a and b are the same domain."""
    if a is not b and a != b:
        raise DomainMismatch(f"{a} vs {b}")


class Poly:
    """A polynomial in one variable with coefficients in a Domain."""

    __slots__ = ("domain", "variable", "coeffs")

    def __init__(self, domain: Domain, variable: str, coeffs: Iterable[Element] = ()):
        cs = tuple(coeffs)
        n = len(cs)
        while n and cs[n - 1].is_zero:
            n -= 1
        self.domain = domain
        self.variable = variable
        self.coeffs = cs[:n]

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, domain: Domain, variable: str) -> "Poly":
        return cls(domain, variable, ())

    @classmethod
    def constant(cls, domain: Domain, variable: str, value) -> "Poly":
        return cls(domain, variable, (domain.element(value),))

    @classmethod
    def gen(cls, domain: Domain, variable: str) -> "Poly":
        """The polynomial ``variable`` itself."""
        return cls(domain, variable, (domain.zero, domain.one))

    @classmethod
    def monomial(cls, domain: Domain, variable: str, coeff, exponent: int) -> "Poly":
        c = domain.element(coeff)
        return cls(domain, variable, (domain.zero,) * exponent + (c,))

    @classmethod
    def from_coeffs(cls, domain: Domain, variable: str, values: Iterable) -> "Poly":
        """Build from ascending coefficient values, coercing each one."""
        return cls(domain, variable, tuple(domain.element(v) for v in values))

    # ------------------------------------------------------------------
    # structure

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Element:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.domain.one

    def coeff(self, i: int) -> Element:
        """Coefficient of variable**i, zero beyond the degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.domain.zero

    # ------------------------------------------------------------------
    # arithmetic

    def _check(self, other: "Poly") -> None:
        same_domain(self.domain, other.domain)
        if self.variable != other.variable:
            raise VariableMismatch(f"{self.variable!r} vs {other.variable!r}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.domain, self.variable, out)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        zero = self.domain.zero
        out = [zero] * max(len(self.coeffs), len(other.coeffs))
        for i, c in enumerate(self.coeffs):
            out[i] = c
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return Poly(self.domain, self.variable, out)

    def __neg__(self):
        return Poly(self.domain, self.variable, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            same_domain(self.domain, other.domain)
            factor = [other.value]
        elif isinstance(other, Poly):
            self._check(other)
            factor = [c.value for c in other.coeffs]
        else:
            return NotImplemented
        domain = self.domain
        if not self.coeffs or not factor:
            return Poly(domain, self.variable, ())
        product = domain._mul_lists([c.value for c in self.coeffs], factor)
        return Poly(domain, self.variable, [Element(domain, v) for v in product])

    def __rmul__(self, other):
        if isinstance(other, Element):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.constant(self.domain, self.variable, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute ``inner`` for this polynomial's variable (Horner)."""
        same_domain(self.domain, inner.domain)
        out = Poly.zero(self.domain, inner.variable)
        for c in reversed(self.coeffs):
            out = out * inner + Poly.constant(self.domain, inner.variable, c)
        return out

    # ------------------------------------------------------------------
    # comparison and display

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.coeffs == other.coeffs
            and (self.domain is other.domain or self.domain == other.domain)
        )

    def __hash__(self):
        return hash((self.variable, self.coeffs))

    def __str__(self):
        v = self.variable
        terms = [(c, ((v, i),)) for i, c in enumerate(self.coeffs)]
        return join_terms(reversed(terms))

    def __repr__(self):
        return f"<Poly {self} over {self.domain}>"


def join_terms(terms: Iterable[tuple[Element, Iterable[tuple[str, int]]]]) -> str:
    """Grammar-compatible text for (coefficient, monomial) terms in the
    order given, each monomial being (variable, exponent) pairs.

    Zero coefficients and zero exponents are left out, a negative ground
    coefficient becomes a " - " join, a unit coefficient is not written
    before a monomial, and a tower coefficient with a variable in it is
    parenthesized.  The empty sum is "0".
    """
    parts: list[str] = []
    for c, monomial in terms:
        if c.is_zero:
            continue
        sign = "+"
        if c.is_ground:
            g = c.ground_value()
            if g.value < 0:
                sign, g = "-", -g
            text, unit = str(g), g.value == 1
        else:
            while c.value.degree == 0:  # constant at its own level
                c = c.value.coeffs[0]
            text, unit = f"({c.value})", False
        names = "*".join([v if e == 1 else f"{v}^{e}" for v, e in monomial if e])
        if not names:
            body = text
        elif unit:
            body = names
        else:
            body = f"{text}*{names}"
        if parts:
            parts.append(f" {sign} {body}")
        else:
            parts.append(body if sign == "+" else "-" + body)
    return "".join(parts) or "0"
