"""Dense univariate polynomials over a coefficient domain.

A Poly stores each coefficient once, in the tuple ``values``, as the raw
canonical value of its domain: a Fraction, a residue int, or a tower
ring's ``sparse.Terms`` map.  ``values[i]`` belongs to ``variable**i``
and the tuple never ends in a zero, a value that is false, so the zero
polynomial is the empty tuple and otherwise ``degree == len(values) -
1``.  A Poly is false exactly when it is zero.  The degree of the zero
polynomial is the sentinel ``NEG_INF``, which compares below every
integer.  ``coeffs``, ``coeff`` and ``leading_coefficient`` are the
public view and the only code here that wraps values into Elements.

A Poly is immutable; every operation returns a new instance.  A Poly
over ``PolynomialRing(D, v)`` has coefficients that are polynomials in
v and the variables of D, stored as maps of their ground terms, which
is how multivariate polynomials are represented.  ``unfold`` gives such
a value as a Poly over D, one level at a time, where text or JSON is
printed; ``descend`` gives the level where a variable occurs in it.

``Poly(domain, variable, coeffs)`` coerces every coefficient with
``domain._value``, a Poly over a tower level's base included, so a
stored value is always canonical for the domain, and rejects a
variable that a tower level over ``domain`` could not have
(``check_variable``), so its text re-parses.
Arithmetic runs on the values through the domain's hooks and list
kernels (``_add``, ``_mul_lists``) and builds its result with the
trusted ``Poly._of``; only the operands' domains and variables are
checked.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable

from .domain import Domain, Element, PolynomialRing, check_variable, same_domain, value_text
from .errors import VariableMismatch


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


class Poly:
    """A polynomial in one variable with coefficients in a Domain."""

    __slots__ = ("domain", "variable", "values")

    def __init__(self, domain: Domain, variable: str, coeffs: Iterable = ()):
        check_variable(domain, variable)
        value = domain._value
        self._set(domain, variable, [value(c) for c in coeffs])

    def _set(self, domain: Domain, variable: str, values) -> None:
        n = len(values)
        while n and not values[n - 1]:
            n -= 1
        self.domain, self.variable, self.values = domain, variable, tuple(values[:n])

    @classmethod
    def _of(cls, domain: Domain, variable: str, values) -> "Poly":
        """The Poly with the given ascending values, which must already be
        canonical values of ``domain``; only trailing zeros are dropped."""
        p = cls.__new__(cls)
        p._set(domain, variable, values)
        return p

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, domain: Domain, variable: str) -> "Poly":
        return cls._of(domain, variable, ())

    @classmethod
    def constant(cls, domain: Domain, variable: str, value) -> "Poly":
        return cls(domain, variable, (value,))

    @classmethod
    def gen(cls, domain: Domain, variable: str) -> "Poly":
        """The polynomial ``variable`` itself."""
        return cls._of(domain, variable, (domain._zero, domain._one))

    # ------------------------------------------------------------------
    # structure

    @property
    def coeffs(self) -> tuple[Element, ...]:
        """The public view: every value wrapped as an Element, ascending."""
        domain = self.domain
        return tuple([Element(domain, v) for v in self.values])

    @property
    def degree(self):
        return len(self.values) - 1 if self.values else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.values

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for every raw value."""
        return bool(self.values)

    @property
    def leading_coefficient(self) -> Element:
        if not self.values:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Element(self.domain, self.values[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self.values) and self.values[-1] == self.domain._one

    def coeff(self, i: int) -> Element:
        """Coefficient of variable**i, zero beyond the degree."""
        if 0 <= i < len(self.values):
            return Element(self.domain, self.values[i])
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
        a, b = self.values, other.values
        if len(a) < len(b):
            a, b = b, a
        return Poly._of(self.domain, self.variable, [*map(self.domain._add, a, b), *a[len(b) :]])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Poly._of(self.domain, self.variable, list(map(self.domain._neg, self.values)))

    def __mul__(self, other):
        if isinstance(other, Element):
            same_domain(self.domain, other.domain)
            factor = (other.value,)
        elif isinstance(other, Poly):
            self._check(other)
            factor = other.values
        else:
            return NotImplemented
        domain = self.domain
        if not self.values or not factor:
            return Poly._of(domain, self.variable, ())
        return Poly._of(domain, self.variable, domain._mul_lists(self.values, factor))

    def __rmul__(self, other):
        if isinstance(other, Element):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, e, Poly.__mul__, Poly.constant(self.domain, self.variable, 1))

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute ``inner`` for this polynomial's variable (Horner)."""
        same_domain(self.domain, inner.domain)
        return Poly._of(self.domain, inner.variable, self.domain._compose(self.values, inner.values))

    # ------------------------------------------------------------------
    # comparison and display

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.variable == other.variable
            and self.values == other.values
            and (self.domain is other.domain or self.domain == other.domain)
        )

    def __hash__(self):
        return hash((self.variable, self.values))

    def __str__(self):
        v = self.variable
        terms = [(c, ((v, i),)) for i, c in enumerate(self.values)]
        return join_terms(self.domain, reversed(terms))

    def __repr__(self):
        return f"<Poly {self} over {self.domain}>"


def power(base, e: int, times, one):
    """base**e for an int e >= 0 by repeated squaring with ``times``, from ``one``."""
    result = one
    while e:
        if e & 1:
            result = times(result, base)
        e >>= 1
        if e:
            base = times(base, base)
    return result


def descend(domain: Domain, value) -> tuple[Domain, object]:
    """Step down through every tower level where the value is constant:
    to a ground (domain, value) pair, zero included, or to the level
    where a variable occurs, with the value's map at that level."""
    while isinstance(domain, PolynomialRing) and not any(key[0] for key in value):
        domain, value = domain.base, domain.base._split(value, 1)[0]
    return domain, value


def unfold(ring: PolynomialRing, value) -> Poly:
    """A value of ``ring`` as a Poly over its base in its variable."""
    length = 1 + max((key[0] for key in value), default=-1)
    return Poly._of(ring.base, ring.variable, ring.base._split(value, length))


def join_terms(domain: Domain, terms: Iterable[tuple[object, Iterable[tuple[str, int]]]]) -> str:
    """Grammar-compatible text for (coefficient, monomial) terms in the
    order given, each coefficient being a raw value of ``domain`` and
    each monomial (variable, exponent) pairs.

    Zero coefficients and zero exponents are left out, a negative ground
    coefficient becomes a " - " join, a unit coefficient is not written
    before a monomial, and a tower coefficient with a variable in it is
    parenthesized.  The empty sum is "0".
    """
    parts: list[str] = []
    tower = isinstance(domain, PolynomialRing)
    for c, monomial in terms:
        if not c:
            continue
        if tower:  # a ground coefficient has no level to descend
            level, c = descend(domain, c)
        sign = "+"
        if tower and isinstance(level, PolynomialRing):
            text, unit = f"({level._text(c)})", False
        else:  # read off the text: Fraction comparisons cost more
            text = value_text(c)
            if text[0] == "-":
                sign, text = "-", text[1:]
            unit = text == "1"
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
