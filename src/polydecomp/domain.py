"""Coefficient domains and their elements.

Three kinds of domain are supported:

  * ``Rationals()``             exact rational numbers, characteristic 0
  * ``PrimeField(p)``           integers mod a prime p, characteristic p
  * ``PolynomialRing(D, v)``    polynomials in v over a base domain D

``PolynomialRing`` nests, so K[a1][a2]...[an] realizes a multivariate
polynomial ring as iterated univariate rings.  Variable names inside one
tower must be pairwise distinct.

Every element is kept in canonical form at all times: rational values
are reduced fractions with positive denominator (``fractions.Fraction``
guarantees this), prime field values are residues in [0, p), and
polynomial ring values are maps of ground terms with no zero value.
Equality is structural, so two elements compare equal exactly when
their canonical forms coincide.  Floating point never appears anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import index, mul
from struct import pack, unpack
from typing import Sequence

from .errors import CoefficientTooLarge, DomainMismatch, NotInvertible
from .sparse import Terms, merge, negate, product

# the one rule for variable names, in the parser and in towers alike
VARIABLE_NAME = re.compile("[A-Za-z][A-Za-z0-9]*")


def same_domain(a: "Domain", b: "Domain") -> None:
    """Raise DomainMismatch unless a and b are the same domain."""
    if a is not b and a != b:
        raise DomainMismatch(f"{a} vs {b}")


def value_text(value) -> str:
    """Decimal text of a raw value; every coefficient printed by the
    package goes through here."""
    try:
        return str(value)
    except ValueError:  # beyond the interpreter's int/str digit limit
        raise CoefficientTooLarge("a coefficient has too many digits to print") from None


@dataclass(slots=True, unsafe_hash=True)
class Element:
    """A domain value tagged with the domain it lives in: the public view
    of a coefficient, which a Poly stores as the bare value.

    Only public names build one: ``Poly.coeffs``, ``coeff`` and
    ``leading_coefficient``, a domain's ``element``, ``zero``, ``one``,
    ``generator`` and ``invert_integer``, and Element arithmetic.

    Arithmetic is defined between elements of equal domains only; mixing
    domains raises DomainMismatch.  Equality and hashing are those of
    the (domain, value) pair, and ``is_zero`` is the value being false.
    Instances are immutable by convention.
    """

    domain: "Domain"
    value: object

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        same_domain(self.domain, other.domain)
        return Element(self.domain, self.domain._add(self.value, other.value))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        same_domain(self.domain, other.domain)
        return Element(self.domain, self.domain._sub(self.value, other.value))

    def __mul__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        same_domain(self.domain, other.domain)
        return Element(self.domain, self.domain._mul(self.value, other.value))

    def __neg__(self):
        return Element(self.domain, self.domain._neg(self.value))

    @property
    def is_zero(self) -> bool:
        return not self.value

    def inverse(self) -> "Element":
        """Multiplicative inverse; raises NotInvertible when there is none."""
        return Element(self.domain, self.domain._invert(self.value))

    def __str__(self):
        return self.domain._text(self.value)


class Domain:
    """Base class of all coefficient domains.

    A domain's values are raw: a Fraction, a residue int, or a tower
    ring's ``sparse.Terms`` map.  A value is zero exactly when it is
    false.  Subclasses provide the hooks _canonical and _invert plus
    metadata.  ``_value`` coerces anything into a raw value, which
    ``element`` wraps: it unwraps elements of this domain, hands
    elements of other domains to _lift (an error except in towers),
    rejects floats and canonicalizes anything else with _canonical.  The
    _add, _sub, _mul and _neg hooks default to the values' own
    operators; PrimeField overrides them to reduce mod p, and
    PolynomialRing to merge and multiply maps.  ``_text`` is a value's
    text.  Subclasses are dataclasses, so domains compare structurally;
    equal domains are fully interchangeable.  The raw ``_zero`` and
    ``_one`` are set once, when the domain is made; ``zero`` and ``one``
    wrap them.

    A Poly stores raw values and computes with these hooks and the list
    product _mul_lists, which multiplies int numerators over one common
    denominator as big ints (``_convolve``) and divides each output term
    once (_ratio: a Fraction over Q, mod p over GF(p)).  approx_root,
    decompose and variety_equations add _dot and ``_over(d)`` and run on
    the values ``_working`` gives: over Q and towers over Q, those of
    the same domain over ``_Integers`` (``_integers``).  ``_join`` maps a
    list of values to one map of ground terms keyed by list index, then
    exponents, and ``_split`` maps it back.  ``_names`` holds the
    variables of a tower.  The kernels trust their values to be canonical.
    """

    is_field = False
    _integers = None
    _names = frozenset()

    def __post_init__(self):
        self._zero, self._one = self._canonical(0), self._canonical(1)

    zero = property(lambda self: Element(self, self._zero))
    one = property(lambda self: Element(self, self._one))

    def element(self, value) -> Element:
        """Coerce ``value`` into this domain, canonicalizing it."""
        return Element(self, self._value(value))

    def _value(self, value):
        """The canonical raw value of ``value`` in this domain."""
        if isinstance(value, Element):
            if value.domain is self or value.domain == self:
                return value.value
            return self._lift(value)
        if isinstance(value, float):
            raise TypeError("floating point values are not allowed")
        return self._canonical(value)

    def _lift(self, value: Element):
        raise DomainMismatch(f"{value.domain} is not {self}")

    def invert_integer(self, m: int) -> Element:
        """The inverse of the integer m in this domain, if it has one."""
        return Element(self, self._invert_integer(m))

    def _invert_integer(self, m: int):
        return self._invert(self._canonical(m))

    def _over(self, m: int):
        """a -> a / m, for an integer m invertible here."""
        inv = self._invert_integer(m)
        return lambda a: self._mul(a, inv)

    def _working(self, values, d: int, m: int):
        """(domain, values, back) that root and split run on, for monic p with
        Q of degree m; back(out, step) maps out's value i of weight step*(len-1-i).
        With ``_integers``, the values of s^n * p(x/s) there, s = D*d^2 for D
        the lcm of the ground denominators of the top m + 1 values: s clears
        them and so Q's (approot), and back divides each ground term once."""
        ints = self._integers
        if ints is None:
            return self, values, lambda out, step=1: out
        s = lcm(*(c.denominator for c in self._join(values[-m - 1 :]).values())) * d * d
        powers = [*accumulate(repeat(s, len(values) - 1), mul, initial=1)]
        scaled = ints._each(
            values,
            powers[::-1],
            lambda c, w: c * w if w % c.denominator else c.numerator * (w // c.denominator),
        )
        return ints, scaled, lambda out, step=1: self._each(out, powers[::step][len(out) - 1 :: -1], Fraction)

    def _each(self, values, weights, f) -> list:
        """This domain's values with f(c, w) for each ground term c of
        values[i], w = weights[i], where the values are those of the same
        tower over another ground."""
        return list(map(f, values, weights))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _text(self, value) -> str:
        return value_text(value)

    def _join(self, values) -> dict:
        """{(i,): value} for the nonzero values of a list; a ring's keys
        go on with the exponents of each value's terms."""
        return {(i,): v for i, v in enumerate(values) if v}

    def _split(self, terms: dict, length: int) -> list:
        """The list of ``length`` values whose ``_join`` is ``terms``."""
        values = [self._zero] * length
        for (i,), v in terms.items():
            values[i] = v
        return values


def _convolve(a: list, b: list) -> list:
    """The unreduced product of two nonempty int lists, by Kronecker
    substitution: each list packed into one int, in slots wide enough for
    any output coefficient, one multiply, and the slots read back.  Every
    slot is as wide as the widest output, so a term of more than 64 bits
    plus twice the mean bit length of both lists is left out and adds its
    own row at its own size: the packed ints stay within a few times the
    operands' bits plus a word per slot."""
    n = len(a) + len(b) - 1
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    rows = []
    if max(top_a, top_b).bit_length() > 64:
        cap = 2 * (sum(map(int.bit_length, a)) + sum(map(int.bit_length, b))) // (n + 1) + 64
        rows = [(i, x, b) for i, x in enumerate(a) if x.bit_length() > cap]
        a = [0 if x.bit_length() > cap else x for x in a]
        rows += [(j, y, a) for j, y in enumerate(b) if y.bit_length() > cap]
        b = [0 if y.bit_length() > cap else y for y in b]
        top_a, top_b = max(map(abs, a)), max(map(abs, b))
    # bounds every |a[i]|, |b[j]| and |sum of a[i] * b[j]|
    top = max(top_a * top_b * min(len(a), len(b)), top_a, top_b)
    w = max(8, top.bit_length() // 8 + 1)  # bytes of a signed slot
    half = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")  # each slot's top bit
    packed = ((_pack(a, w, half) * _pack(b, w, half) + half) ^ half).to_bytes(w * n, "little")
    if w == 8:
        out = list(unpack(f"<{n}q", packed))
    else:
        out = [int.from_bytes(packed[i : i + w], "little", signed=True) for i in range(0, w * n, w)]
    for i, x, other in rows:
        out[i : i + len(other)] = [o + x * y for o, y in zip(out[i : i + len(other)], other)]
    return out


def _pack(values: list, width: int, half: int) -> int:
    """The sum of values[i] * 2**(8 * width * i) from the values' two's
    complement slots, little-endian (``struct`` for words, twice as fast
    as ``to_bytes``): flipping, then subtracting, each slot's top bit
    cancels the borrow that a negative value takes from the slot above."""
    slots = pack(f"<{len(values)}q", *values) if width == 8 else b"".join(
        [v.to_bytes(width, "little", signed=True) for v in values]
    )
    return (int.from_bytes(slots, "little") ^ half) - half


@dataclass(unsafe_hash=True)
class _Integers(Domain):
    """Where root and split run over Q, and the ground of the tower they
    run on over a tower over Q: plain operators on the values of
    ``Domain._working``, ints but for low ones s does not clear."""

    _canonical = index

    def _over(self, m: int):
        return lambda a: a // m

    def _ratio(self, num: int, den: int):
        # den is 1 unless a low value s does not clear is in the product
        return num if den == 1 else Fraction(num, den)

    def _mul_lists(self, a, b):
        return _convolve(a, b)

    def _dot(self, xs, ys):
        return sum(map(mul, xs, ys))


@dataclass(unsafe_hash=True)
class Rationals(Domain):
    """The field of rational numbers."""

    is_field = True
    _integers = _Integers()

    def _canonical(self, value):
        return Fraction(value)

    def _invert(self, a):
        if not a:
            raise NotInvertible("0 has no inverse")
        return 1 / a

    def _mul_lists(self, a, b):
        # each list over one common denominator, so only ints convolve
        da = lcm(*(x.denominator for x in a))
        db = lcm(*(y.denominator for y in b))
        out = _convolve(
            [x.numerator * (da // x.denominator) for x in a],
            [y.numerator * (db // y.denominator) for y in b],
        )
        den = da * db
        return [Fraction(c, den) for c in out]

    def _ratio(self, num: int, den: int):
        return Fraction(num, den)

    def _each(self, values, weights, f):
        # a zero has no ground term, and Fraction(0, w) would cost a gcd
        zero = self._zero
        return [f(v, w) if v else zero for v, w in zip(values, weights)]

    def __str__(self):
        return "QQ"


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which no composite below
    3215031751 passes (Jaeschke 1993), so exact for every p < 2**31."""
    if n < 2 or n % 2 == 0 or n in (3, 5, 7):
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    # n - 1 = odd * 2**s: a**odd is 1, or squares to -1 within s - 1 steps
    return all(
        pow(a, odd, n) == 1 or n - 1 in {pow(a, odd << j, n) for j in range(s)}
        for a in (2, 3, 5, 7)
    )


@dataclass(unsafe_hash=True)
class PrimeField(Domain):
    """Integers modulo a prime p.  Values are residues in [0, p)."""

    p: int
    is_field = True

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise TypeError("p must be an int")
        if self.p >= 2**31:
            raise ValueError("p must be below 2**31")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        super().__post_init__()

    def _canonical(self, value):
        if isinstance(value, int):
            return value % self.p
        if not isinstance(value, Fraction):  # text, a Decimal, ...
            value = Fraction(value)
        return value.numerator * self._invert(value.denominator) % self.p

    def _invert_integer(self, m: int):
        return self._invert(m)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _invert(self, a):
        """The inverse mod p of any int a."""
        if a % self.p == 0:
            raise NotInvertible(f"{a} is not invertible modulo {self.p}")
        return pow(a, self.p - 2, self.p)

    def _ratio(self, num: int, den: int):
        # den is 1 when num and den come from residues
        return num % self.p if den == 1 else num * self._invert(den) % self.p

    # delayed reduction: sums of products are plain ints, reduced once
    def _mul_lists(self, a, b):
        p = self.p
        return [c % p for c in _convolve(a, b)]

    def _dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    def __str__(self):
        return f"GF({self.p})"


@dataclass(unsafe_hash=True)
class PolynomialRing(Domain):
    """Polynomials in one variable over a base domain.

    A value is a ``sparse.Terms`` map {exponents: nonzero ground value}
    with one exponent per level from this ring inward, outermost first:
    in QQ[y][z], z*y^2 + 3 is {(1, 2): 1, (0, 0): 3}.  Sums merge maps
    with the ground field's hooks and products are one
    ``sparse.product``; no hook changes its operands.  A Poly over
    ``base`` in ``variable`` coerces to the map of its terms, a ``Terms``
    map of this ring's levels to itself with canonical values and no zero,
    and ``poly.unfold`` gives a value back as a Poly.  Nesting rings gives
    multivariate coefficients; the variable being adjoined must not
    already occur deeper in the tower.
    """

    base: Domain
    variable: str

    def __post_init__(self):
        if not isinstance(self.base, Domain):
            raise TypeError("base must be a Domain")
        check_variable(self.base, self.variable)
        self._names = self.base._names | {self.variable}
        self._ground = ground_domain(self.base)
        ints = self.base._integers
        self._integers = None if ints is None else PolynomialRing(ints, self.variable)
        # from the base's values: canonicalizing 0 and 1 would descend the tower
        self._zero, self._one = Terms(), Terms(self.base._join((self.base._one,)))

    def _canonical(self, value):
        from .poly import Poly

        if isinstance(value, dict):  # a raw value, keyed by one exponent per level
            n = len(next(iter(self._one)))
            if type(value) is not Terms or not all(
                type(k) is tuple and len(k) == n and all(type(e) is int and e >= 0 for e in k)
                for k in value
            ):
                raise DomainMismatch(f"a map not keyed by {n} exponents does not fit {self}")
            return Terms({k: c for k, v in value.items() if (c := self._ground._value(v))})
        if not isinstance(value, Poly):
            return Terms(self.base._join((self.base._value(value),)))
        if value.domain == self.base and value.variable == self.variable:
            return Terms(self.base._join(value.values))
        raise DomainMismatch(f"{value.variable!r}-polynomial does not fit {self}")

    # an element of a deeper level becomes a constant
    _lift = _canonical

    def _invert_integer(self, m: int):
        return Terms({key: self._ground._invert_integer(m) for key in self._one})

    def _over(self, m: int):
        over = self._ground._over(m)
        return lambda a: Terms({key: over(c) for key, c in a.items()})

    def generator(self, name: str | None = None) -> Element:
        """The variable ``name`` (default: this level's own) as an element."""
        if name is None or name == self.variable:
            return Element(self, Terms(self.base._join((self.base._zero, self.base._one))))
        if isinstance(self.base, PolynomialRing):
            return self.element(self.base.generator(name))
        raise ValueError(f"no variable {name!r} in this tower")

    def _invert(self, a):
        # units of A[y] are the units of A: the nonzero ground constants
        if len(a) != 1 or any(next(iter(a))):
            raise NotInvertible("only nonzero constants are invertible here")
        return Terms({key: self._ground._invert(c) for key, c in a.items()})

    def _add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return merge(Terms(a), b, self._ground)

    def _sub(self, a, b):
        return merge(Terms(a), negate(Terms(b), self._ground), self._ground)

    def _neg(self, a):
        return negate(Terms(a), self._ground)

    def _mul(self, a, b):
        return product([(a, b)], self._ground)

    def _dot(self, xs, ys):
        return product(list(zip(xs, ys)), self._ground)

    def _mul_lists(self, a, b):
        terms = product([(self._join(a), self._join(b))], self._ground)
        return self._split(terms, len(a) + len(b) - 1)

    def _each(self, values, weights, f) -> list:
        return [Terms({key: f(c, w) for key, c in v.items()}) for v, w in zip(values, weights)]

    def _join(self, values) -> dict:
        return {(i, *key): c for i, terms in enumerate(values) for key, c in terms.items()}

    def _split(self, terms: dict, length: int) -> list:
        values = [Terms() for _ in range(length)]
        for key, c in terms.items():
            values[key[0]][key[1:]] = c
        return values

    def _text(self, value) -> str:
        from .poly import unfold

        return str(unfold(self, value))

    def __str__(self):
        return f"{self.base}[{self.variable}]"


def check_variable(domain: Domain, name: str) -> None:
    """The one rule for a variable over ``domain``, adjoined as a tower
    level or as a Poly's own: a VARIABLE_NAME that occurs nowhere in
    ``domain``'s tower."""
    if not VARIABLE_NAME.fullmatch(name):
        raise ValueError(f"bad variable name {name!r}")
    if name in domain._names:
        raise ValueError(f"variable {name!r} already occurs in the tower")


def polynomial_tower(base: Domain, names: Sequence[str]) -> Domain:
    """Adjoin variables left to right: tower(QQ, ["y", "z"]) is QQ[y][z]."""
    domain = base
    for name in names:
        domain = PolynomialRing(domain, name)
    return domain


def ground_domain(domain: Domain) -> Domain:
    """The innermost non-ring domain under a tower."""
    return domain._ground if isinstance(domain, PolynomialRing) else domain
