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
from itertools import accumulate, chain, repeat
from math import lcm
from operator import add, index, mul
from struct import pack, unpack
from typing import Sequence

from .errors import CoefficientTooLarge, DomainMismatch, NotInvertible
from .sparse import Terms, merge, negate, packing, product, tuple_product

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
    ``leading_coefficient``, a domain's ``element``, ``zero``, ``one``
    and ``generator``, and Element arithmetic.

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
    false.  Subclasses provide the hooks _canonical and _invert (of a
    canonical value, or over Q and GF(p) an int) plus metadata.
    ``_value`` coerces anything into a raw value, which ``element``
    wraps: it unwraps elements of this domain, hands elements of other
    domains to _lift (an error except in towers), rejects floats and
    canonicalizes anything else with _canonical.  The _add, _sub, _mul
    and _neg hooks default to the values' own operators; PrimeField
    overrides them to reduce mod p, and PolynomialRing to merge and
    multiply maps.  ``_text`` is a value's text.  Subclasses are
    dataclasses, so domains compare structurally; equal domains are
    fully interchangeable.  The raw ``_zero`` and ``_one`` are set once,
    when the domain is made; ``zero`` and ``one`` wrap them.

    A Poly stores raw values and computes with these hooks and the list
    product _mul_lists, which multiplies int numerators over one common
    denominator as big ints (``_convolve``, or over GF(p) as unsigned
    words while each output fits one) and divides each output term once
    (_ratio: a Fraction over Q, mod p over GF(p)); ``_compose`` is
    Horner's rule on the lists (``_horner``, over Q on numerators).
    approx_root, decompose and variety_equations add _dot, ``_over(d)`` (d
    inverted as given), ``_left`` and ``_remainder`` and run on the values
    ``_working`` gives: over Q those of s^n * p(x/s) over ``_Integers``,
    and over a tower maps with each monomial packed into one int
    (``_Packed``), scaled so over Q.  ``_join`` maps a list of values to
    one map of ground terms keyed by list index, then exponents, and
    ``_split`` maps it back.  ``_names`` holds the variables of a tower.
    The kernels trust their values to be canonical.
    """

    is_field = False
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

    def _over(self, m: int):
        """a -> a / m for an int m, inverted as given (``_invert``)."""
        inv = self._invert(m)
        return lambda a: self._mul(a, inv)

    def _working(self, values, d: int, m: int):
        """(domain, values, back) that root and split run on, for monic p with
        Q of degree m; back(out, step) maps out's value i of weight
        step*(len-1-i) back to this domain."""
        return self, values, lambda out, step=1: out

    def _compose(self, h, q) -> list:
        """The values of h(q)."""
        return _horner(h, q, self._mul_lists, self._add)

    def _remainder(self, p, h, powers, m: int) -> list:
        """p - h(q) for q of degree m, powers[j] = q^j and h as split finds
        it: zero at each x^(km) and ``_left`` at any other x^i."""
        return [self._left(p, h, powers, i, i // m + 1) if i % m else self._zero for i in range(len(p))]

    def _left(self, p, h, powers, i: int, j: int):
        """p[i] minus the x^i coefficients of h_k * q^k over k >= j, with
        h_d = 1 and h_(d-1) = 0: p - h(q) at x^i when each q^k, k < j,
        stops below x^i."""
        d = len(h) - 1
        c = self._sub(p[i], powers[d][i])
        if any(h[j : d - 1]):  # a sparse h has few nonzero h_k
            c = self._sub(c, self._dot(h[j : d - 1], [q_j[i] for q_j in powers[j : d - 1]]))
        return c

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


def _horner(h, q, times, plus) -> list:
    """h(q) by Horner's rule on the value lists, with the list product
    ``times`` and the value sum ``plus``: the one loop of every compose."""
    if not h or not q:
        return list(h[:1])
    out = [h[-1]]
    for c in reversed(h[:-1]):
        out = times(out, q)
        out[0] = plus(out[0], c)
    return out


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
    """Where root and split run over Q, and the ground of the maps they
    run on over a tower over Q: plain operators on the values of
    ``_working``, ints but for low ones s does not clear."""

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


_INTEGERS = _Integers()


def _powers(top, d: int, length: int) -> list:
    """s^0 .. s^(length - 1) for s = D*d^2, D the lcm of the denominators
    of the Fractions ``top``: s clears them and so Q's (approot)."""
    s = lcm(*(c.denominator for c in top)) * d * d
    return [*accumulate(repeat(s, length - 1), mul, initial=1)]


def _numerators(values: list) -> tuple:
    """(ints, den): den the lcm of the values' denominators, and the
    values times den."""
    den = lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


def _scaled(c, w: int):
    """c * w for a Fraction or int c, an int unless c's denominator does
    not divide w."""
    return c * w if w % c.denominator else c.numerator * (w // c.denominator)


@dataclass(unsafe_hash=True)
class Rationals(Domain):
    """The field of rational numbers."""

    is_field = True

    def _canonical(self, value):
        # a Fraction is immutable and always reduced: no copy
        return value if type(value) is Fraction else Fraction(value)

    def _invert(self, a):
        if not a:
            raise NotInvertible("0 has no inverse")
        return Fraction(1, a)

    def _mul_lists(self, a, b):
        # each list over one common denominator, so only ints convolve
        (a, da), (b, db) = _numerators(a), _numerators(b)
        den = da * db
        return [Fraction(c, den) for c in _convolve(a, b)]

    def _compose(self, h, q):
        # the one Horner on numerators over h's and q's common denominators
        # dh and dq, h_k's times dq^(deg h - k), gives dh * dq^deg(h) * h(q)
        (h, dh), (q, dq) = _numerators(h), _numerators(q)
        weights = [*accumulate(repeat(dq, len(h) - 1), mul, initial=1)]
        out = _horner([c * w for c, w in zip(h, reversed(weights))], q, _convolve, add)
        return [Fraction(c, dh * weights[-1]) for c in out]

    def _ratio(self, num: int, den: int):
        return Fraction(num, den)

    def _working(self, values, d: int, m: int):
        # s^n * p(x/s): the x^i value times s^(n - i), s from the top m + 1
        powers, zero = _powers(values[-m - 1 :], d, len(values)), self._zero

        def back(out, step=1):
            weights = powers[::step][len(out) - 1 :: -1]
            # a zero keeps the shared zero: Fraction(0, w) would cost a gcd
            return [Fraction(c, w) if c else zero for c, w in zip(out, weights)]

        return _INTEGERS, list(map(_scaled, values, reversed(powers))), back

    def __str__(self):
        return "QQ"


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 7 and 61, which no composite below
    4759123141 passes (Jaeschke 1993), so exact for every p < 2**31."""
    if n < 2 or n % 2 == 0 or n in (7, 61):
        return n in (2, 7, 61)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    # n - 1 = odd * 2**s: a**odd is 1, or squares to -1 within s - 1 steps
    for a in (2, 7, 61):
        x = pow(a, odd, n)
        if x != 1 and x != n - 1 and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


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
        # den is 1: residues have no denominator
        return num % self.p

    # delayed reduction: sums of products are plain ints, reduced once.
    # An output is at most min(len(a), len(b)) * (p - 1)^2; below 2^64
    # the residues pack as unsigned words, with no bound to scan for and
    # no sign borrow, and otherwise they go to the signed _convolve
    def _mul_lists(self, a, b):
        p, n = self.p, len(a) + len(b) - 1
        if (p - 1) ** 2 * min(len(a), len(b)) >> 64:
            return [c % p for c in _convolve(a, b)]
        words = int.from_bytes(pack(f"<{len(a)}Q", *a), "little")
        words *= int.from_bytes(pack(f"<{len(b)}Q", *b), "little")
        return [c % p for c in unpack(f"<{n}Q", words.to_bytes(8 * n, "little"))]

    def _dot(self, xs, ys):
        return sum(map(mul, xs, ys)) % self.p

    # p - h(q) as one sum of the packed words of the powers: a word sums at
    # most (p - 1)^2 per nonzero h_j, and otherwise the dots of the default
    def _remainder(self, p, h, powers, m: int) -> list:
        terms = [(c, q_j) for c, q_j in zip(h, powers) if c]
        if (self.p - 1) ** 2 * len(terms) >> 64:
            return super()._remainder(p, h, powers, m)
        words = sum(c * int.from_bytes(pack(f"<{len(q_j)}Q", *q_j), "little") for c, q_j in terms)
        sums = unpack(f"<{len(p)}Q", words.to_bytes(8 * len(p), "little"))
        return [(a - b) % self.p for a, b in zip(p, sums)]

    def __str__(self):
        return f"GF({self.p})"


class _Maps(Domain):
    """Sums of maps {monomial: nonzero ground value}, each a ``_map``, on
    the ground field's hooks; no hook changes its operands."""

    _map = dict

    def _add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        return merge(self._map(a), b, self._ground)

    def _sub(self, a, b):
        return merge(self._map(a), negate(self._map(b), self._ground), self._ground)

    def _neg(self, a):
        return negate(self._map(a), self._ground)

    def _over(self, m: int):
        over = self._ground._over(m)
        return lambda a: self._map({key: over(c) for key, c in a.items()})


class _Packed(_Maps):
    """Where root and split run over a tower: a value maps each monomial,
    packed into one int of ``bits`` bits (``PolynomialRing._working``), to
    a value of ``ground``, _INTEGERS over Q.  A list product keys its
    terms by list index above those bits, so joining and splitting the
    lists is a shift and a mask."""

    def __init__(self, ground: Domain, bits: int):
        self._ground, self.bits = ground, bits
        self._zero, self._one = {}, {0: ground._one}

    def _dot(self, xs, ys):
        return product(list(zip(xs, ys)), self._ground)

    def _mul_lists(self, a, b):
        bits, out = self.bits, [{} for _ in range(len(a) + len(b) - 1)]
        mask = (1 << bits) - 1
        a, b = ({i << bits | key: c for i, v in enumerate(f) for key, c in v.items()} for f in (a, b))
        for key, c in product([(a, b)], self._ground).items():
            out[key >> bits][key & mask] = c
        return out


@dataclass(unsafe_hash=True)
class PolynomialRing(_Maps):
    """Polynomials in one variable over a base domain.

    A value is a ``sparse.Terms`` map {exponents: nonzero ground value}
    with one exponent per level from this ring inward, outermost first:
    in QQ[y][z], z*y^2 + 3 is {(1, 2): 1, (0, 0): 3}.  Sums merge maps
    with the ground field's hooks and products are one
    ``sparse.tuple_product``; no hook changes its operands.  A Poly over
    ``base`` in ``variable`` coerces to the map of its terms, a ``Terms``
    map of this ring's levels to itself with canonical values and no zero,
    and ``poly.unfold`` gives a value back as a Poly.  Nesting rings gives
    multivariate coefficients; the variable being adjoined must not
    already occur deeper in the tower.
    """

    base: Domain
    variable: str
    _map = Terms

    def __post_init__(self):
        if not isinstance(self.base, Domain):
            raise TypeError("base must be a Domain")
        check_variable(self.base, self.variable)
        self._names = self.base._names | {self.variable}
        self._ground = ground_domain(self.base)
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

    def _mul(self, a, b):
        return tuple_product([(a, b)], self._ground)

    def _dot(self, xs, ys):
        return tuple_product(list(zip(xs, ys)), self._ground)

    def _mul_lists(self, a, b):
        terms = tuple_product([(self._join(a), self._join(b))], self._ground)
        return self._split(terms, len(a) + len(b) - 1)

    def _working(self, values, d: int, m: int):
        # Each monomial packed into one int.  Weigh the value at x^i by
        # n - i: the root's b_k and A[j][k], the x^i value of q^j, h_j and
        # r_i have level-l degree at most E_l/n times their weight, E_l the
        # largest deg_l(values[i]) * n // (n - i), and a product's pairs
        # weigh at most n, so fields of E_l.bit_length() bits never carry.
        n, zeros = len(values) - 1, [0] * len(next(iter(self._one)))
        tops = zeros
        for i, v in enumerate(values[:-1]):
            if v:
                tops = [max(t, e * n // (n - i)) for t, e in zip(tops, map(max, zeros, *v))]
        pack, unpack, bits = packing(tops)
        ground, ratio, powers = self._ground, self._ground._ratio, [1] * len(values)
        if isinstance(ground, Rationals):  # scaled as Rationals._working scales, each ground term
            ground, ratio = _INTEGERS, Fraction
            powers = _powers(chain.from_iterable(v.values() for v in values[-m - 1 :]), d, len(values))
        packed = [{pack(key): _scaled(c, w) for key, c in v.items()} for v, w in zip(values, reversed(powers))]

        def back(values, step=1):
            weights = powers[::step][len(values) - 1 :: -1]
            return [Terms({unpack(key): ratio(c, w) for key, c in v.items()}) for v, w in zip(values, weights)]

        return _Packed(ground, bits), packed, back

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
