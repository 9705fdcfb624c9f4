"""Sparse polynomials as maps {exponent tuple: raw ground value}.

A key is a main index, for the parser the main variable's exponent and
for a list of tower values a list position, then each tower level's
exponent, outermost first.  Sums combine values with the ground field's
hooks; a product is one pass of int arithmetic on numerators, after
SymPy's ``PolyElement.__mul__``, with no Poly operation on any tower
level.  ``Flat`` gives a tower one such map per value, the working
values of its list product, approx_root, decompose and
variety_equations: p is flattened once, Q is never re-flattened, and
only results are nested, once each.
"""

from __future__ import annotations

from math import lcm
from operator import add

from .domain import Domain, PolynomialRing
from .poly import Poly


def negate(a: dict, field: Domain) -> dict:
    """-a, in place."""
    neg = field._neg
    for key, value in a.items():
        a[key] = neg(value)
    return a


def merge(a: dict, b: dict, field: Domain) -> dict:
    """a + b with no zero value, merging the smaller map into the larger."""
    if len(a) < len(b):
        a, b = b, a
    plus = field._add
    for key, value in b.items():
        if key in a:
            value = plus(a[key], value)
            if not value:
                del a[key]
                continue
        a[key] = value
    return a


def product(pairs: list, field: Domain) -> dict:
    """The sum of a * b over the (a, b) pairs of maps, with no zero value.

    All the a maps go over one common denominator, the lcm of their
    values' denominators, and all the b maps over another; a residue
    int has denominator 1.  The numerators multiply as plain ints, and
    each output term becomes a ground value once, by ``field._ratio``.
    """
    da = lcm(*(v.denominator for a, _ in pairs for v in a.values()))
    db = lcm(*(v.denominator for _, b in pairs for v in b.values()))
    out: dict = {}
    get = out.get
    for a, b in pairs:
        b = [(kb, vb.numerator * (db // vb.denominator)) for kb, vb in b.items()]
        for ka, va in a.items():
            va = va.numerator * (da // va.denominator)
            for kb, vb in b:
                key = tuple(map(add, ka, kb))
                out[key] = get(key, 0) + va * vb
    den, ratio = da * db, field._ratio
    return {key: value for key, num in out.items() if num and (value := ratio(num, den))}


def flatten(domain: Domain, values) -> dict:
    """The map of the ground terms under a list of raw values of ``domain``."""
    terms = {(i,): v for i, v in enumerate(values) if v}
    while isinstance(domain, PolynomialRing):
        terms = {key + (j,): c for key, v in terms.items() for j, c in enumerate(v.values) if c}
        domain = domain.base
    return terms


def _dense(terms: dict, zero, length: int | None = None) -> list:
    """The list with terms {index: value}, zero elsewhere."""
    out = [zero] * (max(terms, default=-1) + 1 if length is None else length)
    for i, value in terms.items():
        out[i] = value
    return out


def nest(terms: dict, domain: Domain, length: int | None = None) -> list:
    """The list of raw values of ``domain`` with the given ground terms,
    none of them zero; ``length`` defaults to one past the largest index.

    Built bottom-up: each tower level, innermost first, groups the keys
    by all but their last exponent once and makes one Poly per group.
    """
    rings, ring = [], domain
    while isinstance(ring, PolynomialRing):
        rings.append(ring)
        ring = ring.base
    for ring in reversed(rings):
        groups: dict = {}
        for key, value in terms.items():
            groups.setdefault(key[:-1], {})[key[-1]] = value
        base, variable, zero = ring.base, ring.variable, ring.base._zero
        terms = {prefix: Poly._of(base, variable, _dense(group, zero)) for prefix, group in groups.items()}
    return _dense({i: value for (i,), value in terms.items()}, domain._zero, length)


def _split(terms: dict, length: int) -> list:
    """One map {level exponents: value} per main index of ``terms``."""
    maps: list = [{} for _ in range(length)]
    for key, value in terms.items():
        maps[key[0]][key[1:]] = value
    return maps


def _join(maps: list) -> dict:
    return {(i, *key): value for i, terms in enumerate(maps) for key, value in terms.items()}


class Flat:
    """A tower ring's values as flat maps {level exponents: ground value}
    with no zero value, so that the empty map is zero and false: the
    hooks of approx_root, decompose and variety_equations over a tower,
    and of the tower's list product.  Sums ``merge``, products are one
    ``product``; no hook makes a Poly or changes its operands.  ``into``
    and ``out`` map a list of the ring's values to flat maps and back."""

    def __init__(self, ring: PolynomialRing):
        self.ring, self.field = ring, ring._ground
        self._zero, (self._one,) = {}, self.into((ring._one,))

    def into(self, values) -> list:
        return _split(flatten(self.ring, values), len(values))

    def out(self, maps: list) -> list:
        return nest(_join(maps), self.ring, len(maps))

    def _add(self, a: dict, b: dict) -> dict:
        if len(a) < len(b):
            a, b = b, a
        return merge(dict(a), b, self.field)

    def _sub(self, a: dict, b: dict) -> dict:
        return merge(dict(a), negate(dict(b), self.field), self.field)

    def _mul(self, a: dict, b: dict) -> dict:
        return product([(a, b)], self.field)

    def _dot(self, xs: list, ys: list) -> dict:
        return product(list(zip(xs, ys)), self.field)

    def _mul_lists(self, a: list, b: list) -> list:
        return _split(product([(_join(a), _join(b))], self.field), len(a) + len(b) - 1)

    def _invert_integer(self, m: int) -> dict:
        return {key: self.field._invert_integer(m) for key in self._one}


def working(domain: Domain):
    """(hooks, into, out): the hooks approx_root and decompose compute
    with over ``domain`` and the maps of a list of its values into them
    and back, a field's own raw values or a tower's flat maps."""
    if isinstance(domain, PolynomialRing):
        flat = Flat(domain)
        return flat, flat.into, flat.out
    return domain, list, list
