"""Sparse polynomials as maps {exponent tuple: raw ground value}.

A key is a main index, for the parser the main variable's exponent and
for the tower kernels a list position, then each tower level's exponent,
outermost first.  Values combine through the ground field's hooks, after
SymPy's ``PolyElement.__mul__``: a tower product is one pass of ground
arithmetic, with no Poly operation on any level in between.
"""

from __future__ import annotations

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


def add_product(out: dict, a: dict, b: dict, field: Domain) -> dict:
    """out + a * b, in place; terms that cancel stay as zero values."""
    plus, times = field._add, field._mul
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(map(add, ka, kb))
            old = out.get(key)
            out[key] = times(va, vb) if old is None else plus(old, times(va, vb))
    return out


def product(a: dict, b: dict, field: Domain) -> dict:
    """a * b with no zero value."""
    return {key: value for key, value in add_product({}, a, b, field).items() if value}


def flatten(domain: Domain, values) -> dict:
    """The map of the ground terms under a list of raw values of ``domain``."""
    terms = {(i,): v for i, v in enumerate(values) if v}
    while isinstance(domain, PolynomialRing):
        terms = {key + (j,): c for key, v in terms.items() for j, c in enumerate(v.values) if c}
        domain = domain.base
    return terms


def nest(terms: dict, domain: Domain, length: int | None = None) -> list:
    """The list of raw values of ``domain`` with the given ground terms,
    of which zero values vanish; ``length`` defaults to one past the
    largest index."""
    if isinstance(domain, PolynomialRing):
        groups: dict = {}
        for key, value in terms.items():
            groups.setdefault(key[0], {})[key[1:]] = value
        base, variable = domain.base, domain.variable
        terms = {i: Poly._of(base, variable, nest(sub, base)) for i, sub in groups.items()}
    else:
        terms = {key[0]: value for key, value in terms.items()}
    out = [domain._zero] * (max(terms, default=-1) + 1 if length is None else length)
    for i, value in terms.items():
        out[i] = value
    return out
