"""Sparse polynomials as maps {monomial: raw ground value}.

A tower ring's raw value is a ``Terms`` map whose keys hold one
exponent per level from that ring inward, outermost first.  The parser
computes on maps whose keys lead with the main variable's exponent, and
a tower's list product on maps whose keys lead with a list position.
Where approx_root and decompose run, and inside every product, a
monomial is one int instead: each level's exponent in a bit field of
its own (``packing``), so that a key sum is one int add (Monagan and
Pearce's packed exponent vectors).  Sums combine values with the
ground field's hooks; a product is one pass of int arithmetic on
numerators, after SymPy's ``PolyElement.__mul__``, with no Poly
operation on any tower level.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from operator import add, lshift


class Terms(dict):
    """A tower value: {exponents: nonzero ground value}, empty for zero.
    It compares as a dict and hashes by its items, like SymPy's
    ``PolyElement``, and is immutable by convention."""

    __slots__ = ()

    def __hash__(self):
        return hash(frozenset(self.items()))


def negate(a: dict, field) -> dict:
    """-a, in place."""
    neg = field._neg
    for key, value in a.items():
        a[key] = neg(value)
    return a


def merge(a: dict, b: dict, field) -> dict:
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


def product(pairs: list, field) -> dict:
    """The sum of a * b over the (a, b) pairs of maps keyed by packed
    monomials, with no zero value; no key sum may carry out of a field.

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
                key = ka + kb
                out[key] = get(key, 0) + va * vb
    den, ratio = da * db, field._ratio
    return {key: value for key, num in out.items() if num and (value := ratio(num, den))}


def packing(tops) -> tuple:
    """(pack, unpack, bits) for exponent tuples whose entry l is at most
    tops[l]: pack puts entry l in a field of tops[l].bit_length() bits,
    the first entry lowest, and the fields take ``bits`` in all."""
    widths = [top.bit_length() for top in tops]
    shifts = [*accumulate(widths, initial=0)]
    fields = [(shift, (1 << width) - 1) for shift, width in zip(shifts, widths)]

    def pack(key: tuple) -> int:
        return sum(map(lshift, key, shifts))

    def unpack(key: int) -> tuple:
        return tuple([key >> shift & mask for shift, mask in fields])

    return pack, unpack, shifts[-1]


def tuple_product(pairs: list, field) -> Terms:
    """``product`` on maps keyed by exponent tuples: each level packed in
    a field as wide as the sum of both sides' largest exponents there,
    and each output key unpacked once."""
    sides = [a for a, _ in pairs], [b for _, b in pairs]
    tops = [list(map(max, zip(*[key for f in side for key in f]))) for side in sides]
    pack, unpack, _ = packing(list(map(add, *tops)))
    pairs = [({pack(k): c for k, c in a.items()}, {pack(k): c for k, c in b.items()}) for a, b in pairs]
    return Terms({unpack(k): c for k, c in product(pairs, field).items()})
