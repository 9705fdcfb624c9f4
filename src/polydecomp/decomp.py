"""Division-style decomposition of a monic polynomial.

``decompose(p, d)`` writes p = h(q) + r where q is the approximate d-th
root of p, h is monic of degree d in its own variable with no degree
d - 1 term, deg r < deg p - deg q, and r has no term at any exponent
divisible by deg q.  Under those constraints the triple (h, q, r) is
unique, which makes it a normal form: p is a composition of the given
shape exactly when r vanishes.

With m = deg q, the residual e = p - h(q) - r starts as p - q**d and is
scanned from its top coefficient down.  A nonzero coefficient c of x^i
goes to h as c*t^(i/m) when m divides i, which subtracts c*q^(i/m) from
e and leaves e[i] zero because q is monic; otherwise it goes to r as
c*x^i.  Either way nothing at or above x^i changes afterwards.  The
powers q^0 .. q^d cost d - 1 polynomial products, O(n^2) ring
operations for n = deg p, and each of the at most d - 1 terms of h
below t^d costs O(n) more, so the whole split is O(n^2).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from .approot import approx_root
from .errors import DomainMismatch, VariableMismatch
from .poly import Poly

OUTER_VARIABLE = "t"


@dataclass(frozen=True)
class Decomposition:
    """The parts of p = h(q) + r, with h in variable ``OUTER_VARIABLE``."""

    h: Poly
    q: Poly
    r: Poly
    d: int


def decompose(p: Poly, d: int) -> Decomposition:
    """Split monic p into h(q) + r; see the module docstring for the shape."""
    q = approx_root(p, d)
    domain, var = p.domain, p.variable
    m = q.degree
    powers = [Poly.constant(domain, var, 1), q]
    for _ in range(d - 1):
        powers.append(powers[-1] * q)
    powers = [f.values for f in powers]
    # p and q^d are both monic of degree n
    e = list(map(domain._sub, p.values, powers[d]))
    h = [domain._zero] * d + [domain._one]
    r = [domain._zero] * len(e)
    for i in range(len(e) - 1, -1, -1):
        c = e[i]
        if not c:
            continue
        if i % m:
            r[i] = c
            continue
        h[i // m] = c
        domain._sub_scaled(e, c, powers[i // m])
    return Decomposition(Poly._of(domain, OUTER_VARIABLE, h), q, Poly._of(domain, var, r), d)


@dataclass(frozen=True)
class ConditionReport:
    """Pass/fail for each requirement a decomposition must meet."""

    monic: bool
    degree_bound: bool
    index_condition: bool
    reconstruction: bool

    @property
    def ok(self) -> bool:
        return all(astuple(self))


def verify(p: Poly, dec: Decomposition) -> ConditionReport:
    """Re-check a decomposition against p from scratch.

    Violations are reported, never raised, so a deliberately corrupted
    triple can be inspected.
    """
    h, q, r = dec.h, dec.q, dec.r
    monic = h.is_monic and q.is_monic
    if p.values and q.values and q.degree >= 1:
        m = q.degree
        degree_bound = h.degree == dec.d and not h.values[dec.d - 1] and r.degree < p.degree - m
        index_condition = all(i % m for i, c in enumerate(r.values) if c)
    else:
        degree_bound = False
        index_condition = False
    try:
        reconstruction = h.compose(q) + r == p
    except (DomainMismatch, VariableMismatch):
        reconstruction = False
    return ConditionReport(monic, degree_bound, index_condition, reconstruction)
