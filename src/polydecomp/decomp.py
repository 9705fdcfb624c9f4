"""Division-style decomposition of a monic polynomial.

``decompose(p, d)`` writes p = h(q) + r where q is the approximate d-th
root of p, h is monic of degree d in its own variable with no degree
d - 1 term, deg r < deg p - deg q, and r has no term at any exponent
divisible by deg q.  Under those constraints the triple (h, q, r) is
unique, which makes it a normal form: p is a composition of the given
shape exactly when r vanishes.

The loop peels the highest remaining term of p - h(q) - r and assigns
it to h when its exponent is a multiple of deg q, to r otherwise; the
difference drops in degree at every step, so it terminates after at
most deg p rounds.
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
    h = Poly.monomial(domain, OUTER_VARIABLE, 1, d)
    r = Poly.zero(domain, var)
    while True:
        e = p - h.compose(q) - r
        if e.is_zero:
            return Decomposition(h, q, r, d)
        i = e.degree
        c = e.coeff(i)
        if i % m == 0:
            h = h + Poly.monomial(domain, OUTER_VARIABLE, c, i // m)
        else:
            r = r + Poly.monomial(domain, var, c, i)


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
    if p.coeffs and q.coeffs and q.degree >= 1:
        m = q.degree
        degree_bound = h.degree == dec.d and h.coeff(dec.d - 1).is_zero and r.degree < p.degree - m
        index_condition = all(i % m for i, c in enumerate(r.coeffs) if not c.is_zero)
    else:
        degree_bound = False
        index_condition = False
    try:
        reconstruction = h.compose(q) + r == p
    except (DomainMismatch, VariableMismatch):
        reconstruction = False
    return ConditionReport(monic, degree_bound, index_condition, reconstruction)
