"""Division-style decomposition of a monic polynomial.

``decompose(p, d)`` writes p = h(q) + r where q is the approximate d-th
root of p, h is monic of degree d in its own variable with no degree
d - 1 term, deg r < deg p - deg q, and r has no term at any exponent
divisible by deg q.  Under those constraints the triple (h, q, r) is
unique, which makes it a normal form: p is a composition of the given
shape exactly when r vanishes.

With m = deg q, split takes two steps once q^2 .. q^d are known, d - 1
list products, each one big-int multiply (``domain._convolve``), or
over a tower one ``sparse.product`` on packed monomials.  First h, from
d equations: q^k is monic of degree km and q^j for j < k stops below
it, so the x^(km) coefficient of p - h(q) is p[km] - h_k minus the sum
of h_j * (q^j)[km] over k < j <= d.  With h_d = 1 and h_(d-1) = 0 (q is
the approximate root), setting it to 0 gives each h_k, k = d - 2 .. 0,
by at most one dot product over those found before it (``Domain._left``),
O(d^2) ring operations.  Then r = p - h(q) (``Domain._remainder``), zero
at every x^(km) by construction: over GF(p) one sum of the powers packed
as unsigned words per (2^64 - 1) // (p - 1)^2 nonzero h_j, reduced mod
p, elsewhere one dot product per coefficient, O(n*d) ring operations for
n = deg p.  For m = 1, r is 0.  ``split`` runs on working values, with
Q's from ``approot.root``: over a tower maps keyed by packed monomials,
and over Q and towers over Q, s^n * p(x/s) as there; each ground term of
h, q and r is unpacked and divided by its power of s once, at the end.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import chain, count

from .approot import check_root, root
from .domain import Domain
from .poly import Poly

OUTER_VARIABLE = "t"


@dataclass(frozen=True)
class Decomposition:
    """The parts of p = h(q) + r.  h is in variable ``OUTER_VARIABLE``,
    or, when p's coefficients already use that name, in the first of
    t1, t2, ... that they do not."""

    h: Poly
    q: Poly
    r: Poly
    d: int


def _outer_variable(domain: Domain) -> str:
    names = chain([OUTER_VARIABLE], (f"{OUTER_VARIABLE}{i}" for i in count(1)))
    return next(name for name in names if name not in domain._names)


def split(domain: Domain, p, d: int) -> tuple[list, list, list]:
    """h, q and r as values of ``domain``, ascending, from those of monic p."""
    m = (len(p) - 1) // d
    powers = [[domain._one], root(domain, p[-m - 1 :], d)]  # q^j, j = 0 .. d
    for _ in range(d - 1):
        powers.append(domain._mul_lists(powers[-1], powers[1]))
    # h_k cancels x^(km) in p - h(q), top down: q^k is monic of degree km,
    # q^j for j < k stops below it, and h_(d-1) is 0 since q is p's approximate root
    h = [domain._zero] * d + [domain._one]
    for k in range(d - 2, -1, -1):
        h[k] = domain._left(p, h, powers, k * m, k + 1)
    r = domain._remainder(p, h, powers, m) if m > 1 else [domain._zero] * len(p)
    return h, powers[1], r


def decompose(p: Poly, d: int) -> Decomposition:
    """Split monic p into h(q) + r; see the module docstring for the shape."""
    check_root(p, d)
    domain, var = p.domain, p.variable
    work, values, back = domain._working(p.values, d, p.degree // d)
    h, q, r = split(work, values, d)
    h = Poly._of(domain, _outer_variable(domain), back(h, p.degree // d))
    return Decomposition(h, Poly._of(domain, var, back(q)), Poly._of(domain, var, back(r)), d)


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
    # parts that cannot be combined do not reconstruct p
    reconstruction = h.domain == q.domain == r.domain and q.variable == r.variable and h.compose(q) + r == p
    return ConditionReport(monic, degree_bound, index_condition, reconstruction)
