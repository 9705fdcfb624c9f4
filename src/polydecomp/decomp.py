"""Division-style decomposition of a monic polynomial.

``decompose(p, d)`` writes p = h(q) + r where q is the approximate d-th
root of p, h is monic of degree d in its own variable with no degree
d - 1 term, deg r < deg p - deg q, and r has no term at any exponent
divisible by deg q.  Under those constraints the triple (h, q, r) is
unique, which makes it a normal form: p is a composition of the given
shape exactly when r vanishes.

With m = deg q and e = p - q**d, the coefficients of h and r are read
off from the top of p down, each by one linear equation in those
already found: at x^i the coefficient left is c = e[i] minus the sum of
h_j * (q^j)[i] over i/m < j < d - 1, every such h_j being found by
then (h_(d-1) is 0 and h_d is in e).  A nonzero c goes to h as
c*t^(i/m) when m divides i, since q^(i/m) is monic; otherwise it goes
to r as c*x^i.  The powers q^2 .. q^d cost d - 1 list products, each
one big-int multiply (``domain._convolve``), or over a tower one
``sparse.product`` on packed monomials, and each coefficient one dot
product over at most d - 2 terms, so the split is O(n*d) ring
operations for n = deg p besides the products.  ``split`` runs it on
working values, with Q's from ``approot.root``: over a tower maps keyed
by packed monomials, and over Q and towers over Q, s^n * p(x/s) as
there; each ground term of h, q and r is unpacked and divided by its
power of s once, at the end.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from itertools import chain, count

from .approot import check_root, root
from .domain import Domain, check_variable
from .errors import DomainMismatch, VariableMismatch
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
    for name in chain([OUTER_VARIABLE], (f"{OUTER_VARIABLE}{i}" for i in count(1))):
        try:
            check_variable(domain, name)
        except ValueError:
            continue
        return name


def split(domain: Domain, p, d: int) -> tuple[list, list, list]:
    """h, q and r as values of ``domain``, ascending, from those of monic p."""
    m = (len(p) - 1) // d
    powers = [[domain._one], root(domain, p[-m - 1 :], d)]  # q^j, j = 0 .. d
    for _ in range(d - 1):
        powers.append(domain._mul_lists(powers[-1], powers[1]))
    # p and q^d are both monic of degree n
    e = list(map(domain._sub, p, powers[d]))
    h = [domain._zero] * d + [domain._one]
    r = [domain._zero] * len(e)
    for i in range(len(e) - 1, -1, -1):
        # h_j for i/m < j < d - 1, all found by now; a sparse h has few
        j, c = i // m + 1, e[i]
        if any(h[j : d - 1]):
            c = domain._sub(c, domain._dot(h[j : d - 1], [q_j[i] for q_j in powers[j : d - 1]]))
        if not c:
            continue
        if i % m:
            r[i] = c
        else:
            h[i // m] = c
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
    try:
        reconstruction = h.compose(q) + r == p
    except (DomainMismatch, VariableMismatch):
        reconstruction = False
    return ConditionReport(monic, degree_bound, index_condition, reconstruction)
