"""Deciding whether a polynomial is a composition h(q) of outer degree d.

Over a field K (with d invertible) a monic p of degree n = d*m is
d-decomposable exactly when the remainder r of ``decompose(p, d)``
vanishes.  Non-monic p over a field is scaled monic first and the
witness h is scaled back afterwards.

With coefficients in a polynomial tower over K, p monic in its main
variable is a composition h(q) with h over K alone exactly when r
vanishes *and* every coefficient of h is a constant of K; the second
half is what fails for inputs like x^2 + y.

``variety_equations(n, d)`` runs the same split on the generic monic
polynomial whose coefficients are fresh indeterminates a1 .. an, on the
packed integer maps decompose takes (s = d^2, and the exponent of
a_(n-l) in a field that holds n // (n - l)), and keeps its remainder
coefficients: the polynomial conditions that cut out the
d-decomposable locus.

``brute_force_decompose`` is an independent exhaustive oracle over a
prime field, used to cross-check the algebraic route on small inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .approot import check_outer_degree
from .decomp import OUTER_VARIABLE, decompose, split
from .domain import Element, PolynomialRing, PrimeField, Rationals, ground_domain, polynomial_tower
from .errors import EnumerationTooLarge, NotMonic, NotMonicInMainVar
from .poly import Poly, descend
from .sparse import Terms


@dataclass(frozen=True)
class Witness:
    """A pair whose composition h(q) reproduces the tested polynomial."""

    h: Poly
    q: Poly


@dataclass(frozen=True)
class DecomposabilityVerdict:
    """Outcome of a decomposability test.

    ``witness`` is present exactly when ``decomposable``.  ``residual``
    is the remainder of the underlying decomposition; brute-force
    negatives carry None because exhaustive search computes no
    remainder.  ``normalization`` records the leading coefficient that
    was divided out, when the input was not monic.
    """

    decomposable: bool
    witness: Witness | None
    residual: Poly | None
    normalization: Element | None


def _decide(p: Poly, d: int, lead: Element | None) -> DecomposabilityVerdict:
    """The decision rule for monic p: p = h(q) exactly when r vanishes
    and every coefficient of h is a ground constant.  The witness h
    comes back over the ground domain, multiplied by ``lead`` when p is
    the input scaled monic by that factor."""
    dec = decompose(p, d)
    ground = [descend(p.domain, c) for c in dec.h.values]
    if dec.r or any(isinstance(level, PolynomialRing) for level, _ in ground):
        return DecomposabilityVerdict(False, None, dec.r, lead)
    h = Poly._of(ground_domain(p.domain), dec.h.variable, [c for _, c in ground])
    if lead is not None:
        h = h * lead
    return DecomposabilityVerdict(True, Witness(h, dec.q), dec.r, lead)


def is_decomposable_uni(p: Poly, d: int) -> DecomposabilityVerdict:
    """Decide p = h(q) with deg h = d over a field; p need not be monic.

    A positive witness satisfies ``witness.h.compose(witness.q) == p``
    for the p that was passed in, scaling included.
    """
    if not p.domain.is_field:
        raise TypeError("univariate decidability needs a field domain")
    if p.is_zero:
        raise NotMonic("the zero polynomial cannot be scaled monic")
    lead = p.leading_coefficient
    if lead == p.domain.one:
        return _decide(p, d, None)
    return _decide(p * lead.inverse(), d, lead)


def is_decomposable_multi(p: Poly, d: int) -> DecomposabilityVerdict:
    """Decide p = h(q) where h must live over the ground field alone.

    p is a polynomial in its main variable with coefficients in a
    polynomial tower; it must be monic in that main variable.  The
    witness h comes back over the ground field, q over the tower.
    """
    if not p.is_monic:
        raise NotMonicInMainVar(f"input is not monic in {p.variable!r}")
    return _decide(p, d, None)


@dataclass(frozen=True)
class VarietySystem:
    """Equations in the generic coefficients a1 .. an whose common zeros
    are exactly the d-decomposable monic polynomials of degree n."""

    n: int
    d: int
    indeterminates: tuple[str, ...]
    equations: tuple[Element, ...]


def variety_equations(n: int, d: int) -> VarietySystem:
    """Decompose the generic monic degree-n polynomial symbolically.

    The equations are the remainder coefficients at every exponent i
    with 0 < i < n - n/d not divisible by n/d, fully expanded in the
    a's, listed from the highest such exponent down.
    """
    check_outer_degree(n, d, "n")
    names = tuple(f"a{k}" for k in range(1, n + 1))
    ground = Rationals()
    ring = polynomial_tower(ground, names)
    # x^i has the coefficient a_(n-i), and the tower's levels run from
    # a_n, so its one ground term has exponent 1 at level i
    generic = [Terms({tuple(int(j == i) for j in range(n)): ground._one}) for i in range(n + 1)]
    m = n // d
    work, values, back = ring._working(generic, d, m)
    r = back(split(work, values, d)[2])
    equations = tuple(Element(ring, r[i]) for i in range(n - m - 1, 0, -1) if i % m)
    return VarietySystem(n, d, names, equations)


def _mul_mod(a: list[int], b: list[int], prime: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % prime
    return out


def brute_force_decompose(p: Poly, d: int, limit: int = 10**6) -> DecomposabilityVerdict:
    """Exhaustive decomposability oracle over a prime field.

    Every monic inner candidate of degree deg(p)//d is paired with every
    monic outer candidate of degree d and the composition is compared to
    p directly, using local modular arithmetic on coefficient lists so
    the search shares no code with the algebraic route it cross-checks.
    Enumeration is ascending lexicographic on coefficient tuples with
    the constant coefficient most significant, inner candidate in the
    outer loop; the first match is the witness.
    """
    domain = p.domain
    if not isinstance(domain, PrimeField):
        raise TypeError("brute-force search is only available over prime fields")
    if not p.is_monic:
        raise NotMonic("brute-force search expects a monic polynomial")
    n = p.degree
    check_outer_degree(n, d, "deg(p)")
    prime = domain.p
    m = n // d
    pairs = prime ** (m + d)
    if pairs > limit:
        raise EnumerationTooLarge(f"{prime}**{m + d} candidate pairs exceed the bound {limit}")
    target = list(p.values)
    for q_tail in itertools.product(range(prime), repeat=m):
        q_ints = list(q_tail) + [1]
        powers = [[1]]
        for _ in range(d):
            powers.append(_mul_mod(powers[-1], q_ints, prime))
        # h only contributes below degree n - m, so a match forces the
        # top of q**d to agree with p already; skipping the pairs that
        # fail this cannot change which match is found first
        if powers[d][n - m + 1 :] != target[n - m + 1 :]:
            continue
        for h_tail in itertools.product(range(prime), repeat=d):
            candidate = list(powers[d])
            for j, hc in enumerate(h_tail):
                if hc:
                    for idx, v in enumerate(powers[j]):
                        candidate[idx] = (candidate[idx] + hc * v) % prime
            if candidate == target:
                h = Poly._of(domain, OUTER_VARIABLE, h_tail + (1,))
                q = Poly._of(domain, p.variable, q_ints)
                zero_r = Poly.zero(domain, p.variable)
                return DecomposabilityVerdict(True, Witness(h, q), zero_r, None)
    return DecomposabilityVerdict(False, None, None, None)
