"""Shared helpers for the test suite: random data, canonical audits, and
small oracles (evaluation, specialization, lifting, JSON parsing, the
straightforward root and decomposition) that the library itself does not
need."""

import math
import random
from fractions import Fraction

from polydecomp import (
    OUTER_VARIABLE,
    Decomposition,
    Domain,
    Element,
    NotMonic,
    Poly,
    PolynomialRing,
    PrimeField,
    Rationals,
)
from polydecomp.approot import check_outer_degree
from polydecomp.poly import unfold
from polydecomp.sparse import Terms


def rand_fraction(rng: random.Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def rand_element(rng: random.Random, domain, size: int = 2) -> Element:
    """A random element: small fraction, residue, or small nested poly."""
    if isinstance(domain, Rationals):
        return domain.element(rand_fraction(rng))
    if isinstance(domain, PrimeField):
        return domain.element(rng.randrange(domain.p))
    length = rng.randint(0, size + 1)
    coeffs = [rand_element(rng, domain.base, size) for _ in range(length)]
    return domain.element(Poly(domain.base, domain.variable, coeffs))


def rand_poly(rng: random.Random, domain, variable: str, degree: int, monic: bool = False) -> Poly:
    """A random polynomial of exactly the requested degree."""
    coeffs = [rand_element(rng, domain) for _ in range(degree)]
    if monic:
        coeffs.append(domain.one)
    else:
        lead = rand_element(rng, domain)
        while lead.is_zero:
            lead = rand_element(rng, domain)
        coeffs.append(lead)
    return Poly(domain, variable, coeffs)


def rand_int_poly(rng: random.Random, domain, variable: str, degree: int, monic: bool = False) -> Poly:
    """Random polynomial with small integer coefficients (keeps rational
    arithmetic cheap in the larger suites)."""
    coeffs = [domain.element(rng.randint(-9, 9)) for _ in range(degree)]
    if monic:
        coeffs.append(domain.one)
    else:
        coeffs.append(domain.element(rng.choice([i for i in range(-9, 10) if i])))
    return Poly(domain, variable, coeffs)


def assert_canonical_element(el: Element) -> None:
    """Audit the canonical-form invariants of one element, recursively."""
    v = el.value
    if isinstance(el.domain, Rationals):
        assert isinstance(v, Fraction)
        assert v.denominator > 0
        assert math.gcd(v.numerator, v.denominator) == 1
    elif isinstance(el.domain, PrimeField):
        assert isinstance(v, int)
        assert 0 <= v < el.domain.p
    elif isinstance(el.domain, PolynomialRing):
        # a map of ground terms, one exponent per level, no zero value
        assert isinstance(v, Terms)
        depth, level = 0, el.domain
        while isinstance(level, PolynomialRing):
            depth, level = depth + 1, level.base
        for key, c in v.items():
            assert isinstance(key, tuple) and len(key) == depth
            assert all(isinstance(e, int) and e >= 0 for e in key)
            assert c
        assert_canonical_poly(unfold(el.domain, v))
    else:
        raise AssertionError(f"unknown domain kind {el.domain!r}")


def assert_canonical_poly(p: Poly) -> None:
    """Audit what a polynomial stores: a tuple of values with no trailing
    zero, each one canonical for the polynomial's domain."""
    assert isinstance(p.values, tuple)
    if p.values:
        assert p.values[-1]
    for v in p.values:
        assert_canonical_element(Element(p.domain, v))


def monomial(domain: Domain, variable: str, coeff, e: int) -> Poly:
    """coeff * variable**e, with coeff coerced into the domain."""
    return Poly(domain, variable, [0] * e + [coeff])


def power_by_repeated_mul(f: Poly, e: int) -> Poly:
    """Oracle for __pow__: plain iterated multiplication."""
    out = Poly.constant(f.domain, f.variable, 1)
    for _ in range(e):
        out = out * f
    return out


def schoolbook_product(f: Poly, g: Poly) -> Poly:
    """Oracle for the list kernels behind Poly.__mul__: every product
    and sum of coefficients taken Element by Element.  Over a tower the
    coefficient products are Poly products one level down, so the
    tower kernels also meet SympyTower."""
    fs, gs = f.coeffs, g.coeffs  # each read builds a new tuple of Elements
    out = [f.domain.zero] * (len(fs) + len(gs))
    for i, a in enumerate(fs):
        for j, b in enumerate(gs):
            out[i + j] = out[i + j] + a * b
    return Poly(f.domain, f.variable, out)


def tower_terms(domain: Domain, values) -> dict:
    """{(i, exponents of the tower levels, outermost first): ground
    value} for the nonzero ground values under a list of raw values of
    the tower ``domain``, read off their maps with no polydecomp
    arithmetic."""
    return {(i, *key): c for i, value in enumerate(values) for key, c in value.items()}


class SympyTower:
    """SymPy's sparse polynomial ring over the ground field of a tower,
    with one generator for the list index and one per tower level,
    outermost first: a reference for the tower kernels that shares no
    arithmetic with polydecomp."""

    def __init__(self, domain: Domain):
        from sympy import GF, QQ
        from sympy.polys.rings import ring

        levels = []
        while isinstance(domain, PolynomialRing):
            levels.append(domain.variable)
            domain = domain.base
        self.p = domain.p if isinstance(domain, PrimeField) else None
        self.ring = ring(["i", *levels], QQ if self.p is None else GF(self.p))[0]

    def of(self, domain: Domain, values):
        """The list of raw values of ``domain`` as a SymPy polynomial."""
        terms = tower_terms(domain, values)
        if self.p is None:
            qq = self.ring.domain
            terms = {k: qq(v.numerator, v.denominator) for k, v in terms.items()}
        return self.ring.from_dict(terms)

    def terms(self, f) -> dict:
        """A SymPy polynomial's terms with Fraction or residue values."""
        if self.p is None:
            return {k: Fraction(int(v.numerator), int(v.denominator)) for k, v in f.items()}
        return {k: int(v) % self.p for k, v in f.items()}


def schoolbook_compose(f: Poly, g: Poly) -> Poly:
    """Oracle for Poly.compose: Horner's rule on schoolbook products."""
    out = Poly.zero(f.domain, g.variable)
    for c in reversed(f.coeffs):
        out = schoolbook_product(out, g) + Poly(f.domain, g.variable, (c,))
    return out


def evaluate(p: Poly, point: Element) -> Element:
    """Value of p at a point of its coefficient domain (Horner)."""
    acc = p.domain.zero
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc


def specialize(el: Element, values: dict) -> Element:
    """Evaluate a tower element at values for its variables.

    ``values`` maps every variable of el's tower, from the top level
    down to some level, to an element of the domain under that level,
    say a ground element lifted there: {"z": QQ[y].element(3)} takes
    QQ[y][z] to QQ[y], and values for y and z in QQ take it to QQ.
    Elements of that domain, and plain ground elements, pass through
    unchanged.
    """
    if not isinstance(el.domain, PolynomialRing):
        return el
    p = unfold(el.domain, el.value)
    try:
        point = values[p.variable]
    except KeyError:
        raise ValueError(f"no value given for variable {p.variable!r}") from None
    acc = point.domain.zero
    for c in reversed(p.coeffs):
        acc = acc * point + (c if c.domain == point.domain else specialize(c, values))
    return acc


def lift(p: Poly, domain: Domain) -> Poly:
    """Reinterpret p over a tower whose ground contains p's coefficients."""
    return Poly(domain, p.variable, tuple(domain.element(c) for c in p.coeffs))


def poly_from_json(obj: dict, domain: Domain) -> Poly:
    """Rebuild a Poly from the CLI's JSON form over a known domain tower."""
    coeffs = []
    for entry in obj["coeffs"]:
        if isinstance(entry, dict):
            if not isinstance(domain, PolynomialRing):
                raise ValueError("nested coefficient over a ground domain")
            if entry["var"] != domain.variable:
                raise ValueError(f"coefficient variable {entry['var']!r} does not match {domain}")
            coeffs.append(domain.element(poly_from_json(entry, domain.base)))
        else:
            coeffs.append(domain.element(Fraction(entry)))
    return Poly(domain, obj["var"], coeffs)


def approx_root_by_powers(p: Poly, d: int) -> Poly:
    """Oracle for approx_root: solve for each coefficient of q in turn,
    reading the obstruction off the fully expanded q**d of the partial
    root, m recomputations of q**d in all."""
    if not p.is_monic:
        raise NotMonic("approximate roots are defined for monic polynomials")
    n = p.degree
    check_outer_degree(n, d, "deg(p)")
    inv_d = p.domain.element(d).inverse()
    m = n // d
    q = monomial(p.domain, p.variable, 1, m)
    for k in range(1, m + 1):
        b = (p.coeff(n - k) - (q**d).coeff(n - k)) * inv_d
        if not b.is_zero:
            q = q + monomial(p.domain, p.variable, b, m - k)
    return q


def decompose_by_peeling(p: Poly, d: int) -> Decomposition:
    """Oracle for decompose: rebuild p - h(q) - r after every assigned
    term and move its top term to h or r, one compose per step."""
    q = approx_root_by_powers(p, d)
    domain, var = p.domain, p.variable
    m = q.degree
    h = monomial(domain, OUTER_VARIABLE, 1, d)
    r = Poly.zero(domain, var)
    while True:
        e = p - h.compose(q) - r
        if e.is_zero:
            return Decomposition(h, q, r, d)
        i = e.degree
        c = e.coeff(i)
        if i % m == 0:
            h = h + monomial(domain, OUTER_VARIABLE, c, i // m)
        else:
            r = r + monomial(domain, var, c, i)
