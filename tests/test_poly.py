"""Polynomial arithmetic, composition, and representation invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydecomp import (
    NEG_INF,
    DomainMismatch,
    Poly,
    PolynomialRing,
    PrimeField,
    Rationals,
    VariableMismatch,
    polynomial_tower,
)
from polydecomp.cli import parse_poly
from polydecomp.poly import descend
from support import assert_canonical_poly, evaluate, lift, power_by_repeated_mul, rand_poly

QQ = Rationals()

# the running degree-6 example and its exact splittings, ascending coeffs
P6 = Poly(QQ, "x", [1, 6, 0, 0, 0, 6, 1])
GOLDEN = {
    6: (["-10", "30", "-45", "40", "-15", "0", "1"], ["1", "1"], []),
    3: (["65", "0", "0", "1"], ["-4", "2", "1"], ["0", "-90", "0", "40"]),
    2: (["-725/4", "0", "1"], ["27/2", "-9/2", "3", "1"], ["0", "255/2", "-405/4"]),
}


def golden_parts(d):
    hs, qs, rs = GOLDEN[d]
    h = Poly(QQ, "t", [Fraction(s) for s in hs])
    q = Poly(QQ, "x", [Fraction(s) for s in qs])
    r = Poly(QQ, "x", [Fraction(s) for s in rs])
    return h, q, r


def test_golden_compositions_reconstruct_p6():
    for d in (6, 3, 2):
        h, q, r = golden_parts(d)
        assert h.compose(q) + r == P6


def test_construction_strips_leading_zeros():
    p = Poly(QQ, "x", [1, 2, 0, 0])
    assert p.coeffs == (QQ.element(1), QQ.element(2))
    assert p.degree == 1
    assert Poly(QQ, "x", [0, 0]).is_zero


def test_zero_polynomial_degree_sentinel():
    z = Poly.zero(QQ, "x")
    assert z.degree is NEG_INF
    assert NEG_INF < 0
    assert NEG_INF < -(10**9)
    assert not (NEG_INF < NEG_INF)
    assert NEG_INF <= NEG_INF
    assert 5 > NEG_INF
    assert NEG_INF + 3 is NEG_INF
    assert 3 + NEG_INF is NEG_INF


def test_degree_of_product_adds():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_poly(rng, QQ, "x", rng.randint(0, 4))
        g = rand_poly(rng, QQ, "x", rng.randint(0, 4))
        assert (f * g).degree == f.degree + g.degree
    z = Poly.zero(QQ, "x")
    f = rand_poly(rng, QQ, "x", 3)
    assert (f * z).degree is NEG_INF
    assert (z * z).degree is NEG_INF


def test_coeff_access():
    p = Poly(QQ, "x", [5, 0, 7])
    assert p.coeff(0) == QQ.element(5)
    assert p.coeff(1).is_zero
    assert p.coeff(2) == QQ.element(7)
    assert p.coeff(3).is_zero
    assert p.coeff(-1).is_zero


def test_monicity_and_leading_coefficient():
    assert P6.is_monic
    assert not Poly(QQ, "x", [1, 2]).is_monic  # leading 2
    assert not Poly.zero(QQ, "x").is_monic
    assert Poly(QQ, "x", [3, 1]).leading_coefficient == QQ.one
    with pytest.raises(ValueError):
        Poly.zero(QQ, "x").leading_coefficient
    tower = PolynomialRing(QQ, "y")
    assert Poly(tower, "x", [0, 1]).is_monic


small_coeffs = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


@given(small_coeffs, small_coeffs, small_coeffs)
def test_poly_ring_axioms_hypothesis(xs, ys, zs):
    f = Poly(QQ, "x", xs)
    g = Poly(QQ, "x", ys)
    h = Poly(QQ, "x", zs)
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Poly.zero(QQ, "x")


@given(small_coeffs, small_coeffs)
def test_gf_arithmetic_matches_rational_reduction(xs, ys):
    f5 = PrimeField(5)
    f_q = Poly(QQ, "x", xs)
    g_q = Poly(QQ, "x", ys)
    f_5 = Poly(f5, "x", xs)
    g_5 = Poly(f5, "x", ys)
    product_mod = Poly(f5, "x", [c.value.numerator for c in (f_q * g_q).coeffs])
    assert f_5 * g_5 == product_mod


def test_power_matches_repeated_multiplication():
    # Poly.__pow__ and the parser's '^' run the one repeated squaring
    rng = random.Random(23)
    for domain, field, names in (
        (QQ, QQ, ["x"]),
        (PrimeField(7), PrimeField(7), ["x"]),
        (polynomial_tower(QQ, ["y"]), QQ, ["x", "y"]),
    ):
        cases = [(rand_poly(rng, domain, "x", rng.randint(0, 3)), rng.randint(0, 6)) for _ in range(25)]
        zero, constant = Poly.zero(domain, "x"), rand_poly(rng, domain, "x", 0)
        cases += [(f, e) for f in (zero, constant) for e in (0, 1, 5)]
        for f, e in cases:
            assert f**e == power_by_repeated_mul(f, e)
            assert parse_poly(f"({f})^{e}", field, names) == f**e
    with pytest.raises(ValueError):
        P6**-1


def test_results_stay_canonical():
    rng = random.Random(37)
    tower = polynomial_tower(PrimeField(5), ["y"])
    for domain in (QQ, tower):
        for _ in range(60):
            f = rand_poly(rng, domain, "x", rng.randint(0, 4))
            g = rand_poly(rng, domain, "x", rng.randint(0, 4))
            for result in (f + g, f - g, f * g, -f, f**2):
                assert_canonical_poly(result)


def test_cancellation_shrinks_degree():
    f = Poly(QQ, "x", [1, 1])
    g = Poly(QQ, "x", [2, 1])
    assert (g - f).degree == 0
    assert (f - f).is_zero


def test_compose_identities():
    rng = random.Random(41)
    x = Poly.gen(QQ, "x")
    for _ in range(30):
        f = rand_poly(rng, QQ, "x", rng.randint(0, 4))
        assert f.compose(x) == f
        assert x.compose(f) == f


def test_compose_associates_with_composition():
    rng = random.Random(43)
    for _ in range(20):
        f = rand_poly(rng, QQ, "x", rng.randint(0, 2))
        g = rand_poly(rng, QQ, "x", rng.randint(0, 2))
        h = rand_poly(rng, QQ, "x", rng.randint(0, 2))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_compose_crosses_variables():
    h = Poly(QQ, "t", [65, 0, 0, 1])
    q = Poly(QQ, "x", [-4, 2, 1])
    result = h.compose(q)
    assert result.variable == "x"
    # (x^2+2x-4)^3 + 65 expanded by iterated multiplication
    assert result == power_by_repeated_mul(q, 3) + Poly.constant(QQ, "x", 65)


def test_compose_constant_outer():
    c = Poly.constant(QQ, "t", Fraction(7, 2))
    q = Poly(QQ, "x", [1, 1, 1])
    assert c.compose(q) == Poly.constant(QQ, "x", Fraction(7, 2))
    assert Poly.zero(QQ, "t").compose(q) == Poly.zero(QQ, "x")
    # a zero inner Q, denominators that share primes (1/6 and 1/4), a
    # zero h_k and negative values, each against the sum of h_k * Q^k
    cases = [
        ([3, -2, 1], []),
        ([Fraction(1, 6), 0, Fraction(-5, 6), 1], [Fraction(-1, 4), Fraction(3, 4), 1]),
        ([-7, 0, 0, Fraction(1, 6)], [0, Fraction(1, 4), Fraction(-1, 2)]),
        ([0, Fraction(-1, 6)], [Fraction(1, 4)]),
        ([Fraction(-1, 6), 0], [Fraction(5, 4), -1]),
    ]
    for field in (QQ, PrimeField(5)):
        for hs, qs in cases:
            h, q = Poly(field, "t", hs), Poly(field, "x", qs)
            expected = Poly.zero(field, "x")
            for k, c in enumerate(h.coeffs):
                expected = expected + power_by_repeated_mul(q, k) * c
            assert h.compose(q) == expected, (field, hs, qs)


def test_evaluate_matches_term_sum():
    rng = random.Random(47)
    for _ in range(40):
        f = rand_poly(rng, QQ, "x", rng.randint(0, 5))
        point = QQ.element(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        total = QQ.zero
        for i, c in enumerate(f.coeffs):
            power = QQ.one
            for _ in range(i):
                power = power * point
            total = total + c * power
        assert evaluate(f, point) == total


def test_scalar_multiplication():
    c = QQ.element(Fraction(-3, 2))
    p = Poly(QQ, "x", [2, 0, 4])
    expected = Poly(QQ, "x", [Fraction(-3), 0, Fraction(-6)])
    assert p * c == expected
    assert c * p == expected
    assert (p * QQ.zero).is_zero


def test_variable_mismatch_errors():
    f = Poly.gen(QQ, "x")
    g = Poly.gen(QQ, "y")
    with pytest.raises(VariableMismatch):
        f + g
    with pytest.raises(VariableMismatch):
        f * g


def test_domain_mismatch_errors():
    f = Poly.gen(QQ, "x")
    g = Poly.gen(PrimeField(5), "x")
    with pytest.raises(DomainMismatch):
        f - g
    with pytest.raises(DomainMismatch):
        f.compose(g)
    with pytest.raises(DomainMismatch):
        f * PrimeField(5).one
    # the constructor coerces every coefficient into the Poly's domain
    with pytest.raises(DomainMismatch, match="^GF\\(5\\) is not QQ$"):
        Poly(QQ, "x", [PrimeField(5).element(3), QQ.one])
    with pytest.raises(TypeError):
        Poly(QQ, "x", [1, 0.5])


def test_variable_names_are_checked():
    """A Poly's variable obeys the tower rule, so its text re-parses."""
    qqy = polynomial_tower(QQ, ["y"])
    with pytest.raises(ValueError, match="^bad variable name ''$"):
        Poly(QQ, "", [1, 1])
    with pytest.raises(ValueError, match="^bad variable name 'x y'$"):
        Poly(QQ, "x y", [1, 1])
    with pytest.raises(ValueError, match="^variable 'y' already occurs in the tower$"):
        Poly(qqy, "y", [qqy.generator(), 1])
    with pytest.raises(ValueError, match="^variable 'y' already occurs in the tower$"):
        Poly.constant(polynomial_tower(QQ, ["y", "z"]), "y", 1)
    assert str(Poly(qqy, "x", [qqy.generator(), 1])) == "x + (y)"


def test_equality_is_structural():
    p1 = Poly(Rationals(), "x", [1, 2])
    p2 = Poly(Rationals(), "x", [Fraction(2, 2), Fraction(4, 2)])
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p1 != Poly(Rationals(), "y", [1, 2])
    assert p1 != Poly(PrimeField(5), "x", [1, 2])


def test_lift_into_tower():
    tower = polynomial_tower(QQ, ["y"])
    p = Poly(QQ, "t", [Fraction(1, 2), 0, 1])
    lifted = lift(p, tower)
    assert lifted.domain == tower
    assert lifted.degree == 2
    assert [descend(tower, c) for c in lifted.values] == [(QQ, Fraction(1, 2)), (QQ, 0), (QQ, 1)]


def test_str_round_figures():
    assert str(Poly.zero(QQ, "x")) == "0"
    assert str(Poly(QQ, "x", [Fraction(27, 2), Fraction(-9, 2), 3, 1])) == (
        "x^3 + 3*x^2 - 9/2*x + 27/2"
    )
    assert str(Poly(QQ, "x", [0, -1])) == "-x"
    assert str(Poly(QQ, "x", [-1, 1])) == "x - 1"
    assert str(Poly(PrimeField(5), "x", [2, 4, 1])) == "x^2 + 4*x + 2"
    tower = polynomial_tower(QQ, ["y"])
    p = Poly(tower, "x", (tower.element(1), tower.generator("y")))
    assert str(p) == "(y)*x + 1"
    # a -1 inside a tower coefficient, a negative ground constant coefficient
    y = tower.generator("y")
    q = Poly(tower, "x", (tower.element(Fraction(-3, 2)), -y, tower.element(-1), y * y - tower.one))
    assert str(q) == "(y^2 - 1)*x^3 - x^2 + (-y)*x - 3/2"
    gf = polynomial_tower(PrimeField(7), ["u", "v"])
    u, v = gf.generator("u"), gf.generator("v")
    r = Poly(gf, "x", (gf.element(-1), -u, v * u + gf.element(2)))
    # 6*u is constant in v: parenthesized once, at the level where u occurs
    assert str(r) == "((u)*v + 2)*x^2 + (6*u)*x + 6"
