"""Approximate d-th root: golden values, the defining bound, and errors."""

import random
from fractions import Fraction

import pytest

from polydecomp import (
    NEG_INF,
    DegreeNotDivisible,
    InvalidOuterDegree,
    NotInvertible,
    NotMonic,
    Poly,
    PrimeField,
    Rationals,
    approx_root,
    polynomial_tower,
)
from support import rand_int_poly, rand_poly

QQ = Rationals()
P6 = Poly(QQ, "x", [1, 6, 0, 0, 0, 6, 1])


def test_golden_roots_of_p6():
    assert approx_root(P6, 6) == Poly(QQ, "x", [1, 1])
    assert approx_root(P6, 3) == Poly(QQ, "x", [-4, 2, 1])
    assert approx_root(P6, 2) == Poly(
        QQ, "x", [Fraction(27, 2), Fraction(-9, 2), 3, 1]
    )


def test_defect_degrees_of_p6():
    # exact residual degrees, computed by hand from the golden splittings
    assert (P6 - approx_root(P6, 6) ** 6).degree == 4
    assert (P6 - approx_root(P6, 3) ** 3).degree == 3
    assert (P6 - approx_root(P6, 2) ** 2).degree == 2


def test_defining_bound_holds_generically():
    rng = random.Random(59)
    for domain in (QQ, PrimeField(7)):
        for _ in range(100):
            d = rng.choice([2, 3])
            m = rng.randint(1, 3)
            p = rand_poly(rng, domain, "x", d * m, monic=True)
            q = approx_root(p, d)
            assert q.is_monic
            assert q.degree == m
            assert (p - q**d).degree < d * m - m


def test_defect_characterizes_exact_powers():
    q = Poly(QQ, "x", [2, 1])
    cube = Poly(QQ, "x", [8, 12, 6, 1])  # (x + 2)^3 expanded by hand
    assert (cube - q**3).degree is NEG_INF
    assert (cube + Poly.constant(QQ, "x", 1) - q**3).degree == 0


def test_perfect_power_round_trip():
    rng = random.Random(61)
    domains = [QQ, PrimeField(5), polynomial_tower(QQ, ["y"])]
    for _ in range(500):
        domain = rng.choice(domains)
        d = rng.choice([2, 3])
        m = rng.randint(1, 3)
        q = rand_int_poly(rng, domain, "x", m, monic=True)
        assert approx_root(q**d, d) == q


def test_deep_root_of_a_binomial_power():
    # m = 200 coefficients of the root, each read off the top of p alone
    x_plus_1 = Poly(QQ, "x", [1, 1])
    assert approx_root(x_plus_1**400, 2) == x_plus_1**200


def test_root_ignores_low_order_terms():
    # only the coefficients of x^(n-1) .. x^(n-m) ever enter the recurrence
    rng = random.Random(67)
    for _ in range(40):
        d = rng.choice([2, 3])
        m = rng.randint(2, 3)
        n = d * m
        p = rand_poly(rng, QQ, "x", n, monic=True)
        noise = rand_poly(rng, QQ, "x", rng.randint(0, n - m - 1))
        assert approx_root(p + noise, d) == approx_root(p, d)


def test_quadratic_root_formulas_over_generic_coefficients():
    # with d = 2 and symbolic a_1, a_2, a_3 the back-substitution gives
    # b_1 = a_1/2, b_2 = (a_2 - b_1^2)/2, b_3 = (a_3 - 2 b_1 b_2)/2
    tower = polynomial_tower(QQ, ["a1", "a2", "a3", "a4", "a5", "a6"])
    a = {i: tower.generator(f"a{i}") for i in range(1, 7)}
    p = Poly(tower, "x", [a[6], a[5], a[4], a[3], a[2], a[1], tower.one])
    q = approx_root(p, 2)
    half = tower.element(2).inverse()
    b1 = a[1] * half
    b2 = (a[2] - b1 * b1) * half
    b3 = (a[3] - (b1 * b2 + b1 * b2)) * half
    assert q.coeffs == (b3, b2, b1, tower.one)


def test_rejects_non_monic():
    with pytest.raises(NotMonic):
        approx_root(Poly(QQ, "x", [0, 0, 2]), 2)
    with pytest.raises(NotMonic):
        approx_root(Poly.zero(QQ, "x"), 2)


def test_rejects_bad_outer_degree():
    with pytest.raises(InvalidOuterDegree):
        approx_root(P6, 1)
    with pytest.raises(InvalidOuterDegree):
        approx_root(P6, 7)
    with pytest.raises(InvalidOuterDegree):
        approx_root(P6, 0)
    with pytest.raises(InvalidOuterDegree):
        approx_root(P6, "2")


def test_rejects_indivisible_degree():
    with pytest.raises(DegreeNotDivisible):
        approx_root(P6, 4)
    with pytest.raises(DegreeNotDivisible):
        approx_root(Poly(QQ, "x", [1, 0, 0, 1]), 2)


def test_rejects_non_invertible_d():
    p = Poly(PrimeField(3), "x", [1, 1, 0, 0, 0, 0, 1])
    with pytest.raises(NotInvertible):
        approx_root(p, 3)
    # while d = 2 stays fine over the same field
    assert approx_root(p, 2).degree == 3
