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
from support import approx_root_by_powers, rand_element, rand_int_poly, rand_poly

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


def test_root_switches_from_slices_to_gathers_at_the_first_zero():
    """Q with exactly one zero b_j, j in {1, m // 2, m}, and every other
    b_i nonzero: the rests are read by slices up to b_j and at the
    nonzero b_i after it.  Over QQ, GF(1000003), GF(3) with p <= m and
    QQ[y], the root of Q**d plus low terms is Q and the oracle's."""
    rng = random.Random(71)
    cases = [
        (QQ, (2, 3), 8),
        (PrimeField(1000003), (2, 3), 12),
        (PrimeField(3), (2,), 7),
        (polynomial_tower(QQ, ["y"]), (2, 3), 5),
    ]
    for domain, ds, m in cases:
        for d, j in ((d, j) for d in ds for j in (1, m // 2, m)):
            coeffs = []
            while len(coeffs) < m:
                c = rand_element(rng, domain)
                coeffs += [] if c.is_zero else [c]
            coeffs[m - j] = domain.zero  # b_j is the x^(m - j) coefficient
            q = Poly(domain, "x", coeffs + [domain.one])
            p = q**d + rand_poly(rng, domain, "x", rng.randint(0, (d - 1) * m - 1))
            assert approx_root(p, d) == approx_root_by_powers(p, d) == q


def test_sparse_root_reads_only_the_nonzero_terms(monkeypatch):
    """Q = x^m + c*x^(m-1) + 1 over GF(1000003), m = 200, d = 3: after the
    first zero b_i the rests run over the nonzero b_i only, so the table
    hands _dot at most (d - 1) * m pairs per nonzero b_i, not O(d*m^2)."""
    field, m, d = PrimeField(1000003), 200, 3
    q = Poly(field, "x", [1] + [0] * (m - 2) + [5, 1])
    pairs, dot = [], field._dot
    monkeypatch.setattr(field, "_dot", lambda xs, ys: pairs.append(len(xs)) or dot(xs, ys))
    assert approx_root(q**d, d) == q
    assert sum(pairs) <= (d - 1) * m * 2


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
