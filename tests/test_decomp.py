"""Decomposition p = h(q) + r: golden triples, uniqueness, verification."""

import random
from fractions import Fraction

import pytest

from polydecomp import (
    ConditionReport,
    Decomposition,
    DegreeNotDivisible,
    NotMonic,
    Poly,
    PrimeField,
    Rationals,
    approx_root,
    decompose,
    polynomial_tower,
    verify,
)
from support import monomial, rand_int_poly, rand_poly

QQ = Rationals()
P6 = Poly(QQ, "x", [1, 6, 0, 0, 0, 6, 1])


def frac_poly(domain, var, strings):
    return Poly(domain, var, [Fraction(s) for s in strings])


def test_golden_triple_d6():
    dec = decompose(P6, 6)
    assert dec.h == frac_poly(QQ, "t", ["-10", "30", "-45", "40", "-15", "0", "1"])
    assert dec.q == frac_poly(QQ, "x", ["1", "1"])
    assert dec.r.is_zero
    assert verify(P6, dec).ok


def test_golden_triple_d3():
    dec = decompose(P6, 3)
    assert dec.h == frac_poly(QQ, "t", ["65", "0", "0", "1"])
    assert dec.q == frac_poly(QQ, "x", ["-4", "2", "1"])
    assert dec.r == frac_poly(QQ, "x", ["0", "-90", "0", "40"])
    assert verify(P6, dec).ok


def test_golden_triple_d2():
    dec = decompose(P6, 2)
    assert dec.h == frac_poly(QQ, "t", ["-725/4", "0", "1"])
    assert dec.q == frac_poly(QQ, "x", ["27/2", "-9/2", "3", "1"])
    assert dec.r == frac_poly(QQ, "x", ["0", "255/2", "-405/4"])
    assert verify(P6, dec).ok


def test_pure_power_decomposes_cleanly():
    p = monomial(QQ, "x", 1, 4)
    dec = decompose(p, 2)
    assert dec.h == monomial(QQ, "t", 1, 2)
    assert dec.q == monomial(QQ, "x", 1, 2)
    assert dec.r.is_zero


def test_full_degree_split_has_zero_remainder():
    # with d = deg p the inner part is linear, and a linear substitution
    # absorbs every term, so r = 0 always
    rng = random.Random(71)
    for _ in range(50):
        p = rand_poly(rng, QQ, "x", rng.choice([2, 3, 4, 5]), monic=True)
        dec = decompose(p, p.degree)
        assert dec.r.is_zero
        assert verify(p, dec).ok


def test_random_triples_reconstruct_and_verify():
    rng = random.Random(73)
    domains = [QQ, PrimeField(7), polynomial_tower(QQ, ["y"])]
    for _ in range(150):
        domain = rng.choice(domains)
        d = rng.choice([2, 3])
        m = rng.randint(1, 3)
        p = rand_int_poly(rng, domain, "x", d * m, monic=True)
        dec = decompose(p, d)
        assert dec.h.compose(dec.q) + dec.r == p
        assert dec.q == approx_root(p, d)
        assert verify(p, dec).ok


def test_shape_constraints_in_detail():
    rng = random.Random(79)
    for _ in range(60):
        d = rng.choice([2, 3, 4])
        m = rng.randint(1, 2)
        p = rand_poly(rng, QQ, "x", d * m, monic=True)
        dec = decompose(p, d)
        assert dec.h.degree == d
        assert dec.h.is_monic
        assert dec.h.coeff(d - 1).is_zero
        assert dec.q.degree == m
        assert dec.r.degree < p.degree - m
        for i, c in enumerate(dec.r.coeffs):
            if not c.is_zero:
                assert i % m != 0


def test_uniqueness_by_perturbation():
    # adding y*x^j with m not dividing j and j < n - m leaves q and h
    # fixed and lands the perturbation in r exactly
    rng = random.Random(83)
    for _ in range(40):
        d = rng.choice([2, 3])
        m = rng.choice([2, 3])
        n = d * m
        h = rand_int_poly(rng, QQ, "t", d, monic=True)
        q = rand_int_poly(rng, QQ, "x", m, monic=True)
        p = h.compose(q)
        j = rng.choice([j for j in range(1, n - m) if j % m])
        y = QQ.element(Fraction(rng.randint(1, 9)))
        dec = decompose(p + monomial(QQ, "x", y, j), d)
        base = decompose(p, d)
        assert dec.q == base.q
        assert dec.h == base.h
        assert dec.r == base.r + monomial(QQ, "x", y, j)


def test_triple_is_the_only_one_of_its_shape():
    # tamper with a computed triple at positions that keep all the shape
    # constraints intact; any such variant must stop reconstructing p
    rng = random.Random(87)
    for _ in range(30):
        d = rng.choice([2, 3])
        m = rng.choice([2, 3])
        p = rand_int_poly(rng, QQ, "x", d * m, monic=True)
        dec = decompose(p, d)
        n = p.degree
        j = rng.choice([j for j in range(1, n - m) if j % m])
        r_variant = dec.r + monomial(QQ, "x", rng.randint(1, 9), j)
        assert verify(p, Decomposition(dec.h, dec.q, r_variant, d)).index_condition
        assert dec.h.compose(dec.q) + r_variant != p
        k = rng.randint(0, d - 2)  # any slot of h except the frozen top two
        h_variant = dec.h + monomial(QQ, "t", rng.randint(1, 9), k)
        assert h_variant.is_monic and h_variant.coeff(d - 1).is_zero
        assert h_variant.compose(dec.q) + dec.r != p


def test_decompose_is_deterministic():
    rng = random.Random(89)
    for _ in range(20):
        p = rand_poly(rng, QQ, "x", 6, monic=True)
        assert decompose(p, 2) == decompose(p, 2)
        assert decompose(p, 3) == decompose(p, 3)


def test_composition_round_trip_recovers_parts():
    # compositions built with the canonical shape come back verbatim
    rng = random.Random(97)
    for _ in range(60):
        d = rng.choice([2, 3])
        m = rng.randint(1, 3)
        h = rand_int_poly(rng, QQ, "t", d, monic=True)
        h = h - monomial(QQ, "t", h.coeff(d - 1), d - 1)  # kill the t^(d-1) term
        q = rand_int_poly(rng, QQ, "x", m, monic=True)
        dec = decompose(h.compose(q), d)
        assert dec.h == h
        assert dec.q == q
        assert dec.r.is_zero


def test_error_pass_through():
    with pytest.raises(NotMonic):
        decompose(Poly(QQ, "x", [1, 0, 0, 0, 2]), 2)
    with pytest.raises(DegreeNotDivisible):
        decompose(P6, 4)


def test_verify_flags_each_violation():
    p = P6
    good = decompose(p, 3)

    broken_monic = Decomposition(good.h * QQ.element(2), good.q, good.r, 3)
    report = verify(p, broken_monic)
    assert not report.monic
    assert not report.reconstruction
    assert not report.ok

    # smuggle the forbidden t^2 term into h
    h_bad = good.h + monomial(QQ, "t", 1, 2)
    report = verify(p, Decomposition(h_bad, good.q, good.r, 3))
    assert not report.degree_bound

    # r picks up a term at an exponent divisible by deg q = 2
    r_bad = good.r + monomial(QQ, "x", 1, 2)
    report = verify(p, Decomposition(good.h, good.q, r_bad, 3))
    assert not report.index_condition
    assert not report.reconstruction

    report = verify(p, Decomposition(good.h, good.q, good.r + Poly.gen(QQ, "x"), 3))
    assert report.monic and report.degree_bound and report.index_condition
    assert not report.reconstruction
    assert not report.ok


def test_verify_survives_degenerate_inner():
    p = P6
    const_q = Poly.constant(QQ, "x", 1)
    report = verify(p, Decomposition(monomial(QQ, "t", 1, 3), const_q, Poly.zero(QQ, "x"), 3))
    assert not report.degree_bound
    assert not report.index_condition
    assert not report.ok

    mismatched = Decomposition(
        monomial(PrimeField(5), "t", 1, 2),
        monomial(PrimeField(5), "x", 1, 3),
        Poly.zero(PrimeField(5), "x"),
        2,
    )
    assert not verify(p, mismatched).reconstruction

    # an h that cannot take q, or an r that cannot even be added to h(q), is reported, not raised
    good = decompose(p, 3)
    assert not verify(p, Decomposition(mismatched.h, good.q, good.r, 3)).reconstruction
    for r in (Poly.gen(QQ, "y"), Poly.gen(PrimeField(5), "x")):
        report = verify(p, Decomposition(good.h, good.q, r, 3))
        assert not report.reconstruction


def test_condition_report_ok_requires_all():
    assert ConditionReport(True, True, True, True).ok
    assert not ConditionReport(False, True, True, True).ok
    assert not ConditionReport(True, True, True, False).ok


def test_multivariate_decomposition():
    tower = polynomial_tower(QQ, ["y"])
    y = tower.generator("y")
    # p = (x^2 + y*x)^2 + 3, inner coefficients genuinely involve y
    q = Poly(tower, "x", [tower.zero, y, tower.one])
    p = q * q + Poly.constant(tower, "x", 3)
    dec = decompose(p, 2)
    assert dec.q == q
    assert dec.h == Poly(tower, "t", [3, 0, 1])
    assert dec.r.is_zero
    assert verify(p, dec).ok
