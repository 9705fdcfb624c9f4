"""Decomposability decisions, variety equations, and the exhaustive oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from polydecomp import (
    DegreeNotDivisible,
    Element,
    EnumerationTooLarge,
    InvalidOuterDegree,
    NotMonic,
    NotMonicInMainVar,
    Poly,
    PrimeField,
    Rationals,
    brute_force_decompose,
    decompose,
    is_decomposable_multi,
    is_decomposable_uni,
    polynomial_tower,
    variety_equations,
)
from support import lift, rand_int_poly, specialize

QQ = Rationals()
P6 = Poly(QQ, "x", [1, 6, 0, 0, 0, 6, 1])


# ---------------------------------------------------------------- univariate


def test_p6_verdicts():
    assert is_decomposable_uni(P6, 6).decomposable
    v3 = is_decomposable_uni(P6, 3)
    assert not v3.decomposable
    assert v3.witness is None
    assert v3.residual == Poly(QQ, "x", [0, -90, 0, 40])
    v2 = is_decomposable_uni(P6, 2)
    assert not v2.decomposable
    assert v2.residual == Poly(QQ, "x", [0, Fraction(255, 2), Fraction(-405, 4)])


def test_constructed_composition_recovered_exactly():
    q = Poly(QQ, "x", [1, 3, 1])
    h = Poly(QQ, "t", [0, 5, 0, 1])  # t^3 + 5t
    p = h.compose(q)
    verdict = is_decomposable_uni(p, 3)
    assert verdict.decomposable
    assert verdict.witness.h == h
    assert verdict.witness.q == q
    assert verdict.residual.is_zero
    assert verdict.normalization is None


def test_witness_composes_back():
    rng = random.Random(101)
    for domain in (QQ, PrimeField(7)):
        for _ in range(50):
            d = rng.choice([2, 3])
            m = rng.randint(1, 3)
            h = rand_int_poly(rng, domain, "t", d, monic=True)
            q = rand_int_poly(rng, domain, "x", m, monic=True)
            p = h.compose(q)
            verdict = is_decomposable_uni(p, d)
            assert verdict.decomposable
            assert verdict.witness.h.compose(verdict.witness.q) == p


def test_non_monic_input_scales_and_scales_back():
    p = P6 * QQ.element(Fraction(3, 7))
    verdict = is_decomposable_uni(p, 6)
    assert verdict.decomposable
    assert verdict.normalization == QQ.element(Fraction(3, 7))
    assert verdict.witness.q.is_monic
    assert verdict.witness.h.compose(verdict.witness.q) == p


def test_decomposability_is_scaling_invariant():
    rng = random.Random(103)
    for _ in range(40):
        d = rng.choice([2, 3])
        base = rand_int_poly(rng, QQ, "x", d * 2, monic=True)
        p = base * QQ.element(rng.randint(2, 9))  # never monic
        c = QQ.element(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert is_decomposable_uni(p, d).decomposable == is_decomposable_uni(p * c, d).decomposable


def test_uni_rejects_bad_inputs():
    with pytest.raises(NotMonic):
        is_decomposable_uni(Poly.zero(QQ, "x"), 2)
    with pytest.raises(TypeError):
        is_decomposable_uni(Poly(polynomial_tower(QQ, ["y"]), "x", [0, 0, 1]), 2)
    with pytest.raises(InvalidOuterDegree):
        is_decomposable_uni(P6, 1)
    with pytest.raises(DegreeNotDivisible):
        is_decomposable_uni(P6, 5)


# -------------------------------------------------------------- multivariate


def test_multi_positive_with_parameter_in_inner():
    tower = polynomial_tower(QQ, ["y"])
    y = tower.generator("y")
    q = Poly(tower, "x", [tower.one, y, tower.one])  # x^2 + y*x + 1
    p = q * q + Poly.constant(tower, "x", 3)
    verdict = is_decomposable_multi(p, 2)
    assert verdict.decomposable
    assert verdict.witness.q == q
    assert verdict.witness.h == Poly(QQ, "t", [3, 0, 1])
    assert verdict.witness.h.domain == QQ  # projected down to the ground field


def test_multi_rejects_outer_with_parameters():
    # x^2 + y splits as h(q) only with h = t^2 + y, which is not allowed
    tower = polynomial_tower(QQ, ["y"])
    p = Poly(tower, "x", [tower.generator("y"), tower.zero, tower.one])
    verdict = is_decomposable_multi(p, 2)
    assert not verdict.decomposable
    assert verdict.residual is not None and verdict.residual.is_zero
    assert verdict.witness is None


def test_multi_remainder_obstruction():
    tower = polynomial_tower(QQ, ["y"])
    y = tower.generator("y")
    q = Poly(tower, "x", [tower.zero, y, tower.one])
    p = q * q + Poly(tower, "x", [tower.zero, tower.one])  # + x
    verdict = is_decomposable_multi(p, 2)
    assert not verdict.decomposable
    assert not verdict.residual.is_zero


def test_multi_witness_recomposes_after_lift():
    rng = random.Random(107)
    tower = polynomial_tower(QQ, ["y"])
    for _ in range(30):
        d = rng.choice([2, 3])
        h = rand_int_poly(rng, QQ, "t", d, monic=True)
        q = rand_int_poly(rng, tower, "x", rng.randint(1, 2), monic=True)
        p = lift(h, tower).compose(q)
        verdict = is_decomposable_multi(p, d)
        assert verdict.decomposable
        assert lift(verdict.witness.h, tower).compose(verdict.witness.q) == p


def test_multi_requires_monic_in_main_variable():
    tower = polynomial_tower(QQ, ["y"])
    p = Poly(tower, "x", [tower.one, tower.zero, tower.generator("y")])
    with pytest.raises(NotMonicInMainVar):
        is_decomposable_multi(p, 2)


def test_multi_two_parameter_tower():
    tower = polynomial_tower(QQ, ["y", "z"])
    y, z = tower.generator("y"), tower.generator("z")
    q = Poly(tower, "x", [y * z, y + z, tower.one])
    h = Poly(QQ, "t", [-2, 0, 1])
    p = lift(h, tower).compose(q)
    verdict = is_decomposable_multi(p, 2)
    assert verdict.decomposable
    assert verdict.witness.h == h
    assert verdict.witness.q == q


# ------------------------------------------------------------------- variety


def test_variety_equation_counts():
    # slots are the i in (0, n - m) skipped by multiples of m
    assert len(variety_equations(8, 2).equations) == 3  # i in {1, 2, 3}
    assert len(variety_equations(8, 4).equations) == 3  # i in {1, 3, 5}
    assert len(variety_equations(6, 3).equations) == 2  # i in {1, 3}
    assert len(variety_equations(6, 2).equations) == 2  # i in {1, 2}
    assert len(variety_equations(4, 2).equations) == 1
    for n in (2, 3, 4, 6):
        assert variety_equations(n, n).equations == ()


def test_variety_quartic_equation():
    system = variety_equations(4, 2)
    assert system.indeterminates == ("a1", "a2", "a3", "a4")
    (eq,) = system.equations
    tower = polynomial_tower(QQ, system.indeterminates)
    a1 = tower.generator("a1")
    a2 = tower.generator("a2")
    a3 = tower.generator("a3")
    half = QQ.element(Fraction(1, 2))
    eighth = QQ.element(Fraction(1, 8))
    expected = a3 - a1 * a2 * tower.element(half.value) + a1 * a1 * a1 * tower.element(
        eighth.value
    )
    assert eq == expected


def test_variety_sextic_equations():
    system = variety_equations(6, 2)
    tower = polynomial_tower(QQ, system.indeterminates)
    a = {k: tower.generator(f"a{k}") for k in range(1, 6)}

    def scale(fr, el):
        return el * tower.element(Fraction(fr))

    e1 = (
        a[4]
        - scale("1/2", a[1] * a[3])
        - scale("1/4", a[2] * a[2])
        + scale("3/8", a[1] * a[1] * a[2])
        - scale("5/64", a[1] * a[1] * a[1] * a[1])
    )
    e2 = (
        a[5]
        - scale("1/2", a[2] * a[3])
        + scale("1/8", a[1] * a[1] * a[3])
        + scale("1/4", a[1] * a[2] * a[2])
        - scale("1/8", a[1] * a[1] * a[1] * a[2])
        + scale("1/64", a[1] * a[1] * a[1] * a[1] * a[1])
    )
    assert system.equations == (e1, e2)


def coefficient_point(p, n):
    return {f"a{k}": p.coeff(n - k) for k in range(1, n + 1)}


def test_variety_equations_vanish_on_compositions():
    # soundness: 200 constructed compositions, every equation evaluates to 0
    rng = random.Random(109)
    cases = [(4, 2), (6, 2), (6, 3)]
    systems = {pair: variety_equations(*pair) for pair in cases}
    for i in range(200):
        n, d = cases[i % len(cases)]
        h = rand_int_poly(rng, QQ, "t", d, monic=True)
        q = rand_int_poly(rng, QQ, "x", n // d, monic=True)
        p = h.compose(q)
        values = coefficient_point(p, n)
        assert all(specialize(eq, values).is_zero for eq in systems[(n, d)].equations)


def test_variety_equations_detect_non_compositions():
    # completeness at samples: 200 polynomials with nonzero remainder,
    # some equation must evaluate to a nonzero value
    rng = random.Random(111)
    system = variety_equations(6, 2)
    seen = 0
    while seen < 200:
        p = rand_int_poly(rng, QQ, "x", 6, monic=True)
        if decompose(p, 2).r.is_zero:
            continue
        seen += 1
        values = coefficient_point(p, 6)
        assert any(not specialize(eq, values).is_zero for eq in system.equations)


def test_variety_builds_elements_only_for_its_equations(monkeypatch):
    """The generic polynomial, the tower and the decomposition all run
    on raw values: the only Elements are the equations handed out."""
    built = []
    original = Element.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Element, "__init__", counted)
    system = variety_equations(12, 3)
    monkeypatch.undo()
    assert len(system.equations) == 6
    assert len(built) <= len(system.equations)


def test_variety_rejects_bad_parameters():
    with pytest.raises(DegreeNotDivisible):
        variety_equations(6, 4)
    with pytest.raises(InvalidOuterDegree):
        variety_equations(6, 1)
    with pytest.raises(InvalidOuterDegree):
        variety_equations(6, 7)


# --------------------------------------------------------------- brute force


def test_brute_force_agrees_with_algebraic_route():
    f3 = PrimeField(3)
    for coeffs in itertools.product(range(3), repeat=4):
        p = Poly(f3, "x", list(coeffs) + [1])
        brute = brute_force_decompose(p, 2)
        algebraic = is_decomposable_uni(p, 2)
        assert brute.decomposable == algebraic.decomposable
        if brute.decomposable:
            assert brute.witness.h.compose(brute.witness.q) == p


def test_brute_force_positive_is_sound():
    f5 = PrimeField(5)
    q = Poly(f5, "x", [2, 1])
    h = Poly(f5, "t", [1, 4, 0, 1])
    p = h.compose(q)
    verdict = brute_force_decompose(p, 3)
    assert verdict.decomposable
    assert verdict.witness.h.compose(verdict.witness.q) == p
    assert verdict.residual.is_zero


def test_brute_force_negative_reports_no_residual():
    f3 = PrimeField(3)
    p = Poly(f3, "x", [0, 1, 0, 0, 1])  # x^4 + x
    verdict = brute_force_decompose(p, 2)
    assert not verdict.decomposable
    assert verdict.residual is None
    assert verdict.witness is None


def test_brute_force_first_witness_is_deterministic():
    f3 = PrimeField(3)
    p = Poly(f3, "x", [1, 0, 2, 0, 1])  # (x^2 + 1)^2
    v1 = brute_force_decompose(p, 2)
    v2 = brute_force_decompose(p, 2)
    assert v1 == v2
    # ascending enumeration with constant coefficient most significant
    # lands on q = x^2 before q = x^2 + 1
    assert v1.witness.q == Poly(f3, "x", [0, 0, 1])
    assert v1.witness.h == Poly(f3, "t", [1, 2, 1])


def test_brute_force_size_guard():
    f101 = PrimeField(101)
    p = Poly(f101, "x", [1, 0, 0, 0, 1])
    with pytest.raises(EnumerationTooLarge):
        brute_force_decompose(p, 2)  # 101**4 > 10**6
    f11 = PrimeField(11)
    p11 = Poly(f11, "x", [1, 0, 0, 0, 1])
    with pytest.raises(EnumerationTooLarge):
        brute_force_decompose(p11, 2, limit=100)


def test_brute_force_rejects_bad_inputs():
    with pytest.raises(TypeError):
        brute_force_decompose(Poly(QQ, "x", [1, 0, 1]), 2)
    f3 = PrimeField(3)
    with pytest.raises(NotMonic):
        brute_force_decompose(Poly(f3, "x", [1, 0, 2]), 2)
    with pytest.raises(DegreeNotDivisible):
        brute_force_decompose(Poly(f3, "x", [1, 0, 0, 1]), 2)
    with pytest.raises(InvalidOuterDegree):
        brute_force_decompose(Poly(f3, "x", [1, 0, 1]), 3)
