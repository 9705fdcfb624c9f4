"""Domain construction, canonical forms, and element arithmetic."""

import random
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydecomp import (
    DomainMismatch,
    Element,
    NotInvertible,
    Poly,
    PolynomialRing,
    PrimeField,
    Rationals,
    ground_domain,
    polynomial_tower,
)
from polydecomp.domain import _is_prime
from polydecomp.poly import descend, unfold
from polydecomp.sparse import Terms
from support import assert_canonical_element, rand_element, rand_fraction, specialize

DOMAINS = [
    Rationals(),
    PrimeField(2),
    PrimeField(5),
    PolynomialRing(Rationals(), "y"),
    polynomial_tower(PrimeField(7), ["u", "v"]),
]


def test_ring_axioms_on_random_triples():
    rng = random.Random(101)
    for domain in DOMAINS:
        zero, one = domain.zero, domain.one
        for _ in range(1000):
            a = rand_element(rng, domain)
            b = rand_element(rng, domain)
            c = rand_element(rng, domain)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            assert a - b == a + (-b)
            # a raw value is zero exactly when it is false, a tower's map
            # exactly when its Poly one level down is
            for x in (a, b, c):
                assert bool(x.value) == (Element(domain, x.value) != zero)
                if isinstance(domain, PolynomialRing):
                    assert bool(x.value) == (not unfold(domain, x.value).is_zero)


def test_arithmetic_results_stay_canonical():
    rng = random.Random(202)
    for domain in DOMAINS:
        for _ in range(150):
            a = rand_element(rng, domain)
            b = rand_element(rng, domain)
            for result in (a + b, a - b, a * b, -a):
                assert_canonical_element(result)


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_distributivity_hypothesis(x, y, z):
    d = Rationals()
    a, b, c = d.element(x), d.element(y), d.element(z)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_invert_integer():
    q = Rationals()
    assert q.element(3).inverse().value == Fraction(1, 3)
    assert q.element(-2).inverse().value == Fraction(-1, 2)
    f5 = PrimeField(5)
    for m in (1, 2, 3, 4, 6, -1):
        assert f5.element(m).inverse() * f5.element(m) == f5.one
    tower = PolynomialRing(Rationals(), "y")
    inv = tower.element(4).inverse()
    assert inv * tower.element(4) == tower.one


def test_invert_integer_failures():
    # one inverse mod p behind both, each message naming its own int
    with pytest.raises(NotInvertible, match="^0 is not invertible modulo 5$"):
        PrimeField(5).element(0).inverse()
    with pytest.raises(NotInvertible, match="^10 is not invertible modulo 5$"):
        PrimeField(5).element(Fraction(1, 10))
    with pytest.raises(NotInvertible):
        PrimeField(2).element(2).inverse()
    with pytest.raises(NotInvertible):
        Rationals().element(0).inverse()
    with pytest.raises(NotInvertible):
        polynomial_tower(PrimeField(3), ["y"]).element(3).inverse()
    # the division by d of approx_root inverts d as given
    with pytest.raises(NotInvertible, match="^10 is not invertible modulo 5$"):
        PrimeField(5)._over(10)
    with pytest.raises(NotInvertible):
        Rationals()._over(0)
    assert Rationals()._over(3)(Fraction(1, 2)) == Fraction(1, 6)


def test_element_inverse():
    q = Rationals()
    a = q.element(Fraction(-3, 7))
    assert a.inverse() * a == q.one
    f7 = PrimeField(7)
    for v in range(1, 7):
        e = f7.element(v)
        assert e.inverse() * e == f7.one
    with pytest.raises(NotInvertible):
        q.zero.inverse()
    with pytest.raises(NotInvertible, match="^0 is not invertible modulo 5$"):
        PrimeField(5).element(0).inverse()
    ring = PolynomialRing(q, "y")
    const = ring.element(5)
    assert const.inverse() * const == ring.one
    with pytest.raises(NotInvertible):
        ring.generator().inverse()


def test_domain_mismatch_is_an_error():
    a = Rationals().element(1)
    b = PrimeField(5).element(1)
    with pytest.raises(DomainMismatch):
        a + b
    with pytest.raises(DomainMismatch):
        a * b
    with pytest.raises(DomainMismatch, match="^QQ vs GF\\(5\\)$"):
        a - b
    with pytest.raises(TypeError):
        Rationals().one - 1
    r1 = PolynomialRing(Rationals(), "y").element(1)
    r2 = PolynomialRing(Rationals(), "z").element(1)
    with pytest.raises(DomainMismatch):
        r1 - r2
    # coercion refuses an element of another ground domain
    with pytest.raises(DomainMismatch, match="^GF\\(5\\) is not QQ$"):
        Rationals().element(b)
    with pytest.raises(DomainMismatch, match="^QQ is not GF\\(5\\)$"):
        PrimeField(5).element(a)
    with pytest.raises(DomainMismatch):
        PolynomialRing(Rationals(), "y").element(Poly.gen(Rationals(), "z"))


def test_prime_validation():
    for bad in (-3, 0, 1, 4, 9, 15, 2**31):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(TypeError):
        PrimeField("5")
    # largest allowed prime goes through the primality test fine
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_primality_equals_trial_division():
    def trial(n):
        return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))

    assert [n for n in range(20000) if _is_prime(n)] == [n for n in range(20000) if trial(n)]
    assert _is_prime(2**31 - 1) and trial(2**31 - 1)
    # strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5
    for n in (2047, 3277, 4033, 1373653, 25326001):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)
    # a strong pseudoprime to the bases 2, 3, 5 and 7, above 2**31
    assert not _is_prime(3215031751)


def test_residues_are_canonical():
    f5 = PrimeField(5)
    assert f5.element(7).value == 2
    assert f5.element(-1).value == 4
    assert f5.element(Fraction(1, 3)).value == 2  # 3 * 2 = 6 = 1 mod 5
    with pytest.raises(NotInvertible):
        f5.element(Fraction(1, 5))
    # anything else goes through Fraction, as over Q
    assert f5.element(Decimal("2.5")).value == 0  # 5/2
    assert f5.element(Decimal("0.5")).value == 3  # 1/2 = 3 mod 5
    assert f5.element("3").value == 3
    assert f5.element("-1/3").value == 3
    with pytest.raises(NotInvertible, match="^10 is not invertible modulo 5$"):
        f5.element(Decimal("0.1"))
    with pytest.raises(TypeError):
        f5.element(None)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Rationals().element(0.5)
    with pytest.raises(TypeError):
        PrimeField(5).element(1.0)


def test_tower_variables_must_be_distinct():
    with pytest.raises(ValueError):
        polynomial_tower(Rationals(), ["y", "y"])
    with pytest.raises(ValueError):
        PolynomialRing(PolynomialRing(Rationals(), "a"), "a")
    with pytest.raises(ValueError):
        PolynomialRing(Rationals(), "2x")
    with pytest.raises(ValueError):
        PolynomialRing(Rationals(), "")
    with pytest.raises(ValueError):
        PolynomialRing(Rationals(), "y²")
    with pytest.raises(TypeError):
        PolynomialRing(3, "y")


def test_building_a_tower_canonicalizes_nothing(monkeypatch):
    """Each level takes its zero and one from its base's values, so a
    tower of n levels costs O(n): canonicalizing 0 and 1 at every level
    would descend the whole tower below it."""
    calls = []
    canonical = PolynomialRing._canonical
    monkeypatch.setattr(PolynomialRing, "_canonical", lambda self, value: calls.append(self) or canonical(self, value))
    for ground in (Rationals(), PrimeField(7)):
        tower = polynomial_tower(ground, [f"a{k}" for k in range(1, 25)])
        assert calls == []
        assert tower.zero == tower.element(0) and tower.one == tower.element(1)
        assert_canonical_element(tower.zero)
        assert_canonical_element(tower.one)
        calls.clear()


def test_domain_equality_is_structural():
    assert Rationals() == Rationals()
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert PolynomialRing(Rationals(), "y") == PolynomialRing(Rationals(), "y")
    assert PolynomialRing(Rationals(), "y") != PolynomialRing(Rationals(), "z")
    assert polynomial_tower(Rationals(), ["a", "b"]) == polynomial_tower(Rationals(), ["a", "b"])


def test_element_equality_is_structural():
    q1, q2 = Rationals(), Rationals()
    assert q1.element(Fraction(2, 4)) == q2.element(Fraction(1, 2))
    assert q1.element(1) != q1.element(2)
    assert q1.element(1) != PrimeField(5).element(1)
    assert hash(q1.element(3)) == hash(q2.element(3))


def test_ground_helpers():
    tower = polynomial_tower(Rationals(), ["a", "b"])
    assert ground_domain(tower) == Rationals()
    # a constant descends to the ground, zero included
    assert descend(tower, tower.element(5).value) == (Rationals(), Fraction(5))
    assert descend(tower, tower.zero.value) == (Rationals(), Fraction(0))
    # a is constant in the outer level b, so the descent stops at QQ[a]
    level, value = descend(tower, tower.generator("a").value)
    assert level == tower.base
    assert unfold(level, value) == Poly.gen(Rationals(), "a")
    assert descend(tower, tower.generator("b").value)[0] == tower
    assert descend(Rationals(), Fraction(3)) == (Rationals(), Fraction(3))


def test_generator_lookup():
    tower = polynomial_tower(Rationals(), ["a", "b", "c"])
    for name in ("a", "b", "c"):
        g = tower.generator(name)
        assert g.domain == tower
        assert not g.is_zero
    with pytest.raises(ValueError):
        tower.generator("missing")


def test_generators_multiply_like_variables():
    tower = polynomial_tower(Rationals(), ["a", "b"])
    a, b = tower.generator("a"), tower.generator("b")
    point = {"a": Rationals().element(3), "b": Rationals().element(4)}
    product = a * a * b + tower.element(2)
    assert specialize(product, point) == Rationals().element(3 * 3 * 4 + 2)


def test_specialize_matches_hand_evaluation():
    rng = random.Random(303)
    tower = polynomial_tower(Rationals(), ["a", "b"])
    q = Rationals()
    for _ in range(50):
        el = rand_element(rng, tower, size=2)
        point = {"a": q.element(rand_fraction(rng)), "b": q.element(rand_fraction(rng))}
        # oracle: specialization is a ring homomorphism
        other = rand_element(rng, tower, size=2)
        assert specialize(el + other, point) == specialize(el, point) + specialize(other, point)
        assert specialize(el * other, point) == specialize(el, point) * specialize(other, point)
    with pytest.raises(ValueError):
        specialize(tower.generator("a"), {"b": q.zero})


def test_tower_element_lifting():
    tower = polynomial_tower(Rationals(), ["y", "z"])
    ground = Rationals().element(Fraction(3, 2))
    lifted = tower.element(ground)
    assert descend(tower, lifted.value) == (Rationals(), ground.value)
    assert lifted + tower.element(1) == tower.element(Fraction(5, 2))


def test_raw_tower_values_coerce_to_themselves():
    tower = polynomial_tower(Rationals(), ["y", "z"])
    y, z = tower.generator("y"), tower.generator("z")
    p = Poly(tower, "x", [y * z, tower.zero, tower.one, z + tower.element(Fraction(1, 2))])
    assert Poly(p.domain, p.variable, p.values) == p
    assert Poly(tower, "x", [tower._one]) == Poly.constant(tower, "x", 1)
    # values are canonicalized by the ground field, and zeros dropped
    gf = polynomial_tower(PrimeField(7), ["u"])
    assert gf.element(Terms({(1,): 9, (0,): 7})) == gf.element(2) * gf.generator()
    assert_canonical_element(gf.element(Terms({(1,): 9, (0,): 7})))
    # keys must be exponent tuples, one per level
    for bad in (Terms({(1,): 1}), Terms({(0, 0, 0): 1}), Terms({(0, -1): 1}), {(0, 0): 1}):
        with pytest.raises(DomainMismatch):
            Poly(tower, "x", [bad])
