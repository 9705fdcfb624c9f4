"""End-to-end acceptance checks.

Each test prints exactly one ``[criterion N] PASS`` or ``[criterion N] FAIL``
line (run pytest with -s to see them).  Every comparison is exact: the
arithmetic is rational or modular throughout, so there are no tolerances
anywhere.
"""

import io
import itertools
import random
import subprocess
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from polydecomp import (
    DegreeNotDivisible,
    InvalidOuterDegree,
    NotInvertible,
    NotMonic,
    Poly,
    PrimeField,
    Rationals,
    approx_root,
    brute_force_decompose,
    decompose,
    is_decomposable_multi,
    is_decomposable_uni,
    polynomial_tower,
    variety_equations,
    verify,
)
from polydecomp.cli import main as cli_main
from support import lift, monomial, rand_int_poly, specialize

QQ = Rationals()


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def monic_polys(field: PrimeField, degree: int):
    for tail in itertools.product(range(field.p), repeat=degree):
        yield Poly(field, "x", list(tail) + [1])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_golden_sextic_splittings():
    with criterion(1, "the degree-6 example splits exactly for d = 6, 3, 2"):
        p = Poly(QQ, "x", [1, 6, 0, 0, 0, 6, 1])
        expected = {
            6: (["-10", "30", "-45", "40", "-15", "0", "1"], ["1", "1"], []),
            3: (["65", "0", "0", "1"], ["-4", "2", "1"], ["0", "-90", "0", "40"]),
            2: (
                ["-725/4", "0", "1"],
                ["27/2", "-9/2", "3", "1"],
                ["0", "255/2", "-405/4"],
            ),
        }
        for d, (hs, qs, rs) in expected.items():
            dec = decompose(p, d)
            assert dec.h == Poly(QQ, "t", [Fraction(s) for s in hs])
            assert dec.q == Poly(QQ, "x", [Fraction(s) for s in qs])
            assert dec.r == Poly(QQ, "x", [Fraction(s) for s in rs])


def test_criterion_2_sextic_variety_equations():
    with criterion(2, "variety equations for (n, d) = (6, 2) match the back-substituted form"):
        system = variety_equations(6, 2)
        assert len(system.equations) == 2
        tower = polynomial_tower(QQ, system.indeterminates)
        a = {k: tower.generator(f"a{k}") for k in range(1, 6)}
        half = tower.element(Fraction(1, 2))
        two = tower.element(2)
        b1 = a[1] * half
        b2 = (a[2] - b1 * b1) * half
        b3 = (a[3] - two * b1 * b2) * half
        e1 = a[4] - two * b1 * b3 - b2 * b2
        e2 = a[5] - two * b2 * b3
        # full expansion: both sides are canonical forms over the same tower
        assert system.equations == (e1, e2)
        # and agreement of evaluations at 100 random rational points
        rng = random.Random(2026)
        names = system.indeterminates
        for _ in range(100):
            point = {
                name: QQ.element(Fraction(rng.randint(-30, 30), rng.randint(1, 10)))
                for name in names
            }
            for got, want in zip(system.equations, (e1, e2)):
                assert specialize(got, point) == specialize(want, point)


def test_criterion_3_reconstruction_property_suite():
    with criterion(3, "1000 random rational splittings reconstruct with the exact shape"):
        rng = random.Random(31415)
        for n in (4, 6, 8, 12):
            divisors = [d for d in range(2, n + 1) if n % d == 0]
            for _ in range(250):
                coeffs = [
                    Fraction(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(n)
                ] + [1]
                p = Poly(QQ, "x", coeffs)
                for d in divisors:
                    m = n // d
                    dec = decompose(p, d)
                    assert dec.h.compose(dec.q) + dec.r == p
                    assert dec.h.is_monic and dec.q.is_monic
                    assert dec.h.coeff(d - 1).is_zero
                    assert dec.r.degree < n - m
                    assert all(i % m for i, c in enumerate(dec.r.coeffs) if not c.is_zero)
                    assert dec.q == approx_root(p, d)
                    assert verify(p, dec).ok


def test_criterion_4_exhaustive_oracle_agreement():
    with criterion(4, "exhaustive agreement with the brute-force oracle over GF(5) and GF(3)"):
        legs = [(PrimeField(5), 4, 2), (PrimeField(3), 6, 2)]
        for field, n, d in legs:
            for p in monic_polys(field, n):
                brute = brute_force_decompose(p, d)
                algebraic = is_decomposable_uni(p, d)
                assert brute.decomposable == algebraic.decomposable
                if brute.decomposable:
                    assert brute.witness.h.compose(brute.witness.q) == p
                    assert algebraic.witness.h.compose(algebraic.witness.q) == p
                else:
                    assert not algebraic.residual.is_zero
        # d = 3 over GF(3): 3 is not invertible, so the division-based route
        # must refuse every input with the documented error while the
        # exhaustive search still classifies soundly
        f3 = PrimeField(3)
        for p in monic_polys(f3, 6):
            with pytest.raises(NotInvertible):
                is_decomposable_uni(p, 3)
            brute = brute_force_decompose(p, 3)
            if brute.decomposable:
                assert brute.witness.h.compose(brute.witness.q) == p


def test_criterion_5_root_uniqueness_and_minimality():
    with criterion(5, "the approximate square root is the unique defect-minimal quadratic"):
        f5 = PrimeField(5)
        quadratics = list(monic_polys(f5, 2))
        assert len(quadratics) == 25
        for p in monic_polys(f5, 4):
            matches = [q for q in quadratics if (p - q * q).degree < 2]
            assert len(matches) == 1
            assert matches[0] == approx_root(p, 2)


def test_criterion_6_perfect_power_round_trip():
    with criterion(6, "500 perfect d-th powers return their root exactly"):
        rng = random.Random(27182)
        domains = [QQ, PrimeField(5), PrimeField(7), polynomial_tower(QQ, ["y"])]
        for _ in range(500):
            domain = rng.choice(domains)
            d = rng.choice([2, 3])
            q = rand_int_poly(rng, domain, "x", rng.randint(1, 5), monic=True)
            assert approx_root(q**d, d) == q


def test_criterion_7_error_taxonomy_and_exit_codes():
    with criterion(7, "documented typed errors in the library and stable codes from the CLI"):
        f2 = PrimeField(2)
        p2 = Poly(f2, "x", [0, 0, 1, 0, 1])  # x^4 + x^2
        with pytest.raises(NotInvertible):
            approx_root(p2, 2)
        with pytest.raises(NotInvertible):
            is_decomposable_uni(p2, 2)
        p6 = Poly(QQ, "x", [1, 6, 0, 0, 0, 6, 1])
        with pytest.raises(DegreeNotDivisible):
            decompose(p6, 4)
        with pytest.raises(InvalidOuterDegree):
            decompose(p6, 1)
        with pytest.raises(NotMonic):
            decompose(p6 * QQ.element(3), 2)

        cli_cases = [
            (["check", "x^4+x^2", "--d", "2", "--field", "gf:2"], "NotInvertible"),
            (["decompose", "x^6+6*x^5+6*x+1", "--d", "4"], "DegreeNotDivisible"),
            (["root", "x^6+6*x^5+6*x+1", "--d", "1"], "InvalidOuterDegree"),
            (["decompose", "3*x^4+1", "--d", "2"], "NotMonic"),
            (["root", "2x", "--d", "2"], "ParseError"),
        ]
        for argv, code_name in cli_cases:
            code, _, err = run_cli(argv)
            assert code == 1
            assert err.startswith(f"error: {code_name}: ")

        code, out, _ = run_cli(["check", "x^4+2*x^2+1", "--d", "2"])
        assert code == 0 and out.splitlines()[0] == "decomposable: yes"
        code, out, _ = run_cli(["check", "x^4+x", "--d", "2"])
        assert code == 2 and out.splitlines()[0] == "decomposable: no"


def test_criterion_8_multivariate_decomposability():
    with criterion(8, "100 constructed two-variable compositions and their perturbations"):
        rng = random.Random(16180)
        tower = polynomial_tower(QQ, ["y"])
        y = tower.generator("y")
        for _ in range(100):
            d = rng.choice([2, 3])
            m = rng.choice([2, 3])
            n = d * m
            h = rand_int_poly(rng, QQ, "t", d, monic=True)
            q = rand_int_poly(rng, tower, "x", m, monic=True)
            p = lift(h, tower).compose(q)
            verdict = is_decomposable_multi(p, d)
            assert verdict.decomposable
            assert lift(verdict.witness.h, tower).compose(verdict.witness.q) == p
            # bump one remainder-slot coefficient by y: the root ignores
            # terms below x^(n - m), so the perturbation lands in r verbatim
            # and the answer flips
            j = rng.choice([j for j in range(1, n - m) if j % m])
            perturbed = p + monomial(tower, "x", y, j)
            flipped = is_decomposable_multi(perturbed, d)
            assert not flipped.decomposable
            assert not flipped.residual.is_zero
        # x^2 + y: zero remainder, but the outer part needs the constant
        # term y, which is not a constant of the ground field
        obstruction = Poly(tower, "x", [y, tower.zero, tower.one])
        verdict = is_decomposable_multi(obstruction, 2)
        assert not verdict.decomposable
        assert verdict.residual is not None and verdict.residual.is_zero
        assert verdict.witness is None


def test_cli_script_smoke():
    result = subprocess.run(
        ["polydecomp", "decompose", "x^6+6*x^5+6*x+1", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "h = t^3 + 65",
        "Q = x^2 + 2*x - 4",
        "R = 40*x^3 - 90*x",
    ]
