"""Seeded inputs for the four benchmark workloads.

Every case is built with the benchmark's own arithmetic (``arith``); the
program only ever sees the argv strings.  Each workload has a fixed table
of shapes (command, degree, divisor, kind) and the seed draws only the
coefficients, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import arith

GF_PRIME = 1000003
GF_FIELD = f"gf:{GF_PRIME}"


@dataclass(frozen=True)
class Case:
    """One CLI call and the reference its output is checked against.

    ``kind`` selects the checker; ``ref`` holds plain int/Fraction data:
    the input P, the expected triple (h, Q, R) or root Q, the modulus
    p (None over Q) and d, or for ``variety`` the evaluation points.
    """

    argv: tuple[str, ...]
    kind: str
    ref: dict


# ----------------------------------------------------------------------
# coefficient draws


def _gf(rng: random.Random) -> int:
    return rng.randrange(GF_PRIME)


def _small_int(rng: random.Random) -> int:
    return rng.randint(-9, 9)


def _half(rng: random.Random) -> Fraction:
    # an odd numerator over 2 fixes every denominator, so coefficient
    # sizes, and with them the run time, barely depend on the seed
    return Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), 2)


def _random_gf_monic(rng: random.Random, deg: int) -> list:
    return [_gf(rng) for _ in range(deg)] + [1]


def _random_small_monic(rng: random.Random, deg: int) -> list:
    """Monic, with the lower coefficients a shuffle of -9..9 repeated: a
    fixed mix of sizes keeps the cost of the root's growing denominators
    close to the same for every seed."""
    tail = [k % 19 - 9 for k in range(deg)]
    rng.shuffle(tail)
    return tail + [1]


def _nonzero(draw, rng: random.Random):
    while True:
        c = draw(rng)
        if c:
            return c


def _monic(draw, rng: random.Random, deg: int) -> list:
    return [draw(rng) for _ in range(deg)] + [1]


def _outer(draw, rng: random.Random, d: int) -> list:
    """Random monic h of degree d in normal form (no t^(d-1) term)."""
    h = _monic(draw, rng, d)
    h[d - 1] = 0
    return h


def _remainder_slots(n: int, m: int) -> list[int]:
    """Exponents a remainder R may use: below n - m, not multiples of m."""
    return [i for i in range(1, n - m) if i % m]


def _perturbation(draw, rng: random.Random, n: int, m: int) -> list:
    r = [0] * n
    for i in rng.sample(_remainder_slots(n, m), 3):
        r[i] = _nonzero(draw, rng)
    return arith.trim(r)


# ----------------------------------------------------------------------
# univariate split: check --json and decompose --json --verify


def _split_case(rng, command, field, n, d, kind, random_monic, comp_draw):
    p = GF_PRIME if field == GF_FIELD else None
    m = n // d
    if kind == "random":
        P = random_monic(rng, n)
        h, q, r = arith.normal_form(P, d, p)
    else:
        h = _outer(comp_draw, rng, d)
        q = _monic(comp_draw, rng, m)
        r = _perturbation(comp_draw, rng, n, m) if kind == "perturbed" else []
        P = arith.add(arith.compose(h, q, p), r, p)
    argv = [command, arith.text(P), "--d", str(d), "--field", field, "--json"]
    if command == "decompose":
        argv.append("--verify")
    return Case(tuple(argv), command, {"P": P, "h": h, "Q": q, "R": r, "d": d, "p": p})


# (command, n, d, kind): about half compositions, a quarter perturbed
# compositions with known R != 0, a quarter random monic; degrees 24..96
# with both small and large divisors.  Every workload has an odd number
# of cases, so the median call falls inside one case's block of samples
# instead of between two cases.
CHECK_GF_SHAPES = [
    ("check", 24, 2, "composition"),
    ("decompose", 24, 12, "composition"),
    ("check", 36, 3, "perturbed"),
    ("decompose", 36, 6, "random"),
    ("check", 36, 9, "composition"),
    ("check", 48, 4, "composition"),
    ("decompose", 48, 2, "perturbed"),
    ("check", 48, 12, "composition"),
    ("decompose", 48, 16, "random"),
    ("check", 60, 5, "composition"),
    ("decompose", 60, 3, "composition"),
    ("check", 72, 8, "perturbed"),
    ("decompose", 72, 2, "composition"),
    ("check", 72, 24, "random"),
    ("decompose", 96, 8, "composition"),
    ("check", 96, 3, "perturbed"),
    ("decompose", 96, 32, "random"),
]

# about half random monic with small integer coefficients (roots carry
# denominators d^k), half compositions or perturbations with rational
# coefficients; smaller degrees than over GF since Fractions grow
CHECK_QQ_SHAPES = [
    ("check", 12, 2, "random"),
    ("decompose", 12, 3, "composition"),
    ("check", 18, 3, "perturbed"),
    ("decompose", 18, 6, "random"),
    ("check", 24, 4, "composition"),
    ("decompose", 24, 2, "random"),
    ("check", 24, 8, "perturbed"),
    ("decompose", 30, 5, "random"),
    ("check", 30, 3, "composition"),
    ("decompose", 36, 4, "perturbed"),
    ("check", 36, 6, "composition"),
    ("check", 36, 12, "random"),
    ("decompose", 40, 2, "composition"),
    ("check", 42, 6, "random"),
    ("decompose", 48, 4, "perturbed"),
    ("check", 48, 8, "random"),
    ("decompose", 48, 3, "composition"),
]


def _check_gf(rng):
    return [_split_case(rng, c, GF_FIELD, n, d, k, _random_gf_monic, _gf) for c, n, d, k in CHECK_GF_SHAPES]


def _check_qq(rng):
    return [
        _split_case(rng, c, "Q", n, d, k, _random_small_monic, _half)
        for c, n, d, k in CHECK_QQ_SHAPES
    ]


# ----------------------------------------------------------------------
# root-deep: root --json on P = Q^d + S with deg S < n - m

ROOT_SHAPES = [
    (GF_FIELD, 48, 2),
    (GF_FIELD, 60, 3),
    (GF_FIELD, 72, 2),
    (GF_FIELD, 90, 3),
    (GF_FIELD, 96, 2),
    (GF_FIELD, 120, 3),
    (GF_FIELD, 120, 2),
    ("Q", 24, 2),
    ("Q", 30, 3),
    ("Q", 40, 2),
    ("Q", 45, 3),
    ("Q", 54, 3),
    ("Q", 60, 2),
]


def _root_deep(rng):
    cases = []
    for field, n, d in ROOT_SHAPES:
        p = GF_PRIME if field == GF_FIELD else None
        draw = _gf if p else _small_int
        m = n // d
        q = _monic(draw, rng, m)
        s = arith.trim([draw(rng) for _ in range(n - m)])
        P = arith.add(arith.power(q, d, p), s, p)
        argv = ("root", arith.text(P), "--d", str(d), "--field", field, "--json")
        cases.append(Case(argv, "root", {"P": P, "Q": q, "d": d, "p": p}))
    return cases


# ----------------------------------------------------------------------
# tower: variety equations, and check --vars over Q[y] or Q[y][z]

VARIETY_SHAPES = [(6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5), (12, 3)]

# (variables, n, d, kind); "h-not-ground" is P = h(Q) where a coefficient
# of h involves y or z (the x^2 + y kind), so R = 0 and P is still not
# decomposable
TOWER_SHAPES = [
    (("x", "y"), 4, 2, "composition"),
    (("x", "y"), 6, 3, "composition"),
    (("x", "y", "z"), 6, 2, "composition"),
    (("x", "y", "z"), 8, 4, "composition"),
    (("x", "y"), 6, 2, "perturbed"),
    (("x", "y"), 8, 2, "perturbed"),
    (("x", "y", "z"), 6, 3, "perturbed"),
    (("x", "y"), 4, 2, "h-not-ground"),
    (("x", "y", "z"), 6, 3, "h-not-ground"),
]


def _tower_coefficient(rng, nvars: int) -> dict:
    """c0 + c1*y (+ c2*z) with random nonzero small integers, as an
    element of Q[y] or Q[y][z] with x-exponent 0; the fixed shape keeps
    the cost of a case independent of the seed."""
    return {
        (0,) + tuple(int(j == i) for j in range(nvars - 1)): _nonzero(_small_int, rng)
        for i in range(-1, nvars - 1)
    }


def _tower_check(rng, names, n, d, kind):
    nv = len(names)
    m = n // d
    q = {(m,) + (0,) * (nv - 1): 1}
    for i in range(m):
        c = _tower_coefficient(rng, nv)
        q = arith.madd(q, {(i,) + k[1:]: v for k, v in c.items()})
    h = [arith.mconst(c, nv) for c in _outer(_small_int, rng, d)]
    r: dict = {}
    if kind == "h-not-ground":
        h[0] = _tower_coefficient(rng, nv)
    elif kind == "perturbed":
        for i in rng.sample(_remainder_slots(n, m), 2):
            c = _tower_coefficient(rng, nv)
            r = arith.madd(r, {(i,) + k[1:]: v for k, v in c.items()})
    P = arith.madd(arith.mcompose(h, q), r)
    argv = ("check", arith.mtext(P, names), "--d", str(d), "--vars", ",".join(names), "--json")
    ref = {"P": P, "h": h, "Q": q, "R": r, "d": d, "names": names}
    return Case(argv, "check-tower", ref)


def _variety_point(rng, n: int, d: int) -> list[int]:
    """Coefficients a1..an of a monic d-decomposable polynomial."""
    P = arith.compose(_outer(_small_int, rng, d), _monic(_small_int, rng, n // d))
    return [P[n - k] for k in range(1, n + 1)]


def _variety(rng, n, d):
    m = n // d
    slots = [i for i in range(n - m - 1, 0, -1) if i % m]
    point = _variety_point(rng, n, d)
    # moving the x^i coefficient by c makes R = c*x^i, so the equation
    # for slot i reads c and every other one reads 0
    i = rng.choice(slots)
    c = _nonzero(_small_int, rng)
    moved = list(point)
    moved[n - i - 1] += c
    points = [(point, [0] * len(slots)), (moved, [c if s == i else 0 for s in slots])]
    argv = ("variety", "--n", str(n), "--d", str(d))
    return Case(argv, "variety", {"n": n, "d": d, "points": points})


def _tower(rng):
    cases = [_variety(rng, n, d) for n, d in VARIETY_SHAPES]
    cases += [_tower_check(rng, *shape) for shape in TOWER_SHAPES]
    return cases


WORKLOADS = {
    "check-gf": _check_gf,
    "check-qq": _check_qq,
    "root-deep": _root_deep,
    "tower": _tower,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of one pass over ``workload``; equal seeds give equal cases."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
