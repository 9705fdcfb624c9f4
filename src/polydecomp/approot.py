"""Approximate d-th roots of monic polynomials.

For monic P of degree n = d*m, over any domain where d is invertible,
there is exactly one monic Q of degree m with deg(P - Q**d) < n - m.
Write P = x^n + a_1*x^(n-1) + ... and Q = x^m + b_1*x^(m-1) + ... + b_m,
and let A[j][k] be the coefficient of x^(jm-k) in Q**j.  Since
Q**j = Q**(j-1) * Q,

    A[j][k] = A[j-1][k] + b_k + rest_j,
    rest_j  = b_1*A[j-1][k-1] + ... + b_(k-1)*A[j-1][1],

with A[j][0] = 1 and A[0][k] = 0 for k >= 1.  Summed over j = 1 .. d
this gives A[d][k] = d*b_k + (rest_1 + ... + rest_d), where no rest
involves b_k, so matching A[d][k] = a_k solves

    b_k = (a_k - (rest_1 + ... + rest_d)) * d^-1

one k at a time.  Only the top m + 1 coefficients of P are read, and
the table costs O(d*m^2) ring operations and no polynomial product.
Row A[1] is b itself.  While b_1 .. b_(k-1) are all nonzero, each rest
is one dot product of b[1:k] with a reversed slice of its row; from the
first zero b_i on, the rests run over the nonzero b_i only, so a sparse
Q costs O(d*m) times its number of terms.
The one division is by d (``_over``), which must be invertible; nothing
else must be, so one recurrence serves Q, GF(p) with p <= m and towers.
``root`` runs on ``_working`` values and returns Q's: over a tower maps
keyed by packed monomials, and over Q and towers over Q the values of
s^n * P(x/s), with integer ground terms, s = D*d^2 for D the lcm of
the top m + 1 ground denominators: b_k's
denominator divides D^k * d^(2k-1) (the binomial series behind Abhyankar
and Moh's approximate roots), so b_k * s^k has integer ground terms.
"""

from __future__ import annotations

from functools import reduce

from .errors import DegreeNotDivisible, InvalidOuterDegree, NotMonic
from .poly import Poly


def check_outer_degree(n: int, d, name: str) -> None:
    """Require 2 <= d <= n with d dividing n; ``name`` is how the error
    messages refer to n."""
    if not isinstance(d, int) or d < 2 or d > n:
        raise InvalidOuterDegree(f"d must satisfy 2 <= d <= {name} = {n}, got {d}")
    if n % d:
        raise DegreeNotDivisible(f"{d} does not divide {name} = {n}")


def check_root(p: Poly, d: int) -> None:
    """The requirements on p and d of approx_root and decompose."""
    if not p.is_monic:
        raise NotMonic("approximate roots are defined for monic polynomials")
    check_outer_degree(p.degree, d, "deg(p)")


def root(domain, top, d: int) -> list:
    """Q's values from those of P's top coefficients, a_k = top[m - k]."""
    add, sub, dot, over_d = domain._add, domain._sub, domain._dot, domain._over(d)
    m = len(top) - 1
    zero, one = domain._zero, domain._one
    b = [one] + [zero] * m
    nonzero = []  # the i >= 1 with b_i != 0, the only terms of a rest
    # rows[j - 1][k] = A[j][k] for j = 1 .. d - 1, A[1] being b; A[d] is never needed
    rows = [b] + [[one] + [zero] * m for _ in range(d - 2)]
    for k in range(1, m + 1):
        # rest_1 = 0, and rest_(j+1) is read off row j: by slices while
        # b_1 .. b_(k-1) are all nonzero, then at the nonzero b_i only
        if len(nonzero) == k - 1:
            rests = [dot(b[1:k], row[k - 1 : 0 : -1]) for row in rows]
        else:
            b_i = [b[i] for i in nonzero]
            rests = [dot(b_i, [row[k - i] for i in nonzero]) for row in rows]
        b[k] = below = b_k = over_d(sub(top[m - k], reduce(add, rests)))
        if b_k:
            nonzero.append(k)
        for row, rest in zip(rows[1:], rests):
            row[k] = below = add(add(below, b_k), rest)
    return b[::-1]


def approx_root(p: Poly, d: int) -> Poly:
    """The unique monic q with deg(p - q**d) < deg(p) - deg(p)//d."""
    check_root(p, d)
    m = p.degree // d
    work, top, back = p.domain._working(p.values[-m - 1 :], d, m)
    return Poly._of(p.domain, p.variable, back(root(work, top, d)))
