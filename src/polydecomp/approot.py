"""Approximate d-th roots of monic polynomials.

For monic P of degree n = d*m, over any domain where d is invertible,
there is exactly one monic Q of degree m with deg(P - Q**d) < n - m.
The coefficient of x^(n-k) in Q**d is d*b_k plus terms involving only
b_1 .. b_(k-1), where Q = x^m + b_1*x^(m-1) + ... + b_m, so the b_k are
found one at a time by back-substitution.  No multinomial bookkeeping is
needed: each step reads the obstruction off the expanded power of the
partial root so far.
"""

from __future__ import annotations

from .errors import DegreeNotDivisible, InvalidOuterDegree, NotMonic
from .poly import Poly


def check_outer_degree(n: int, d, name: str) -> None:
    """Require 2 <= d <= n with d dividing n; ``name`` is how the error
    messages refer to n."""
    if not isinstance(d, int) or d < 2 or d > n:
        raise InvalidOuterDegree(f"d must satisfy 2 <= d <= {name} = {n}, got {d}")
    if n % d:
        raise DegreeNotDivisible(f"{d} does not divide {name} = {n}")


def approx_root(p: Poly, d: int) -> Poly:
    """The unique monic q with deg(p - q**d) < deg(p) - deg(p)//d."""
    if not p.is_monic:
        raise NotMonic("approximate roots are defined for monic polynomials")
    n = p.degree
    check_outer_degree(n, d, "deg(p)")
    inv_d = p.domain.invert_integer(d)
    m = n // d
    q = Poly.monomial(p.domain, p.variable, 1, m)
    for k in range(1, m + 1):
        # solve for the x^(m-k) coefficient: everything above x^(n-k)
        # in q**d already matches p and stays fixed from here on
        b = (p.coeff(n - k) - (q**d).coeff(n - k)) * inv_d
        if not b.is_zero:
            q = q + Poly.monomial(p.domain, p.variable, b, m - k)
    return q
