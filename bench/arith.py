"""Exact polynomial arithmetic for the benchmark, sharing no code with polydecomp.

Univariate polynomials are ascending coefficient lists without trailing
zeros.  Over Q the coefficients are ``int``/``Fraction`` and the modulus
is ``None``; over GF(p) they are ``int`` residues in [0, p) and the
modulus is ``p``.  Multivariate polynomials over Q (the tower workload)
are dicts from exponent tuples to nonzero coefficients, one tuple slot
per variable in a fixed order.
"""

from __future__ import annotations

from fractions import Fraction


def trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(out: list, p: int | None) -> list:
    if p:
        out = [c % p for c in out]
    return trim(out)


def add(a: list, b: list, p: int | None = None) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _reduce(out, p)


def scale(a: list, c, p: int | None = None) -> list:
    return _reduce([x * c for x in a], p)


def sub(a: list, b: list, p: int | None = None) -> list:
    return add(a, scale(b, -1, p), p)


def mul(a: list, b: list, p: int | None = None) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, p)


def power(a: list, e: int, p: int | None = None) -> list:
    out = [1]
    for _ in range(e):
        out = mul(out, a, p)
    return out


def compose(h: list, q: list, p: int | None = None) -> list:
    """h(q) by Horner's rule."""
    out: list = []
    for c in reversed(h):
        out = add(mul(out, q, p), [c], p)
    return out


def inverse(k: int, p: int | None):
    """1/k in Q or GF(p); k is a nonzero integer, and nonzero mod p."""
    return pow(k, -1, p) if p else Fraction(1, k)


def approx_root(P: list, d: int, p: int | None = None) -> list:
    """The monic Q of degree n/d with deg(P - Q^d) < n - n/d.

    Reversed, Q is the d-th root of the reversed P as a power series
    truncated after y^m, computed with J.C.P. Miller's recurrence for
    F = A^a: k f_k = sum_{j=1..k} ((a + 1) j - k) a_j f_(k-j).
    """
    n = len(P) - 1
    m = n // d
    a = [P[n - k] for k in range(m + 1)]
    alpha = inverse(d, p)
    f = [1]
    for k in range(1, m + 1):
        s = sum(((alpha + 1) * j - k) * a[j] * f[k - j] for j in range(1, k + 1))
        f.append(s * inverse(k, p) % p if p else s / k)
    return f[::-1]


def normal_form(P: list, d: int, p: int | None = None) -> tuple[list, list, list]:
    """The unique (h, Q, R) with P = h(Q) + R, h monic of degree d with no
    t^(d-1) term, deg R < n - m, and no term of R at a multiple of m."""
    q = approx_root(P, d, p)
    m = len(q) - 1
    powers = [[1]]
    for _ in range(d):
        powers.append(mul(powers[-1], q, p))
    e = sub(P, powers[d], p)
    e += [0] * (len(P) - len(e))
    h = [0] * d + [1]
    r = [0] * len(P)
    for i in range(len(e) - 1, -1, -1):
        c = e[i]
        if c == 0:
            continue
        if i % m:
            r[i] = c
            e[i] = 0
        else:
            h[i // m] = c
            for j, v in enumerate(powers[i // m]):
                e[j] = (e[j] - c * v) % p if p else e[j] - c * v
    return h, q, trim(r)


def coeff_bits(c) -> int:
    """Largest bit length of the numerator or denominator of c."""
    c = Fraction(c)
    return max(c.numerator.bit_length(), c.denominator.bit_length())


# ----------------------------------------------------------------------
# multivariate polynomials over Q: {exponent tuple: coefficient}


def madd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + sign * v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def mmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def mcompose(h: list[dict], q: dict) -> dict:
    """h(q) where h is a list of multivariate coefficients, by Horner."""
    out: dict = {}
    for c in reversed(h):
        out = madd(mmul(out, q), c)
    return out


def mconst(c, nvars: int) -> dict:
    return {(0,) * nvars: c} if c else {}


# ----------------------------------------------------------------------
# input text, in the program's grammar


def _rational_text(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _join(terms: list[tuple]) -> str:
    """terms: (coefficient, [(var, exp), ...]) in print order."""
    out = []
    for c, powers in terms:
        names = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)
        body = _rational_text(abs(c))
        if names:
            body = names if abs(c) == 1 else f"{body}*{names}"
        sign = "-" if c < 0 else "+"
        out.append(body if not out and sign == "+" else sign + body)
    return "".join(out) or "0"


def text(a: list, var: str = "x") -> str:
    """Fully expanded text of a univariate polynomial, highest term first."""
    return _join([(a[k], [(var, k)]) for k in range(len(a) - 1, -1, -1) if a[k]])


def mtext(a: dict, names: tuple[str, ...]) -> str:
    """Fully expanded text of a multivariate polynomial."""
    return _join([(a[k], list(zip(names, k))) for k in sorted(a, reverse=True)])
