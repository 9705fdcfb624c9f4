"""Independent checker for the program's output.

It parses the CLI's JSON or text with its own code, rebuilds h(Q) + R
with ``arith`` (plain int/Fraction lists and dicts), compares the result
to the input P, checks the shape conditions of the normal form, and
compares the parts to the reference the generator computed.  Because
(h, Q, R) is unique, that is a full check.  ``check_call`` raises
``CheckError`` on any mismatch and otherwise returns the largest
numerator or denominator bit length seen in the output.
"""

from __future__ import annotations

import json
from fractions import Fraction

import arith


class CheckError(Exception):
    """The program's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


class _Bits:
    """Tracks the largest coefficient bit length while parsing."""

    def __init__(self):
        self.max = 0

    def value(self, text, p):
        _require(isinstance(text, str), f"coefficient {text!r} is not a string")
        try:
            c = int(text) if p else Fraction(text)
        except ValueError:
            raise CheckError(f"bad coefficient {text!r}") from None
        _require(not p or 0 <= c < p, f"residue {c} outside [0, {p})")
        self.max = max(self.max, arith.coeff_bits(c))
        return c


def _uni(obj, var: str, p, bits: _Bits) -> list:
    _require(isinstance(obj, dict) and set(obj) == {"var", "coeffs"}, f"bad polynomial {obj!r}")
    _require(obj["var"] == var, f"variable {obj['var']!r}, expected {var!r}")
    coeffs = [bits.value(c, p) for c in obj["coeffs"]]
    _require(not coeffs or coeffs[-1] != 0, "trailing zero coefficient")
    return coeffs


def _multi(obj, names: tuple[str, ...], bits: _Bits, acc=None) -> dict:
    """Flatten nested {"var", "coeffs"} objects into {exponents: value}."""
    acc = acc or (0,) * len(names)
    _require(isinstance(obj, dict) and set(obj) == {"var", "coeffs"}, f"bad polynomial {obj!r}")
    _require(obj["var"] in names, f"unknown variable {obj['var']!r}")
    slot = names.index(obj["var"])
    out: dict = {}
    for e, c in enumerate(obj["coeffs"]):
        k = acc[:slot] + (acc[slot] + e,) + acc[slot + 1 :]
        if isinstance(c, dict):
            out = arith.madd(out, _multi(c, names, bits, k))
        elif bits.value(c, None):
            out = arith.madd(out, {k: Fraction(c)})
    return out


def _json(out: str, keys: set) -> dict:
    try:
        obj = json.loads(out)
    except ValueError:
        raise CheckError(f"output is not JSON: {out[:80]!r}") from None
    _require(isinstance(obj, dict) and set(obj) == keys, f"keys {sorted(obj)} != {sorted(keys)}")
    return obj


def _shape(h: list, q: list, r: list, n: int, d: int) -> None:
    m = n // d
    _require(len(q) == m + 1 and q[-1] == 1, "Q is not monic of degree n/d")
    _require(len(h) == d + 1 and h[-1] == 1, "h is not monic of degree d")
    _require(h[d - 1] == 0, "h has a t^(d-1) term")
    _require(len(r) - 1 < n - m, "deg R >= n - n/d")
    _require(all(c == 0 for i, c in enumerate(r) if i % m == 0), "R has a term at a multiple of m")


def _triple(ref: dict, h: list, q: list, r: list) -> None:
    P, d, p = ref["P"], ref["d"], ref["p"]
    _shape(h, q, r, len(P) - 1, d)
    _require(arith.add(arith.compose(h, q, p), r, p) == P, "h(Q) + R != P")
    _require((h, q, r) == (ref["h"], ref["Q"], ref["R"]), "(h, Q, R) differs from the reference")


def _check_decompose(ref, rc, out, bits):
    _require(rc == 0, f"exit code {rc}, expected 0")
    obj = _json(out, {"h", "Q", "R", "d", "conditions"})
    p = ref["p"]
    _require(obj["d"] == ref["d"], f"d = {obj['d']!r}")
    conditions = obj["conditions"]
    names = {"monic", "degree_bound", "index_condition", "reconstruction"}
    _require(isinstance(conditions, dict) and set(conditions) == names, "bad conditions object")
    _require(all(v is True for v in conditions.values()), f"failed condition in {conditions}")
    h = _uni(obj["h"], "t", p, bits)
    q = _uni(obj["Q"], "x", p, bits)
    r = _uni(obj["R"], "x", p, bits)
    _triple(ref, h, q, r)


def _check_check(ref, rc, out, bits):
    obj = _json(out, {"decomposable", "h", "Q", "residual", "normalization"})
    p = ref["p"]
    expected = not ref["R"]
    _require(obj["decomposable"] is expected, f"decomposable = {obj['decomposable']!r}")
    _require(rc == (0 if expected else 2), f"exit code {rc}")
    _require(obj["normalization"] is None, "monic input was scaled")
    r = _uni(obj["residual"], "x", p, bits)
    if expected:
        _triple(ref, _uni(obj["h"], "t", p, bits), _uni(obj["Q"], "x", p, bits), r)
    else:
        _require(obj["h"] is None and obj["Q"] is None, "witness given for a negative")
        _triple(ref, ref["h"], ref["Q"], r)


def _check_root(ref, rc, out, bits):
    _require(rc == 0, f"exit code {rc}, expected 0")
    P, d, p = ref["P"], ref["d"], ref["p"]
    q = _uni(_json(out, {"var", "coeffs"}), "x", p, bits)
    n = len(P) - 1
    _require(len(q) == n // d + 1 and q[-1] == 1, "Q is not monic of degree n/d")
    defect = arith.sub(P, arith.power(q, d, p), p)
    _require(len(defect) - 1 < n - n // d, "deg(P - Q^d) >= n - n/d")
    _require(q == ref["Q"], "Q differs from the reference")


def _check_tower(ref, rc, out, bits):
    obj = _json(out, {"decomposable", "h", "Q", "residual", "normalization"})
    names, d = ref["names"], ref["d"]
    nv = len(names)
    ground = all(not any(k[1:]) for c in ref["h"] for k in c)
    expected = ground and not ref["R"]
    _require(obj["decomposable"] is expected, f"decomposable = {obj['decomposable']!r}")
    _require(rc == (0 if expected else 2), f"exit code {rc}")
    _require(obj["normalization"] is None, "monic input was scaled")
    r = _multi(obj["residual"], names, bits)
    _require(r == ref["R"], "residual differs from the reference")
    if not expected:
        _require(obj["h"] is None and obj["Q"] is None, "witness given for a negative")
        return
    h = [arith.mconst(c, nv) for c in _uni(obj["h"], "t", None, bits)]
    q = _multi(obj["Q"], names, bits)
    n = max(k[0] for k in ref["P"])
    m = n // d
    _require(q.get((m,) + (0,) * (nv - 1)) == 1, "Q is not monic in the main variable")
    _require(max(k[0] for k in q) == m and sum(k[0] == m for k in q) == 1, "deg_x Q != n/d")
    _require(len(h) == d + 1 and h[d] and not h[d - 1], "h is not monic of degree d in normal form")
    _require(arith.mcompose(h, q) == ref["P"], "h(Q) != P")
    _require((h, q) == (ref["h"], ref["Q"]), "(h, Q) differs from the reference")


def _evaluate(line: str, point: list, bits: _Bits) -> Fraction:
    """Value of one printed equation 'c*a1^2*a3 - a2 + ...' at a1..an."""
    tokens = line.split(" ")
    _require(len(tokens) % 2 == 1, f"bad equation {line[:60]!r}")
    total = Fraction(0)
    for k in range(0, len(tokens), 2):
        term = tokens[k]
        sign = 1
        if k and tokens[k - 1] == "-":
            sign = -1
        elif k:
            _require(tokens[k - 1] == "+", f"bad operator {tokens[k - 1]!r}")
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        value = Fraction(sign)
        for factor in term.split("*"):
            name, _, exp = factor.partition("^")
            if name.startswith("a"):
                index = int(name[1:])
                _require(1 <= index <= len(point), f"unknown indeterminate {name!r}")
                value *= Fraction(point[index - 1]) ** int(exp or 1)
            else:
                value *= bits.value(factor, None)
        total += value
    return total


def _check_variety(ref, rc, out, bits):
    _require(rc == 0, f"exit code {rc}, expected 0")
    lines = out.splitlines()
    for point, expected in ref["points"]:
        _require(len(lines) == len(expected), f"{len(lines)} equations, expected {len(expected)}")
        try:
            values = [_evaluate(line, point, bits) for line in lines]
        except ValueError as exc:
            raise CheckError(f"unreadable equation: {exc}") from None
        _require(values == expected, f"equations read {values} at a point expecting {expected}")


_CHECKERS = {
    "decompose": _check_decompose,
    "check": _check_check,
    "root": _check_root,
    "check-tower": _check_tower,
    "variety": _check_variety,
}


def check_call(case, rc: int, out: str) -> int:
    """Raise CheckError unless (rc, out) is the right answer to ``case``."""
    bits = _Bits()
    _CHECKERS[case.kind](case.ref, rc, out, bits)
    return bits.max


def to_json(a: list, var: str) -> dict:
    """A univariate list in the CLI's JSON schema (for the self-test)."""
    return {"var": var, "coeffs": [str(c) for c in a]}


def self_test() -> None:
    """The checker accepts a right triple and rejects one flipped coefficient."""
    from workloads import generate

    case = next(c for c in generate("check-gf", 0) if c.kind == "decompose" and c.ref["R"])
    ref = case.ref
    good = {"h": to_json(ref["h"], "t"), "Q": to_json(ref["Q"], "x"), "R": to_json(ref["R"], "x"),
            "d": ref["d"], "conditions": dict.fromkeys(
                ("monic", "degree_bound", "index_condition", "reconstruction"), True)}
    check_call(case, 0, json.dumps(good))
    for part in ("h", "Q", "R"):
        bad = json.loads(json.dumps(good))
        coeffs = bad[part]["coeffs"]
        coeffs[1] = str((int(coeffs[1]) + 1) % ref["p"])
        try:
            check_call(case, 0, json.dumps(bad))
        except CheckError:
            continue
        raise AssertionError(f"checker accepted a triple with one {part} coefficient flipped")
