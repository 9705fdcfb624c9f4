"""Grammar, serialization round trips, and end-to-end command behavior."""

import dataclasses
import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydecomp
from polydecomp import cli
from polydecomp import Element, Poly, PolyDecompError, PrimeField, Rationals, polynomial_tower
from polydecomp.cli import (
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_VARIETY_N,
    UsageError,
    build_parser,
    element_to_text,
    main,
    parse_poly,
    poly_to_json,
)
from polydecomp.decide import variety_equations
from polydecomp.decomp import ConditionReport, decompose
from polydecomp.errors import (
    ConstantTooLarge,
    DegreeTooLarge,
    DivisionByZeroLiteral,
    ParseError,
    UnknownVariable,
)
from polydecomp.poly import unfold
from support import poly_from_json, rand_element, rand_poly

QQ = Rationals()


# ------------------------------------------------------------------ parsing


def test_parse_golden_inputs():
    assert parse_poly("x^6+6*x^5+6*x+1", QQ, ["x"]) == Poly(
        QQ, "x", [1, 6, 0, 0, 0, 6, 1]
    )
    assert parse_poly("x^3 + 3*x^2 - 9/2*x + 27/2", QQ, ["x"]) == Poly(
        QQ, "x", [Fraction(27, 2), Fraction(-9, 2), 3, 1]
    )
    assert parse_poly("-x", QQ, ["x"]) == Poly(QQ, "x", [0, -1])
    assert parse_poly("(x+1)^2 - (x-1)^2", QQ, ["x"]) == Poly(QQ, "x", [0, 4])
    assert parse_poly("0", QQ, ["x"]).is_zero
    assert parse_poly("7/3", QQ, ["x"]) == Poly.constant(QQ, "x", Fraction(7, 3))


def test_parse_precedence_and_unary_minus():
    assert parse_poly("2*x^3", QQ, ["x"]) == Poly(QQ, "x", [0, 0, 0, 2])
    assert parse_poly("-x^2", QQ, ["x"]) == Poly(QQ, "x", [0, 0, -1])
    assert parse_poly("(-x)^2", QQ, ["x"]) == Poly(QQ, "x", [0, 0, 1])
    assert parse_poly("--x", QQ, ["x"]) == Poly.gen(QQ, "x")
    assert parse_poly("2-3*x", QQ, ["x"]) == Poly(QQ, "x", [2, -3])


def test_parse_multivariate_builds_tower():
    p = parse_poly("x^2 + y*x + 1", QQ, ["x", "y"])
    tower = polynomial_tower(QQ, ["y"])
    assert p.domain == tower
    assert p == Poly(tower, "x", [tower.one, tower.generator("y"), tower.one])
    # same text with main variable y instead
    py = parse_poly("x^2 + y*x + 1", QQ, ["x", "y"], main_var="y")
    assert py.variable == "y"
    assert py.degree == 1


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError) as info:
        parse_poly("2x", QQ, ["x"])
    assert info.value.position == 1
    with pytest.raises(ParseError):
        parse_poly("x y", QQ, ["x", "y"])


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("x +", QQ, ["x"])
    assert info.value.position == 3
    with pytest.raises(ParseError) as info:
        parse_poly("x + $", QQ, ["x"])
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_poly("(x + 1", QQ, ["x"])
    assert info.value.position == 6
    with pytest.raises(ParseError):
        parse_poly("x^x", QQ, ["x"])
    with pytest.raises(ParseError):
        parse_poly("", QQ, ["x"])
    with pytest.raises(ParseError):
        parse_poly("x^20000", QQ, ["x"])
    # superscript digits are not digits of the grammar
    with pytest.raises(ParseError) as info:
        parse_poly("x^²", QQ, ["x"])
    assert info.value.position == 2
    # nor letters of an identifier
    with pytest.raises(ParseError) as info:
        parse_poly("x²+1", QQ, ["x"])
    assert info.value.position == 1
    assert type(info.value) is ParseError
    # longer than the interpreter converts to int
    with pytest.raises(ParseError) as info:
        parse_poly("x + " + "1" * 5000, QQ, ["x"])
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_poly("x^" + "2" * 5000, QQ, ["x"])
    assert info.value.position == 2
    # offsets count the whitespace skipped between tokens, at every raise site
    spaced = [
        ("  3 *  w", ["x"], UnknownVariable, 7),
        ("x +\tw", ["x"], UnknownVariable, 4),
        ("x\t*\ty  *\n z", ["x", "y"], UnknownVariable, 10),
        ("(2^10000)^100  *  (2^10000)^100", ["x"], ConstantTooLarge, 15),
        ("(2^10000 + x)  ^  200", ["x"], ConstantTooLarge, 15),
        ("(x^6000)  ^  2", ["x"], DegreeTooLarge, 10),
        ("x^6000 *  x^6000", ["x"], DegreeTooLarge, 7),
        ("  x + \t 1 ) ", ["x"], ParseError, 10),
        (" x ^ \t y", ["x", "y"], ParseError, 7),
        ("\t( x + 1\n", ["x"], ParseError, 9),
        (" 1 / 0 ", ["x"], DivisionByZeroLiteral, 5),
        (" x + 1 $", ["x"], ParseError, 7),
        ("  x^ 3 + 1" + "1" * 5000, ["x"], ParseError, 9),
        # term-shaped, as pinned below
        (" 2 * w ^ 3", ["x"], UnknownVariable, 5),
        ("3\t*x\t^ 10001", ["x"], ParseError, 7),
        ("7 /\t0 *x^2", ["x"], DivisionByZeroLiteral, 4),
    ]
    for text, variables, error, position in spaced:
        with pytest.raises(ParseError) as info:
            parse_poly(text, QQ, variables)
        assert (type(info.value), info.value.position) == (error, position), text


def test_token_kinds_follow_the_token_rules():
    """The first-character kind table agrees with the token rules on every
    character of the Basic Multilingual Plane, so widening the rule for
    names (VARIABLE_NAME) cannot leave a name start classed as bad."""
    for c in map(chr, range(0x10000)):
        kind = next((k for k, rule in cli._RULES.items() if re.match(rule, c)), None)
        assert cli._KINDS.get(c) == (c if kind == "op" else kind), repr(c)
        if cli.VARIABLE_NAME.match(c):
            assert kind == "ident", repr(c)
        if cli._TOKEN.fullmatch(c) is None:
            assert c.isspace(), repr(c)


def test_parse_nesting_depth_is_bounded():
    deepest = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_poly(deepest, QQ, ["x"]) == Poly.gen(QQ, "x")
    assert parse_poly("-" * MAX_DEPTH + "x", QQ, ["x"]) == Poly.gen(QQ, "x")
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x", "(-" * 1500 + "x" + ")" * 1500):
        with pytest.raises(ParseError) as info:
            parse_poly(text, QQ, ["x"])
        assert info.value.position == MAX_DEPTH


def test_parse_degree_is_bounded():
    assert parse_poly("x^5000*x^5000", QQ, ["x"]).degree == MAX_DEGREE
    xy = ["x", "y"]
    assert list(parse_poly("(y^100)^100", QQ, xy).coeff(0).value) == [(MAX_DEGREE,)]
    # rejected from the operands' degrees, before the product is formed
    for text, variables, position in [
        ("(x^10000)^10000", ["x"], 9),
        ("(y^10000)^10000", xy, 9),
        ("x^10000*x", ["x"], 7),
        ("(x*y^5000)*(y^5001+x)", xy, 10),
        # degrees as written: neither cancellation nor a zero factor is seen
        ("(x^6000-x^6000)*x^6000", ["x"], 15),
        ("0*x^6000*x^6000", ["x"], 8),
    ]:
        with pytest.raises(DegreeTooLarge) as info:
            parse_poly(text, QQ, variables)
        assert info.value.position == position, text


def test_parse_coefficient_size_is_bounded():
    # 10^5000 has 16610 bits, its square 33220: parsed, and too long to print
    assert parse_poly("(x+10^5000)^2", QQ, ["x"]).coeff(0).value == 10**10000
    assert parse_poly("(2^10000)^100", QQ, ["x"]).coeff(0).value == 2**1000000
    # bounded from the operands, before the product or power is formed
    for text, position in [
        ("x^2+((2^10000)^10000)^10000", 14),
        ("(2^10000)^105", 9),
        ("(2^10000)^100*(2^10000)^100", 13),
        ("(x + 1/3^10000)^70", 15),
        # the terms' common denominator counts, not the largest one
        ("(1/3^5000*x + 1/2^8000)^70", 23),
    ]:
        with pytest.raises(ConstantTooLarge) as info:
            parse_poly(text, QQ, ["x"])
        assert info.value.position == position, text
    # residues stay small, so GF(p) never reaches the bound
    assert parse_poly("(2^10000)^10000", PrimeField(7), ["x"]).coeff(0).value == 2


# the error line of each monomial-shaped bad input, as the single-pass
# parser printed it
PINNED_ERROR_LINES = [
    ("3*x^", "Q", "ParseError: expected 'number', found 'end of input' (at position 4)"),
    ("3*x^y", "Q", "ParseError: expected 'number', found 'y' (at position 4)"),
    ("x^10001", "Q", "ParseError: exponent 10001 is too large (at position 2)"),
    ("2*x^6000*x^5000", "Q", "DegreeTooLarge: degree 11000 is above the bound 10000 (at position 8)"),
    ("7/5*x", "gf:5", "DivisionByZeroLiteral: denominator 5 is zero in GF(5) (at position 2)"),
    ("1/0*x", "Q", "DivisionByZeroLiteral: denominator is zero (at position 2)"),
    ("3*w", "Q", "UnknownVariable: unknown variable 'w' (at position 2)"),
    ("2x", "Q", "ParseError: unexpected 'x' (at position 1)"),
    # the one intended change: syntax is checked before any arithmetic,
    # so the unexpected 'y' wins over the ConstantTooLarge of the power,
    # which the single-pass parser reported at position 8
    ("(2^1000)^10000y", "Q", "ParseError: unexpected 'y' (at position 14)"),
    # term-shaped, as the parser printed them before a whole term c/c*v^e
    # became one token
    ("3*x^10001", "Q", "ParseError: exponent 10001 is too large (at position 4)"),
    ("2*w^3", "Q", "UnknownVariable: unknown variable 'w' (at position 2)"),
    ("7/0*x^2", "Q", "DivisionByZeroLiteral: denominator is zero (at position 2)"),
    ("7/5*x^2", "gf:5", "DivisionByZeroLiteral: denominator 5 is zero in GF(5) (at position 2)"),
    pytest.param(
        "1" * 5000 + "*x", "Q", "ParseError: literal of 5000 digits is too long (at position 0)",
        id="5000-digit-coefficient",
    ),
    pytest.param(
        "2*x^" + "2" * 5000, "Q", "ParseError: literal of 5000 digits is too long (at position 4)",
        id="5000-digit-exponent",
    ),
    ("x^2^3", "Q", "ParseError: unexpected '^' (at position 3)"),
    # the bound is checked at each '*', so also at the one inside 3*x
    (
        "3*(2^10000)^100*(2^10000)^4*2^8570*3*x", "Q",
        "ConstantTooLarge: coefficients could reach 1048577 bits, above the bound 1048576 (at position 36)",
    ),
    (
        "3*(2^10000)^100*(2^10000)^4*2^8570*-3*x", "Q",
        "ConstantTooLarge: coefficients could reach 1048577 bits, above the bound 1048576 (at position 37)",
    ),
    # a sign the grammar does not read as the operator between two terms,
    # as the parser printed them before a term token took the sign before it
    ("+x", "Q", "ParseError: unexpected '+' (at position 0)"),
    ("(+x)", "Q", "ParseError: unexpected '+' (at position 1)"),
    ("x-+x", "Q", "ParseError: unexpected '+' (at position 2)"),
    ("x*+2*x", "Q", "ParseError: unexpected '+' (at position 2)"),
    ("+ 3", "Q", "ParseError: unexpected '+' (at position 0)"),
    ("x^-3*x", "Q", "ParseError: expected 'number', found '-' (at position 2)"),
    ("7/-2*x", "Q", "ParseError: expected 'number', found '-' (at position 2)"),
    ("2*  -x^10001", "Q", "ParseError: exponent 10001 is too large (at position 7)"),
    ("x^2-1/0*x", "Q", "DivisionByZeroLiteral: denominator is zero (at position 6)"),
    pytest.param(
        "(" * MAX_DEPTH + "-3*x" + ")" * MAX_DEPTH, "Q",
        f"ParseError: nesting deeper than {MAX_DEPTH} levels (at position {MAX_DEPTH})",
        id="signed-term-too-deep",
    ),
    # monomial-shaped, as the parser printed them before a product of
    # variable powers became one token
    ("3*x*w", "Q", "UnknownVariable: unknown variable 'w' (at position 4)"),
    ("x^2*3*y", "Q", "UnknownVariable: unknown variable 'y' (at position 6)"),
    ("x*x^10001", "Q", "ParseError: exponent 10001 is too large (at position 4)"),
    ("x^6000*x^6000", "Q", "DegreeTooLarge: degree 12000 is above the bound 10000 (at position 6)"),
    ("x - 7/2*x*x^9999*x^2", "Q", "DegreeTooLarge: degree 10002 is above the bound 10000 (at position 16)"),
    ("2*x*x^2^3", "Q", "ParseError: unexpected '^' (at position 7)"),
    ("x*x^2 ^3", "Q", "ParseError: unexpected '^' (at position 6)"),
    ("x*x^", "Q", "ParseError: expected 'number', found 'end of input' (at position 4)"),
    ("x*x^*x", "Q", "ParseError: expected 'number', found '*' (at position 4)"),
    ("-x*x*(x+1)^10001", "Q", "ParseError: exponent 10001 is too large (at position 11)"),
    pytest.param(
        "(" * MAX_DEPTH + "-2*x*x" + ")" * MAX_DEPTH, "gf:5",
        f"ParseError: nesting deeper than {MAX_DEPTH} levels (at position {MAX_DEPTH})",
        id="signed-monomial-too-deep",
    ),
    pytest.param(
        "x*x*" + "2" * 5000, "Q", "ParseError: literal of 5000 digits is too long (at position 4)",
        id="5000-digit-factor",
    ),
]


@pytest.mark.parametrize("text, field, line", PINNED_ERROR_LINES)
def test_parse_error_lines_are_pinned(capsys, text, field, line):
    assert run_cli(capsys, "root", "--d", "2", "--field", field, "--", text) == (
        1, "", f"error: {line}\n"
    )


def test_syntax_is_checked_before_any_arithmetic(monkeypatch):
    products = []
    real = cli.tuple_product
    monkeypatch.setattr(cli, "tuple_product", lambda *args: products.append(args) or real(*args))
    with pytest.raises(ParseError) as info:
        parse_poly("(x+1)^3000y", PrimeField(1000003), ["x"])
    assert info.value.position == 10
    assert products == []
    # the same power, well formed, does go through product
    parse_poly("(x+1)^3", PrimeField(1000003), ["x"])
    assert products


# the fuzz alphabet with a tab and an unknown variable, and pieces at a
# term token's edges: a literal after '^' or '/', a caret after a term,
# a signed, a repeated, a rational and a constant term, signs after an
# operator, spaced or not, and products of variable powers: repeated,
# out of level order, past the degree bound, with a caret after them,
# an unknown name or a space inside
TERM_PIECES = ["3^2*x", "1 /2*x", "2*x ^3", "x^2^3", "-2*x^3", "2*x^3*3*y", "3/2*x^5", "-7/3"]
TERM_PIECES += ["+x", "- 3*x", "+ 2", "*-", "*+", "^-", "/-", "--", "+-", "-  "]
TERM_PIECES += ["x*y", "y^2*x", "x*x^3", "*z", "x^9999*x^2", "2*x*y^2*z", "x*y^2^3", "x*w", "x *y"]
TERM_PIECES += list("xyw2(+-*^/ )")
ROUTE_TEXTS = st.one_of(
    st.text("xyw0123456789+-*^()/ \t", max_size=12),
    st.lists(st.sampled_from(TERM_PIECES), min_size=1, max_size=6).map("".join),
)


def _plain_parse(text, field, names):
    """parse_poly with the grammar alone: no expanded-sum reader."""
    main, others = names[0], names[1:]
    parser = cli._Parser(text, field, [main, *reversed(others)])
    return unfold(polynomial_tower(field, [*others, main]), parser.evaluate(parser.tree()))


def _outcome(read, *args):
    """The value, or the error line's code and message with its offset."""
    try:
        return read(*args)
    except PolyDecompError as error:
        return error.code, str(error)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    ROUTE_TEXTS,
    st.sampled_from([QQ, PrimeField(5), PrimeField(2)]),
    st.sampled_from([["x"], ["x", "y"], ["y", "x"], ["x", "y", "z"], ["z", "x", "y"]]),
)
def test_term_tokens_read_as_the_plain_rules(text, field, names):
    assert _outcome(parse_poly, text, field, names) == _outcome(_plain_parse, text, field, names)


# where a term token's sign is or is not the operator between two terms
SIGN_TEXTS = ["+x", "(+x)", "x-+x", "x - -3*x", "2*-3*x", "x*+2*x", "-x^2", "x^-3*x", "7/-2*x"]
SIGN_TEXTS += ["(" * depth + "-3*x" + ")" * depth for depth in (MAX_DEPTH - 1, MAX_DEPTH)]
SIGN_TEXTS += ["x -  -3*x", "2*  -x", "-3*x*y^2", "y - 2*x*y", "x^2 - 1", "(x - 1/2)^2 + 3"]
# products of variable powers as one token: an unknown name in a later
# factor, an exponent or a degree past the bound, nesting at and past
# the bound, and a token as a product's first factor
SIGN_TEXTS += ["x*y*w", "2*x*z^2", "x - y^2*x*w", "x*y^10001", "-x^2*y^10001", "x^6000*x^6000"]
SIGN_TEXTS += ["y*x^5000*x^5000", "y^5000*x*y^5001", "-x*y*(x+1)", "x*y^2*3", "x*y*(x+1)^2 - x"]
SIGN_TEXTS += [
    "(" * depth + term + ")" * depth for depth in (MAX_DEPTH - 1, MAX_DEPTH) for term in ("x*y^2", "-2*y*x")
]
# the reader's edges: no term, zero terms (5*x is zero over GF(5)),
# terms that cancel or repeat, the degree bound met and passed, and a
# literal past the interpreter's int/str digit limit
SIGN_TEXTS += ["", "   ", "\t-x", "0", "0*x", "-0", "5*x + 1", "x - x", "x^2 + 1 - x^2", "1/2*x - 1/2*x"]
SIGN_TEXTS += ["x + x", "x^5000*x^5000", "x^5000*x^5001", "x^2 + " + "7" * 5000]


@pytest.mark.parametrize("text", SIGN_TEXTS)
def test_signed_term_tokens_read_as_the_plain_rules(text):
    for field in (QQ, PrimeField(5)):
        assert _outcome(parse_poly, text, field, ["x", "y"]) == _outcome(_plain_parse, text, field, ["x", "y"])


def test_expanded_text_is_read_in_one_pass():
    """Printed polynomials and sums of c/c*v^e*w^f terms, spaced between
    terms or not, are read as expanded sums, one token of _TERM per term."""
    rng = random.Random(131)
    cases = [
        ("-x^3+1/2*x-7", QQ, ["x"]),
        ("-2*x^3 - 3/4*x\t+ 5*x^0", PrimeField(7), ["x"]),
        ("9*x^5*y+24*x^5*y^2-9*x^5-2*y*x^2+x*y+1", QQ, ["x", "y"]),
    ]
    for field in (QQ, PrimeField(5)):
        cases += [(str(rand_poly(rng, field, "x", rng.randint(1, 8))), field, ["x"]) for _ in range(40)]
    # a printed univariate polynomial is one token per term
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            p = rand_poly(rng, field, "x", rng.randint(0, 8))
            assert len(cli._TERM.findall(str(p))) == max(1, sum(map(bool, p.values))), str(p)
            cases.append((str(p), field, ["x"]))
    # and so is expanded tower text: c*x^a*y^b*z^c terms, as the benchmark
    # writes them, and QQ[y][z] values as element_to_text prints them
    for _ in range(60):
        names = rng.choice([["x", "y"], ["x", "y", "z"], ["z", "x", "y"]])
        keys = {tuple(rng.randint(0, 5) for _ in names) for _ in range(rng.randint(1, 12))}
        terms = [(key, rng.choice([1, -1, rng.randint(-99, 99) or 7, Fraction(rng.randint(-9, 9) or 1, 4)]))
                 for key in sorted(keys, reverse=True)]
        text = _expanded(terms, names)
        assert len(cli._TERM.findall(text)) == len(terms), text
        cases.append((text, QQ, names))
    yz = polynomial_tower(QQ, ["y", "z"])
    for _ in range(60):
        text = element_to_text(rand_element(rng, yz, 4))
        assert len(cli._TERM.findall(text)) == text.count(" ") // 2 + 1, text
        cases.append((text, QQ, ["z", "y"]))
    for text, field, names in cases:
        assert cli._Parser(text, field, names).expanded() is not None, text


def test_grammar_runs_at_most_once(monkeypatch):
    """A text the reader declines, such as a printed Poly over QQ[y], runs
    pass 1 once, on the plain tokens, and an expanded sum never runs it."""
    calls = []
    tree = cli._Parser.tree
    monkeypatch.setattr(cli._Parser, "tree", lambda self: calls.append(self.text) or tree(self))
    xy = ["x", "y"]
    declined = "+".join(f"x^{i}*y*3" for i in range(1, 301))
    expanded = "+".join(f"3*x^{i}*y" for i in range(1, 301))
    assert parse_poly(declined, QQ, xy) == parse_poly(expanded, QQ, xy)
    assert calls == [declined]
    calls.clear()
    printed = str(rand_poly(random.Random(131), polynomial_tower(QQ, ["y"]), "x", 5))
    parse_poly(printed, QQ, xy)
    assert calls == [printed]
    calls.clear()
    parse_poly("9*x^5*y+24*x^5*y^2-9*x^5-2*y*x^2+x*y+1", QQ, xy)
    assert calls == []


def _expanded(terms, names):
    """Expanded text of (exponents, nonzero coefficient) terms in the
    benchmark's form: no spaces, c*x^a*y^b, unit coefficients and zero
    exponents left out."""
    out = []
    for key, c in terms:
        monomial = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, key) if e)
        body = str(abs(c))
        if monomial:
            body = monomial if abs(c) == 1 else f"{body}*{monomial}"
        out.append(body if not out and c > 0 else ("-" if c < 0 else "+") + body)
    return "".join(out)


def test_variety_text_round_trips():
    """Each printed variety equation parses back to itself, its outermost
    indeterminate as the main variable."""
    for n in range(2, 11):
        for d in range(2, n + 1):
            if n % d:
                continue
            system = variety_equations(n, d)
            names = [system.indeterminates[-1], *system.indeterminates[:-1]]
            for eq in system.equations:
                assert parse_poly(element_to_text(eq), QQ, names) == unfold(eq.domain, eq.value)


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable) as info:
        parse_poly("x + z", QQ, ["x", "y"])
    assert info.value.position == 4
    assert info.value.code == "UnknownVariable"


def test_parse_zero_denominator():
    with pytest.raises(DivisionByZeroLiteral):
        parse_poly("1/0", QQ, ["x"])
    # 5 is a unit-free denominator mod 5: same error, different route
    with pytest.raises(DivisionByZeroLiteral):
        parse_poly("1/5", PrimeField(5), ["x"])
    with pytest.raises(DivisionByZeroLiteral):
        parse_poly("x + 3/10", PrimeField(5), ["x"])


def test_parse_rational_literals_reduce_in_prime_fields():
    f5 = PrimeField(5)
    assert parse_poly("1/3", f5, ["x"]) == Poly.constant(f5, "x", 2)  # 3*2 = 6 = 1
    assert parse_poly("7", f5, ["x"]) == Poly.constant(f5, "x", 2)
    assert parse_poly("-1", f5, ["x"]) == Poly.constant(f5, "x", 4)


def test_parse_builds_one_fraction_per_literal(monkeypatch):
    """Over QQ each literal, rational or integer, in an expanded sum or read
    by the grammar, becomes one Fraction, and a bare variable power none:
    the canonical form of a Fraction is that Fraction, not a copy."""
    made = []
    original = Fraction.__new__

    def counted(*args, **kwargs):
        made.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    xy = ["x", "y"]
    p = parse_poly("3/4*x^5 - 1/6*x^3 + 5/2*y*x + 2/3 + 8*y + x^4", QQ, xy)  # read as an expanded sum
    assert len(made) == 5
    made.clear()
    q = parse_poly("(7/9)*x^2 + 2/3", QQ, xy)  # read by the grammar
    assert len(made) == 2
    assert p == parse_poly("x^4 + 3/4*x^5 + 2/3 - 1/6*x^3 + 5/2*y*x + 8*y", QQ, xy)
    assert q == parse_poly("2/3 + 7/9*x^2", QQ, xy)


def test_parse_division_only_in_literals():
    with pytest.raises(ParseError):
        parse_poly("x/2", QQ, ["x"])
    with pytest.raises(ParseError):
        parse_poly("1/x", QQ, ["x"])
    with pytest.raises(ParseError):
        parse_poly("(1+1)/2", QQ, ["x"])


def test_parse_poly_validates_variable_lists():
    with pytest.raises(ValueError):
        parse_poly("x", QQ, [])
    with pytest.raises(ValueError):
        parse_poly("x", QQ, ["x", "x"])
    with pytest.raises(ValueError):
        parse_poly("x", QQ, ["x"], main_var="y")
    with pytest.raises(ValueError, match="^bad variable name 'y²'$"):
        parse_poly("x", QQ, ["x", "y²"])
    with pytest.raises(ValueError):
        parse_poly("x", QQ, ["é"])


# ----------------------------------------------------------- serialization


def test_text_round_trips():
    rng = random.Random(113)
    for field in (QQ, PrimeField(5), PrimeField(2)):
        for _ in range(1000):
            p = rand_poly(rng, field, "x", rng.randint(0, 6))
            assert parse_poly(str(p), field, ["x"]) == p


def test_text_round_trips_bivariate():
    rng = random.Random(127)
    tower = polynomial_tower(QQ, ["y"])
    for _ in range(200):
        p = rand_poly(rng, tower, "x", rng.randint(0, 4))
        assert parse_poly(str(p), QQ, ["x", "y"]) == p


def test_json_schema_shape():
    p = Poly(QQ, "x", [Fraction(1, 2), 0, 1])
    obj = poly_to_json(p)
    assert obj == {"var": "x", "coeffs": ["1/2", "0", "1"]}
    tower = polynomial_tower(QQ, ["y"])
    q = Poly(tower, "x", [tower.generator("y"), tower.one])
    nested = poly_to_json(q)
    assert nested["var"] == "x"
    assert nested["coeffs"][0] == {"var": "y", "coeffs": ["0", "1"]}
    assert nested["coeffs"][1] == {"var": "y", "coeffs": ["1"]}


def test_json_round_trips():
    rng = random.Random(131)
    tower = polynomial_tower(QQ, ["y"])
    for domain in (QQ, PrimeField(7), tower):
        for _ in range(200):
            p = rand_poly(rng, domain, "x", rng.randint(0, 5))
            through = json.loads(json.dumps(poly_to_json(p)))
            assert poly_from_json(through, domain) == p


def test_json_round_trip_rejects_wrong_tower():
    tower = polynomial_tower(QQ, ["y"])
    p = Poly(tower, "x", [tower.generator("y")])
    obj = poly_to_json(p)
    with pytest.raises(ValueError):
        poly_from_json(obj, QQ)
    wrong = polynomial_tower(QQ, ["z"])
    with pytest.raises(ValueError):
        poly_from_json(obj, wrong)


def test_element_to_text_flattens_towers():
    tower = polynomial_tower(QQ, ["a1", "a2", "a3"])
    a1 = tower.generator("a1")
    a2 = tower.generator("a2")
    a3 = tower.generator("a3")
    half = tower.element(Fraction(1, 2))
    eighth = tower.element(Fraction(1, 8))
    expr = a3 - a1 * a2 * half + a1 * a1 * a1 * eighth
    assert element_to_text(expr) == "a3 - 1/2*a1*a2 + 1/8*a1^3"
    assert element_to_text(tower.zero) == "0"
    assert element_to_text(tower.element(Fraction(-3, 4))) == "-3/4"
    assert element_to_text(-a1) == "-a1"
    assert element_to_text(a2 * a3 - a1 + tower.element(Fraction(-5, 3))) == "a2*a3 - a1 - 5/3"
    gf = polynomial_tower(PrimeField(7), ["u", "v"])
    u, v = gf.generator("u"), gf.generator("v")
    assert element_to_text(u * v * gf.element(3) - u - gf.one) == "3*u*v + 6*u + 6"


def test_renderers_build_no_element(monkeypatch):
    """Text and JSON output read the raw values: printing a QQ[y][z]
    polynomial, a GF(7) one and a tower element wraps no coefficient
    into an Element."""
    tower = polynomial_tower(QQ, ["y", "z"])
    y, z = tower.generator("y"), tower.generator("z")
    el = y * y * z - z - tower.element(Fraction(3, 2))
    polys = [
        Poly(tower, "x", [el, tower.zero, -y, tower.element(-1), tower.one]),
        Poly(PrimeField(7), "x", [3, 0, -1, 1]),
    ]
    built = []
    original = Element.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Element, "__init__", counted)
    texts = [str(p) for p in polys]
    objs = [poly_to_json(p) for p in polys]
    flat = element_to_text(el)
    monkeypatch.undo()
    assert built == []
    assert texts == [
        "x^4 - x^3 + (-y)*x^2 + ((y^2 - 1)*z - 3/2)",
        "x^3 + 6*x^2 + 3",
    ]
    assert objs[1] == {"var": "x", "coeffs": ["3", "0", "6", "1"]}
    assert objs[0]["coeffs"][3] == {"var": "z", "coeffs": [{"var": "y", "coeffs": ["-1"]}]}
    assert flat == "y^2*z - z - 3/2"


# ------------------------------------------------------------ CLI commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_root(capsys):
    code, out, err = run_cli(capsys, "root", "x^6+6*x^5+6*x+1", "--d", "2")
    assert code == 0
    assert out == "Q = x^3 + 3*x^2 - 9/2*x + 27/2\n"
    assert err == ""


def test_cli_root_json(capsys):
    code, out, _ = run_cli(capsys, "root", "x^6+6*x^5+6*x+1", "--d", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"var": "x", "coeffs": ["-4", "2", "1"]}


def test_cli_not_invertible_names_d_as_given(capsys):
    # d = 4 is 0 mod 2, so a message from d mod p would read "0"
    code, out, err = run_cli(capsys, "root", "x^4+x", "--d", "4", "--field", "gf:2")
    assert (code, out, err) == (1, "", "error: NotInvertible: 4 is not invertible modulo 2\n")


def test_cli_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "x^6+6*x^5+6*x+1", "--d", "3")
    assert code == 0
    assert out.splitlines() == [
        "h = t^3 + 65",
        "Q = x^2 + 2*x - 4",
        "R = 40*x^3 - 90*x",
    ]


def test_cli_decompose_verify(capsys):
    code, out, _ = run_cli(capsys, "decompose", "x^6+6*x^5+6*x+1", "--d", "2", "--verify")
    assert code == 0
    assert out.splitlines()[3:] == [
        "monic: pass",
        "degree_bound: pass",
        "index_condition: pass",
        "reconstruction: pass",
    ]


def test_cli_decompose_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "x^6+6*x^5+6*x+1", "--d", "6", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 6
    assert obj["Q"] == {"var": "x", "coeffs": ["1", "1"]}
    assert obj["h"]["var"] == "t"
    assert obj["h"]["coeffs"] == ["-10", "30", "-45", "40", "-15", "0", "1"]
    assert obj["R"] == {"var": "x", "coeffs": []}
    assert obj["conditions"] == {
        "monic": True,
        "degree_bound": True,
        "index_condition": True,
        "reconstruction": True,
    }
    order = ["monic", "degree_bound", "index_condition", "reconstruction"]
    assert list(obj["conditions"]) == order
    assert [f.name for f in dataclasses.fields(ConditionReport)] == order


def test_cli_decompose_outer_variable_avoids_the_tower(capsys):
    """h's variable is t unless the coefficients use t, and then the
    first of t1, t2, ... that they do not, so the text of h re-parses."""
    text = "x^4 + t*x^2 + 1"
    code, out, _ = run_cli(capsys, "decompose", text, "--d", "2", "--vars", "x,t")
    assert code == 0
    assert out.splitlines() == ["h = t1^2 + (-1/4*t^2 + 1)", "Q = x^2 + (1/2*t)", "R = 0"]
    h = decompose(parse_poly(text, QQ, ["x", "t"]), 2).h
    assert parse_poly(out.splitlines()[0][4:], QQ, ["t1", "t"]) == h
    code, out, _ = run_cli(capsys, "decompose", text, "--d", "2", "--vars", "x,t,t1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["h"]["var"] == "t2"
    assert obj["conditions"]["reconstruction"] is True
    # no t in the tower: t as before
    code, out, _ = run_cli(capsys, "decompose", "x^4 + y*x^2 + 1", "--d", "2", "--vars", "x,y")
    assert out.splitlines()[0] == "h = t^2 + (-1/4*y^2 + 1)"


def test_cli_check_yes(capsys):
    code, out, _ = run_cli(capsys, "check", "x^6+6*x^5+6*x+1", "--d", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "decomposable: yes"
    assert "h = " in lines[1]
    assert "Q = x + 1" in lines[2]


def test_cli_check_no_exit_2(capsys):
    code, out, _ = run_cli(capsys, "check", "x^6+6*x^5+6*x+1", "--d", "2")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "decomposable: no"
    assert lines[1] == "R = -405/4*x^2 + 255/2*x"


def test_cli_check_non_monic_scaling(capsys):
    code, out, _ = run_cli(capsys, "check", "2*x^4+4*x^2+2", "--d", "2")
    assert code == 0
    assert "scaled by: 2" in out.splitlines()


def test_cli_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "x^4+2*x^2+1", "--d", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["decomposable"] is True
    assert obj["Q"] == {"var": "x", "coeffs": ["1", "0", "1"]}
    assert obj["h"] == {"var": "t", "coeffs": ["0", "0", "1"]}
    assert obj["residual"] == {"var": "x", "coeffs": []}
    assert obj["normalization"] is None


def test_cli_check_multivariate(capsys):
    code, out, _ = run_cli(
        capsys, "check", "(x^2+y*x+1)^2+3", "--d", "2", "--vars", "x,y"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "decomposable: yes"
    assert lines[1] == "h = t^2 + 3"

    code, out, _ = run_cli(capsys, "check", "x^2+y", "--d", "2", "--vars", "x,y")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "decomposable: no"
    assert lines[1] == "R = 0"
    assert lines[2] == "obstruction: the outer polynomial has non-constant coefficients"


def test_cli_check_main_var_selection(capsys):
    # monic in y once y is the main variable
    code, out, _ = run_cli(
        capsys, "check", "y^2+x", "--d", "2", "--vars", "x,y", "--main-var", "y"
    )
    assert code == 2
    assert out.splitlines()[0] == "decomposable: no"
    # the coefficient of y is 2*x + 1 in QQ[x][z], constant in z: one
    # pair of parentheses
    code, out, _ = run_cli(
        capsys, "check", "(x+y)^4 + 2*y*(x+y)^2 - z", "--d", "2",
        "--vars", "x,y,z", "--main-var", "y",
    )
    assert code == 2
    assert out == "decomposable: no\nR = (2*x + 1)*y\n"


def test_cli_variety_text(capsys):
    code, out, _ = run_cli(capsys, "variety", "--n", "4", "--d", "2")
    assert code == 0
    assert out == "a3 - 1/2*a1*a2 + 1/8*a1^3\n"


def test_cli_variety_sextic(capsys):
    code, out, _ = run_cli(capsys, "variety", "--n", "6", "--d", "2")
    assert code == 0
    assert out.splitlines() == [
        "a4 - 1/2*a1*a3 - 1/4*a2^2 + 3/8*a1^2*a2 - 5/64*a1^4",
        "a5 - 1/2*a2*a3 + 1/8*a1^2*a3 + 1/4*a1*a2^2 - 1/8*a1^3*a2 + 1/64*a1^5",
    ]


def test_cli_variety_json(capsys):
    code, out, _ = run_cli(capsys, "variety", "--n", "4", "--d", "2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 4 and obj["d"] == 2
    assert obj["indeterminates"] == ["a1", "a2", "a3", "a4"]
    assert len(obj["equations"]) == 1
    eq = obj["equations"][0]
    # nested ascending-coefficient schema, outermost variable a4 absent
    assert eq["var"] == "a4"


def test_cli_gf_field(capsys):
    code, out, _ = run_cli(
        capsys, "root", "x^4+2*x^3+x^2+3", "--d", "2", "--field", "gf:5"
    )
    assert code == 0
    assert out == "Q = x^2 + x\n"


def test_cli_sparse_inputs(capsys):
    # the root's recurrence skips zero coefficients, so these take well
    # under a second although m is in the thousands
    assert run_cli(capsys, "root", "x^10000", "--d", "2") == (0, "Q = x^5000\n", "")
    assert run_cli(capsys, "decompose", "x^10000", "--d", "2") == (
        0, "h = t^2\nQ = x^5000\nR = 0\n", ""
    )
    assert run_cli(capsys, "check", "x^10000", "--d", "2") == (
        0, "decomposable: yes\nh = t^2\nQ = x^5000\n", ""
    )
    assert run_cli(capsys, "root", "x^9999+x", "--d", "3") == (0, "Q = x^3333\n", "")


def test_cli_error_paths(capsys):
    cases = [
        (["root", "x^6+1", "--d", "4"], "DegreeNotDivisible"),
        (["root", "2*x^2", "--d", "2"], "NotMonic"),
        (["root", "x^2+1", "--d", "7"], "InvalidOuterDegree"),
        (["root", "2x", "--d", "2"], "ParseError"),
        (["root", "x+z", "--d", "2"], "UnknownVariable"),
        (["root", "1/0", "--d", "2"], "DivisionByZeroLiteral"),
        (["root", "x^²", "--d", "2"], "ParseError"),
        (["root", "x^2+" + "1" * 5000, "--d", "2"], "ParseError"),
        (["root", "(" * 3000 + "x" + ")" * 3000, "--d", "2"], "ParseError"),
        (["root", "x²+1", "--d", "2"], "ParseError"),
        (["root", "(x^10000)^10000", "--d", "2"], "DegreeTooLarge"),
        (["root", "(y^10000)^10000", "--d", "2", "--vars", "x,y"], "DegreeTooLarge"),
        (["root", "x^2+((2^10000)^10000)^10000", "--d", "2"], "ConstantTooLarge"),
        (["root", "(x+10^5000)^2", "--d", "2"], "CoefficientTooLarge"),
        (["root", "(x+10^5000)^2", "--d", "2", "--json"], "CoefficientTooLarge"),
        (["decompose", "(x+10^5000)^2", "--d", "2"], "CoefficientTooLarge"),
        (["check", "(x+10^5000*y)^2", "--d", "2", "--vars", "x,y", "--json"],
         "CoefficientTooLarge"),
        (["check", "x^4+x^2", "--d", "2", "--field", "gf:2"], "NotInvertible"),
        (["check", "y*x^2+y", "--d", "2", "--vars", "x,y"], "NotMonicInMainVar"),
        (["root", "x^2+1", "--d", "2", "--field", "gf:4"], "UsageError"),
        (["root", "x^2+1", "--d", "2", "--field", "R"], "UsageError"),
        (["root", "x^2+1", "--d", "2", "--field", "gf:x"], "UsageError"),
        (["root", "x^2+1", "--d", "2", "--vars", "x,x"], "UsageError"),
        (["root", "x^2+1", "--d", "2", "--vars", "x,y²"], "UsageError"),
        (["root", "x^2+1", "--d", "2", "--main-var", "w"], "UsageError"),
        (["root", "x^2+1"], "UsageError"),
        (["frobnicate", "x", "--d", "2"], "UsageError"),
        (["variety", "--n", "6", "--d", "4"], "DegreeNotDivisible"),
        (["variety", "--n", str(MAX_VARIETY_N + 1), "--d", "2"], "UsageError"),
        (["variety", "--n", "40", "--d", "2"], "UsageError"),
    ]
    for argv, expected_code in cases:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.err.startswith(f"error: {expected_code}: "), (argv, captured.err)
        assert captured.out == "", argv


def test_readme_error_table_lists_every_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme[readme.index("| code                  | raised when") :].splitlines()
    table = lines[2 : next(i for i, line in enumerate(lines) if not line.startswith("|"))]
    rows = [re.match(r"\| (\w+) +\|", line).group(1) for line in table]
    exported = [getattr(polydecomp, name) for name in polydecomp.__all__]
    codes = {
        c.code for c in exported
        if isinstance(c, type) and issubclass(c, PolyDecompError) and c is not PolyDecompError
    }
    assert set(rows) == codes | {UsageError.code}
    assert len(rows) == len(set(rows))


def test_cli_is_deterministic(capsys):
    argv = ["decompose", "x^6+6*x^5+6*x+1", "--d", "2", "--json"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_cli_calls_share_no_state(capsys):
    """The argparse parser is built once per process: a valid call, a
    failing one and the valid one again print what they print with a
    fresh parser each."""
    valid = ["check", "x^4+2*x^2+1", "--d", "2", "--json"]
    bad = ["check", "x^4+2*x^2+1", "--d", "two"]
    fresh = []
    for argv in (valid, bad, valid):
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [run_cli(capsys, *argv) for argv in (valid, bad, valid)] == fresh
    assert fresh[0][0] == 0 and json.loads(fresh[0][1])["decomposable"] is True
    assert fresh[1] == (1, "", "error: UsageError: argument --d: invalid int value: 'two'\n")


# every subcommand, valid, then what argparse answers or rejects: a missing
# required flag, a bad int, a flag with no command, abbreviated flags, an
# unknown flag, an unknown command, no argv, and help
DISPATCH_ARGV = [
    ["root", "x^2+2*x+1", "--d", "2"],
    ["decompose", "x^6+6*x^5+6*x+1", "--d", "2", "--verify"],
    ["check", "x^4+2*x^2+1", "--d", "2", "--json"],
    ["variety", "--n", "6", "--d", "2"],
    ["root", "x^2+1"],
    ["check", "x^4+1", "--d", "two"],
    ["--d=2"],
    ["decompose", "x^4+2*x^2+1", "--d", "2", "--ver"],
    ["root", "x^4+2*x^2+1", "--d", "2", "--fie", "gf:5"],
    ["root", "x^4+1", "--d", "2", "--bogus"],
    ["frobnicate", "x^4+1", "--d", "2"],
    [],
    ["-h"],
    ["root", "--help"],
]


def _exit_and_output(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_subcommand_parsers_answer_as_the_top_level_parser(capsys, monkeypatch, argv):
    """main hands argv that starts with a subcommand to that subcommand's
    parser; with no subcommand parsers to hand it to, the top-level parser
    reads every argv, and exit codes, stdout and stderr are the same."""
    direct = _exit_and_output(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["polydecomp", *argv])
    assert _exit_and_output(capsys, None) == direct
    monkeypatch.setattr(build_parser(), "commands", {})
    assert _exit_and_output(capsys, argv) == _exit_and_output(capsys, None) == direct


def test_installed_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "polydecomp.cli", "check", "x^4+2*x^2+1", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "decomposable: yes"
    script = subprocess.run(
        ["polydecomp", "check", "x^4+x", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 2
    assert script.stdout.splitlines()[0] == "decomposable: no"
