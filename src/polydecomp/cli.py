"""Command line interface and text/JSON serialization.

Polynomial grammar (whitespace between tokens is ignored):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := rational | ident | '(' expr ')' | '-' factor
    rational := uint ('/' uint)?
    ident    := letter (letter | digit)*

Multiplication is always explicit ('2*x', never '2x') and '/' exists
only inside rational literals.  Letters and digits are ASCII only,
'(' and unary '-' nest at most MAX_DEPTH levels deep, and a product or
power whose degree in some variable, as written, would pass MAX_DEGREE,
or whose coefficients could pass MAX_COEFF_BITS bits by a bound taken
from its operands, is rejected before it is computed.  A text that is
an expanded sum, terms such as - 3/2*x^5*y^2 each with the sign before
it, is read in one loop over its terms; every other text goes to the
grammar, whose first pass raises every other error before any
arithmetic but the literals' values (_Parser).  Only nonzero terms are
kept (README).  Text output
re-parses to a structurally equal polynomial under this grammar.
``variety --n`` is at most MAX_VARIETY_N: the generic polynomial has n
indeterminates.

Exit codes: 0 for success (for check: decomposable), 2 for a well-formed
input that is not decomposable (check only), 1 for any error.  Errors
print to stderr as ``error: <Code>: <message>`` with the stable codes
from errors.py plus ``UsageError`` for bad invocations.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache
from itertools import compress, islice
from math import lcm
from operator import add, itemgetter
from typing import Sequence

from .approot import approx_root
from .decide import (
    DecomposabilityVerdict,
    VarietySystem,
    is_decomposable_multi,
    is_decomposable_uni,
    variety_equations,
)
from .decomp import Decomposition, decompose, verify
from .domain import (
    VARIABLE_NAME,
    Domain,
    Element,
    PolynomialRing,
    PrimeField,
    Rationals,
    check_variable,
    polynomial_tower,
    value_text,
)
from .errors import (
    ConstantTooLarge,
    DegreeTooLarge,
    DivisionByZeroLiteral,
    NotInvertible,
    ParseError,
    PolyDecompError,
    UnknownVariable,
)
from .poly import Poly, join_terms, power, unfold
from .sparse import merge, negate, tuple_product

MAX_DEGREE = 10_000
MAX_COEFF_BITS = 2**20
MAX_DEPTH = 100
MAX_VARIETY_N = 24


class UsageError(PolyDecompError):
    """Bad command line or malformed flag values."""


# ----------------------------------------------------------------------
# parsing


# the kinds of token in the order tried, then a bad character; whitespace
# matches no alternative, so findall skips it
_RULES = {"number": "[0-9]+", "ident": VARIABLE_NAME.pattern, "op": "[-+*^()/]"}
_TOKEN = re.compile("|".join(_RULES.values()) + r"|\S")
# A whole term of an expanded sum as one token, with the sign before it
# if any: a literal c/c, a product of variable powers v^e*w^f... with no
# space inside, or both joined by '*'.  Its parts are groups 1-5 (sign,
# numerator, denominator, first variable and its exponent), each a whole
# token of _TOKEN, and group 6, the run of letters, digits, '*' and '^'
# from a '*' and a letter that holds the other factors.  Group 7 is the
# token of _TOKEN where no term matches, so a text that has one is not
# read as an expanded sum (``_Parser.expanded``).  Neither an unsigned
# term nor a variable starts right after a digit, so '2x' is no term and
# no match is empty; a literal alone ends in a digit.  A branch with an
# empty arm, not '?', makes a group optional: the regex engine takes it
# in fewer steps.
_TERM = re.compile(
    r"(?:([-+])\s*|(?<![0-9]))(?:([0-9]+)(?:/([0-9]+)|)\*?|)"
    rf"(?:(?<![0-9])({VARIABLE_NAME.pattern})(?:\^([0-9]+)|)(\*[A-Za-z][*^A-Za-z0-9]*|)|(?<=[0-9]))"
    rf"|({_TOKEN.pattern})"
)
# a token's kind by its first character, read off the rules (which are
# ASCII; the first rule wins), an operator being its own kind
_KINDS = {
    c: c if kind == "op" else kind
    for kind, rule in reversed(_RULES.items())
    for c in map(chr, range(128))
    if re.match(rule, c)
}


def _norm_bits(terms: dict, field: Domain) -> int:
    """Bits of the largest numerator and of the common denominator L of
    the values, plus log2 of the number of terms: a bound on the bit
    length of L and of the sum of |v*L| over the values v.  So the
    coefficients of a product have numerators and denominators of at
    most the sum of its factors' norm bits, and those of a power at most
    e times its base's.  Residues mod p are below p with L = 1, so over
    GF(p) the bound needs no value."""
    if not terms:
        return 0
    if isinstance(field, PrimeField):
        return (field.p - 1).bit_length() + 1 + (len(terms) - 1).bit_length()
    largest = max(abs(v.numerator) for v in terms.values()).bit_length()
    common = lcm(*(v.denominator for v in terms.values())).bit_length()
    return largest + common + (len(terms) - 1).bit_length()


class _Parser:
    """The map {key: raw ground value}, without zero values, of a text.

    A text that is an expanded sum is read in one loop over its terms
    (``expanded``).  Every other text goes to the grammar rules, a
    recursive descent over the tokens of _TOKEN in two passes, so every
    error and its offset is the grammar's.

    Pass 1, ``tree``, builds a tree and raises every ParseError,
    UnknownVariable, DivisionByZeroLiteral and DegreeTooLarge; its only
    arithmetic is each literal's ground value and a leaf's negation:

        leaf      (value, key)              value * the monomial key
        sum       ("+", degrees, terms)
        product   ("*", degrees, factors, token indices of the '*'s)
        power     ("^", degrees, base, e, token index of the '^')
        negation  ("-", degrees, node)

    Keys and degrees list the main variable, then the tower levels from
    the outermost in.  Degrees are as written (a sum takes the larger;
    a leaf's are its key).  A term of leaves, all of value one but at
    most one, is one leaf.  Pass 2, ``evaluate``, raises only
    ConstantTooLarge: it computes maps without zero values, a sum by
    merging its terms' maps and a negation with the field's hooks, in
    place, since a map belongs to the node that returned it, products
    on integer numerators (sparse.py) and powers by ``poly.power``.
    Tokens are read by index, a list of kinds beside a list of texts,
    ending in an "end" token whose text is "end of input"; an error
    gives its token's character offset (``at``).
    """

    def __init__(self, text: str, field: Domain, levels: Sequence[str]):
        self.text, self.field, self.one = text, field, field._one
        self.constant = (0,) * len(levels)
        self.places = {v: (self.constant[:i], self.constant[i + 1 :]) for i, v in enumerate(levels)}

    def at(self, index: int) -> int:
        """The character offset of token ``index``, found again: only errors need it."""
        match = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return match.start() if match else len(self.text)

    def parse(self) -> dict:
        terms = self.expanded()
        return self.evaluate(self.tree()) if terms is None else terms

    def expanded(self) -> dict | None:
        """The map of a text whose tokens of _TERM are all term tokens, the
        first unsigned or '-' and each later one signed, each term c/c
        times a product of variable powers; None for any other text, and
        where the grammar would reject a term's part (a long literal, a
        zero denominator, an unknown name, a degree past MAX_DEGREE) or
        read a run of factors otherwise (x*y*3)."""
        tokens = _TERM.findall(self.text)
        if not tokens or tokens[0][0] == "+" or not all(map(itemgetter(0), tokens[1:])):
            return None
        canonical, places, one, plus = self.field._canonical, self.places, self.one, self.field._add
        terms = {}
        for sign, num, den, name, e, factors, other in tokens:
            if other:
                return None
            try:
                e, num = int(e or 1), -int(num or 1) if sign == "-" else int(num or 1)
                value = canonical(Fraction(num, int(den)) if den else num) if den or num != 1 else one
                if name:
                    head, tail = places[name]
                    key = head + (e,) + tail
                    # the other variable powers, each exponent added at its
                    # variable's level: the length of its head
                    if factors:
                        key = list(key)
                        for power in factors[1:].split("*"):
                            name, caret, e = power.partition("^")
                            key[len(places[name][0])] += int(e) if caret else 1
                        e, key = max(key), tuple(key)
                else:  # a constant
                    key = self.constant
            except (ValueError, ZeroDivisionError, NotInvertible, KeyError):
                return None
            if e > MAX_DEGREE:
                return None
            terms[key] = plus(terms[key], value) if key in terms else value
        return terms if all(terms.values()) else {key: value for key, value in terms.items() if value}

    def tree(self) -> tuple:
        """Pass 1 on the tokens of _TOKEN."""
        self.texts = _TOKEN.findall(self.text)
        self.kinds = list(map(_KINDS.get, map(itemgetter(slice(1)), self.texts))) + ["end"]
        if None in self.kinds:
            index = self.kinds.index(None)
            raise ParseError(f"unexpected character {self.texts[index]!r}", self.at(index))
        self.texts.append("end of input")
        self.index = self.depth = 0
        node = "+", (), self.expr()
        if self.kinds[self.index] != "end":
            raise ParseError(f"unexpected {self.texts[self.index]!r}", self.at(self.index))
        return node

    def expect(self, kind: str) -> int:
        """The index of the next token, which must be of ``kind``."""
        index = self.index
        self.index += 1
        if self.kinds[index] != kind:
            raise ParseError(f"expected {kind!r}, found {self.texts[index]!r}", self.at(index))
        return index

    def integer(self, index: int) -> int:
        try:
            return int(self.texts[index])
        except ValueError:  # beyond the interpreter's int/str digit limit
            message = f"literal of {len(self.texts[index])} digits is too long"
            raise ParseError(message, self.at(index)) from None

    def expr(self) -> list:
        """The terms of a sum, each with its sign applied."""
        terms, negative = [], False
        while True:
            node = self.term(self.factor())
            terms.append(self.negate(node) if negative else node)
            op = self.kinds[self.index]
            if op != "+" and op != "-":
                return terms
            negative = op == "-"
            self.index += 1

    def term(self, node: tuple) -> tuple:
        """The product of the factor ``node``, just read, and those after it."""
        kinds, index = self.kinds, self.index
        if kinds[index] != "*":
            return node
        factors, stars, degrees = [node], [], node[1]
        while kinds[index] == "*":
            stars.append(index)
            self.index = index + 1
            node = self.factor()
            degrees = self.check_degree(tuple(map(add, degrees, node[1])), index)
            factors.append(node)
            index = self.index
        # A variable power's value is the field's one itself.  No bits check:
        # `integer` caps a literal at the interpreter's int/str digit limit,
        # about 14k bits, and a variable power adds 2 norm bits, so every
        # check of the product would be far below the bound.
        rest = [node for node in factors if len(node) != 2 or node[0] is not self.one]
        if not rest or len(rest) == 1 and len(rest[0]) == 2:
            return (rest[0][0] if rest else self.one), degrees
        return "*", degrees, factors, stars

    def factor(self) -> tuple:
        kinds = self.kinds
        node = self.atom()
        caret = self.index
        if kinds[caret] != "^":
            return node
        self.index += 1
        index = self.expect("number")
        e = self.integer(index)
        if e > MAX_DEGREE:
            raise ParseError(f"exponent {e} is too large", self.at(index))
        degrees = tuple(e * a for a in node[1])
        if kinds[caret - 1] == "ident":  # a variable power, of degree e, within the bound
            return self.one, degrees
        return "^", self.check_degree(degrees, caret), node, e, caret

    def atom(self) -> tuple:
        index = self.index
        self.index += 1
        kind = self.kinds[index]
        if kind == "ident":
            text = self.texts[index]
            if text not in self.places:
                raise UnknownVariable(f"unknown variable {text!r}", self.at(index))
            head, tail = self.places[text]
            return self.one, head + (1,) + tail
        if kind == "number":
            num = self.integer(index)
            if self.kinds[self.index] != "/":
                return self.field._canonical(num), self.constant
            self.index += 1
            den_index = self.expect("number")
            den = self.integer(den_index)
            if den == 0:
                raise DivisionByZeroLiteral("denominator is zero", self.at(den_index))
            try:
                return self.field._canonical(Fraction(num, den)), self.constant
            except NotInvertible:
                raise DivisionByZeroLiteral(
                    f"denominator {den} is zero in {self.field}", self.at(den_index)
                ) from None
        if kind in ("-", "("):
            if self.depth == MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.at(index))
            self.depth += 1
            if kind == "-":
                node = self.negate(self.factor())
            else:
                terms = self.expr()
                self.expect(")")
                node = ("+", tuple(map(max, *(n[1] for n in terms))), terms) if len(terms) > 1 else terms[0]
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {self.texts[index]!r}", self.at(index))

    def negate(self, node: tuple) -> tuple:
        if len(node) == 2:
            return self.field._neg(node[0]), node[1]
        return "-", node[1], node

    def evaluate(self, node: tuple) -> dict:
        if len(node) == 2:
            return {node[1]: node[0]} if node[0] else {}
        field, op = self.field, node[0]
        if op == "+":
            terms = {}
            for child in node[2]:
                terms = merge(terms, self.evaluate(child), field)
            return terms
        if op == "-":
            return negate(self.evaluate(node[2]), field)
        if op == "^":
            _, _, base, e, caret = node
            terms = self.evaluate(base)
            self.check_bits(e * _norm_bits(terms, field), caret)
            one = {self.constant: self.one}
            return power(terms, e, lambda a, b: tuple_product([(a, b)], field), one)
        _, _, factors, stars = node
        terms = self.evaluate(factors[0])
        for factor, star in zip(factors[1:], stars):
            rhs = self.evaluate(factor)
            self.check_bits(_norm_bits(terms, field) + _norm_bits(rhs, field), star)
            terms = tuple_product([(terms, rhs)], field)
        return terms

    def check_degree(self, degrees: tuple[int, ...], index: int) -> tuple[int, ...]:
        if max(degrees) > MAX_DEGREE:
            message = f"degree {max(degrees)} is above the bound {MAX_DEGREE}"
            raise DegreeTooLarge(message, self.at(index))
        return degrees

    def check_bits(self, bits: int, index: int) -> None:
        if bits > MAX_COEFF_BITS:
            message = f"coefficients could reach {bits} bits, above the bound {MAX_COEFF_BITS}"
            raise ConstantTooLarge(message, self.at(index))


def parse_poly(
    text: str,
    field: Domain,
    variables: Sequence[str],
    main_var: str | None = None,
) -> Poly:
    """Parse text into a Poly in the main variable over field[other vars].

    ``variables`` fixes which identifiers are legal; the tower adjoins
    the non-main ones in the order given, main variable outermost.
    """
    names = list(variables)
    if not names:
        raise ValueError("at least one variable is required")
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    main = names[0] if main_var is None else main_var
    if main not in names:
        raise ValueError(f"main variable {main!r} is not among {names}")
    for name in names:
        check_variable(field, name)
    others = [v for v in names if v != main]
    base = polynomial_tower(field, others)
    terms = _Parser(text, field, [main, *reversed(others)]).parse()
    # a value of base[main], unfolded without building that ring
    return Poly._of(base, main, base._split(terms, 1 + max(map(itemgetter(0), terms), default=-1)))


# ----------------------------------------------------------------------
# formatting


def poly_to_json(f: Poly) -> dict:
    """Schema: {"var": name, "coeffs": [c0, c1, ...]} ascending, where a
    coefficient is a rational/residue string or a nested object."""
    domain, tower = f.domain, isinstance(f.domain, PolynomialRing)
    coeffs = [poly_to_json(unfold(domain, c)) if tower else value_text(c) for c in f.values]
    return {"var": f.variable, "coeffs": coeffs}


def element_to_text(el: Element) -> str:
    """A tower element as explicit monomials, outermost variable sorted
    first, so nested constants print like ordinary polynomials."""
    names, ground = [], el.domain
    while isinstance(ground, PolynomialRing):
        names.append(ground.variable)
        ground = ground.base
    terms = sorted(el.value.items(), reverse=True) if names else [((), el.value)]
    # each monomial innermost variable first, its zero exponents dropped
    return join_terms(ground, ((c, [*compress(zip(names, key), key)][::-1]) for key, c in terms))


# ----------------------------------------------------------------------
# commands


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# one parser per process: parse_args keeps no state between calls, and
# help text reads the terminal width when it is printed, not here; its
# ``commands`` are the subcommands' parsers by name (``main``)
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="polydecomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("poly", help="polynomial text, e.g. 'x^6+6*x^5+6*x+1'")
        sp.add_argument("--d", type=int, required=True, help="outer degree d >= 2")
        sp.add_argument("--field", default="Q", help="Q (default) or gf:<prime>")
        sp.add_argument("--vars", default="x", help="comma separated variables, default x")
        sp.add_argument("--main-var", dest="main_var", default=None,
                        help="main variable, default the first of --vars")
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sp = sub.add_parser("root", help="approximate d-th root of a monic polynomial")
    sp.set_defaults(run=_cmd_root)
    common(sp)
    sp = sub.add_parser("decompose", help="write p as h(Q) + R")
    sp.set_defaults(run=_cmd_decompose)
    common(sp)
    sp.add_argument("--verify", action="store_true", help="also print the condition report")
    sp = sub.add_parser("check", help="decide d-decomposability (exit 0 yes, 2 no)")
    sp.set_defaults(run=_cmd_check)
    common(sp)
    sp = sub.add_parser("variety", help="equations cutting out the decomposable locus")
    sp.set_defaults(run=_cmd_variety)
    sp.add_argument("--n", type=int, required=True, help="degree of the generic polynomial")
    sp.add_argument("--d", type=int, required=True, help="outer degree d >= 2")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.commands = sub.choices
    return parser


def _parse_field(spec: str) -> Domain:
    if spec == "Q":
        return Rationals()
    if spec.startswith("gf:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise UsageError(f"bad prime in field spec {spec!r}") from None
        try:
            return PrimeField(p)
        except (TypeError, ValueError) as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(f"unknown field {spec!r}, expected Q or gf:<prime>")


def _input_poly(args) -> Poly:
    field = _parse_field(args.field)
    variables = [v.strip() for v in args.vars.split(",") if v.strip()]
    try:
        return parse_poly(args.poly, field, variables, args.main_var)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _decomposition_json(p: Poly, dec: Decomposition) -> dict:
    report = verify(p, dec)
    return {
        "h": poly_to_json(dec.h),
        "Q": poly_to_json(dec.q),
        "R": poly_to_json(dec.r),
        "d": dec.d,
        "conditions": asdict(report),
    }


def _verdict_json(verdict: DecomposabilityVerdict) -> dict:
    return {
        "decomposable": verdict.decomposable,
        "h": poly_to_json(verdict.witness.h) if verdict.witness else None,
        "Q": poly_to_json(verdict.witness.q) if verdict.witness else None,
        "residual": poly_to_json(verdict.residual) if verdict.residual is not None else None,
        "normalization": str(verdict.normalization) if verdict.normalization is not None else None,
    }


def _variety_json(system: VarietySystem) -> dict:
    return {
        "n": system.n,
        "d": system.d,
        "indeterminates": list(system.indeterminates),
        "equations": [poly_to_json(unfold(eq.domain, eq.value)) for eq in system.equations],
    }


def _cmd_root(args) -> int:
    p = _input_poly(args)
    q = approx_root(p, args.d)
    print(json.dumps(poly_to_json(q)) if args.json else f"Q = {q}")
    return 0


def _cmd_decompose(args) -> int:
    p = _input_poly(args)
    dec = decompose(p, args.d)
    if args.json:
        print(json.dumps(_decomposition_json(p, dec)))
        return 0
    lines = [f"h = {dec.h}", f"Q = {dec.q}", f"R = {dec.r}"]
    if args.verify:
        for name, passed in asdict(verify(p, dec)).items():
            lines.append(f"{name}: {'pass' if passed else 'fail'}")
    print("\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    p = _input_poly(args)
    if isinstance(p.domain, PolynomialRing):
        verdict = is_decomposable_multi(p, args.d)
    else:
        verdict = is_decomposable_uni(p, args.d)
    if args.json:
        print(json.dumps(_verdict_json(verdict)))
    else:
        lines = [f"decomposable: {'yes' if verdict.decomposable else 'no'}"]
        if verdict.witness is not None:
            lines += [f"h = {verdict.witness.h}", f"Q = {verdict.witness.q}"]
        elif verdict.residual is not None:
            lines.append(f"R = {verdict.residual}")
            if verdict.residual.is_zero:
                lines.append("obstruction: the outer polynomial has non-constant coefficients")
        if verdict.normalization is not None:
            lines.append(f"scaled by: {verdict.normalization}")
        print("\n".join(lines))
    return 0 if verdict.decomposable else 2


def _cmd_variety(args) -> int:
    if args.n > MAX_VARIETY_N:
        raise UsageError(f"--n {args.n} is above the bound {MAX_VARIETY_N}")
    system = variety_equations(args.n, args.d)
    if args.json:
        print(json.dumps(_variety_json(system)))
    else:
        for eq in system.equations:
            print(element_to_text(eq))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argv that starts with a subcommand goes straight to its parser,
        # which is where the top-level parser would pass the rest of it
        parser = build_parser()
        command = parser.commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.run(args)
    except PolyDecompError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
