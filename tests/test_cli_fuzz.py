"""cli.main on short random command lines: every call either answers
or fails with one stable error line, and no exception escapes.

The texts are at most 8 characters over the grammar's alphabet, drawn
either character by character or as sums of short terms, so the
costliest draw is a dense power like (x+1)^99, and each call must
return within SECONDS_PER_CALL.  A longer limit waits for a bound on
the work of one input: (x+1)^9999 is 10 characters.  Hypothesis is
derandomized, so tier-1 runs the same calls every time.
"""

import contextlib
import io
import re
import time

from hypothesis import given, settings
from hypothesis import strategies as st

import polydecomp
from polydecomp import PolyDecompError
from polydecomp.cli import UsageError, main

ALPHABET = "xy0123456789+-*^()/ "
# sums of these terms parse far more often than random characters do
TERMS = ["x", "x^2", "x^3", "x^4", "x^6", "y", "y^2", "y*x", "2*x", "1", "3", "1/2", "(x+1)^4",
         "3*x^2", "-x*y", "1/2*y", "0*x", "3/2*x^2", "2^3*x", "x^2^2", "1 /2*x"]
SUMS = st.lists(st.tuples(st.sampled_from("+-"), st.sampled_from(TERMS)), min_size=1, max_size=2)
TEXTS = st.one_of(
    st.text(ALPHABET, max_size=8),
    SUMS.map(lambda terms: "".join(sign + term for sign, term in terms)[1:9]),
)
# the slowest call drawn takes a few milliseconds, so only runaway work trips it
SECONDS_PER_CALL = 3
ERROR_LINE = re.compile(r"^error: ([A-Za-z]+): ")
EXPORTED = [getattr(polydecomp, name) for name in polydecomp.__all__]
CODES = {
    c.code
    for c in EXPORTED
    if isinstance(c, type) and issubclass(c, PolyDecompError) and c is not PolyDecompError
} | {UsageError.code}


@st.composite
def poly_argv(draw):
    """root, decompose or check with every flag drawn; the text comes
    after '--', so one starting with '-' still reaches the parser."""
    command = draw(st.sampled_from(["root", "decompose", "check"]))
    argv = [
        command,
        "--d", draw(st.sampled_from(["-1", "0", "2", "3", "4"])),
        "--field", draw(st.sampled_from(["Q", "gf:2", "gf:5"])),
        "--vars", draw(st.sampled_from(["x", "x,y", "y,x", "x,y,z"])),
    ]
    if draw(st.booleans()):
        argv.append("--json")
    if command == "decompose" and draw(st.booleans()):
        argv.append("--verify")
    return argv + ["--", draw(TEXTS)]


def variety_argv():
    return st.tuples(st.integers(0, 8), st.integers(0, 5), st.booleans()).map(
        lambda t: ["variety", "--n", str(t[0]), "--d", str(t[1])] + ["--json"] * t[2]
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(poly_argv(), variety_argv()))
def test_every_call_answers_or_names_its_error(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < SECONDS_PER_CALL, argv
    assert code in (0, 1, 2), argv
    assert (code == 1) == bool(err.getvalue()), argv
    if code == 1:
        assert out.getvalue() == "", argv
    for line in err.getvalue().splitlines():
        match = ERROR_LINE.match(line)
        assert match and match.group(1) in CODES, (argv, line)
