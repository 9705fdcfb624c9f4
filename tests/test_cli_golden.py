"""Byte-identity of the command line: ``cli.main`` over a fixed list of
argument vectors against the exit code, stdout and stderr recorded in
``cli_golden.json``.

The list covers the README examples, one probe per error code the CLI
can raise (DomainMismatch, VariableMismatch and EnumerationTooLarge are
library-only), text and ``--json`` over Q[y] and Q[y][z] with each
``--main-var``, ``--verify``, every small prime field, the sparse
degree-10000 inputs and ``variety`` up to n = 8; one hash,
``VARIETY_9_TO_16``, pins ``variety`` for 9 <= n <= 16.  A change that
is meant to keep the CLI's output leaves both as they are; one that
changes output on purpose re-records the file, updates the hash and
says why:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from polydecomp.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

SEXTIC = "x^6+6*x^5+6*x+1"
# monic of degree 4 in each of x, y and z
TOWER = "(x^2+y^2+z^2+x+y*z)^2"


def _random_calls() -> list[list[str]]:
    """Random monic integer inputs over Q and GF(p), half of them exact
    compositions, through each of the three algorithm commands."""
    rng = random.Random(20091)
    calls = []
    for k in range(24):
        d = rng.choice([2, 3])
        m = rng.randint(1, 4)
        field = rng.choice(["Q", "gf:5", "gf:7", "gf:1000003"])
        if k % 2:
            inner = "+".join(f"{rng.randint(-9, 9)}*x^{i}" for i in range(m))
            outer = "+".join(f"{rng.randint(-9, 9)}*(x^{m}+{inner})^{j}" for j in range(d))
            text = f"(x^{m}+{inner})^{d}+{outer}"
        else:
            text = "+".join([f"x^{d * m}"] + [f"{rng.randint(-9, 9)}*x^{i}" for i in range(d * m)])
        command = ["root", "decompose", "check"][k % 3]
        calls.append([command, text, "--d", str(d), "--field", field])
    return calls


def _cases() -> list[list[str]]:
    cases = [
        # README
        ["root", SEXTIC, "--d", "2"],
        ["decompose", SEXTIC, "--d", "3", "--verify"],
        ["check", "x^4+2*x^2+1", "--d", "2"],
        ["check", "x^4+x", "--d", "2"],
        ["check", "(x^2+y*x+1)^2+3", "--d", "2", "--vars", "x,y"],
        ["root", "x^4+2*x^3+x^2+3", "--d", "2", "--field", "gf:5"],
        ["variety", "--n", "6", "--d", "2"],
        # one probe per error code
        ["root", "2*x^2", "--d", "2"],
        ["check", "y*x^2+y", "--d", "2", "--vars", "x,y"],
        ["root", "x^2+1", "--d", "7"],
        ["root", "x^2+1", "--d", "1"],
        ["root", "x^6+1", "--d", "4"],
        ["check", "x^4+x^2", "--d", "2", "--field", "gf:2"],
        ["root", "x^3+1", "--d", "3", "--field", "gf:3"],
        ["root", "2x", "--d", "2"],
        ["root", "x^2+", "--d", "2"],
        ["root", "(" * 101 + "x" + ")" * 101, "--d", "2"],
        ["root", "x+z", "--d", "2"],
        ["root", "1/0", "--d", "2"],
        ["root", "x^2+1/5", "--d", "2", "--field", "gf:5"],
        ["root", "(x^10000)^10000", "--d", "2"],
        ["root", "x^2+((2^10000)^10000)^10000", "--d", "2"],
        ["root", "(x+10^5000)^2", "--d", "2"],
        ["check", "(x+10^5000*y)^2", "--d", "2", "--vars", "x,y", "--json"],
        ["root", "x^2+1", "--d", "2", "--field", "gf:4"],
        ["root", "x^2+1", "--d", "2", "--field", "R"],
        ["root", "x^2+1", "--d", "2", "--vars", "x,x"],
        ["root", "x^2+1", "--d", "2", "--main-var", "w"],
        ["root", "x^2+1"],
        ["check", "x^4+1", "--d", "two"],
        ["variety", "--n", "25", "--d", "2"],
        # sparse inputs of degree near the bound
        ["root", "x^10000", "--d", "2"],
        ["decompose", "x^10000", "--d", "2"],
        ["check", "x^9999+x", "--d", "3"],
    ]
    # towers: Q[y] and Q[y][z], each variable as the main one
    for text, names in [
        ("(x^2+y^2+x*y)^2+x+y", "x,y"),
        ("(x^2+y^2+x*y)^2+3", "x,y"),
        (TOWER + "+x*y+z", "x,y,z"),
        (TOWER + "-1/2*y", "x,y,z"),
        (TOWER + "+3", "x,y,z"),
    ]:
        for main_var in names.split(","):
            for command in ("decompose", "check"):
                base = [command, text, "--d", "2", "--vars", names, "--main-var", main_var]
                cases += [base, base + ["--json"]]
            cases.append(["decompose", text, "--d", "2", "--vars", names,
                          "--main-var", main_var, "--verify"])
    cases.append(["check", "(y*x+1)^2", "--d", "2", "--vars", "x,y", "--main-var", "y"])
    # every small prime field, with a d that is and one that is not invertible
    for p in (2, 3, 5, 7, 11, 13):
        field = ["--field", f"gf:{p}"]
        cases += [
            ["root", SEXTIC, "--d", "2", *field],
            ["decompose", SEXTIC, "--d", "3", "--verify", *field],
            ["decompose", SEXTIC, "--d", "3", "--json", *field],
            ["check", SEXTIC, "--d", "3", *field],
            ["check", "3*x^4+x^2+2", "--d", "2", "--json", *field],
            ["check", "(x^2+y*x+1)^2+3", "--d", "2", "--vars", "x,y", *field],
        ]
    cases += [
        ["decompose", SEXTIC, "--d", "2", "--json"],
        ["check", "2*x^4+4*x^2+2", "--d", "2"],
        ["check", "x^2+y", "--d", "2", "--vars", "x,y"],
        ["root", "x^6+6*x^5+6*x+1", "--d", "3", "--json"],
    ]
    for n in range(2, 9):
        for d in range(2, n + 1):
            if n % d == 0:
                cases.append(["variety", "--n", str(n), "--d", str(d)])
                cases.append(["variety", "--n", str(n), "--d", str(d), "--json"])
    return cases + _random_calls()


CASES = _cases()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_recording():
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == CASES, "re-record after editing CASES"
    for expected in recorded:
        assert run(expected["argv"]) == expected


# sha256 of the stdout of `variety --n n --d d`, then of the same with
# --json, for 9 <= n <= 16 and each divisor d >= 2 of n, in that order
VARIETY_9_TO_16 = "41fd9388ef226e8f54811f5e77a73dfb01c2b4aa15408a34301b09edb63b226d"


def test_variety_output_beyond_the_recording():
    """``variety`` past the recording's n = 8, pinned by one hash."""
    digest = hashlib.sha256()
    for n in range(9, 17):
        for d in range(2, n + 1):
            if n % d == 0:
                for json_flag in ([], ["--json"]):
                    result = run(["variety", "--n", str(n), "--d", str(d), *json_flag])
                    assert (result["exit"], result["stderr"]) == (0, "")
                    digest.update(result["stdout"].encode())
    assert digest.hexdigest() == VARIETY_9_TO_16


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
