"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import arith
import check
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

ARGV_DUMP = (
    "import json, workloads; print(json.dumps({w: [c.argv for c in workloads.generate(w, 7)]"
    " for w in workloads.WORKLOADS}))"
)


def _argv_bytes(hash_seed: str) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", ARGV_DUMP], cwd=BENCH, env=env,
                          capture_output=True, check=True, timeout=60).stdout


def test_same_seed_gives_byte_identical_argv():
    assert _argv_bytes("1") == _argv_bytes("2")
    dumped = json.loads(_argv_bytes("3"))
    for name in workloads.WORKLOADS:
        assert dumped[name] == [list(c.argv) for c in workloads.generate(name, 7)]
        assert all(isinstance(a, str) for argv in dumped[name] for a in argv)


def test_other_seed_gives_other_inputs():
    for name in ("check-gf", "check-qq", "root-deep"):
        assert workloads.generate(name, 1) != workloads.generate(name, 2)


@pytest.mark.parametrize("workload", ["check-gf", "check-qq"])
def test_reference_normal_form_matches_constructed_triples(workload):
    for case in workloads.generate(workload, 3):
        ref = case.ref
        assert arith.normal_form(ref["P"], ref["d"], ref["p"]) == (ref["h"], ref["Q"], ref["R"])


def test_checker_rejects_flipped_coefficient():
    check.self_test()


def test_checker_rejects_wrong_root_and_wrong_equation_value():
    root = next(c for c in workloads.generate("root-deep", 0) if c.ref["p"] is None)
    good = check.to_json(root.ref["Q"], "x")
    check.check_call(root, 0, json.dumps(good))
    good["coeffs"][0] = str(int(good["coeffs"][0]) + 1)
    with pytest.raises(check.CheckError):
        check.check_call(root, 0, json.dumps(good))

    variety = workloads.generate("tower", 0)[0]
    assert variety.argv == ("variety", "--n", "6", "--d", "2")
    check.check_call(variety, 0, SEXTIC_EQUATIONS)
    swapped = "\n".join(reversed(SEXTIC_EQUATIONS.splitlines()))
    with pytest.raises(check.CheckError):
        check.check_call(variety, 0, swapped)


SEXTIC_EQUATIONS = """\
a4 - 1/2*a1*a3 - 1/4*a2^2 + 3/8*a1^2*a2 - 5/64*a1^4
a5 - 1/2*a2*a3 + 1/8*a1^2*a3 + 1/4*a1*a2^2 - 1/8*a1^3*a2 + 1/64*a1^5
"""


def _spans(rows):
    """rows: (start, end, parent) in any order; returns column arrays."""
    return [array("q", column) for column in zip(*rows)]


def test_self_times_of_hand_built_tree_are_exact():
    #   0 root [0, 100]
    #   1   a  [10, 40]      children 3; overlaps b
    #   2   b  [30, 60]      union of a and b inside root is [10, 60]
    #   3     a1 [15, 20]
    #   4   c  [90, 120]     clipped to the root's end: covers [90, 100]
    rows = [(0, 100, -1), (10, 40, 0), (30, 60, 0), (15, 20, 1), (90, 120, 0)]
    start, end, parent = _spans(rows)
    assert list(spans.self_times(start, end, parent)) == [40, 25, 30, 5, 30]
    # the same tree listed out of start order gives the same answer
    perm = [0, 4, 2, 3, 1]
    where = {old: new for new, old in enumerate(perm)}
    shuffled = [(rows[i][0], rows[i][1], where.get(rows[i][2], -1)) for i in perm]
    start, end, parent = _spans(shuffled)
    assert list(spans.self_times(start, end, parent)) == [40, 30, 30, 5, 25]


def test_tracer_counts_and_restores_bindings():
    sys.path.insert(0, str(SRC))
    from polydecomp import approot, cli, decomp
    from polydecomp.poly import Poly

    originals = (cli.main, decomp.approx_root, approot.approx_root, Poly.__mul__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert decomp.approx_root is approot.approx_root is not originals[1]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["decompose", "x^6+6*x^5+6*x+1", "--d", "3", "--json"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (cli.main, decomp.approx_root, approot.approx_root, Poly.__mul__) == originals
    metrics = spans.layer_metrics(tracer, passes=1)
    assert metrics["approot.approx_root.calls"] == 1
    assert metrics["approot.pow_per_root"] == 2  # m = 6 / 3 recomputations of q**d
    assert metrics["decomp.decompose.calls"] == 1
    assert metrics["decomp.peel_steps"] >= 1
    assert metrics["cli.parse_poly.input_chars"] == len("x^6+6*x^5+6*x+1")
    assert metrics["poly.mul.coeff_products"] > 0
    assert all(value >= 0 for value in metrics.values())
