"""Benchmark of the polydecomp command line, driven in-process.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a fixed table of inputs whose coefficients come from
``--seed`` (see workloads.py).  One client calls ``polydecomp.cli.main``
with argv strings in a closed loop: each call starts when the previous
one returns.  A first pass over the cases warms up and checks every
output with the benchmark's own checker (check.py); the timed loop then
runs whole passes until ``--seconds`` have passed and at least 100 calls
were made, and compares each output with the checked one.  ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json.

With ``--trace 0`` the end-to-end metrics are printed: calls per second,
per-call latency p50/p90, the share of calls that succeeded, set-up time
of a fresh ``python -m polydecomp.cli`` (the median of samples taken
after every pass, so that they see the same machine as the calls) and
the peak RSS of the process.

Calls per second and latency are given at a fixed reference speed.  On
a 2-vCPU VM whose host is shared, the same pass over check-gf took from
1.2 to 2.3 s from one pass to the next, in process CPU time as much as
in wall time, and runs of 25 s differed by up to 30% in raw calls per
second.  So a fixed pure-Python workload (calibration_seconds) is timed
between every two calls, and each call's wall time is scaled by
REFERENCE_S / (mean of the calibrations on either side): the time the
call would take where the calibration takes REFERENCE_S.  Set-up time
is scaled by work of its own kind: each sample is followed by a bare
``python -c pass`` and multiplied by REFERENCE_START_S / (its time).
Unscaled, the median set-up time of runs made ten minutes apart differed
by up to 40%; the calibration loop tracked it poorly.

With ``--trace 1`` untraced and traced passes alternate for
``--seconds`` and the per-layer numbers of one traced pass are printed,
with the tracing overhead as the ratio of traced to untraced pass time
(both scaled); self times are not scaled.
The spans are written to bench/out/.

One workload with one ``--trace`` value is measured in this process.
``--workload all``, or no ``--trace``, which runs the untraced and then
the traced measurement, starts one child process per workload and trace
value, so that each has its own peak RSS and heap.  The last line of
standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_CALLS = 100
REFERENCE_S = 0.0035
REFERENCE_START_S = 0.04
SETUP_RUNS = 9
SETUP_ARGV = ["-m", "polydecomp.cli", "root", "x^2+2*x+1", "--d", "2"]
SETUP_OUTPUT = "Q = x + 1\n"

# end-to-end metric: unit, in the order of BENCHMARK.json
END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "input_chars": "chars",
    "pow_per_root": "ratio",
    "peel_steps": "count",
    "coeff_products": "count",
    "ns_per_coeff_product": "ns",
    "max_coeff_bits": "bits",
    "calls_per_s_untraced": "1/s",
    "calls_per_s_traced": "1/s",
    "overhead": "ratio",
}


def unit(name: str, trace: bool) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]] if trace else END_TO_END_UNITS[name]


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python workload, the machine's current
    speed: small-int arithmetic, then Fraction and container work, the two
    kinds of work the program does.  The cyclic collector is off while it
    runs, so that its time does not grow with the program's heap."""
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    frac = Fraction(0)
    pairs = []
    for i in range(1, 350):
        frac += Fraction(i, 7) * Fraction(3, i + 1)
        pairs.append((i, frac))
    dict(pairs)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class Runner:
    """Calls the CLI on the cases of one workload and judges each output."""

    def __init__(self, cli, cases: list):
        self.cli = cli
        self.cases = cases
        self.verified: dict[int, tuple[int, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.max_bits = 0

    def call(self, i: int) -> float:
        """Run case i once; return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(self.cases[i].argv))
        except Exception as exc:  # an uncaught exception is a failed call
            rc = exc
        elapsed = time.perf_counter() - t0
        self._judge(i, rc, out.getvalue())
        return elapsed

    def _judge(self, i: int, rc, text: str) -> None:
        self.attempted += 1
        if isinstance(rc, Exception):
            self.failures.append(f"case {i}: {type(rc).__name__}: {rc}")
            return
        if self.verified.get(i) == (rc, text):
            return
        try:
            bits = check.check_call(self.cases[i], rc, text)
        except check.CheckError as exc:
            self.failures.append(f"case {i}: {exc}")
            return
        self.verified[i] = (rc, text)
        self.max_bits = max(self.max_bits, bits)

    def run_pass(self, tracer: spans.Tracer | None = None) -> list[float]:
        """Run every case once; return the wall times scaled to the
        reference speed, in seconds."""
        latencies = []
        before = calibration_seconds()
        for i in range(len(self.cases)):
            if tracer:
                tracer.call_id += 1
            elapsed = self.call(i)
            after = calibration_seconds()
            latencies.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
        return latencies


def setup_sample(runner: Runner, env: dict) -> float:
    """Seconds for one fresh interpreter to answer one tiny call, scaled
    to the speed at which a bare interpreter starts in REFERENCE_START_S."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
    bare = time.perf_counter() - t0
    runner.attempted += 1
    if proc.returncode or proc.stdout != SETUP_OUTPUT:
        runner.failures.append(f"set-up call: exit {proc.returncode}, {proc.stdout!r}")
    return elapsed * REFERENCE_START_S / bare


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], str]:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    setup_sample(runner, env)  # the first start may compile bytecode
    runner.run_pass()
    passes: list[list[float]] = []
    setup: list[float] = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or sum(map(len, passes)) < MIN_CALLS:
        passes.append(runner.run_pass())
        setup.append(setup_sample(runner, env))
    while len(setup) < SETUP_RUNS:
        setup.append(setup_sample(runner, env))
    calls = [t for latencies in passes for t in latencies]
    failed = len(runner.failures)
    note = (f"{len(calls)} timed calls in {len(passes)} passes; {len(setup)} set-up "
            f"samples; error_rate {failed}/{runner.attempted} = {failed / runner.attempted:g}")
    return {
        "calls_per_s": len(calls) / sum(calls),
        "latency_ms_p50": statistics.median(calls) * 1e3,
        "latency_ms_p90": statistics.quantiles(calls, n=10)[8] * 1e3,
        "success_rate": 1 - failed / runner.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, note


def per_layer(runner: Runner, seconds: float, workload: str) -> tuple[dict[str, float], str]:
    runner.run_pass()
    tracer = spans.Tracer()
    untraced = traced = 0.0
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        untraced += sum(runner.run_pass())
        tracer.install()
        try:
            traced += sum(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
        passes += 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}.bin"
    tracer.write(path)
    metrics = spans.layer_metrics(tracer, passes)
    calls = passes * len(runner.cases)
    metrics["domain.max_coeff_bits"] = runner.max_bits
    metrics["trace.calls_per_s_untraced"] = calls / untraced
    metrics["trace.calls_per_s_traced"] = calls / traced
    metrics["trace.overhead"] = traced / untraced
    return metrics, f"{len(tracer)} spans of {passes} traced passes in {path.relative_to(ROOT)}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in this process; returns the result object."""
    sys.path.insert(0, str(SRC))
    from polydecomp import cli

    check.self_test()
    runner = Runner(cli, workloads.generate(workload, seed))
    if trace:
        values, note = per_layer(runner, seconds, workload)
    else:
        values, note = end_to_end(runner, seconds)
    for failure in runner.failures[:10]:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    print(f"{workload:10} {note}")
    metrics = {}
    for key, value in values.items():
        metrics[key] = {"value": value, "unit": unit(key, trace)}
        print(f"{workload:10} {key:38} {value:14.6g} {metrics[key]['unit']}")
    failed = len(runner.failures)
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def measure_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh process; its lines are passed through and
    its metric names prefixed with the workload."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    *lines, last = proc.stdout.splitlines()
    print(*lines, sep="\n", flush=True)
    result = json.loads(last)
    result["metrics"] = {f"{workload}/{k}": v for k, v in result["metrics"].items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "polydecomp" / "cli.py").is_file():
        print(f"error: no polydecomp sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    if len(names) == len(traces) == 1:
        result = measure(names[0], args.seed, seconds, bool(traces[0]))
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in traces:
                part = measure_child(name, args.seed, seconds, trace)
                result["correct"] = result["correct"] and part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update(part["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
