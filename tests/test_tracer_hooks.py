"""The benchmark's tracer (bench/spans.py) wraps package functions and
Poly methods by name; these must all exist, or ``bench/run.py --trace 1``
breaks.  The tracer is loaded by path and left unchanged."""

import importlib
import importlib.util
from pathlib import Path

from polydecomp import Poly

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    spans = _load_spans()
    for module, attr in spans.FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for method in spans.METHODS:
        assert method in Poly.__dict__, method
