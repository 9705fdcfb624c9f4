"""Span tracing of polydecomp from outside the package.

``Tracer.install`` wraps the public functions of each module and the
arithmetic methods of ``Poly``.  A function is replaced in every
``polydecomp`` module that binds it (``decomp``, ``decide`` and ``cli``
import ``approx_root``, ``decompose``, ``verify`` and the others by
name), and ``Poly`` methods are replaced on the class.  Each wrapped
call records a span (name, start, end, parent, call id) in memory; the
spans are written out once, at the end, and per-layer numbers are
derived from them afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# span name: (defining module, attribute)
FUNCTIONS = {
    "cli.main": ("polydecomp.cli", "main"),
    "cli.parse_poly": ("polydecomp.cli", "parse_poly"),
    "cli.poly_to_json": ("polydecomp.cli", "poly_to_json"),
    "cli.element_to_text": ("polydecomp.cli", "element_to_text"),
    "approot.approx_root": ("polydecomp.approot", "approx_root"),
    "decomp.decompose": ("polydecomp.decomp", "decompose"),
    "decomp.verify": ("polydecomp.decomp", "verify"),
    "decide.is_decomposable_uni": ("polydecomp.decide", "is_decomposable_uni"),
    "decide.is_decomposable_multi": ("polydecomp.decide", "is_decomposable_multi"),
    "decide.variety_equations": ("polydecomp.decide", "variety_equations"),
}

# Poly method: span name
METHODS = {
    "__mul__": "poly.mul",
    "__pow__": "poly.pow",
    "compose": "poly.compose",
    "__add__": "poly.addsub",
    "__sub__": "poly.addsub",
    "__str__": "poly.str",
}


def _input_chars(args) -> int:
    return len(args[0])


def _coeff_products(args) -> int:
    """Coefficient products one Poly.__mul__ performs, from operand sizes."""
    a, b = args
    if hasattr(b, "coeffs"):
        if not b.coeffs:
            return 0
        return sum(1 for c in a.coeffs if not c.is_zero) * len(b.coeffs)
    # a scalar Element multiplies every coefficient, zero or not
    return len(a.coeffs) if hasattr(b, "domain") else 0


# counter name: (span name, count of one call from its arguments)
COUNTERS = {
    "cli.parse_poly.input_chars": ("cli.parse_poly", _input_chars),
    "poly.mul.coeff_products": ("poly.mul", _coeff_products),
}


class Tracer:
    """Records spans in column arrays while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = next(((c, f) for c, (s, f) in COUNTERS.items() if s == name), None)
        names, starts, ends = self.name, self.start, self.end
        parents, calls, stack = self.parent, self.call, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if counter:
                    self.counts[counter[0]] += counter[1](args)

        return traced

    def install(self) -> None:
        from polydecomp.poly import Poly

        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for modname, mod in list(sys.modules.items()):
                if modname.split(".")[0] != "polydecomp":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for method, name in METHODS.items():
            original = Poly.__dict__[method]
            self._undo.append((Poly, method, original))
            setattr(Poly, method, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the five int64 columns."""
        header = {"names": self.names, "spans": len(self),
                  "columns": ["name", "start", "end", "parent", "call"], "counts": self.counts}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.call):
                column.tofile(f)


def self_times(start, end, parent) -> array:
    """Per span: its duration minus the length of the union of its
    children's intervals, clipped to the span itself."""
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    cover = array("q", bytes(8 * n))
    frontier = array("q", start)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], frontier[p])
        e = min(end[i], end[p])
        if e > s:
            cover[p] += e - s
            frontier[p] = e
    return array("q", (end[i] - start[i] - cover[i] for i in range(n)))


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer numbers for one pass over the workload's cases."""
    names = tracer.names
    self_ns = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    busy: Counter = Counter()
    under_root = bytearray(len(tracer))
    peel_steps = pow_in_root = 0
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        busy[name] += self_ns[i]
        p = tracer.parent[i]
        parent_name = names[tracer.name[p]] if p >= 0 else None
        under_root[i] = name == "approot.approx_root" or (p >= 0 and under_root[p])
        if name == "poly.compose" and parent_name == "decomp.decompose":
            peel_steps += 1
        elif name == "poly.pow" and under_root[i]:
            pow_in_root += 1

    def s(*span_names):
        return sum(busy[n] for n in span_names) / 1e9 / passes

    def count(value):
        return value / passes

    roots = calls["approot.approx_root"]
    products = tracer.counts["poly.mul.coeff_products"]
    out = {
        "cli.main.self_s": s("cli.main"),
        "cli.parse_poly.self_s": s("cli.parse_poly"),
        "cli.parse_poly.input_chars": count(tracer.counts["cli.parse_poly.input_chars"]),
        "cli.format.self_s": s("cli.poly_to_json", "cli.element_to_text", "poly.str"),
        "approot.approx_root.calls": count(roots),
        "approot.approx_root.self_s": s("approot.approx_root"),
        "approot.pow_per_root": pow_in_root / roots if roots else 0.0,
        "decomp.decompose.calls": count(calls["decomp.decompose"]),
        "decomp.decompose.self_s": s("decomp.decompose"),
        "decomp.peel_steps": count(peel_steps),
        "decomp.verify.self_s": s("decomp.verify"),
        "decide.is_decomposable_uni.self_s": s("decide.is_decomposable_uni"),
        "decide.is_decomposable_multi.self_s": s("decide.is_decomposable_multi"),
        "decide.variety_equations.self_s": s("decide.variety_equations"),
    }
    for op in ("mul", "pow", "compose", "addsub"):
        out[f"poly.{op}.calls"] = count(calls[f"poly.{op}"])
        out[f"poly.{op}.self_s"] = s(f"poly.{op}")
    out["poly.mul.coeff_products"] = count(products)
    out["domain.ns_per_coeff_product"] = busy["poly.mul"] / products if products else 0.0
    return out
