"""Spans recorded from outside the program.

The tracer replaces module-global functions and methods of `artifact`
with wrappers that record a span per call: name, start, end, parent span
and certificate id.  Every module that imported a function by name (for
example each `from .upoly import poly_gcd`) holds its own reference, so
the tracer rebinds the name in every `artifact` module where it is bound
to the original.  Spans stay in memory; self times are derived from
them after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module that defines it, attribute path).  The span name's
# first component is the layer.  Methods are given as "Class.method".
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.run_check", "artifact.cli", "run_check"),
    ("cli.to_json", "artifact.cli", "ReportDocument.to_json"),
    ("cli.input_echo", "artifact.cli", "SystemSpec.input_echo"),
    ("cli.sweep_json", "artifact.cli", "sweep_json"),
    ("criteria.certify", "artifact.criteria", "certify"),
    ("criteria.partition_roots", "artifact.criteria", "partition_roots"),
    ("criteria.simplicity_profile", "artifact.criteria", "simplicity_profile"),
    ("criteria.criterion_scan", "artifact.criteria", "criterion_scan"),
    ("criteria.build_rho", "artifact.criteria", "build_rho"),
    ("criteria.divide_by_rho", "artifact.criteria", "divide_by_rho"),
    ("criteria.ode_test", "artifact.criteria", "_coprime_solution"),
    ("criteria.witness", "artifact.criteria", "_assemble_witness"),
    ("varcalc.kappa_coefficients", "artifact.varcalc", "kappa_coefficients"),
    ("varcalc.omega_decompose", "artifact.varcalc", "omega_decompose"),
    ("unfoldings.build", "artifact.unfoldings", "fold_hopf_system"),
    ("unfoldings.build", "artifact.unfoldings", "double_hopf_system"),
    ("expr.parse", "artifact.expr", "parse_expression"),
    ("expr.format", "artifact.expr", "format_scalar"),
    ("expr.format", "artifact.expr", "format_poly"),
    ("expr.format", "artifact.expr", "format_ratfunc"),
    ("expr.format", "artifact.expr", "format_bipoly"),
    ("exactalg.poly_gcd", "artifact.exactalg.upoly", "poly_gcd"),
    ("exactalg.ratfunc_init", "artifact.exactalg.ratfunc", "RatFunc.__init__"),
    ("exactalg.factor_irreducible", "artifact.exactalg.factorization",
     "factor_irreducible"),
    ("exactalg.sympy_split", "artifact.exactalg.factorization",
     "_split_with_sympy"),
    ("exactalg.coprime", "artifact.exactalg.factorization", "coprime"),
)

# A span: (name id, start ns, end ns, parent span index or -1, cert id).
Span = Tuple[int, int, int, int, int]


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        for q in (c.a, c.b):
            bits = max(bits, q.numerator.bit_length(),
                       q.denominator.bit_length())
    return bits


class Tracer:
    """Holds the spans of one traced run and the wrappers that make them."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.cert = -1
        self.gcd_max_deg = 0
        self.max_coeff_bits = 0
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.cert)

        if name == "exactalg.poly_gcd":
            inner = wrapper

            @functools.wraps(fn)
            def wrapper(a, b):
                self.gcd_max_deg = max(self.gcd_max_deg, a.degree, b.degree)
                self.max_coeff_bits = max(
                    self.max_coeff_bits, _coeff_bits(a), _coeff_bits(b)
                )
                return inner(a, b)

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded `artifact` module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "artifact" or n.startswith("artifact.")]
        for name, home, path in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules[home]
            if owner_name:
                owner = getattr(owner, owner_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(
        self, first: int = 0, last: Optional[int] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per span name, over spans[first:last]: calls, inclusive seconds
        (outermost calls of that name only, so nested calls are not
        counted twice) and self seconds."""
        spans = self.spans
        last = len(spans) if last is None else last
        child_ns: Dict[int, int] = {}
        for nid, start, end, parent, _ in spans[first:last]:
            if parent >= first:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: Dict[str, Dict[str, float]] = {
            n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names
        }
        for i in range(first, last):
            nid, start, end, parent, _ = spans[i]
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns.get(i, 0)) / 1e9
            if not self._has_ancestor(i, nid):
                entry["s"] += (end - start) / 1e9
        return out

    def _has_ancestor(self, index: int, nid: int) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path) -> None:
        """Write every span as JSON: a name table and one row per span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_ns", "end_ns", "parent",
                                   "cert"],
                       "spans": self.spans}, fh, separators=(",", ":"))
