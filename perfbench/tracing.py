"""Span tracing around the public functions of polyadj's modules.

``install`` wraps each function of ``SPANS`` at every binding: the module
attribute and every ``from ... import`` copy in polyadj's modules, since
callers reach a function through whichever binding their module holds.
Each call records a span (op id, span id, parent span id, name, start and
end in ns) in memory. ``ratmath.solve_linear`` and ``ratmath.dot`` are
left unwrapped: they are called so often that wrapping them would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# module -> public functions traced in it; a span is named "module.function"
SPANS = {
    "polyfile": ("parse_document",),
    "lp": ("solve", "is_feasible"),
    "polytope": ("from_inequalities", "from_vertices", "vertices", "implicit_equalities",
                 "embed_system", "hull_any_dim", "lattice_points"),
    "fan": ("normal_fan", "canonicity_threshold", "gorenstein_index"),
    "adjunction": ("critical_shift", "adjunction_data", "core_config", "verify_lemmas"),
    "spectrum": ("validate_config", "codegree_step", "spectrum_superset"),
    "ratmath": ("integer_kernel_basis", "saturate"),
}
LP_SPANS = ("lp.solve", "lp.is_feasible")
# enclosing spans of LP calls reported on their own; the rest count as "other"
LP_CALLERS = ("polytope.from_inequalities", "polytope.implicit_equalities",
              "adjunction.adjunction_data", "adjunction.critical_shift",
              "spectrum.validate_config")
ROOT = "op"


class Tracer:
    """In-memory span recorder; one root span per op."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.next_id = 0
        self.points = 0  # lattice points returned by polytope.lattice_points

    def wrap(self, name: str, func):
        stack = self.stack
        spans = self.spans
        counts_points = name == "polytope.lattice_points"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((self.op_id, sid, parent, name, start, end))
            if counts_points:
                self.points += len(result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def run_op(self, op_id: int, func, *args):
        """Call func inside the root span of op op_id."""
        self.op_id = op_id
        sid = self.next_id
        self.next_id = sid + 1
        self.stack.append(sid)
        start = perf_counter_ns()
        try:
            return func(*args)
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans.append((op_id, sid, -1, ROOT, start, end))


def install(tracer: Tracer) -> None:
    """Wrap every binding of every function in SPANS."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "polyadj" or name.startswith("polyadj."))]
    for module_name, funcs in SPANS.items():
        home = sys.modules[f"polyadj.{module_name}"]
        for func_name in funcs:
            original = getattr(home, func_name)
            if getattr(original, "__wrapped_by_tracer__", False):
                raise RuntimeError(f"{module_name}.{func_name} is already traced")
            wrapper = tracer.wrap(f"{module_name}.{func_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def summarize(spans) -> tuple[Counter, Counter, dict[int, Counter]]:
    """Per-name calls and self time (ns), and per-op span counts.

    Self time is a span's duration minus the durations of its children;
    spans of one thread nest, so children never overlap.
    """
    child_ns: Counter = Counter()
    names = {}
    for op_id, sid, parent, name, start, end in spans:
        names[sid] = name
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    per_op: dict[int, Counter] = {}
    for op_id, sid, parent, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[sid]
        per_op.setdefault(op_id, Counter())[name] += 1
        if name in LP_SPANS:
            caller = names.get(parent, ROOT)
            calls["lp.calls." + (caller if caller in LP_CALLERS else "other")] += 1
    return calls, self_ns, per_op
