"""Per-layer tracing of ``tableaux`` from outside the program.

``install`` wraps the public functions that make up each layer and rebinds
every wrapper in each ``tableaux`` module namespace that holds the original
(modules import functions by name, and ``MultiPoly.__rmul__`` aliases
``__mul__``).  A wrapper records one span (name, start, end, parent,
request) in flat arrays and counts the work it can see from its arguments
and result.  Self time is computed from the spans after the run.
"""

from __future__ import annotations

import csv
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence

Count = Callable[["Tracer", tuple, Any], None]


def _repeat_calls(t: "Tracer", args: tuple, result: Any) -> None:
    key = (tuple(args[0]), args[1])
    if key in t.seen_weights:
        t.counters["formulas.skew_weight_polynomial.repeat_calls"] += 1
    t.seen_weights.add(key)


def _term_pairs(t: "Tracer", args: tuple, result: Any) -> None:
    a, b = args
    t.counters["multipoly.MultiPoly.mul.term_pairs"] += len(a.terms) * (
        len(b.terms) if hasattr(b, "terms") else 1)


def _box_points(t: "Tracer", args: tuple, result: Any) -> None:
    graph, box_bound = args
    t.counters["graded_graphs.check_minimum_closed.box_points"] += \
        (box_bound + 1) ** graph.k


def _sized(metric: str, size: Callable[[Any], int]) -> Count:
    def count(t: "Tracer", args: tuple, result: Any) -> None:
        t.counters[metric] += size(result)
    return count


# (module, attribute, span name, work counter); MultiPoly methods are
# listed as "MultiPoly.<dunder>".
LAYERS: list[tuple[str, str, str, Count | None]] = [
    ("cli", "main", "cli.main", None),
    ("formulas", "skew_weight_polynomial", "formulas.skew_weight_polynomial",
     _repeat_calls),
    ("formulas", "skew_weight_fn", "formulas.skew_weight_fn", None),
    ("formulas", "strict_skew_count", "formulas.strict_skew_count", None),
    ("multipoly", "MultiPoly.__mul__", "multipoly.MultiPoly.mul", _term_pairs),
    ("multipoly", "MultiPoly.__rmul__", "multipoly.MultiPoly.mul", _term_pairs),
    ("multipoly", "MultiPoly.__add__", "multipoly.MultiPoly.add", None),
    ("multipoly", "MultiPoly.__radd__", "multipoly.MultiPoly.add", None),
    ("laurent", "evaluate_with_limits", "laurent.evaluate_with_limits", None),
    ("laurent", "expand", "laurent.expand",
     _sized("laurent.expand.terms_out", lambda r: len(r.terms))),
    ("laurent", "coefficients", "laurent.coefficients", None),
    ("laurent", "polynomial_component", "laurent.polynomial_component", None),
    ("laurent", "verify_pfaffian_product", "laurent.verify_pfaffian_product", None),
    ("graded_graphs", "check_minimum_closed",
     "graded_graphs.check_minimum_closed", _box_points),
    ("graded_graphs", "check_coordinate_convex",
     "graded_graphs.check_coordinate_convex", None),
    ("graded_graphs", "constraint_monomials", "graded_graphs.constraint_monomials",
     _sized("graded_graphs.constraint_monomials.monomials", len)),
    ("graded_graphs", "construct_weight_series",
     "graded_graphs.construct_weight_series",
     _sized("graded_graphs.construct_weight_series.support",
            lambda r: len(r.coeffs))),
    ("graded_graphs", "verify_weight_conditions",
     "graded_graphs.verify_weight_conditions", None),
    ("graded_graphs", "weighted_path_count", "graded_graphs.weighted_path_count",
     None),
    ("graded_graphs", "count_paths_dp", "graded_graphs.count_paths_dp", None),
    ("graded_graphs", "path_count_table", "graded_graphs.path_count_table",
     _sized("graded_graphs.path_count_table.vertices", len)),
]

# The per-layer metrics the benchmark reports, in BENCHMARK.json order.
METRICS: list[tuple[str, str]] = [
    ("formulas.skew_weight_polynomial.calls", "count"),
    ("formulas.skew_weight_polynomial.repeat_calls", "count"),
    ("formulas.skew_weight_polynomial.self_s", "s"),
    ("formulas.skew_weight_fn.self_s", "s"),
    ("formulas.strict_skew_count.calls", "count"),
    ("formulas.strict_skew_count.self_s", "s"),
    ("multipoly.MultiPoly.mul.calls", "count"),
    ("multipoly.MultiPoly.mul.term_pairs", "count"),
    ("multipoly.MultiPoly.mul.self_s", "s"),
    ("multipoly.MultiPoly.add.calls", "count"),
    ("multipoly.MultiPoly.add.self_s", "s"),
    ("laurent.evaluate_with_limits.calls", "count"),
    ("laurent.evaluate_with_limits.self_s", "s"),
    ("laurent.expand.calls", "count"),
    ("laurent.expand.self_s", "s"),
    ("laurent.expand.terms_out", "count"),
    ("laurent.coefficients.self_s", "s"),
    ("laurent.polynomial_component.self_s", "s"),
    ("laurent.verify_pfaffian_product.self_s", "s"),
    ("graded_graphs.check_minimum_closed.calls", "count"),
    ("graded_graphs.check_minimum_closed.self_s", "s"),
    ("graded_graphs.check_minimum_closed.box_points", "count"),
    ("graded_graphs.check_coordinate_convex.self_s", "s"),
    ("graded_graphs.constraint_monomials.monomials", "count"),
    ("graded_graphs.construct_weight_series.self_s", "s"),
    ("graded_graphs.construct_weight_series.support", "count"),
    ("graded_graphs.verify_weight_conditions.self_s", "s"),
    ("graded_graphs.weighted_path_count.self_s", "s"),
    ("graded_graphs.count_paths_dp.calls", "count"),
    ("graded_graphs.count_paths_dp.self_s", "s"),
    ("graded_graphs.path_count_table.self_s", "s"),
    ("graded_graphs.path_count_table.vertices", "count"),
    ("identity_suite.self_s", "s"),
    ("cli.main.self_s", "s"),
]


class Tracer:
    """Spans in memory, one slot per wrapped call, plus work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.request = 0
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.seen_weights: set = set()

    def wrap(self, name: str, fn: Callable, count: Count | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.starts, self.ends, self.stack
        calls, clock = self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            calls[name] += 1
            if count is not None:
                count(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self, scale: Sequence[float] | None = None) -> dict[str, float]:
        """Each span's duration, minus the durations of its direct children;
        with ``scale``, every span of request r is multiplied by scale[r]."""
        totals = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        for i, (start, end) in enumerate(zip(self.starts, self.ends)):
            duration = end - start
            if scale is not None:
                duration *= scale[self.span_request[i]]
            totals[names[i]] += duration
            if parents[i] >= 0:
                totals[names[parents[i]]] -= duration
        return dict(zip(self.names, totals))

    def metrics(self, scale: Sequence[float] | None = None) -> dict[str, float]:
        self_s = self.self_times(scale)
        values: dict[str, float] = {}
        for metric, _unit in METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "self_s":
                values[metric] = self_s.get(layer, 0.0)
            elif field == "calls":
                values[metric] = self.calls[layer]
            else:
                values[metric] = self.counters[metric]
        return values

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["request", "name", "parent", "start", "end"])
            for i in range(len(self.starts)):
                out.writerow([self.span_request[i], self.names[self.span_name[i]],
                              self.span_parent[i], repr(self.starts[i]),
                              repr(self.ends[i])])


def _rebind(original: Callable, wrapper: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if name == "tableaux" or name.startswith("tableaux."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function of the imported ``tableaux`` package."""
    import tableaux.identity_suite as identity_suite
    from tableaux.multipoly import MultiPoly

    for module_name, attr, span, count in LAYERS:
        if attr.startswith("MultiPoly."):
            method = attr.partition(".")[2]
            setattr(MultiPoly, method,
                    tracer.wrap(span, vars(MultiPoly)[method], count))
        else:
            original = getattr(sys.modules["tableaux." + module_name], attr)
            _rebind(original, tracer.wrap(span, original, count))
    for attr, value in list(vars(identity_suite).items()):
        if (callable(value) and not attr.startswith("_")
                and getattr(value, "__module__", "") == identity_suite.__name__
                and not isinstance(value, type)):
            _rebind(value, tracer.wrap("identity_suite", value, None))
