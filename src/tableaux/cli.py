"""Command line interface.

Subcommands:

* ``count``  - one path count, by any or all of the three methods
* ``verify`` - run a named identity check (or the whole sweep); JSON lines out
* ``hooks``  - hook lengths, their product, and the tableau count
* ``phi``    - construct and verify a weight series at a vertex
* ``table``  - DP path counts from a vertex to every target in range

Exit codes: 0 success, 1 a verification or agreement failure, 2 usage or
budget errors.  Budgets default to max_k=6, max_degree=16, max_n=8,
max_compositions=30000 and can be overridden with
TABLEAUX_BUDGET_OVERRIDE="max_k=9,max_n=99".  ``max_compositions`` bounds
the terms of the composition sum behind ``verify hook`` and ``verify skew``,
and ``verify skew`` also needs max(anchor) + n <= max_degree.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from math import comb
from typing import Sequence

from . import identity_suite
from .formulas import (closed_form_count, format_partition, hook_lengths,
                       hook_product, parse_partition,
                       partition_to_young_vertex, strict_partition_to_vertex,
                       syt_count_hook)
from .graded_graphs import (CustomBoxGraph, GradedGraph,
                            SeriesConstructionError, construct_weight_series,
                            count_paths_dp, degree, make_graph,
                            path_count_table, verify_weight_conditions,
                            weighted_path_count)
from .laurent import LimitInfiniteError, verify_pfaffian_product
from .reports import CountReport, VerifyReport

DEFAULT_BUDGETS = {"max_k": 6, "max_degree": 16, "max_n": 8,
                   "max_compositions": 30000}
BUDGET_ENV = "TABLEAUX_BUDGET_OVERRIDE"

VERIFY_CHECKS = ("vandermonde", "multinomial", "hook", "skew", "polycomponent",
                 "skew-polycomponent", "pfaffian", "counts", "pairs",
                 "construction", "controls", "sweep")


class BudgetError(Exception):
    """A requested size exceeds the configured budget."""


def _load_budgets() -> dict[str, int]:
    budgets = dict(DEFAULT_BUDGETS)
    raw = os.environ.get(BUDGET_ENV, "")
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in budgets:
            raise BudgetError(f"cannot parse override {part!r}; "
                              f"known keys: {', '.join(sorted(budgets))}")
        try:
            budgets[key] = int(value.strip())
        except ValueError:
            raise BudgetError(f"override {part!r} is not an integer") from None
    return budgets


def _require(budgets: dict[str, int], **named: int) -> None:
    for key, value in named.items():
        if value > budgets[key]:
            raise BudgetError(
                f"{key}={budgets[key]} but the request needs {value} "
                f"(raise it via {BUDGET_ENV})")


def _composition_count(anchor: tuple[int, ...], steps: int) -> int:
    """Compositions of steps + |anchor| into len(anchor) parts: the terms of
    the anchored composition sum."""
    total = steps + sum(anchor)
    if not anchor or total < 0:
        return 0
    return comb(total + len(anchor) - 1, len(anchor) - 1)


def _parse_vertex(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse vertex from {text!r}") from None


def _resolve_graph(args: argparse.Namespace, budgets: dict[str, int]) -> GradedGraph:
    if args.graph == "custom":
        if not getattr(args, "vertices", None):
            raise ValueError("--vertices is required for custom graphs")
        verts = [_parse_vertex(p) for p in args.vertices.split(";") if p.strip()]
        if not verts:
            raise ValueError("--vertices is empty")
        k = len(verts[0])
        if args.k is not None and args.k != k:
            raise ValueError(f"--k {args.k} disagrees with --vertices (k={k})")
        _require(budgets, max_k=k)
        return CustomBoxGraph(k, verts)
    if args.k is None:
        raise ValueError("--k is required")
    _require(budgets, max_k=args.k)
    return make_graph(args.graph, args.k)


def _resolve_vertex(graph: GradedGraph, vertex_text: str | None,
                    partition_text: str | None,
                    default: tuple[int, ...] | None = None,
                    role: str = "target") -> tuple[int, ...]:
    if vertex_text is not None and partition_text is not None:
        raise ValueError(f"give the {role} as a vertex or a partition, not both")
    if vertex_text is not None:
        v = _parse_vertex(vertex_text)
    elif partition_text is not None:
        rows = parse_partition(partition_text)
        if graph.name == "young":
            v = partition_to_young_vertex(rows, graph.k)
        elif graph.name == "strict":
            v = strict_partition_to_vertex(rows, graph.k)
        else:
            raise ValueError(
                f"partition input is not defined for {graph.name} graphs")
    elif default is not None:
        v = default
    else:
        raise ValueError(f"a {role} vertex is required")
    if not graph.contains(v):
        raise ValueError(f"{v} is not a vertex of the {graph.name} graph")
    return v


def _series_count(graph: GradedGraph, src: tuple[int, ...],
                  dst: tuple[int, ...]) -> int:
    """The weight-series count, read off only once the series passes its
    defining conditions, as ``phi`` checks them."""
    bound = max(degree(dst), degree(src))
    phi = construct_weight_series(graph, src, bound)
    conditions = verify_weight_conditions(graph, src, phi, bound)
    if not conditions.ok:
        witness = conditions.witness
        raise SeriesConstructionError(
            f"weight_conditions fails: {witness['condition']} "
            f"(value {witness['value']})", monomial=tuple(witness["monomial"]))
    return weighted_path_count(graph, phi, src, dst)


def _write_csv(rows: list[list[object]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerows(rows)


# -- count ----------------------------------------------------------------------

def _cmd_count(args: argparse.Namespace, budgets: dict[str, int]) -> int:
    graph = _resolve_graph(args, budgets)
    src = _resolve_vertex(graph, args.src, args.from_partition,
                          default=graph.base_vertex(), role="source")
    dst = _resolve_vertex(graph, args.dst, args.to_partition, role="target")
    _require(budgets, max_degree=max(degree(dst) - degree(src), 0))

    if args.method == "all":
        methods = ["oracle", "phi"] if graph.name == "custom" else \
            ["formula", "oracle", "phi"]
    else:
        methods = [args.method]
    counts: dict[str, int] = {}
    for method in methods:
        if method == "formula":
            counts[method] = closed_form_count(graph.name, src, dst)[1]
        elif method == "oracle":
            counts[method] = count_paths_dp(graph, src, dst)
        else:
            counts[method] = _series_count(graph, src, dst)

    report = CountReport(graph.name, graph.k, src, dst, counts)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        _write_csv([["method", "count"]]
                   + [[m, counts[m]] for m in methods])
    else:
        if report.agree:
            print(next(iter(counts.values())))
        else:
            print(" ".join(f"{m}={v}" for m, v in counts.items()))
    return 0 if report.agree else 1


# -- verify -----------------------------------------------------------------------

def _verify_reports(args: argparse.Namespace,
                    budgets: dict[str, int]) -> list[VerifyReport]:
    name = args.check
    if name in ("vandermonde", "multinomial", "hook", "skew", "polycomponent",
                "skew-polycomponent"):
        _require(budgets, max_k=args.k, max_n=args.n)
    if name == "vandermonde":
        return [identity_suite.check_vandermonde(args.k, args.n)]
    if name == "multinomial":
        return [identity_suite.check_multinomial(args.k, args.n)]
    if name == "hook":
        _require(budgets, max_compositions=_composition_count(
            tuple(range(args.k)), args.n))
        return [identity_suite.check_hook_identity(args.k, args.n)]
    if name == "skew":
        anchor = (_parse_vertex(args.anchor) if args.anchor
                  else tuple(range(args.k)))
        # the alternants have degree max(anchor) in each variable
        _require(budgets, max_degree=max(anchor, default=0) + args.n,
                 max_compositions=_composition_count(anchor, args.n))
        return [identity_suite.check_skew_identity(args.k, anchor, args.n)]
    if name == "polycomponent":
        return [identity_suite.check_polycomponent(args.k, args.n)]
    if name == "skew-polycomponent":
        sigma = parse_partition(args.sigma)
        return [identity_suite.check_skew_polycomponent(sigma, args.k, args.n)]
    if name == "pfaffian":
        _require(budgets, max_k=args.k)
        return [verify_pfaffian_product(args.k)]
    if name == "counts":
        _require(budgets, max_k=args.k, max_degree=args.deg)
        return [identity_suite.check_counts_from_base(args.graph, args.k, args.deg)]
    if name == "pairs":
        _require(budgets, max_k=args.k, max_degree=args.deg)
        return [identity_suite.check_skew_pairs(args.graph, args.k, args.deg,
                                                args.pairs, args.seed)]
    if name == "construction":
        _require(budgets, max_k=args.k, max_degree=args.deg)
        return [identity_suite.check_series_construction(args.graph, args.k,
                                                         args.deg)]
    if name == "controls":
        return identity_suite.negative_controls()
    if name == "sweep":
        return identity_suite.default_sweep() + identity_suite.negative_controls()
    raise ValueError(f"unknown check {name!r}")


def _cmd_verify(args: argparse.Namespace, budgets: dict[str, int]) -> int:
    reports = _verify_reports(args, budgets)
    for rep in reports:
        print(rep.to_json_line())
    return 0 if all(rep.ok for rep in reports) else 1


# -- hooks ------------------------------------------------------------------------

def _cmd_hooks(args: argparse.Namespace, budgets: dict[str, int]) -> int:
    rows = parse_partition(args.partition)
    _require(budgets, max_k=max(len(rows), 1), max_degree=sum(rows))
    grid = hook_lengths(rows)
    product = hook_product(rows)
    count = syt_count_hook(rows)
    if args.format == "json":
        print(json.dumps({"partition": format_partition(rows),
                          "hooks": grid,
                          "product": str(product),
                          "count": str(count)}))
    elif args.format == "csv":
        cells = [["row", "col", "hook"]]
        for r, line in enumerate(grid):
            for c, h in enumerate(line):
                cells.append([r, c, h])
        _write_csv(cells)
    else:
        for line in grid:
            print(" ".join(str(h) for h in line))
        print(f"product {product}")
        print(f"count {count}")
    return 0


# -- phi --------------------------------------------------------------------------

def _cmd_phi(args: argparse.Namespace, budgets: dict[str, int]) -> int:
    graph = _resolve_graph(args, budgets)
    v = _resolve_vertex(graph, args.src, args.from_partition,
                        default=graph.base_vertex(), role="base")
    _require(budgets, max_degree=args.deg)
    bound = degree(v) + args.deg
    phi = construct_weight_series(graph, v, bound)
    conditions = verify_weight_conditions(graph, v, phi, bound)
    items = phi.sorted_items()
    if args.format == "json":
        print(json.dumps({
            "graph": graph.name,
            "k": graph.k,
            "base": ",".join(str(c) for c in v),
            "bound": bound,
            "coefficients": {",".join(str(e) for e in exps): str(c)
                             for exps, c in items},
            "conditions": conditions.status,
        }))
    elif args.format == "csv":
        _write_csv([["monomial", "coefficient"]]
                   + [[",".join(str(e) for e in exps), c] for exps, c in items])
    else:
        for exps, c in items:
            print(f"{','.join(str(e) for e in exps)} {c}")
        print(f"conditions {conditions.status}")
    return 0 if conditions.ok else 1


# -- table ------------------------------------------------------------------------

def _cmd_table(args: argparse.Namespace, budgets: dict[str, int]) -> int:
    graph = _resolve_graph(args, budgets)
    v = _resolve_vertex(graph, args.src, args.from_partition,
                        default=graph.base_vertex(), role="source")
    _require(budgets, max_degree=args.deg)
    table = path_count_table(graph, v, degree(v) + args.deg)
    ordered = sorted(table, key=lambda w: (degree(w), w))
    if args.format == "json":
        print(json.dumps({
            "graph": graph.name,
            "k": graph.k,
            "from": ",".join(str(c) for c in v),
            "counts": {",".join(str(e) for e in u): str(table[u])
                       for u in ordered},
        }))
    elif args.format == "csv":
        _write_csv([["vertex", "count"]]
                   + [[",".join(str(e) for e in u), table[u]] for u in ordered])
    else:
        for u in ordered:
            print(f"{','.join(str(e) for e in u)} {table[u]}")
    return 0


# -- parser -------------------------------------------------------------------------

def _add_graph_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", choices=("pascal", "young", "strict", "custom"),
                     default="pascal")
    sub.add_argument("--k", type=int, default=None,
                     help="number of coordinates")
    sub.add_argument("--vertices", default=None,
                     help="custom graph vertex list, e.g. '0,0;1,0;0,1'")
    sub.add_argument("--from", dest="src", default=None,
                     help="source vertex, comma separated ascending")
    sub.add_argument("--from-partition", default=None,
                     help="source as partition rows, decreasing ('-' for empty)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no per-request state
    (budgets are read per call, and handlers look up their helpers when
    they run), so ``main`` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="tableaux",
        description="Exact path counts in graded lattice graphs, verified "
                    "three ways.")
    subs = parser.add_subparsers(dest="command", required=True)

    count = subs.add_parser("count", help="count paths between two vertices")
    _add_graph_options(count)
    count.add_argument("--to", dest="dst", default=None,
                       help="target vertex, comma separated ascending")
    count.add_argument("--to-partition", default=None,
                       help="target as partition rows, decreasing")
    count.add_argument("--method", choices=("formula", "oracle", "phi", "all"),
                       default="all")
    count.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
    count.set_defaults(handler=_cmd_count)

    verify = subs.add_parser("verify", help="run a named identity check")
    verify.add_argument("check", choices=VERIFY_CHECKS)
    verify.add_argument("--k", type=int, default=2)
    verify.add_argument("--n", type=int, default=3,
                        help="size parameter (steps or total degree)")
    verify.add_argument("--anchor", default=None,
                        help="anchor vertex for the skew check")
    verify.add_argument("--sigma", default="-",
                        help="distinct-parts anchor partition")
    verify.add_argument("--graph", choices=("pascal", "young", "strict"),
                        default="young")
    verify.add_argument("--deg", type=int, default=6,
                        help="degree range for count cross-checks")
    verify.add_argument("--pairs", type=int, default=200)
    verify.add_argument("--seed", type=int, default=1)
    verify.set_defaults(handler=_cmd_verify)

    hooks = subs.add_parser("hooks", help="hook lengths of a partition")
    hooks.add_argument("--partition", required=True,
                       help="rows, decreasing, e.g. '3,2,1'")
    hooks.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
    hooks.set_defaults(handler=_cmd_hooks)

    phi = subs.add_parser("phi", help="construct and verify a weight series")
    _add_graph_options(phi)
    phi.add_argument("--deg", type=int, default=4,
                     help="how many levels above the base to certify")
    phi.add_argument("--format", choices=("plain", "json", "csv"),
                     default="plain")
    phi.set_defaults(handler=_cmd_phi)

    table = subs.add_parser("table", help="DP path counts from one vertex")
    _add_graph_options(table)
    table.add_argument("--deg", type=int, default=4,
                       help="how many levels to sweep")
    table.add_argument("--format", choices=("plain", "json", "csv"),
                       default="plain")
    table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        budgets = _load_budgets()
        return args.handler(args, budgets)
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except SeriesConstructionError as exc:
        where = f" at {exc.monomial}" if exc.monomial else ""
        print(f"weight series construction failed{where}: {exc}", file=sys.stderr)
        return 1
    except LimitInfiniteError as exc:
        print(f"exact expansion failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
