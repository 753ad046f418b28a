"""Command line interface.

Subcommands:

* ``count``  - one path count, by any or all of the three methods
* ``verify`` - run a named identity check (or the whole sweep); JSON lines out
* ``hooks``  - hook lengths, their product, and the tableau count
* ``phi``    - construct and verify a weight series at a vertex
* ``table``  - DP path counts from a vertex to every target in range

Exit codes: 0 success, 1 a verification or agreement failure, 2 usage or
budget errors.  Budgets default to max_k=6, max_degree=16, max_n=8,
max_compositions=30000, max_pairs=2000, max_vertices=500 and can be
overridden with TABLEAUX_BUDGET_OVERRIDE="max_k=9,max_n=99".  The size
rule of each ``verify`` check is in its ``_CHECKS`` row, the budget keys it
is held to.  ``max_vertices`` bounds the entries of a custom graph's
``--vertices`` list: its minimum-closure scan is quadratic in the list's
length, and its convexity scan linear (up to a sort), whatever the size of
the coordinates.

Each subcommand's options are declared once, in ``_COMMANDS``.  A plain
request (exact ``--flag value`` pairs whose values do not start with ``-``,
and ``verify``'s check) is read by ``_read_plain`` from ``_PLAIN_INDEX``,
which is built from that table, so it does not even import argparse.  Any
other, help included, is parsed once by the top-level argparse parser, built
from the same table on first use, which words every usage error.  A request
imports only what it runs: the identity suite is imported by ``verify``,
``json`` and ``csv`` by the writers that print them.
"""

from __future__ import annotations

import functools
import os
import sys
from math import comb
from types import SimpleNamespace
from typing import Callable, Sequence

from .formulas import (_closed_form_count, _hook_count, _hook_lengths,
                       _hook_product, _partition_vertex, format_partition,
                       parse_partition)
from .graded_graphs import (CustomBoxGraph, GradedGraph,
                            SeriesConstructionError, construct_weight_series,
                            count_paths_dp, degree, make_graph,
                            path_count_table, verify_weight_conditions,
                            weighted_path_count)
from .laurent import LimitInfiniteError
from .multipoly import grlex_key
from .reports import CountReport, VerifyReport

DEFAULT_BUDGETS = {"max_k": 6, "max_degree": 16, "max_n": 8,
                   "max_compositions": 30000, "max_pairs": 2000,
                   "max_vertices": 500}
BUDGET_ENV = "TABLEAUX_BUDGET_OVERRIDE"


class BudgetError(Exception):
    """A requested size exceeds the configured budget."""


def _load_budgets() -> dict[str, int]:
    budgets = dict(DEFAULT_BUDGETS)
    for part in os.environ.get(BUDGET_ENV, "").split(","):
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
    """Compositions of steps + |anchor| into len(anchor) >= 1 parts: the
    terms of the anchored composition sum."""
    total = steps + sum(anchor)
    return comb(total + len(anchor) - 1, len(anchor) - 1) if total >= 0 else 0


def _parse_vertex(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse vertex from {text!r}") from None


def _resolve_graph(args: SimpleNamespace, budgets: dict[str, int]) -> GradedGraph:
    if args.graph == "custom":
        if not getattr(args, "vertices", None):
            raise ValueError("--vertices is required for custom graphs")
        verts = [_parse_vertex(p) for p in args.vertices.split(";") if p.strip()]
        if not verts:
            raise ValueError("--vertices is empty")
        k = len(verts[0])
        if args.k is not None and args.k != k:
            raise ValueError(f"--k {args.k} disagrees with --vertices (k={k})")
        _require(budgets, max_k=k, max_vertices=len(verts))
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
        # the codec takes checked rows to a vertex of the graph
        return _partition_vertex(graph.name, parse_partition(partition_text),
                                 graph.k)
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
    import csv
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _write_json(doc: dict[str, object]) -> None:
    import json
    print(json.dumps(doc))


# -- count ----------------------------------------------------------------------

def _cmd_count(args: SimpleNamespace, budgets: dict[str, int]) -> int:
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
            # src and dst are vertices of the graph, by graph.contains or
            # by the codec, in the relation the closed forms check
            counts[method] = _closed_form_count(graph.name, src, dst)[1]
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
    elif report.agree:
        print(next(iter(counts.values())))
    else:
        print(" ".join(f"{m}={v}" for m, v in counts.items()))
    return 0 if report.agree else 1


# -- verify -----------------------------------------------------------------------

# Each check's runner (a name in ``identity_suite``, a tuple for batteries),
# the options it reads in argument order, and its budget keys in check order.
_CHECKS = {
    "vandermonde": ("check_vandermonde", ("k", "n"), ("max_k", "max_n")),
    "multinomial": ("check_multinomial", ("k", "n"), ("max_k", "max_n")),
    "hook": ("check_hook_identity", ("k", "n"),
             ("max_k", "max_n", "max_compositions")),
    "skew": ("check_skew_identity", ("k", "anchor", "n"),
             ("max_k", "max_n", "max_degree", "max_compositions")),
    "polycomponent": ("check_polycomponent", ("k", "n"), ("max_k", "max_n")),
    "skew-polycomponent": ("check_skew_polycomponent", ("sigma", "k", "n"),
                           ("max_k", "max_n")),
    "pfaffian": ("verify_pfaffian_product", ("k",), ("max_k",)),
    "counts": ("check_counts_from_base", ("graph", "k", "deg"),
               ("max_k", "max_degree")),
    "pairs": ("check_skew_pairs", ("graph", "k", "deg", "pairs", "seed"),
              ("max_k", "max_degree", "max_pairs")),
    "construction": ("check_series_construction", ("graph", "k", "deg"),
                     ("max_k", "max_degree")),
    "controls": (("negative_controls",), (), ()),
    "sweep": (("default_sweep", "negative_controls"), (), ()),
}
VERIFY_CHECKS = tuple(_CHECKS)


def _verify_reports(args: SimpleNamespace,
                    budgets: dict[str, int]) -> list[VerifyReport]:
    """The reports of the check's ``_CHECKS`` row: k >= 1, each budget key
    in turn, then the runner.  ``--anchor`` and ``--sigma`` are parsed at
    first use, so a key checked earlier refuses a request before that."""
    from . import identity_suite
    runner, options, keys = _CHECKS[args.check]
    if isinstance(runner, tuple):  # batteries: their reports, in order
        return sum((getattr(identity_suite, name)() for name in runner), [])
    if args.k < 1:
        raise ValueError("need k >= 1")

    @functools.cache
    def value(name: str) -> object:
        if name == "sigma":
            return parse_partition(args.sigma)
        if name != "anchor":
            return getattr(args, name)
        if "anchor" not in options or not args.anchor:
            return tuple(range(args.k))  # hook's, and skew's by default
        anchor = _parse_vertex(args.anchor)
        if len(anchor) != args.k:
            raise ValueError(
                f"--k {args.k} disagrees with --anchor (k={len(anchor)})")
        return anchor

    needs = {"max_k": lambda: args.k, "max_n": lambda: args.n,
             "max_pairs": lambda: args.pairs,
             # the alternants have degree max(anchor) in each variable
             "max_degree": lambda: (max(value("anchor")) + args.n
                                    if "anchor" in options else args.deg),
             "max_compositions": lambda: _composition_count(value("anchor"),
                                                            args.n)}
    for key in keys:
        _require(budgets, **{key: needs[key]()})
    return [getattr(identity_suite, runner)(*map(value, options))]


def _cmd_verify(args: SimpleNamespace, budgets: dict[str, int]) -> int:
    reports = _verify_reports(args, budgets)
    for rep in reports:
        print(rep.to_json_line())
    return 0 if all(rep.ok for rep in reports) else 1


# -- hooks ------------------------------------------------------------------------

def _cmd_hooks(args: SimpleNamespace, budgets: dict[str, int]) -> int:
    rows = parse_partition(args.partition)
    _require(budgets, max_k=max(len(rows), 1), max_degree=sum(rows))
    grid = _hook_lengths(rows)
    product = _hook_product(rows, grid)
    count = _hook_count(rows, product)
    if args.format == "json":
        _write_json({"partition": format_partition(rows),
                     "hooks": grid,
                     "product": str(product),
                     "count": str(count)})
    elif args.format == "csv":
        _write_csv([["row", "col", "hook"]]
                   + [[r, c, h] for r, line in enumerate(grid)
                      for c, h in enumerate(line)])
    else:
        for line in grid:
            print(" ".join(str(h) for h in line))
        print(f"product {product}")
        print(f"count {count}")
    return 0


# -- phi --------------------------------------------------------------------------

def _cmd_phi(args: SimpleNamespace, budgets: dict[str, int]) -> int:
    graph = _resolve_graph(args, budgets)
    v = _resolve_vertex(graph, args.src, args.from_partition,
                        default=graph.base_vertex(), role="base")
    _require(budgets, max_degree=args.deg)
    bound = degree(v) + args.deg
    phi = construct_weight_series(graph, v, bound)
    conditions = verify_weight_conditions(graph, v, phi, bound)
    items = sorted(phi.coeffs.items())
    if args.format == "json":
        _write_json({
            "graph": graph.name,
            "k": graph.k,
            "base": ",".join(str(c) for c in v),
            "bound": bound,
            "coefficients": {",".join(str(e) for e in exps): str(c)
                             for exps, c in items},
            "conditions": conditions.status,
        })
    elif args.format == "csv":
        _write_csv([["monomial", "coefficient"]]
                   + [[",".join(str(e) for e in exps), c] for exps, c in items])
    else:
        for exps, c in items:
            print(f"{','.join(str(e) for e in exps)} {c}")
        print(f"conditions {conditions.status}")
    return 0 if conditions.ok else 1


# -- table ------------------------------------------------------------------------

def _cmd_table(args: SimpleNamespace, budgets: dict[str, int]) -> int:
    graph = _resolve_graph(args, budgets)
    v = _resolve_vertex(graph, args.src, args.from_partition,
                        default=graph.base_vertex(), role="source")
    _require(budgets, max_degree=args.deg)
    table = path_count_table(graph, v, degree(v) + args.deg)
    vertex = ",".join(["%d"] * graph.k)  # a vertex as comma-separated text
    rows = [(vertex % u, table[u]) for u in sorted(table, key=grlex_key)]
    if args.format == "json":
        _write_json({
            "graph": graph.name,
            "k": graph.k,
            "from": ",".join(map(str, v)),
            "counts": {name: str(count) for name, count in rows},
        })
    elif args.format == "csv":
        _write_csv([("vertex", "count"), *rows])
    else:
        sys.stdout.write("".join(f"{name} {count}\n" for name, count in rows))
    return 0


# -- parser -------------------------------------------------------------------------

_FORMAT = ("--format", dict(choices=("plain", "json", "csv"), default="plain"))
_GRAPH_OPTIONS = (
    ("--graph", dict(choices=("pascal", "young", "strict", "custom"),
                     default="pascal")),
    ("--k", dict(type=int, help="number of coordinates")),
    ("--vertices", dict(help="custom graph vertex list, e.g. '0,0;1,0;0,1'")),
    ("--from", dict(dest="src",
                    help="source vertex, comma separated ascending")),
    ("--from-partition", dict(
        help="source as partition rows, decreasing ('-' for empty)")),
)

# Each subcommand's help, handler and options (name, add_argument keywords),
# in help order: the one declaration of the command line.
_COMMANDS = {
    "count": ("count paths between two vertices", _cmd_count, (
        *_GRAPH_OPTIONS,
        ("--to", dict(dest="dst",
                      help="target vertex, comma separated ascending")),
        ("--to-partition", dict(help="target as partition rows, decreasing")),
        ("--method", dict(choices=("formula", "oracle", "phi", "all"),
                          default="all")),
        _FORMAT)),
    "verify": ("run a named identity check", _cmd_verify, (
        ("check", dict(choices=VERIFY_CHECKS)),
        ("--k", dict(type=int, default=2)),
        ("--n", dict(type=int, default=3,
                     help="size parameter (steps or total degree)")),
        ("--anchor", dict(help="anchor vertex for the skew check")),
        ("--sigma", dict(default="-", help="distinct-parts anchor partition")),
        ("--graph", dict(choices=("pascal", "young", "strict"),
                         default="young")),
        ("--deg", dict(type=int, default=6,
                       help="degree range for count cross-checks")),
        ("--pairs", dict(type=int, default=200)),
        ("--seed", dict(type=int, default=1)))),
    "hooks": ("hook lengths of a partition", _cmd_hooks, (
        ("--partition", dict(required=True,
                             help="rows, decreasing, e.g. '3,2,1'")),
        _FORMAT)),
    "phi": ("construct and verify a weight series", _cmd_phi, (
        *_GRAPH_OPTIONS,
        ("--deg", dict(type=int, default=4,
                       help="how many levels above the base to certify")),
        _FORMAT)),
    "table": ("DP path counts from one vertex", _cmd_table, (
        *_GRAPH_OPTIONS,
        ("--deg", dict(type=int, default=4, help="how many levels to sweep")),
        _FORMAT)),
}


def _plain_entry(handler: Callable[..., int],
                 options: tuple) -> tuple[dict, dict, set]:
    """A subcommand's ``_PLAIN_INDEX`` entry, read off its options as
    argparse reads them: each flag's (dest, type, choices), and the
    positional's under None; every dest's default, plus the handler; the
    required dests (the positional, and options declared required)."""
    flags, defaults, required = {}, {"handler": handler}, set()
    for name, keywords in options:
        positional = not name.startswith("-")
        dest = name if positional else keywords.get(
            "dest", name[2:].replace("-", "_"))
        flags[None if positional else name] = (
            dest, keywords.get("type"), keywords.get("choices"))
        defaults[dest] = keywords.get("default")
        if positional or keywords.get("required"):
            required.add(dest)
    return flags, defaults, required


_PLAIN_INDEX = {command: _plain_entry(handler, options)
                for command, (_, handler, options) in _COMMANDS.items()}


@functools.cache
def _build_parser():
    """The top-level parser, which reads whole each request ``_read_plain``
    declines, built from ``_COMMANDS`` on the first such request and kept:
    it holds no per-request state (budgets are read per call, and handlers
    look up their helpers when they run)."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tableaux",
        description="Exact path counts in graded lattice graphs, verified "
                    "three ways.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for name, keywords in options:
            sub.add_argument(name, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The values argparse reads from argv, less the ``command`` no handler
    reads, when every token after the subcommand is an exact ``--flag
    value`` pair whose value does not start with ``-``, or the subcommand's
    one positional: each value converted and checked as its option declares,
    the last repeat of a flag winning, defaults and handler filled in.
    None for any other request (help, abbreviations, ``--flag=value``,
    values starting with ``-``, stray or unknown strings, bad values, a
    missing required option), which argparse then reads and words."""
    entry = _PLAIN_INDEX.get(argv[0]) if argv else None
    if entry is None:
        return None
    flags, defaults, required = entry
    values, given = dict(defaults), set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            spec, text = flags.get(token), next(tokens, "-")
            if spec is None or text.startswith("-"):
                return None
        else:
            spec, text = flags.get(None), token
            if spec is None or spec[0] in given:
                return None
        dest, convert, choices = spec
        try:
            value = text if convert is None else convert(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        given.add(dest)
    return SimpleNamespace(**values) if required <= given else None


def main(argv: Sequence[str] | None = None) -> int:
    """Run one request.  A plain request (``--flag value`` pairs and
    ``verify``'s check) is read from the option table by ``_read_plain``,
    into the values that argparse would read.  Any other is parsed once by
    the top-level parser, so that help and every usage error are worded as
    argparse words them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv) or _build_parser().parse_args(argv,
                                                           SimpleNamespace())
    try:
        for flag in ("n", "deg"):
            value = getattr(args, flag, 0)
            if value < 0:
                raise ValueError(f"--{flag} must be >= 0, got {value}")
        return args.handler(args, _load_budgets())
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
