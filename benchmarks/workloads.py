"""Seeded operation batches for the three benchmark workloads.

Every operation is one ``tableaux`` command line plus what its reply must
satisfy.  A batch is a whole number of rounds; each round holds the same
kinds of operation in a seeded order, so a batch's cost depends on the seed
only through choices made inside cost bands.  ``--seconds`` fixes the
number of rounds (``RATES`` is rounds per second on the reference machine),
so a faster program finishes the same batch sooner.  Nothing here imports
``tableaux``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import (PREDICATES, Vertex, base_vertex, strict_rows,
                       strict_vertex)

MIN_OPS = 110
# Rounds per second of --seconds, calibrated so that one untraced run takes
# about --seconds on the reference machine (see README).
RATES = {"strict-formula": 1.25, "series": 0.3, "verify": 0.5}


@dataclass
class Op:
    """One request and the check its reply must pass.

    ``check`` is ``("count", graph, source, target)``,
    ``("series", graph, base, bound)``, ``("verify", identities)`` or
    ``("fault", vertices, source, target)``.  Only the fault operation may
    fail without making the run incorrect.
    """

    kind: str
    argv: list[str]
    check: tuple
    exempt: bool = False


def _csv(v: Vertex) -> str:
    return ",".join(str(c) for c in v)


def _walk(graph: str, v: Vertex, steps: int, rng: random.Random) -> Vertex:
    """A seeded vertex ``steps`` unit steps above v, so paths to it exist."""
    contains = PREDICATES[graph]
    for _ in range(steps):
        ups = [v[:i] + (v[i] + 1,) + v[i + 1:] for i in range(len(v))]
        v = rng.choice([w for w in ups if contains(w)])
    return v


def _rounds(seconds: int, rate: float, round_len: int) -> int:
    return max(-(-MIN_OPS // round_len), round(seconds * rate))


# -- strict-formula ---------------------------------------------------------------

def strict_partitions(size: int, max_parts: int) -> list[tuple[int, ...]]:
    """Partitions of ``size`` into distinct parts, at most ``max_parts`` of them."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, rows: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(rows)
            return
        if len(rows) < max_parts:
            for part in range(min(rest, cap), 0, -1):
                rec(rest - part, part - 1, rows + (part,))

    rec(size, size, ())
    return out


# (k, source sizes): one cold k=5 symmetrization costs 0.2-1.5 s, k=4 about
# ten times less; k=6 is left out because one cold count takes 11-83 s.
STRICT_SOURCES = ((4, range(5, 9)), (5, range(3, 6)))
TARGETS_PER_SOURCE = 5


def strict_formula_batch(rng: random.Random, seconds: int) -> list[Op]:
    """Each source is asked for TARGETS_PER_SOURCE targets in a row: the
    first pays for the weight polynomial (cold), the rest reuse it (warm).
    Sources never repeat within a run, so the cold share stays fixed."""
    pool = [(k, rows) for k, sizes in STRICT_SOURCES
            for size in sizes for rows in strict_partitions(size, k)]
    rng.shuffle(pool)
    count = min(len(pool), _rounds(seconds, RATES["strict-formula"],
                                   TARGETS_PER_SOURCE))
    ops = []
    for k, rows in pool[:count]:
        v = strict_vertex(rows, k)
        for n, steps in enumerate(rng.sample(range(2, 8), TARGETS_PER_SOURCE)):
            u = _walk("strict", v, steps, rng)
            ops.append(Op(
                "cold" if n == 0 else "warm",
                ["count", "--graph", "strict", "--k", str(k),
                 "--from-partition", ",".join(map(str, rows)),
                 "--to-partition", ",".join(map(str, strict_rows(u))),
                 "--method", "formula"],
                ("count", "strict", v, u)))
    return ops


# -- series -------------------------------------------------------------------------

# (graph, k, degree bound): the hypothesis scan over [0, bound + 1]^k sets the
# cost, 0.1-0.4 s per operation.
SERIES_TEMPLATES = (
    ("pascal", 2, 16), ("pascal", 3, 5), ("pascal", 4, 2), ("pascal", 5, 1),
    ("young", 3, 11), ("young", 4, 9),
    ("strict", 3, 12), ("strict", 4, 9), ("strict", 5, 7),
)

# ROADMAP item 2: a custom graph with negative coordinates that is not
# minimum-closed.  The series count prints -8 and exits 0; there is no path.
FAULT_VERTICES = ((-1, -2), (-1, 1), (-1, 2), (0, 0), (0, 1), (1, -1), (1, 0),
                  (1, 1))
FAULT_SOURCE, FAULT_TARGET = (-1, -2), (-1, 1)


def _fault_op() -> Op:
    return Op("fault",
              ["count", "--graph", "custom",
               "--vertices=" + ";".join(_csv(v) for v in FAULT_VERTICES),
               "--from=" + _csv(FAULT_SOURCE), "--to=" + _csv(FAULT_TARGET),
               "--method", "phi"],
              ("fault", FAULT_VERTICES, FAULT_SOURCE, FAULT_TARGET),
              exempt=True)


def series_batch(rng: random.Random, seconds: int) -> list[Op]:
    """Per round: for each template, one ``count --method phi`` and one
    ``phi`` request from a seeded source a few steps above the base, both
    up to the template's bound; plus the fault request."""
    round_len = 2 * len(SERIES_TEMPLATES) + 1
    ops = []
    for _ in range(_rounds(seconds, RATES["series"], round_len)):
        batch = [_fault_op()]
        for graph, k, bound in SERIES_TEMPLATES:
            base = base_vertex(graph, k)
            lift = min(2, bound - sum(base) - 1)
            src = _walk(graph, base, rng.randint(0, lift), rng)
            dst = _walk(graph, src, bound - sum(src), rng)
            batch.append(Op(
                "count-phi",
                ["count", "--graph", graph, "--k", str(k), "--from", _csv(src),
                 "--to", _csv(dst), "--method", "phi"],
                ("count", graph, src, dst)))
            src = _walk(graph, base, rng.randint(0, lift), rng)
            batch.append(Op(
                "phi",
                ["phi", "--graph", graph, "--k", str(k), "--from", _csv(src),
                 "--deg", str(bound - sum(src))],
                ("series", graph, src, bound)))
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# -- verify -------------------------------------------------------------------------

SKEW_ANCHORS = ("1", "2", "2,1", "3", "3,1")
CONTROLS = tuple(name + "_control" for name in (
    "vandermonde_convolution", "multinomial_expansion", "hook_expansion",
    "anchored_hook_expansion", "polynomial_component",
    "skew_polynomial_component"))


def _verify_op(identities: tuple[str, ...], *argv: str) -> Op:
    return Op(argv[0], ["verify", *argv], ("verify", identities))


def _verify_round(rng: random.Random) -> list[Op]:
    return [
        _verify_op(("polynomial_component",), "polycomponent", "--k", "3",
                   "--n", "5"),
        _verify_op(("polynomial_component",), "polycomponent", "--k", "3",
                   "--n", "6"),
        *(_verify_op(("skew_polynomial_component",), "skew-polycomponent",
                     "--sigma", sigma, "--k", "3",
                     "--n", str(sum(map(int, sigma.split(","))) + 3))
          for sigma in SKEW_ANCHORS),
        _verify_op(("pfaffian_product",), "pfaffian", "--k", "4"),
        _verify_op(("pfaffian_product",), "pfaffian", "--k", "6"),
        *(_verify_op(("skew_pairs",), "pairs", "--graph", graph, "--k", k,
                     "--deg", str(rng.choice(degs)), "--pairs", pairs,
                     "--seed", str(rng.randrange(10 ** 6)))
          for graph, k, degs, pairs in (
              ("strict", "3", (7,), "100"), ("strict", "4", (6,), "50"),
              ("young", "3", (9, 10), "500"), ("young", "4", (9, 10), "500"))),
        *(_verify_op(("counts_from_base",), "counts", "--graph", graph,
                     "--k", k, "--deg", str(rng.choice((10, 11, 12))))
          for graph in ("strict", "young") for k in ("3", "4")),
        *(_verify_op(("series_construction",), "construction", "--graph", graph,
                     "--k", "3", "--deg", deg)
          for graph, deg in (("pascal", "5"), ("young", "8"), ("strict", "10"))),
        _verify_op(CONTROLS, "controls"),
    ]


def verify_batch(rng: random.Random, seconds: int) -> list[Op]:
    """Per round: identity checks at and somewhat above the sweep's default
    sizes, with a fresh seed for every ``pairs`` request.  The heavy checks
    have fixed sizes, so the seed moves only the cheap ones and the order."""
    first = _verify_round(rng)
    ops = []
    for n in range(_rounds(seconds, RATES["verify"], len(first))):
        batch = first if n == 0 else _verify_round(rng)
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


WORKLOADS = {
    "strict-formula": strict_formula_batch,
    "series": series_batch,
    "verify": verify_batch,
}
