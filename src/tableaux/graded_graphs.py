"""Graded graphs on Z^k and exact path counting.

A graph here is an induced subgraph of the ambient lattice: a membership
predicate selects the vertex set, and every edge raises exactly one
coordinate by one (multiplication by one variable, in monomial language).
The number of directed paths between two vertices is the generalized
binomial coefficient this package computes three independent ways:

* a level-by-level DP (the oracle; `count_paths_dp`),
* closed-form products (module `formulas`),
* coefficient extraction against a weight series (`weighted_path_count`).

A weight series for a base vertex v is a coefficient table phi on the
monomials of degree deg(v) such that

  1. phi has coefficient 1 at v,
  2. coefficient 0 at every other vertex of the same degree,
  3. for every non-vertex w (of degree between deg v and the bound) with some
     w + e_i a vertex, the coefficient of w in phi * (x_1+..+x_k)^(deg w - deg v)
     vanishes.

Under those conditions the path count from v to a vertex u is the coefficient
of u in phi * (x_1+..+x_k)^(deg u - deg v).  `construct_weight_series` builds
such a table whenever the vertex set is minimum-closed and coordinate-convex,
by solving the constraints degree by degree; each constraint is settled on a
pivot monomial no other constraint of the same or lower degree can reach.

Both hypotheses reduce to two dimensions for the built-in graphs.  Their
vertex sets all have one form: c is a vertex when every c_i >= 0 and every
neighbouring pair (c_i, c_{i+1}) lies in one relation R on N^2, the class's
``neighbour_ok`` (young: a < b; strict: a < b or a == b == 0; pascal: no
relation, so every pair).  ``in_relation`` is that rule, written once:
``GradedGraph.contains`` calls it, and so does the vertex check of the
closed forms, so this form holds by construction.  Inside the box [0, b]^k:

* minimum-closed: min acts one coordinate at a time, so the pair of
  min(u, w) at (i, i+1) is the minimum of the pairs of u and w there.  If
  R restricted to [0, b]^2 is minimum-closed, that pair lies in R, and
  min(u, w) >= 0, so min(u, w) is a vertex;
* coordinate-convex: fixing every coordinate but c_i, the admissible c_i
  are those >= 0 with (c_{i-1}, c_i) and (c_i, c_{i+1}) in R.  That is an
  intersection of line sections of R, and if each is an interval, so is
  their intersection.

So ``check_minimum_closed`` and ``check_coordinate_convex`` scan the points
of R in [0, b]^2, at most (b+1)^2 of them, whatever k is; pascal scans
nothing.  A custom graph has no such form and is scanned over its own
vertex list.  Each scan takes time linear in the points it scans, up to a
sort: minimum closure walks R row by row, keeping the union of the rows
above, and convexity sorts the values on each coordinate line and looks
for two neighbours more than 1 apart.  The one exception is a custom
graph's minimum closure, which compares every incomparable pair of its
k-dimensional list, quadratic in its length.

The box itself is a constant.  Call R order-invariant when R(phi(a),
phi(b)) == R(a, b) for every strictly increasing phi: N -> N with phi(0) =
0.  Young's a < b is, and so is strict's "a < b or a == b == 0", since phi
is injective and sends only 0 to 0; pascal has no relation.  Every
built-in relation must be order-invariant, and a test holds each kind in
``GRAPH_KINDS`` to it.  For such an R both verdicts in [0, b]^2 are the
same for every b >= 4.  A failure in [0, 4]^2 is one in [0, b]^2, since all
its points lie in both boxes.  Conversely, a failure of minimum closure is
two points of R whose minimum is not in R, and a failure of convexity is
two points of R on one line with a point between them not in R.  Either
uses at most four values: the entries of the two points (the minimum's
entries are among them), or the fixed entry, the two ends and the missing
value.  Add 0 to them and list them as 0 = s_0 < s_1 < ... < s_r, with r <=
4, and let phi(i) = s_i for i <= r and s_r + i - r above r.  This phi is
strictly increasing with phi(0) = 0, so a point with entries in [0, r] is
in R exactly when its image under phi is.  The preimages of the failure's
points therefore keep their membership; min commutes with phi, so the
minimum's preimage is the minimum of the preimages, and the missing
value's preimage still lies strictly between the ends' on the same line.
So the preimages are a failure in [0, 4]^2, and the verdict there is R's
on all of N^2; a pass there is also one on every smaller box.
``construct_weight_series`` therefore scans [0, SCAN_BOX]^2 with SCAN_BOX
= 4 for every graph, whatever its bound and source; a custom graph scans
its own list and ignores the box.

The same form generates each level.  ``levels_above(floor, degrees)``
lists the vertices w >= floor of each degree d up to the top degree D.
Every such w has w_j in the window [lo_j, lo_j + D - sum(lo)], with
lo = max(floor, 0), so two tables are built once, over the windows: the
values c of coordinate j + 1 that R admits after a value p of coordinate
j, and ``least[j][p]``, the smallest sum of the entries that can follow p
at coordinate j.  A prefix is extended only by admitted values c, and only
when c plus the least sum after it fits in what is left of d.  So every
prefix kept has a completion within d, and each level comes out in
lexicographic order without filtering all C(d+k-1, k-1) compositions.
``vertices_of_degree(d)`` is the level with floor 0.

The constraint monomials are the vertices of degree deg(v) and the
non-vertices u = w - e_i below the vertices w of higher levels, with exit
i.  For a built-in vertex w, w - e_i is a non-vertex exactly when w_i = 0
or one of the two neighbouring pairs through coordinate i leaves R (on
pascal, exactly when w_i = 0): the exit rule, ``GradedGraph.lowered``.
Likewise w + e_i is a vertex exactly when both pairs stay in R with w_i
raised: the successor rule, ``GradedGraph.raised``, by which the DP sweeps
step.  A custom graph tests membership.  The pivot of u is u lowered
deg(u) - deg(v) steps along i (a base-degree monomial is its own pivot),
and under minimum closure the exit is unique, since two exits u + e_i and
u + e_j would be vertices with minimum u.  So one pass builds the map from
each constraint monomial to its pivot, once per graph and bound
(``GradedGraph.constraints``).

Only work that a term of the series can reach is done.  A constraint u
has a nonzero value only if some support monomial e (deg e = deg v)
satisfies e <= u, so only if u is at or above the support's floor, its
entrywise minimum.  The solve keeps that floor as it sets pivots, starting
at v, and skips every u not above it, after the pivot-collision test: a
colliding pivot p is in the support and p <= u, so u is above the floor.
The check takes the floor of the table it is given, so a table changed
after the solve is checked in full.  Neither skip needs more than "no term,
so the value is 0".

The map itself is built only at or above a static floor F.  Let s = bound -
deg(v), T(s) = s(s+1)/2 and F = v - T(s) in every entry.  After the base
level the support is {v}.  At level deg(v) + j, a constraint u with a
nonzero value lies above some term e of the support; by the pivot property
(a pivot is reached by no other constraint of its degree or lower), e was
not set at this level, so e is above the floor at the start of the
level.  Its pivot u - j e_i is then at most j below that floor in one
coordinate.  So each level lowers the floor by at most j, and no series
solved up to the bound reaches below F.  A table that does reach below F
was not solved here, and the check builds a second map above that table's
floor.  From the base vertex with s >= 1 the map is the full one: there
every constraint u has u_j >= v_j - 1 >= F_j.  Away from the base, the
windows of the levels have width at most D - sum(lo), which depends on s
and k but not on how large v's entries are, and so does the map's size.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import time
from math import factorial
from typing import Callable, Iterable, Iterator

from .multipoly import Coeff, exact_compositions, grlex_key
from .reports import VerifyReport, failed, passed

Vertex = tuple[int, ...]
SCAN_BOX = 4  # [0, 4]^2 decides an order-invariant relation (module docstring)


def degree(v: Vertex) -> int:
    return sum(v)


def majorates(w: Vertex, u: Vertex) -> bool:
    """w majorates u when min(u, w) == u, i.e. u <= w entrywise."""
    return all(map(operator.le, u, w))


def in_relation(v: Vertex, neighbour_ok: Callable[[int, int], bool] | None
                ) -> bool:
    """Whether the non-empty v has every entry >= 0 and every neighbouring
    pair (v_i, v_(i+1)) in the relation ``neighbour_ok``, which admits
    every pair when it is None: the vertex rule of the built-in graphs."""
    return min(v) >= 0 and (neighbour_ok is None
                            or all(map(neighbour_ok, v, v[1:])))


class GradedGraph:
    """Base: a membership predicate plus the induced +e_i edges.

    c is a vertex when it has k entries and passes ``in_relation`` with
    ``neighbour_ok``.  A subclass sets ``neighbour_ok`` and keeps this
    ``contains``: the hypothesis checks rely on that form (see the module
    docstring)."""

    name = "graph"
    neighbour_ok: Callable[[int, int], bool] | None = None

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self._constraints: dict[tuple[Vertex, int], dict[Vertex, Vertex]] = {}

    def contains(self, v: Vertex) -> bool:
        return len(v) == self.k and in_relation(v, self.neighbour_ok)

    def base_vertex(self) -> Vertex:
        """Canonical minimal vertex used as the default source."""
        raise NotImplementedError

    def raised(self, v: Vertex) -> list[tuple[int, Vertex]]:
        """The pairs (i, v + e_i) with v + e_i a vertex, in the order of i,
        by the successor rule (module docstring); v is not checked."""
        ok, last = self.neighbour_ok, self.k - 1
        return [(i, v[:i] + (x + 1,) + v[i + 1:]) for i, x in enumerate(v)
                if ok is None or (i == 0 or ok(v[i - 1], x + 1))
                and (i == last or ok(x + 1, v[i + 1]))]

    def vertices_of_degree(self, d: int) -> list[Vertex]:
        """The vertices of entry sum d, in lexicographic order, generated
        prefix by prefix (module docstring)."""
        return next(self.levels_above((0,) * self.k, range(d, d + 1)))

    def levels_above(self, floor: Vertex,
                     degrees: range) -> Iterator[list[Vertex]]:
        """The vertices w >= floor of each degree in ``degrees``, one level
        at a time, each in lexicographic order.  Prefixes are extended by
        tables built once, for the top degree, over the values each
        coordinate can take (module docstring)."""
        k, ok = self.k, self.neighbour_ok
        lo = [max(0, f) for f in floor]
        room = degrees[-1] - sum(lo) if degrees else -1
        if room < 0 or k == 1 or ok is None:
            for d in degrees:
                rest = d - sum(lo)
                yield [tuple(map(operator.add, lo, c))
                       for c in exact_compositions(k, rest)] if rest >= 0 else []
            return
        windows = [range(a, a + room + 1) for a in lo]
        follows = [{p: [c for c in after if ok(p, c)] for p in side}
                   for side, after in zip(windows, windows[1:])]
        # least[j][p]: the smallest sum of the entries after an entry p at
        # coordinate j, or more than the top degree when none fits
        least = [dict.fromkeys(windows[-1], 0)]
        for table in reversed(follows):
            more = least[0]
            least.insert(0, {p: min([c + more[c] for c in after],
                                    default=degrees[-1] + 1)
                             for p, after in table.items()})
        for d in degrees:
            level = [((c,), d - c) for c in windows[0] if c + least[0][c] <= d]
            for table, cost in zip(follows, least[1:-1]):
                level = [(w + (c,), rest - c) for w, rest in level
                         for c in table[w[-1]] if c + cost[c] <= rest]
            yield [w + (rest,) for w, rest in level if ok(w[-1], rest)]

    def lowered(self, level: list[Vertex],
                floor: Vertex) -> list[tuple[Vertex, int]]:
        """The non-vertices u = w - e_i >= floor below the vertices w of a
        level, each with its exit i.  For a vertex w, w - e_i leaves the
        vertex set exactly when w_i = 0 or one of the two neighbouring
        pairs through coordinate i leaves the relation."""
        ok, last = self.neighbour_ok, self.k - 1
        return [(w[:i] + (x - 1,) + w[i + 1:], i) for w in level
                for i, x in enumerate(w)
                if x > floor[i] and (
                    x == 0 or ok is not None and (
                        i > 0 and not ok(w[i - 1], x - 1)
                        or i < last and not ok(x - 1, w[i + 1])))]

    def constraints(self, v: Vertex, bound: int) -> dict[Vertex, Vertex]:
        """The pivot map ``constraint_monomials(self, v, bound)``, built
        once per graph and shared by the solve and the check of its
        conditions, which must not modify it."""
        key = (v, bound)
        if key not in self._constraints:
            self._constraints[key] = constraint_monomials(self, v, bound)
        return self._constraints[key]

    def scanned_vertices(self, box_bound: int) -> list[Vertex]:
        """The points the hypothesis checks scan: the pairs (a, b) in
        [0, bound]^2 that satisfy ``neighbour_ok``, in lexicographic order,
        and none when there is no relation."""
        ok = self.neighbour_ok
        if ok is None:
            return []
        side = range(box_bound + 1)
        return [(a, b) for a in side for b in side if ok(a, b)]


def _bump(v: Vertex, i: int, step: int = 1) -> Vertex:
    return v[:i] + (v[i] + step,) + v[i + 1:]


class PascalGraph(GradedGraph):
    """All of N^k; paths are lattice words, counted by multinomials."""

    name = "pascal"

    def base_vertex(self) -> Vertex:
        return (0,) * self.k


class RestrictedYoungGraph(GradedGraph):
    """Strictly increasing coordinates 0 <= c_1 < c_2 < ... < c_k.

    Vertices encode Young diagrams with at most k rows; paths from the
    minimal vertex (0, 1, .., k-1) are standard Young tableaux.
    """

    name = "young"
    neighbour_ok = staticmethod(operator.lt)

    def base_vertex(self) -> Vertex:
        return tuple(range(self.k))


class StrictPartitionGraph(GradedGraph):
    """Weakly increasing coordinates, equal entries allowed only at zero.

    Vertices encode partitions into distinct parts (at most k of them).
    """

    name = "strict"

    @staticmethod
    def neighbour_ok(a: int, b: int) -> bool:
        return a < b or a == b == 0

    def base_vertex(self) -> Vertex:
        return (0,) * self.k


class CustomBoxGraph(GradedGraph):
    """Explicit vertex table; used for negative tests of the hypotheses."""

    name = "custom"

    def __init__(self, k: int, vertices: Iterable[Vertex]):
        super().__init__(k)
        self.vertices = frozenset(tuple(v) for v in vertices)
        for v in self.vertices:
            if len(v) != k:
                raise ValueError(f"vertex {v} has wrong dimension")

    def contains(self, v: Vertex) -> bool:
        return tuple(v) in self.vertices

    def base_vertex(self) -> Vertex:
        if not self.vertices:
            raise ValueError("empty graph")
        return min(self.vertices, key=grlex_key)

    def vertices_of_degree(self, d: int) -> list[Vertex]:
        return sorted(v for v in self.vertices if degree(v) == d)

    def levels_above(self, floor: Vertex,
                     degrees: range) -> Iterator[list[Vertex]]:
        for d in degrees:
            yield sorted(w for w in self.vertices
                         if degree(w) == d and majorates(w, floor))

    def raised(self, v: Vertex) -> list[tuple[int, Vertex]]:
        """As for every graph, with the successor test by membership."""
        return [(i, w) for i in range(self.k) if self.contains(w := _bump(v, i))]

    def lowered(self, level: list[Vertex],
                floor: Vertex) -> list[tuple[Vertex, int]]:
        """As for every graph, with the exit test by membership."""
        return [(u, i) for w in level for i in range(self.k)
                if w[i] > floor[i] and not self.contains(u := _bump(w, i, -1))]

    def scanned_vertices(self, box_bound: int) -> list[Vertex]:
        """The whole finite vertex list, negative coordinates included; the
        box bound does not apply."""
        return sorted(self.vertices)


GRAPH_KINDS: dict[str, type[GradedGraph]] = {
    "pascal": PascalGraph,
    "young": RestrictedYoungGraph,
    "strict": StrictPartitionGraph,
}


def make_graph(kind: str, k: int) -> GradedGraph:
    try:
        return GRAPH_KINDS[kind](k)
    except KeyError:
        raise ValueError(f"unknown graph kind {kind!r}") from None


# -- the DP oracle -----------------------------------------------------------

def _checked(graph: GradedGraph, v: Vertex, end: str = "source") -> Vertex:
    """v as a tuple, checked to be a vertex; an error names the end."""
    v = tuple(v)
    if not graph.contains(v):
        raise ValueError(f"{end} {v} is not a vertex")
    return v


def count_paths_dp(graph: GradedGraph, v: Vertex, u: Vertex) -> int:
    """Number of monotone paths from v to u: ``path_counts_to`` with the
    one target u, which sweeps only the entrywise box between v and u.
    Both ends are checked once each, the source first."""
    v, u = _checked(graph, v), _checked(graph, u, "target")
    return _counts_to(graph, v, [u])[u]


def path_count_table(graph: GradedGraph, v: Vertex,
                     max_degree: int) -> dict[Vertex, int]:
    """Path counts from v to every vertex of degree <= max_degree, in one
    unpruned sweep: the reference for ``path_counts_to``."""
    v = _checked(graph, v)
    table: dict[Vertex, int] = {v: 1}
    frontier: dict[Vertex, int] = {v: 1}
    for _ in range(degree(v), max_degree):
        nxt: dict[Vertex, int] = {}
        for w, c in frontier.items():
            for _, w2 in graph.raised(w):
                nxt[w2] = nxt.get(w2, 0) + c
        table.update(nxt)
        frontier = nxt
    return table


def path_counts_to(graph: GradedGraph, v: Vertex,
                   targets: Iterable[Vertex]) -> dict[Vertex, int]:
    """Path counts from v to each target, in one level sweep (``_counts_to``);
    only the source is checked, and a target not above it counts 0."""
    return _counts_to(graph, _checked(graph, v), targets)


def _counts_to(graph: GradedGraph, v: Vertex,
               targets: Iterable[Vertex]) -> dict[Vertex, int]:
    """``path_counts_to`` from a checked source.  Paths only raise entries,
    so the sweep keeps the vertices below some target, each carrying the
    targets above it, which are above all its predecessors: the first w to
    reach w + e_i hands on those u with u_i > w_i.  So each is visited once."""
    wanted = {tuple(u) for u in targets}
    counts: dict[Vertex, int] = {}
    above = [u for u in wanted if majorates(u, v)]
    frontier: dict[Vertex, list] = {v: [1, above]} if above else {}
    while frontier:
        nxt: dict[Vertex, list] = {}
        for w, (c, above) in frontier.items():
            if w in wanted:
                counts[w] = c
            for i, w2 in graph.raised(w):
                entry = nxt.get(w2)
                if entry is not None:
                    entry[0] += c
                elif reach := [u for u in above if u[i] > w[i]]:
                    nxt[w2] = [c, reach]
        frontier = nxt
    return {u: counts.get(u, 0) for u in wanted}


# -- hypothesis checks --------------------------------------------------------

def check_minimum_closed(graph: GradedGraph, box_bound: int) -> VerifyReport:
    """Entrywise minimum of any two scanned points is a scanned point.

    For a built-in graph the scan is the relation R of ``neighbour_ok`` in
    [0, box_bound]^2, and that suffices for every k: the pair of min(u, w)
    at coordinates (i, i+1) is the minimum of the pairs of u and w there,
    which lies in R when R in the box is minimum-closed; with min(u, w) >= 0
    this makes min(u, w) a vertex.  R is scanned row by row: with C_a the
    row of first entry a and T the union of the rows above it, the scan
    fails exactly when some c in T but not in C_a has c < max(C_a), since
    (a, c) is then the minimum of an incomparable pair of R.  That costs
    O((box_bound+1)^2) set operations.

    A custom graph is k-dimensional, and its whole vertex list (at most
    ``max_vertices`` long from the CLI) is scanned pair by pair, quadratic
    in its length; the minimum of a comparable pair is one of the two
    points, so only incomparable pairs are looked up.  Either scan reports
    the first failing pair in the lexicographic order of the points."""
    started = time.perf_counter()
    params = {"graph": graph.name, "k": graph.k, "box_bound": box_bound}
    scanned = graph.scanned_vertices(box_bound)
    scan = _pair_scan if isinstance(graph, CustomBoxGraph) else _row_scan
    witness = scan(scanned)
    if witness:
        return failed("minimum_closed", params, witness, started)
    return passed("minimum_closed", params, started)


def _pair_scan(points: list[Vertex]) -> dict | None:
    members = set(points)
    for u, w in itertools.combinations(points, 2):
        m = tuple(map(min, u, w))
        if m != u and m != w and m not in members:
            return {"pair": [u, w], "minimum": m}
    return None


def _row_scan(points: list[Vertex]) -> dict | None:
    rows: dict[int, set[int]] = {}
    for a, b in points:
        rows.setdefault(a, set()).add(b)
    above: set[int] = set()
    lowest = None
    for a in sorted(rows, reverse=True):
        missing = above - rows[a]
        if missing and min(missing) < max(rows[a]):
            lowest = a, min(missing)
        above |= rows[a]
    if lowest is None:
        return None
    # the first failing pair (u, w) in lexicographic order: u is the first
    # point of the lowest failing row above its smallest missing c, and w
    # the first later point that is incomparable to u with min(u, w) missing
    a, c = lowest
    row = rows[a]
    b = min(x for x in row if x > c)
    w = min(p for p in points if p[0] > a and p[1] < b and p[1] not in row)
    return {"pair": [(a, b), w], "minimum": (a, w[1])}


def check_coordinate_convex(graph: GradedGraph, box_bound: int) -> VerifyReport:
    """Between two scanned points on one coordinate line, every lattice
    point of the line is a scanned point.

    For a built-in graph the scan is the relation R in [0, box_bound]^2: a
    line section of the k-D vertex set is an intersection of line sections
    of R, and intervals intersect in an interval (module docstring).  A
    custom graph's scan is its own vertex list.  The points are grouped by
    line, keyed by the direction i and the other entries, and each line's
    values are sorted; a gap is two neighbouring values more than 1 apart.
    The first point v (then direction i) with a gap at or above v_i fails,
    with the first member past that gap as the far endpoint and the lower
    value + 1 as the gap.  The cost is O(n k log n) for n points of k
    entries, whatever the size of the coordinates."""
    started = time.perf_counter()
    params = {"graph": graph.name, "k": graph.k, "box_bound": box_bound}
    scanned = graph.scanned_vertices(box_bound)
    lines: dict[tuple[int, Vertex], list[int]] = {}
    for v in scanned:
        for i, x in enumerate(v):
            lines.setdefault((i, v[:i] + v[i + 1:]), []).append(x)
    gaps = {}
    for line, values in lines.items():
        values.sort()
        found = [(lo, hi) for lo, hi in zip(values, values[1:]) if hi > lo + 1]
        if found:
            gaps[line] = found
    # with no gap on any line every point passes, so walk only when needed
    for v in scanned if gaps else ():
        for i, x in enumerate(v):
            line = gaps.get((i, v[:i] + v[i + 1:]), ())
            j = bisect.bisect_left(line, (x,))
            if j < len(line):
                lo, hi = line[j]
                return failed("coordinate_convex", params,
                              {"endpoints": [v, _bump(v, i, hi - x)],
                               "gap": _bump(v, i, lo + 1 - x)}, started)
    return passed("coordinate_convex", params, started)


# -- constraint monomials and the weight series -------------------------------

def constraint_monomials(graph: GradedGraph, v: Vertex, bound: int,
                         floor: Vertex | None = None) -> dict[Vertex, Vertex]:
    """Monomials that carry a linear constraint on a weight series for v,
    each mapped to the pivot that settles it: every vertex of degree deg(v)
    to itself, and every non-vertex u with deg(v) <= deg(u) <= bound and an
    exit i (u + e_i a vertex) to u lowered deg(u) - deg(v) steps along i.

    Only the monomials at or above ``floor`` are listed; by default that is
    the static floor below which no solved series reaches (module
    docstring).  Ordered by degree then lexicographically.
    """
    v = _checked(graph, v)
    base = degree(v)
    if bound < base:
        raise ValueError("bound below the base degree")
    if floor is None:
        floor = static_floor(v, bound)
    found: dict[Vertex, Vertex] = {}
    levels = graph.levels_above(floor, range(base, bound + 2))
    # the vertices of the first degree have no exit
    exits: dict[Vertex, int | None] = dict.fromkeys(next(levels))
    for d, level in enumerate(levels, base):
        # with the non-vertices u = w - e_i of degree d, each with exit i
        exits.update(graph.lowered(level, floor))
        for u in sorted(exits):
            i = exits[u]
            found[u] = u if i is None else _bump(u, i, base - d)
        exits = {}
    return found


def static_floor(v: Vertex, bound: int) -> Vertex:
    """v - T(s) in every entry, with s = bound - deg(v) and T(s) = s(s+1)/2:
    no series solved for v up to the bound has a term below it (module
    docstring)."""
    steps = bound - degree(v)
    return tuple(c - steps * (steps + 1) // 2 for c in v)


class SeriesConstructionError(ValueError):
    """Raised when the weight-series construction detects that the graph
    violates the minimum-closure / convexity hypotheses."""

    def __init__(self, message: str, monomial: Vertex | None = None):
        super().__init__(message)
        self.monomial = monomial


class WeightSeries:
    """Sparse coefficient table of a weight series for ``base``.

    All keys have total degree equal to deg(base); entries may be negative
    integers.  ``degree_bound`` is the largest constraint degree the table
    was solved for (and hence the largest target degree it certifies)."""

    def __init__(self, base: Vertex, coeffs: dict[Vertex, Coeff] | None = None,
                 degree_bound: int = 0) -> None:
        self.base = base
        self.coeffs = {} if coeffs is None else coeffs
        self.degree_bound = degree_bound

    def coefficient(self, exps: Vertex) -> Coeff:
        return self.coeffs.get(tuple(exps), 0)


def construct_weight_series(graph: GradedGraph, v: Vertex, bound: int) -> WeightSeries:
    """Solve the weight-series constraints for v up to the given degree bound.

    Runs the two hypothesis checks first, over the neighbour relation in
    [0, SCAN_BOX]^2 (module docstring), or a custom graph's own vertex
    list; any violation (including a pivot collision during the solve)
    raises ``SeriesConstructionError`` with the offending monomial, which
    for a relation is a point (a, b) of that square.
    """
    v = _checked(graph, v)
    for check in (check_minimum_closed, check_coordinate_convex):
        report = check(graph, SCAN_BOX)
        if not report.ok:
            raise SeriesConstructionError(
                f"{report.identity} fails: {report.witness}",
                monomial=tuple(report.witness["pair" if "pair" in report.witness
                                              else "endpoints"][0]))

    base = degree(v)
    factorials = _factorials(bound - base)
    coeffs: dict[Vertex, Coeff] = {}
    floor = v  # the entrywise minimum of the support
    for u, pivot in graph.constraints(v, bound).items():
        if pivot in coeffs:
            raise SeriesConstructionError(
                f"pivot collision at {pivot} while settling {u}", monomial=u)
        if not majorates(u, floor):
            continue  # no term lies below u, so its value is 0
        # the pivot's own weight in the constraint is exactly 1
        value = (1 if u == v else 0) - _extract_coefficient(
            coeffs.items(), u, degree(u) - base, factorials)
        if value:
            coeffs[pivot] = value
            floor = tuple(map(min, floor, pivot))
    series = WeightSeries(base=v, coeffs=coeffs, degree_bound=bound)
    if series.coefficient(v) != 1:
        raise SeriesConstructionError("base coefficient is not 1", monomial=v)
    return series


def _factorials(n: int) -> list[int]:
    return [factorial(m) for m in range(n + 1)]


def _extract_coefficient(terms: Iterable[tuple[Vertex, Coeff]], w: Vertex,
                         steps: int, factorials: list[int]) -> Coeff:
    """Coefficient of w in phi * (x_1+..+x_k)^steps, for the terms (e, c)
    of phi, all of degree deg(w) - steps; ``factorials`` reaches steps!."""
    total: Coeff = 0
    for e, c in terms:
        if all(map(operator.le, e, w)):
            ways = factorials[steps]
            for a, b in zip(w, e):
                ways //= factorials[a - b]
            total += c * ways
    return total


def verify_weight_conditions(graph: GradedGraph, v: Vertex, phi: WeightSeries,
                             bound: int) -> VerifyReport:
    """Check the three weight-series conditions for v up to the degree bound.

    Condition 3 uses the exponent deg(w) - deg(v).
    """
    started = time.perf_counter()
    v = _checked(graph, v)
    params = {"graph": graph.name, "k": graph.k, "v": v, "bound": bound}
    if bound < degree(v):
        raise ValueError("bound below the base degree")

    if phi.coefficient(v) != 1:
        return failed("weight_conditions", params,
                      {"condition": "base coefficient", "monomial": v,
                       "value": phi.coefficient(v)}, started)
    base = degree(v)
    terms = [(e, c) for e, c in phi.coeffs.items() if c and degree(e) == base]
    floor = tuple(map(min, zip(*(e for e, _ in terms))))
    constraints = graph.constraints(v, bound)
    if not majorates(floor, static_floor(v, bound)):
        # only a table that no solve produced reaches below the static floor
        constraints = constraint_monomials(graph, v, bound, floor)
    factorials = _factorials(bound - base)
    for w in constraints:
        if w == v or not majorates(w, floor):
            continue  # no term lies below w, so its value is 0
        value = _extract_coefficient(terms, w, degree(w) - base, factorials)
        if value:
            # the vertices among the constraints are those of degree deg(v)
            condition = ("same-degree vertex" if graph.contains(w)
                         else "boundary vanishing")
            return failed("weight_conditions", params,
                          {"condition": condition, "monomial": w,
                           "value": value}, started)
    return passed("weight_conditions", params, started)


def weighted_path_count(graph: GradedGraph, phi: WeightSeries, v: Vertex,
                        u: Vertex) -> int:
    """Path count from v to u, the coefficient of u in phi * (x_1+..+x_k)^
    (deg u - deg v): ``weighted_counts_to`` at the one target u, checked."""
    u = _checked(graph, u, "target")
    return weighted_counts_to(graph, phi, v, [u])[u]


def weighted_counts_to(graph: GradedGraph, phi: WeightSeries, v: Vertex,
                       targets: Iterable[Vertex]) -> dict[Vertex, int]:
    """``weighted_path_count`` from v to each target, with the terms of
    degree deg(v) filtered and the factorials up to the most steps built
    once for all targets.  Only the source is checked; a target below
    deg(v) counts 0, and one above the series' bound raises."""
    v = _checked(graph, v)
    if phi.base != v:
        raise ValueError(f"series base {phi.base} does not match source {v}")
    base = degree(v)
    steps = {u: degree(u) - base for u in map(tuple, targets)}
    top = max(steps.values(), default=0)
    if base + top > phi.degree_bound:
        raise ValueError(
            f"series bound {phi.degree_bound} below target degree {base + top}")
    terms = [(e, c) for e, c in phi.coeffs.items() if degree(e) == base]
    factorials = _factorials(top)
    counts = {}
    for u, s in steps.items():
        value = _extract_coefficient(terms, u, s, factorials) if s >= 0 else 0
        if value != int(value):
            raise ArithmeticError(f"non-integer path count {value} at {u}")
        if value < 0:
            raise ArithmeticError(f"negative path count {value} at {u}")
        counts[u] = int(value)
    return counts
