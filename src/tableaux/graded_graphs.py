"""Graded graphs on Z^k and exact path counting.

A graph here is an induced subgraph of the ambient lattice: a membership
predicate selects the vertex set, and every edge raises exactly one
coordinate by one (multiplication by one variable, in monomial language).
The number of directed paths between two vertices is the generalized
binomial coefficient this package computes three independent ways:

* a brute-force level-by-level DP (the oracle; `count_paths_dp`),
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
relation, so every pair).  ``GradedGraph.contains`` is defined once from R,
so this form holds by construction.  Inside the box [0, b]^k:

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

The same form generates each level.  ``vertices_of_degree(d)`` extends a
prefix only by values c that R admits after its last entry, and only when c
plus the smallest sum of the entries that can still follow c fits in what
is left of d.  A table ``least[m][p]`` over [0, d] holds that smallest sum
of m entries after p; entries above d cannot occur at degree d.  So every
prefix kept has a completion within d, and the level comes out in
lexicographic order without filtering all C(d+k-1, k-1) compositions.

Lowering each vertex w above the base along each e_i finds the constraint
monomials: u = w - e_i when it is not a vertex, with exit i.  Its pivot is
u lowered deg(u) - deg(v) steps along i (a base-degree monomial is its own
pivot), and under minimum closure the exit is unique, since two exits
u + e_i and u + e_j would be vertices with minimum u.  So one pass builds
the map from each constraint monomial to its pivot, once per graph and
bound (``GradedGraph.constraints``).
"""

from __future__ import annotations

import bisect
import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .multipoly import Coeff, exact_compositions, grlex_key, multinomial
from .reports import VerifyReport, failed, passed

Vertex = tuple[int, ...]


def degree(v: Vertex) -> int:
    return sum(v)


def majorates(w: Vertex, u: Vertex) -> bool:
    """w majorates u when min(u, w) == u, i.e. u <= w entrywise."""
    return all(map(operator.le, u, w))


class GradedGraph:
    """Base: a membership predicate plus the induced +e_i edges.

    c is a vertex when it has k entries, all >= 0, and every neighbouring
    pair (c_i, c_{i+1}) satisfies ``neighbour_ok``; None admits every pair.
    A subclass sets ``neighbour_ok`` and keeps this ``contains``: the
    hypothesis checks rely on that form (see the module docstring)."""

    name = "graph"
    neighbour_ok: Callable[[int, int], bool] | None = None

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self._constraints: dict[tuple[Vertex, int], dict[Vertex, Vertex]] = {}

    def contains(self, v: Vertex) -> bool:
        if len(v) != self.k or min(v) < 0:
            return False
        ok = self.neighbour_ok
        return ok is None or all(map(ok, v, v[1:]))

    def base_vertex(self) -> Vertex:
        """Canonical minimal vertex used as the default source."""
        raise NotImplementedError

    def out_neighbors(self, v: Vertex) -> list[Vertex]:
        if not self.contains(v):
            raise ValueError(f"{v} is not a vertex")
        result = []
        for i in range(self.k):
            w = _bump(v, i)
            if self.contains(w):
                result.append(w)
        return result

    def vertices_of_degree(self, d: int) -> list[Vertex]:
        """The vertices of entry sum d, in lexicographic order, generated
        prefix by prefix (module docstring)."""
        ok = self.neighbour_ok
        if d < 0:
            return []
        if ok is None:
            return list(exact_compositions(self.k, d))
        if self.k == 1:
            return [(d,)]
        side = range(d + 1)
        follows = [[c for c in side if ok(p, c)] for p in side]
        # least[m][p]: the smallest sum of m entries that can follow p, or
        # d + 1 when none fits
        least = [[0] * (d + 1)]
        for _ in range(self.k - 1):
            more = least[-1]
            least.append([min([c + more[c] for c in after], default=d + 1)
                          for after in follows])
        level = [((c,), d - c) for c in side if c + least[-1][c] <= d]
        for m in range(self.k - 2, 0, -1):
            cost = least[m]
            level = [(v + (c,), rest - c) for v, rest in level
                     for c in follows[v[-1]] if c + cost[c] <= rest]
        return [v + (rest,) for v, rest in level if ok(v[-1], rest)]

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

def count_paths_dp(graph: GradedGraph, v: Vertex, u: Vertex) -> int:
    """Number of monotone paths from v to u, by explicit level-by-level DP.

    Edges only raise entries, so every intermediate vertex stays inside the
    entrywise box between v and u; the sweep enforces the upper face.
    """
    v, u = tuple(v), tuple(u)
    if not graph.contains(v):
        raise ValueError(f"source {v} is not a vertex")
    if not graph.contains(u):
        raise ValueError(f"target {u} is not a vertex")
    if degree(u) < degree(v) or not majorates(u, v):
        return 0
    counts: dict[Vertex, int] = {v: 1}
    for _ in range(degree(u) - degree(v)):
        nxt: dict[Vertex, int] = {}
        for w, c in counts.items():
            for w2 in graph.out_neighbors(w):
                if majorates(u, w2):
                    nxt[w2] = nxt.get(w2, 0) + c
        counts = nxt
    return counts.get(u, 0)


def path_count_table(graph: GradedGraph, v: Vertex,
                     max_degree: int) -> dict[Vertex, int]:
    """Path counts from v to every vertex of degree <= max_degree, in one sweep."""
    v = tuple(v)
    if not graph.contains(v):
        raise ValueError(f"source {v} is not a vertex")
    table: dict[Vertex, int] = {v: 1}
    frontier: dict[Vertex, int] = {v: 1}
    for _ in range(degree(v), max_degree):
        nxt: dict[Vertex, int] = {}
        for w, c in frontier.items():
            for w2 in graph.out_neighbors(w):
                nxt[w2] = nxt.get(w2, 0) + c
        table.update(nxt)
        frontier = nxt
    return table


def path_counts_to(graph: GradedGraph, v: Vertex,
                   targets: Iterable[Vertex]) -> dict[Vertex, int]:
    """Path counts from v to each target, in one level sweep.

    Edges only raise entries, so a path to a target stays entrywise below
    it, and the sweep keeps only the vertices below some target.  Each
    kept vertex carries the targets above it; a target above a vertex is
    above all its predecessors, so the first predecessor to reach it hands
    it the ones still above.  A sweep shared by many targets thus visits
    each vertex once, and one for a single target visits only its box."""
    v = tuple(v)
    if not graph.contains(v):
        raise ValueError(f"source {v} is not a vertex")
    wanted = {tuple(u) for u in targets}
    counts: dict[Vertex, int] = {}
    above = tuple(u for u in wanted if majorates(u, v))
    frontier: dict[Vertex, list] = {v: [1, above]} if above else {}
    while frontier:
        nxt: dict[Vertex, list] = {}
        for w, (c, above) in frontier.items():
            if w in wanted:
                counts[w] = c
            for w2 in graph.out_neighbors(w):
                entry = nxt.get(w2)
                if entry is not None:
                    entry[0] += c
                    continue
                reach = tuple(u for u in above if majorates(u, w2))
                if reach:
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

def constraint_monomials(graph: GradedGraph, v: Vertex,
                         bound: int) -> dict[Vertex, Vertex]:
    """Monomials that carry a linear constraint on a weight series for v,
    each mapped to the pivot that settles it: every vertex of degree deg(v)
    to itself, and every non-vertex u with deg(v) <= deg(u) <= bound and an
    exit i (u + e_i a vertex) to u lowered deg(u) - deg(v) steps along i.

    Ordered by degree then lexicographically.
    """
    v = tuple(v)
    if not graph.contains(v):
        raise ValueError(f"{v} is not a vertex")
    base = degree(v)
    if bound < base:
        raise ValueError("bound below the base degree")
    found = {w: w for w in graph.vertices_of_degree(base)}
    for d in range(base, bound + 1):
        for w in graph.vertices_of_degree(d + 1):
            for i in range(graph.k):
                u = _bump(w, i, -1)
                if not graph.contains(u):
                    found[u] = _bump(w, i, base - d - 1)
    return {u: found[u] for u in sorted(found, key=grlex_key)}


class SeriesConstructionError(ValueError):
    """Raised when the weight-series construction detects that the graph
    violates the minimum-closure / convexity hypotheses."""

    def __init__(self, message: str, monomial: Vertex | None = None):
        super().__init__(message)
        self.monomial = monomial


@dataclass
class WeightSeries:
    """Sparse coefficient table of a weight series for ``base``.

    All keys have total degree equal to deg(base); entries may be negative
    integers.  ``degree_bound`` is the largest constraint degree the table
    was solved for (and hence the largest target degree it certifies)."""

    base: Vertex
    coeffs: dict[Vertex, Coeff] = field(default_factory=dict)
    degree_bound: int = 0

    def coefficient(self, exps: Vertex) -> Coeff:
        return self.coeffs.get(tuple(exps), 0)

    def sorted_items(self) -> list[tuple[Vertex, Coeff]]:
        return sorted(self.coeffs.items())


def construct_weight_series(graph: GradedGraph, v: Vertex, bound: int) -> WeightSeries:
    """Solve the weight-series constraints for v up to the given degree bound.

    Runs the two hypothesis checks first, over the neighbour relation in
    the enclosing box's square (or a custom graph's own vertex list); any
    violation (including a pivot collision during the solve) raises
    ``SeriesConstructionError`` with the offending monomial, which for a
    relation is a point (a, b) of that square.
    """
    v = tuple(v)
    if not graph.contains(v):
        raise ValueError(f"{v} is not a vertex")
    box = max([bound + 1, *(abs(c) for c in v), 1])
    for check in (check_minimum_closed, check_coordinate_convex):
        report = check(graph, box)
        if not report.ok:
            raise SeriesConstructionError(
                f"{report.identity} fails: {report.witness}",
                monomial=tuple(report.witness["pair" if "pair" in report.witness
                                              else "endpoints"][0]))

    coeffs: dict[Vertex, Coeff] = {}
    for u, pivot in graph.constraints(v, bound).items():
        if pivot in coeffs:
            raise SeriesConstructionError(
                f"pivot collision at {pivot} while settling {u}", monomial=u)
        # the pivot's own weight in the constraint is exactly 1
        value = (1 if u == v else 0) - _extract_coefficient(
            coeffs, u, degree(u) - degree(v))
        if value:
            coeffs[pivot] = value
    series = WeightSeries(base=v, coeffs=coeffs, degree_bound=bound)
    if series.coefficient(v) != 1:
        raise SeriesConstructionError("base coefficient is not 1", monomial=v)
    return series


def _extract_coefficient(coeffs: dict[Vertex, Coeff], w: Vertex,
                         steps: int) -> Coeff:
    """Coefficient of w in phi * (x_1+..+x_k)^steps, phi given by coeffs."""
    low = degree(w) - steps
    total: Coeff = 0
    for e, c in coeffs.items():
        if majorates(w, e) and degree(e) == low:
            total += c * multinomial(tuple(map(operator.sub, w, e)))
    return total


def verify_weight_conditions(graph: GradedGraph, v: Vertex, phi: WeightSeries,
                             bound: int) -> VerifyReport:
    """Check the three weight-series conditions for v up to the degree bound.

    Condition 3 uses the exponent deg(w) - deg(v).
    """
    started = time.perf_counter()
    v = tuple(v)
    params = {"graph": graph.name, "k": graph.k, "v": v, "bound": bound}
    if not graph.contains(v):
        raise ValueError(f"{v} is not a vertex")
    if bound < degree(v):
        raise ValueError("bound below the base degree")

    if phi.coefficient(v) != 1:
        return failed("weight_conditions", params,
                      {"condition": "base coefficient", "monomial": v,
                       "value": phi.coefficient(v)}, started)
    for w in graph.constraints(v, bound):
        value = _extract_coefficient(phi.coeffs, w, degree(w) - degree(v))
        if value and w != v:
            # the vertices among the constraints are those of degree deg(v)
            condition = ("same-degree vertex" if graph.contains(w)
                         else "boundary vanishing")
            return failed("weight_conditions", params,
                          {"condition": condition, "monomial": w,
                           "value": value}, started)
    return passed("weight_conditions", params, started)


def weighted_path_count(graph: GradedGraph, phi: WeightSeries, v: Vertex,
                        u: Vertex) -> int:
    """Path count from v to u read off as the coefficient of u in
    phi * (x_1+..+x_k)^(deg u - deg v)."""
    v, u = tuple(v), tuple(u)
    if not graph.contains(v) or not graph.contains(u):
        raise ValueError("endpoints must be vertices")
    steps = degree(u) - degree(v)
    if steps < 0:
        return 0
    if phi.base != v:
        raise ValueError(f"series base {phi.base} does not match source {v}")
    if phi.degree_bound < degree(u):
        raise ValueError(
            f"series bound {phi.degree_bound} below target degree {degree(u)}")
    value = _extract_coefficient(phi.coeffs, u, steps)
    if value != int(value):
        raise ArithmeticError(f"non-integer path count {value} at {u}")
    if value < 0:
        raise ArithmeticError(f"negative path count {value} at {u}")
    return int(value)
