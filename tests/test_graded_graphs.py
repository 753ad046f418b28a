"""Graph membership, the DP oracle, and the weight-series machinery."""

import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableaux import cli
from tableaux import graded_graphs
from tableaux.graded_graphs import (GRAPH_KINDS, CustomBoxGraph, GradedGraph,
                                    SeriesConstructionError, WeightSeries,
                                    check_coordinate_convex,
                                    check_minimum_closed, constraint_monomials,
                                    construct_weight_series, count_paths_dp,
                                    degree, make_graph, path_count_table,
                                    path_counts_to, static_floor,
                                    verify_weight_conditions,
                                    weighted_counts_to, weighted_path_count)
from tableaux.multipoly import exact_compositions, multinomial


# a custom graph off the non-negative orthant: [-2, 1]^2 less two corners
_NEGATIVE_GRAPH = CustomBoxGraph(2, [
    w for w in itertools.product(range(-2, 2), repeat=2)
    if w not in ((1, -2), (-2, 1))])


def test_membership_pascal():
    g = make_graph("pascal", 3)
    assert g.contains((0, 0, 0)) and g.contains((4, 0, 7))
    assert not g.contains((-1, 0, 0))
    assert g.base_vertex() == (0, 0, 0)


def test_membership_young():
    g = make_graph("young", 3)
    assert g.contains((0, 1, 2)) and g.contains((0, 2, 5))
    assert not g.contains((0, 1, 1))
    assert not g.contains((2, 1, 3))
    assert g.base_vertex() == (0, 1, 2)


def test_membership_strict():
    g = make_graph("strict", 3)
    assert g.contains((0, 0, 0)) and g.contains((0, 1, 3)) and g.contains((0, 0, 2))
    assert not g.contains((0, 1, 1))
    assert not g.contains((1, 1, 2))
    assert not g.contains((0, 2, 1))


def test_unknown_kind():
    with pytest.raises(ValueError):
        make_graph("octagon", 2)


def test_neighbors_filter_membership():
    g = make_graph("young", 2)
    assert g.out_neighbors((0, 1)) == [(0, 2)]  # (1, 1) is not a vertex
    assert g.out_neighbors((0, 3)) == [(1, 3), (0, 4)]
    with pytest.raises(ValueError):
        g.out_neighbors((1, 1))


def test_neighbor_lists_are_fresh_and_the_graph_keeps_no_per_vertex_state():
    g = make_graph("young", 2)
    state = dict(vars(g))
    found = []
    contains = g.contains
    g.contains = lambda v: found.append(v) or contains(v)
    first = g.out_neighbors((0, 3))
    first.append((9, 9))
    first[0] = (5, 5)
    assert g.out_neighbors((0, 3)) == [(1, 3), (0, 4)]
    assert g.out_neighbors((0, 3)) is not g.out_neighbors((0, 3))
    # each call tests the vertex alone; its successors follow from the rule
    assert found == [(0, 3)] * 4
    for _ in range(2):
        with pytest.raises(ValueError, match="not a vertex"):
            g.out_neighbors((1, 1))
    del g.contains
    assert vars(g) == state


def _bumps_by_membership(graph, v):
    return [(i, w) for i in range(graph.k)
            if graph.contains(w := v[:i] + (v[i] + 1,) + v[i + 1:])]


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_successor_rule_is_the_membership_filter(kind, k):
    # every vertex within 8 levels of the base, and each of them with its
    # last entry raised by 10^6, which keeps it a vertex
    g = make_graph(kind, k)
    base = degree(g.base_vertex())
    near = [w for d in range(9) for w in g.vertices_of_degree(base + d)]
    far = [w[:-1] + (w[-1] + 10 ** 6,) for w in near]
    for v in near + far:
        assert g.contains(v)
        assert g.raised(v) == _bumps_by_membership(g, v), v


def test_custom_graph_steps_by_membership():
    # off the orthant, where the built-in rule does not apply: (1, -2) and
    # (-2, 1) are missing, so (0, -2) and (-2, 0) have one successor each
    g = _NEGATIVE_GRAPH
    assert g.raised((0, -2)) == [(1, (0, -1))]
    assert g.raised((-2, 0)) == [(0, (-1, 0))]
    assert g.raised((1, 1)) == []
    # the walks from (-2, -2) to (1, 1) that avoid both corners
    assert count_paths_dp(g, (-2, -2), (1, 1)) == 18


def test_pascal_counts_are_multinomials():
    g = make_graph("pascal", 3)
    assert count_paths_dp(g, (0, 0, 0), (2, 1, 1)) == 12
    assert count_paths_dp(g, (1, 0, 0), (1, 0, 0)) == 1
    assert count_paths_dp(g, (1, 0, 0), (0, 2, 0)) == 0


def test_dp_derived_values():
    young = make_graph("young", 2)
    # targets at four steps above the base carry the tableau counts
    # 1, 3, 2, 3, 1 for shapes (4), (3,1), (2,2), (2,1,1)->n/a, (1,1,1,1)->n/a
    assert count_paths_dp(young, (0, 1), (1, 4)) == 3
    assert count_paths_dp(young, (0, 1), (2, 3)) == 2
    assert count_paths_dp(young, (0, 1), (0, 5)) == 1
    strict = make_graph("strict", 2)
    assert count_paths_dp(strict, (0, 0), (1, 2)) == 1
    assert count_paths_dp(strict, (0, 0), (1, 3)) == 2
    assert count_paths_dp(strict, (0, 0), (2, 3)) == 2
    assert count_paths_dp(strict, (1, 2), (1, 2)) == 1
    assert count_paths_dp(strict, (1, 2), (0, 0)) == 0


def test_path_count_table_matches_pointwise_dp():
    g = make_graph("strict", 3)
    base = g.base_vertex()
    table = path_count_table(g, base, 6)
    assert table[base] == 1
    for u, value in table.items():
        assert value == count_paths_dp(g, base, u)


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_path_counts_to_matches_pointwise_dp(kind):
    # every vertex within four levels as a target, from every third of
    # them: targets below, beside and equal to the source included, each
    # against the unpruned table's entry (absent means no path)
    g = make_graph(kind, 3)
    base = degree(g.base_vertex())
    vertices = [w for d in range(5) for w in g.vertices_of_degree(base + d)]
    for v in vertices[::3]:
        table = path_count_table(g, v, base + 4)
        assert path_counts_to(g, v, vertices) == {
            u: table.get(u, 0) for u in vertices}
    assert path_counts_to(g, vertices[0], []) == {}
    with pytest.raises(ValueError, match="not a vertex"):
        path_counts_to(g, (-1,) * 3, vertices)


@pytest.mark.parametrize("kind,v", [
    ("pascal", (5, 0, 2, 10 ** 6)), ("young", (0, 2, 3, 10 ** 6)),
    ("strict", (0, 0, 3, 10 ** 6))])
def test_path_counts_to_matches_the_table_from_far_sources(kind, v):
    # the targets are every vertex at or above v - 2 within four levels of
    # v, most of them not above v, and two levels below it
    g = make_graph(kind, 4)
    table = path_count_table(g, v, degree(v) + 4)
    targets = [w for level in g.levels_above(
        tuple(c - 2 for c in v), range(degree(v) - 2, degree(v) + 5))
               for w in level]
    assert set(table) < set(targets)
    assert sum(not all(map(operator.le, v, u)) for u in targets) > len(table)
    assert path_counts_to(g, v, targets) == {
        u: table.get(u, 0) for u in targets}


@pytest.mark.parametrize("graph", [
    *(make_graph(kind, k) for kind in ("pascal", "young", "strict")
      for k in (1, 2, 3, 4)),
    _NEGATIVE_GRAPH], ids=lambda g: f"{g.name}-{g.k}")
def test_count_paths_dp_is_the_unpruned_table_entry(graph):
    # every ordered pair within four levels of the base, each end below,
    # beside, equal to or above the other; the table up to the top level
    # has the entry of the table up to deg u at u
    base = degree(graph.base_vertex())
    vertices = [w for d in range(5) for w in graph.vertices_of_degree(base + d)]
    for v in vertices:
        table = path_count_table(graph, v, base + 4)
        for u in vertices:
            assert count_paths_dp(graph, v, u) == table.get(u, 0), (v, u)
    outside = (-3,) * graph.k
    for v, u, end in ((outside, outside, "source"),
                      (vertices[-1], outside, "target")):
        with pytest.raises(ValueError) as caught:
            count_paths_dp(graph, v, u)
        assert str(caught.value) == f"{end} {outside} is not a vertex"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pascal", "young", "strict"]), st.integers(2, 3),
       st.data())
def test_counts_satisfy_in_neighbor_recurrence(kind, k, data):
    g = make_graph(kind, k)
    base = g.base_vertex()
    d = data.draw(st.integers(1, 5))
    level = g.vertices_of_degree(degree(base) + d)
    if not level:
        return
    u = data.draw(st.sampled_from(level))
    below = [u[:i] + (u[i] - 1,) + u[i + 1:] for i in range(k)]
    total = sum(count_paths_dp(g, base, w) for w in below if g.contains(w))
    assert count_paths_dp(g, base, u) == total


def test_hypothesis_checks_pass_for_lattice_families():
    for kind in ("pascal", "young", "strict"):
        g = make_graph(kind, 3)
        assert check_minimum_closed(g, 5).ok
        assert check_coordinate_convex(g, 5).ok


def _box_graph(graph, box):
    """The graph's vertices in [0, box]^k as a custom graph, which the
    checks scan pair by pair in all k coordinates."""
    return CustomBoxGraph(graph.k, [
        v for v in itertools.product(range(box + 1), repeat=graph.k)
        if graph.contains(v)])


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_relation_check_agrees_with_full_scan(kind, k):
    g = make_graph(kind, k)
    # the reduction to the 2-D relation needs membership to come from it
    assert type(g).contains is GradedGraph.contains
    for box in range(7):
        for check in (check_minimum_closed, check_coordinate_convex):
            full = check(_box_graph(g, box), box)
            assert full.ok, (box, full.witness)
            assert check(g, box).ok


class _MutantGraph(GradedGraph):
    name = "mutant"

    def __init__(self, k, relation):
        super().__init__(k)
        self.neighbour_ok = relation


@pytest.mark.parametrize("relation, check, identity", [
    (operator.ne, check_minimum_closed, "minimum_closed"),
    (lambda a, b: (b - a) % 2 == 0, check_coordinate_convex,
     "coordinate_convex"),
])
@pytest.mark.parametrize("k", [2, 3])
def test_mutant_relations_fail_both_scans(relation, check, identity, k):
    g = _MutantGraph(k, relation)
    box = 4
    relation_scan = check(g, box)
    full_scan = check(_box_graph(g, box), box)
    for rep, member in ((relation_scan, lambda p: relation(*p)),
                        (full_scan, g.contains)):
        assert not rep.ok
        assert rep.identity == identity
        if identity == "minimum_closed":
            u, w = rep.witness["pair"]
            assert member(u) and member(w)
            assert not member(rep.witness["minimum"])
        else:
            ends = rep.witness["endpoints"]
            assert all(member(p) for p in ends)
            assert not member(rep.witness["gap"])


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_builtin_checks_call_membership_at_most_box_squared(kind, monkeypatch):
    g = make_graph(kind, 3)
    box = 6
    calls = 0

    def counted(fn):
        def spy(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(g, "contains", counted(g.contains))
    if getattr(g, "neighbour_ok", None) is not None:
        monkeypatch.setattr(g, "neighbour_ok", counted(g.neighbour_ok))
    for check in (check_minimum_closed, check_coordinate_convex):
        calls = 0
        assert check(g, box).ok
        assert calls <= (box + 1) ** 2, (check.__name__, calls)


@pytest.mark.parametrize("kind", ["young", "strict"])
def test_scans_do_not_grow_with_the_source(kind, monkeypatch):
    # the scans before the solve meet the relation as often from a source
    # with a huge entry as from one with a small entry
    g = make_graph(kind, 3)
    calls = scanning = 0
    relation = g.neighbour_ok

    def counted(a, b):
        nonlocal calls
        calls += scanning
        return relation(a, b)

    def scan(check):
        def run(graph, box):
            nonlocal scanning
            scanning = 1
            try:
                return check(graph, box)
            finally:
                scanning = 0
        return run

    monkeypatch.setattr(g, "neighbour_ok", counted)
    for check in ("check_minimum_closed", "check_coordinate_convex"):
        monkeypatch.setattr(graded_graphs, check,
                            scan(getattr(graded_graphs, check)))
    work = []
    for top in (100, 10**6):
        calls = 0
        construct_weight_series(g, (0, 1, top), top + 2)
        work.append(calls)
    assert work[0] == work[1] > 0


def _order_preserving_map(rng, top):
    """A seeded strictly increasing map of [0, top] into N with 0 -> 0."""
    values = [0]
    for _ in range(top):
        values.append(values[-1] + rng.randint(1, 4))
    return values


# every built-in kind with a relation, so that a new kind inherits the
# obligation that the constant scan box rests on
_RELATION_GRAPHS = {name: kind(3) for name, kind in GRAPH_KINDS.items()
                    if kind.neighbour_ok is not None}


@pytest.mark.parametrize("graph", [
    *_RELATION_GRAPHS.values(), _MutantGraph(3, operator.ne)],
    ids=[*_RELATION_GRAPHS, "ne"])
def test_order_invariant_relations_keep_their_box_4_verdicts(graph):
    relation = graph.neighbour_ok
    rng = random.Random(23)
    side = range(41)
    for _ in range(20):
        phi = _order_preserving_map(rng, 40)
        assert all(relation(phi[a], phi[b]) == relation(a, b)
                   for a in side for b in side)
    for check in (check_minimum_closed, check_coordinate_convex):
        verdict = check(graph, 4).ok
        assert all(check(graph, b).ok == verdict for b in range(4, 41))
    if graph.name == "mutant":
        # the solve scans the small box, so a far source fails at once
        started = time.perf_counter()
        with pytest.raises(SeriesConstructionError,
                           match="minimum_closed fails"):
            construct_weight_series(graph, (0, 1, 1000), 1002)
        assert time.perf_counter() - started < 1


def _order_class(a, b):
    """Which of the six order types (a, b) in N^2 has, telling 0 apart:
    both 0, only b 0, only a 0, then a < b, a == b or a > b.  The
    order-invariant relations are the unions of these classes."""
    if a == 0 or b == 0:
        return (a > 0) + 2 * (b > 0)
    return 3 + (a >= b) + (a > b)


def test_every_order_invariant_relation_keeps_its_box_4_verdicts():
    verdicts = set()
    for mask in range(64):
        g = _MutantGraph(2, lambda a, b, mask=mask:
                         bool(mask >> _order_class(a, b) & 1))
        for check in (check_minimum_closed, check_coordinate_convex):
            verdict = check(g, 4).ok
            assert all(check(g, b).ok == verdict for b in range(5, 17)), mask
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("graph, v, bound", [
    (make_graph("young", 3), (0, 1, 40), 44),
    (make_graph("strict", 2), (0, 1), 2),
    (_MutantGraph(2, lambda a, b: (b - a) % 2 == 0), (0, 40), 41)],
    ids=["young-far", "strict-near", "parity"])
def test_construction_scans_the_box_the_relation_declares(graph, v, bound,
                                                          monkeypatch):
    # the box is 4 whatever the bound and the source; parity (not
    # order-invariant: (0, 2) is in it, but not its image (0, 1) under a
    # map with 2 -> 1) still fails minimum closure there, at (0, 2), (1, 1)
    boxes = []
    for name in ("check_minimum_closed", "check_coordinate_convex"):
        real = getattr(graded_graphs, name)
        monkeypatch.setattr(graded_graphs, name, lambda graph, b, real=real:
                            boxes.append(b) or real(graph, b))
    if graph.name != "mutant":
        construct_weight_series(graph, v, bound)
        assert boxes == [4, 4]
    else:
        with pytest.raises(SeriesConstructionError, match="minimum_closed"):
            construct_weight_series(graph, v, bound)
        assert boxes == [4]


def _pair_scan_oracle(points):
    """Minimum closure by the entrywise minimum of every two points, in
    the order of ``itertools.combinations``."""
    members = set(points)
    for u, w in itertools.combinations(points, 2):
        m = tuple(map(min, u, w))
        if m != u and m != w and m not in members:
            return False, {"pair": [u, w], "minimum": m}
    return True, None


def _convexity_oracle(points):
    """Coordinate convexity by walking each point's line value by value up
    to the largest coordinate of any point."""
    members = set(points)
    highest = max((max(v) for v in points), default=0)
    for v in points:
        for i in range(len(v)):
            for top in range(v[i] + 2, highest + 1):
                far = v[:i] + (top,) + v[i + 1:]
                if far not in members:
                    continue
                for mid in range(v[i] + 1, top):
                    between = v[:i] + (mid,) + v[i + 1:]
                    if between not in members:
                        return False, {"endpoints": [v, far], "gap": between}
    return True, None


class _PointsGraph(GradedGraph):
    """A 2-D relation given by its points, negative entries allowed; the
    checks scan it as they scan a built-in graph's relation."""

    name = "points"

    def __init__(self, points):
        super().__init__(2)
        self.points = sorted(points)

    def scanned_vertices(self, box_bound):
        return self.points


def _closed_under_min(points):
    points = set(points)
    while True:
        more = {tuple(map(min, u, w)) for u in points for w in points} - points
        if not more:
            return points
        points |= more


def _random_points(rng, k):
    points = {tuple(rng.randint(-3, 3) for _ in range(k))
              for _ in range(rng.randint(0, 12))}
    return _closed_under_min(points) if rng.random() < 0.4 else points


def _outcome(report):
    return report.ok, report.witness


@pytest.mark.parametrize("k", [1, 2, 3])
def test_scans_agree_with_oracles_on_random_point_sets(k):
    rng = random.Random(1400 + k)
    verdicts = set()
    for _ in range(400):
        points = _random_points(rng, k)
        g = CustomBoxGraph(k, points)
        scanned = g.scanned_vertices(3)
        assert _outcome(check_minimum_closed(g, 3)) == \
            _pair_scan_oracle(scanned)
        convex = _outcome(check_coordinate_convex(g, 3))
        assert convex == _convexity_oracle(scanned), scanned
        verdicts.add(convex[0])
        if k == 2:
            # the row scan on the same points, negative entries included
            rows = _outcome(check_minimum_closed(_PointsGraph(points), 3))
            assert rows == _pair_scan_oracle(scanned), scanned
            verdicts.add(rows[0])
    assert verdicts == {True, False}


_RELATIONS = [operator.lt, operator.le, operator.ne, operator.gt,
              lambda a, b: a < b or a == b == 0,
              lambda a, b: (b - a) % 2 == 0, lambda a, b: b == a + 3,
              lambda a, b: False, lambda a, b: a == 1]


def test_relation_scans_agree_with_oracles():
    rng = random.Random(14)
    relations = list(_RELATIONS)
    for _ in range(300):
        kept = {(a, b) for a in range(6) for b in range(6)
                if rng.random() < 0.6}
        relations.append(lambda a, b, kept=kept: (a, b) in kept)
    failures = 0
    for relation in relations:
        for box in (0, 3, 5, 7):
            g = _MutantGraph(rng.choice([1, 2, 3]), relation)
            scanned = g.scanned_vertices(box)
            for check, oracle in ((check_minimum_closed, _pair_scan_oracle),
                                  (check_coordinate_convex,
                                   _convexity_oracle)):
                outcome = _outcome(check(g, box))
                assert outcome == oracle(scanned), (check.__name__, scanned)
                failures += not outcome[0]
    assert failures > 0


def test_custom_convexity_time_does_not_grow_with_coordinates():
    g = CustomBoxGraph(2, [(0, 0), (10**12, 0)])
    started = time.perf_counter()
    rep = check_coordinate_convex(g, 3)
    assert time.perf_counter() - started < 1
    assert not rep.ok
    assert rep.witness == {"endpoints": [(0, 0), (10**12, 0)],
                           "gap": (1, 0)}


@pytest.mark.parametrize("kind", ["young", "strict"])
@pytest.mark.parametrize("check", [check_minimum_closed,
                                   check_coordinate_convex])
def test_builtin_scans_at_box_120_take_under_a_second(kind, check):
    g = make_graph(kind, 3)
    started = time.perf_counter()
    assert check(g, 120).ok
    assert time.perf_counter() - started < 1


def _filtered_level(graph, d):
    return [v for v in exact_compositions(graph.k, d) if graph.contains(v)]


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_generated_levels_equal_filtered_compositions(kind, k):
    # check_skew_pairs draws seeded vertices from these lists, so the order
    # is pinned as well as the set
    g = make_graph(kind, k)
    for d in range(13):
        assert g.vertices_of_degree(d) == _filtered_level(g, d), d
    assert g.vertices_of_degree(-1) == []


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_levels_in_one_pass_equal_the_levels_one_at_a_time(kind, k):
    # check_skew_pairs lists all its levels in one levels_above call and
    # draws from them, so the draws rest on these lists being the same
    g = make_graph(kind, k)
    base = degree(g.base_vertex())
    degrees = range(base, base + 9)
    assert list(g.levels_above((0,) * k, degrees)) == [
        g.vertices_of_degree(d) for d in degrees]


@pytest.mark.parametrize("d", [16, 31])
def test_generated_young_levels_at_k6(d):
    # degree 31 is the top level of a young k = 6 series with --deg 16
    g = make_graph("young", 6)
    assert g.vertices_of_degree(d) == _filtered_level(g, d)


@pytest.mark.parametrize("relation", [
    operator.ne, lambda a, b: (b - a) % 2 == 0, operator.gt,
    lambda a, b: b == a + 3, lambda a, b: False, lambda a, b: a == 1,
], ids=["ne", "parity", "gt", "step3", "never", "after1"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_generated_levels_follow_any_relation(relation, k):
    # from k = 2 on, each relation leaves some level empty; "never" and
    # "after1" (a one only after a one) leave every level empty
    g = _MutantGraph(k, relation)
    empty = 0
    for d in range(11):
        level = g.vertices_of_degree(d)
        assert level == _filtered_level(g, d), d
        empty += not level
    assert empty > 0 or k == 1


def test_hypothesis_checks_catch_violations():
    # (0,0) is the minimum of (1,0) and (0,1) but missing from the box
    g = CustomBoxGraph(2, [(1, 0), (0, 1), (1, 1)])
    rep = check_minimum_closed(g, 3)
    assert not rep.ok
    assert rep.witness["minimum"] == (0, 0)
    # the x-line 0..3 through (0,0) has a hole at (2,0)
    g2 = CustomBoxGraph(2, [(0, 0), (1, 0), (3, 0)])
    rep2 = check_coordinate_convex(g2, 3)
    assert not rep2.ok
    assert rep2.witness["gap"] == (2, 0)


def test_incomparable_pair_violation_is_found():
    # every other pair is comparable, with its smaller point as minimum, so
    # the scan skips it; the one violation is the incomparable pair
    # (-1, 1, 0), (1, -1, 0), whose minimum (-1, -1, 0) is missing
    g = CustomBoxGraph(3, [(-1, 1, 0), (1, -1, 0), (1, 1, 0), (1, 1, 2),
                           (2, 3, 2)])
    rep = check_minimum_closed(g, 3)
    assert not rep.ok
    assert rep.witness == {"pair": [(-1, 1, 0), (1, -1, 0)],
                           "minimum": (-1, -1, 0)}
    closed = CustomBoxGraph(3, [*g.vertices, (-1, -1, 0)])
    assert check_minimum_closed(closed, 3).ok


def test_constraint_monomials_derived_young():
    # hand-derived: the only degree-1 vertex is (0,1); lowering the vertices
    # (0,2), (0,3), (1,2) off the vertex set gives (-1,2), (-1,3), (1,1).
    # (-1,3) exits along e_1 into (0,3) and (1,1) along e_2 into (1,2), so
    # their pivots lie one step further down those directions
    g = make_graph("young", 2)
    found = constraint_monomials(g, (0, 1), 2)
    assert list(found.items()) == [((-1, 2), (-1, 2)), ((0, 1), (0, 1)),
                                   ((-1, 3), (-2, 3)), ((1, 1), (1, 0))]


def test_constraint_monomials_derived_strict():
    g = make_graph("strict", 2)
    found = constraint_monomials(g, (0, 0), 2)
    assert list(found.items()) == [((-1, 1), (-1, 1)), ((0, 0), (0, 0)),
                                   ((-1, 2), (-2, 2)), ((-1, 3), (-3, 3)),
                                   ((1, 1), (1, -1))]


def _exits(graph, u):
    return [i for i in range(graph.k)
            if graph.contains(u[:i] + (u[i] + 1,) + u[i + 1:])]


def _pivot_by_search(graph, v, u):
    # the search the pivot map replaced: u itself at the base degree,
    # otherwise u lowered along the smallest direction that exits into the
    # vertex set
    drop = degree(u) - degree(v)
    if drop == 0:
        return u
    for i in range(graph.k):
        if graph.contains(u[:i] + (u[i] + 1,) + u[i + 1:]):
            return u[:i] + (u[i] - drop,) + u[i + 1:]
    raise ValueError(f"{u} is not a constraint monomial")


def _assert_pivots_match_search(graph, v, bound):
    found = constraint_monomials(graph, v, bound)
    assert list(found) == sorted(found, key=lambda u: (degree(u), u))
    for u, pivot in found.items():
        assert pivot == _pivot_by_search(graph, v, u), (graph.name, v, u)
        if graph.contains(u):
            assert degree(u) == degree(v)
        else:
            assert len(_exits(graph, u)) == 1, (graph.name, v, u)
    return len(found)


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pivot_map_matches_the_direction_search(kind, k):
    g = make_graph(kind, k)
    v = g.base_vertex()
    assert _assert_pivots_match_search(g, v, degree(v) + 5) > 0


def test_pivot_map_matches_the_direction_search_on_custom_graphs():
    rng = random.Random(15)
    checked = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        g = CustomBoxGraph(k, _closed_under_min(
            {tuple(rng.randint(-2, 3) for _ in range(k))
             for _ in range(rng.randint(1, 10))}))
        assert check_minimum_closed(g, 0).ok
        v = rng.choice(sorted(g.vertices))
        top = max(map(degree, g.vertices))
        checked += _assert_pivots_match_search(g, v, max(top, degree(v)))
    assert checked > 1000


@pytest.mark.parametrize("relation", [
    operator.lt, operator.ne, operator.gt, operator.le,
    lambda a, b: (b - a) % 2 == 0, lambda a, b: b == a + 3,
], ids=["lt", "ne", "gt", "le", "parity", "step3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_local_exit_test_agrees_with_membership(relation, k):
    # some relations admit a lowered entry on the left of a pair but not
    # on the right, so both pairs through the lowered coordinate count
    g = _MutantGraph(k, relation)
    sources = [w for d in range(10) for w in g.vertices_of_degree(d)]
    assert sources
    for v in sources[:12]:
        for bound in (degree(v), degree(v) + 3):
            floor = static_floor(v, bound)
            assert constraint_monomials(g, v, bound) == {
                u: p for u, p in _unfloored_constraints(g, v, bound).items()
                if all(map(operator.le, floor, u))}, v


def test_construct_weight_series_young_two_rows():
    g = make_graph("young", 2)
    phi = construct_weight_series(g, (0, 1), 4)
    assert phi.coeffs == {(0, 1): 1, (1, 0): -1}
    assert verify_weight_conditions(g, (0, 1), phi, 4).ok


def test_construct_weight_series_strict_origin():
    g = make_graph("strict", 2)
    phi = construct_weight_series(g, (0, 0), 3)
    assert phi.coeffs == {(0, 0): 1, (1, -1): -2}
    assert verify_weight_conditions(g, (0, 0), phi, 3).ok


def test_construct_raises_on_bad_box():
    g = CustomBoxGraph(2, [(1, 0), (0, 1), (1, 1)])
    with pytest.raises(SeriesConstructionError):
        construct_weight_series(g, (1, 0), 2)


def test_weighted_counts_match_dp_all_graphs():
    for kind in ("pascal", "young", "strict"):
        g = make_graph(kind, 3)
        v = g.base_vertex()
        bound = degree(v) + 5
        phi = construct_weight_series(g, v, bound)
        table = path_count_table(g, v, bound)
        for u, expected in table.items():
            assert weighted_path_count(g, phi, v, u) == expected


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_one_pass_series_reader_is_the_per_target_count(kind):
    # on every target of the table, for the solved series and for one with
    # an extra term of the base degree and a stray term of another degree
    g = make_graph(kind, 3)
    v = g.base_vertex()
    bound = degree(v) + 5
    table = path_count_table(g, v, bound)
    phi = construct_weight_series(g, v, bound)
    assert weighted_counts_to(g, phi, v, table) == table
    extra = (v[0], v[1] - 1, v[2] + 1)
    phi.coeffs[extra] = phi.coeffs.get(extra, 0) + 1
    phi.coeffs[(0, 0, 9)] = 7
    tampered = weighted_counts_to(g, phi, v, table)
    assert tampered == {u: weighted_path_count(g, phi, v, u) for u in table}
    assert tampered != table
    beyond = v[:2] + (v[2] + 6,)
    for read in (lambda: weighted_counts_to(g, phi, v, [*table, beyond]),
                 lambda: weighted_path_count(g, phi, v, beyond)):
        with pytest.raises(ValueError, match=f"series bound {bound} below "
                                             f"target degree {bound + 1}"):
            read()


def test_weighted_count_rejects_mismatched_series():
    g = make_graph("young", 2)
    phi = construct_weight_series(g, (0, 1), 3)
    with pytest.raises(ValueError):
        weighted_path_count(g, phi, (0, 2), (0, 3))
    with pytest.raises(ValueError):
        weighted_path_count(g, phi, (0, 1), (2, 5))  # beyond the bound


def test_weighted_count_rejects_negative_count():
    g = make_graph("pascal", 2)
    phi = WeightSeries(base=(0, 0), coeffs={(0, 0): -1}, degree_bound=2)
    with pytest.raises(ArithmeticError, match="negative"):
        weighted_path_count(g, phi, (0, 0), (0, 0))


def test_verify_weight_conditions_flags_wrong_table():
    g = make_graph("young", 2)
    phi = construct_weight_series(g, (0, 1), 3)
    phi.coeffs[(1, 0)] = 5
    rep = verify_weight_conditions(g, (0, 1), phi, 3)
    assert not rep.ok
    assert rep.witness["condition"] == "boundary vanishing"


def test_weight_conditions_check_same_degree_vertices_after_the_base():
    # pascal from (1,0): the level of degree 1 also holds the vertex (0,1)
    g = make_graph("pascal", 2)
    v = (1, 0)
    phi = construct_weight_series(g, v, 3)
    assert phi.coeffs == {(1, 0): 1}
    assert verify_weight_conditions(g, v, phi, 3).ok
    phi.coeffs[(0, 1)] = 3
    rep = verify_weight_conditions(g, v, phi, 3)
    assert not rep.ok
    assert rep.witness == {"condition": "same-degree vertex",
                           "monomial": (0, 1), "value": 3}
    # a wrong base coefficient is reported first, whatever else is wrong
    phi.coeffs[(1, 0)] = 2
    phi.coeffs[(-1, 2)] = 1
    rep = verify_weight_conditions(g, v, phi, 3)
    assert not rep.ok
    assert rep.witness == {"condition": "base coefficient",
                           "monomial": (1, 0), "value": 2}


def test_one_constraint_list_per_request(capsys, monkeypatch):
    built = []

    def spy(graph, v, bound):
        built.append((graph, v, bound))
        return constraint_monomials(graph, v, bound)

    monkeypatch.setattr(graded_graphs, "constraint_monomials", spy)
    for argv in (["phi", "--graph", "young", "--k", "3", "--deg", "4"],
                 ["count", "--graph", "strict", "--k", "3", "--to", "1,2,3",
                  "--method", "phi"]):
        built.clear()
        assert cli.main(argv) == 0
        assert len(built) == 1, argv
    capsys.readouterr()
    g = make_graph("young", 3)
    shared = g.constraints((0, 1, 2), 6)
    assert isinstance(shared, dict)
    assert g.constraints((0, 1, 2), 6) is shared
    assert list(shared.items()) == list(
        constraint_monomials(g, (0, 1, 2), 6).items())


def test_shared_constraints_still_check_the_table():
    # the list comes from the graph and the bound, never from the table, so
    # a table tampered after the solve, or solved for a smaller bound,
    # fails on the graph instance that solved it
    g = make_graph("strict", 3)
    v = g.base_vertex()
    phi = construct_weight_series(g, v, 5)
    assert verify_weight_conditions(g, v, phi, 5).ok
    phi.coeffs[(0, 2, -2)] = 1
    rep = verify_weight_conditions(g, v, phi, 5)
    assert not rep.ok and rep.witness["condition"] == "boundary vanishing"
    small = construct_weight_series(g, v, 2)
    assert verify_weight_conditions(g, v, small, 2).ok
    rep = verify_weight_conditions(g, v, small, 6)
    assert not rep.ok
    assert rep.witness["condition"] == "boundary vanishing"
    assert degree(rep.witness["monomial"]) > 2


def test_custom_box_series_on_staircase():
    # this box satisfies both hypotheses, so the construction must succeed
    g = CustomBoxGraph(2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    phi = construct_weight_series(g, (0, 0), 3)
    assert verify_weight_conditions(g, (0, 0), phi, 3).ok
    assert weighted_path_count(g, phi, (0, 0), (2, 1)) == \
        count_paths_dp(g, (0, 0), (2, 1))


# -- the floored solve and check against the unfloored ones --------------------

def _unfloored_constraints(graph, v, bound):
    """The full constraint map: every vertex of every level lowered in
    every direction and tested for membership."""
    base = degree(v)
    found = {w: w for w in graph.vertices_of_degree(base)}
    for d in range(base, bound + 1):
        for w in graph.vertices_of_degree(d + 1):
            for i in range(graph.k):
                u = w[:i] + (w[i] - 1,) + w[i + 1:]
                if not graph.contains(u):
                    found[u] = w[:i] + (w[i] + base - d - 1,) + w[i + 1:]
    return {u: found[u] for u in sorted(found, key=lambda u: (degree(u), u))}


def _unfloored_extract(coeffs, w, steps):
    low = degree(w) - steps
    total = 0
    for e, c in coeffs.items():
        if all(map(operator.le, e, w)) and degree(e) == low:
            total += c * multinomial(tuple(map(operator.sub, w, e)))
    return total


def _unfloored_solve(graph, v, bound, constraints=None):
    """Every constraint settled in order, over the whole support."""
    if constraints is None:
        constraints = _unfloored_constraints(graph, v, bound)
    coeffs = {}
    for u, pivot in constraints.items():
        if pivot in coeffs:
            raise SeriesConstructionError(f"pivot collision at {pivot}", u)
        value = (1 if u == v else 0) - _unfloored_extract(
            coeffs, u, degree(u) - degree(v))
        if value:
            coeffs[pivot] = value
    return coeffs


def _unfloored_check(graph, v, coeffs, bound):
    if coeffs.get(v, 0) != 1:
        return False, {"condition": "base coefficient", "monomial": v,
                       "value": coeffs.get(v, 0)}
    for w in _unfloored_constraints(graph, v, bound):
        value = _unfloored_extract(coeffs, w, degree(w) - degree(v))
        if value and w != v:
            condition = ("same-degree vertex" if graph.contains(w)
                         else "boundary vanishing")
            return False, {"condition": condition, "monomial": w,
                           "value": value}
    return True, None


def _tampered_tables(rng, v, coeffs, bound):
    """Tables changed after the solve: a term changed, dropped or moved a
    few steps, and one added below the static floor."""
    drop = static_floor(v, bound)
    k = len(v)
    tables = []
    for _ in range(4):
        table = dict(coeffs)
        e = rng.choice(sorted(table))
        table[e] += rng.choice([-1, 1])
        tables.append(table)
        table = dict(coeffs)
        if len(table) > 1:
            del table[rng.choice([e for e in sorted(table) if e != v])]
            tables.append(table)
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        e = rng.choice(sorted(coeffs))
        t = rng.randint(1, 3)
        above = e[:i] + (e[i] - t,) + e[i + 1:]
        above = above[:j] + (above[j] + t,) + above[j + 1:]
        tables.append({**coeffs, above: coeffs.get(above, 0) + 1})
        t = v[i] - drop[i] + rng.randint(1, 3)
        below = v[:i] + (v[i] - t,) + v[i + 1:]
        below = below[:j] + (below[j] + t,) + below[j + 1:]
        if i != j:
            assert not all(map(operator.le, drop, below))
            tables.append({**coeffs, below: rng.choice([-2, 1])})
    return tables


def _assert_floor_agrees(graph, v, bound, rng):
    floored = construct_weight_series(graph, v, bound).coeffs
    assert floored == _unfloored_solve(graph, v, bound), (graph.name, v)
    series = WeightSeries(base=v, coeffs=floored, degree_bound=bound)
    tables = [floored, *_tampered_tables(rng, v, floored, bound)]
    for table in tables:
        series.coeffs = table
        assert _outcome(verify_weight_conditions(graph, v, series, bound)) == \
            _unfloored_check(graph, v, table, bound), (graph.name, v, table)
    return len(tables)


_NEAR_AND_FAR = {
    "pascal": [(0, 0), (2, 5), (0, 0, 0), (1, 0, 2), (0, 9, 1), (0, 0, 0, 0),
               (0, 3, 0, 7)],
    "young": [(0, 1), (3, 9), (0, 1, 2), (0, 2, 3), (0, 1, 12), (0, 1, 2, 3),
              (1, 2, 4, 9)],
    "strict": [(0, 0), (4, 11), (0, 0, 0), (0, 1, 3), (0, 2, 11),
               (0, 0, 0, 0), (0, 1, 2, 8)],
}


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_floored_series_and_check_agree_with_the_unfloored(kind):
    rng = random.Random(18)
    for v in _NEAR_AND_FAR[kind] + [(5,), (0,)]:
        g = make_graph(kind, len(v))
        for steps in range(5 if len(v) < 4 else 4):
            assert _assert_floor_agrees(g, v, degree(v) + steps, rng) > 0


def test_floored_series_and_check_agree_on_custom_graphs():
    rng = random.Random(1800)
    solved = tables = 0
    for _ in range(400):
        k = rng.randint(1, 3)
        g = CustomBoxGraph(k, _closed_under_min(
            {tuple(rng.randint(-2, 3) for _ in range(k))
             for _ in range(rng.randint(1, 10))}))
        v = rng.choice(sorted(g.vertices))
        bound = max(max(map(degree, g.vertices)), degree(v))
        if not check_coordinate_convex(g, 0).ok:
            continue
        solved += 1
        tables += _assert_floor_agrees(g, v, bound, rng)
    assert solved > 80 and tables > 400, (solved, tables)


def test_the_solve_lowers_its_floor_to_each_pivot(monkeypatch):
    # no built-in map sets a pivot below v, so hand-build one: (1, 2) sets
    # its pivot (0, 2) below v = (1, 1), and (0, 4) lies above that pivot
    # but not above v, so a floor left at v would skip it
    g = make_graph("pascal", 2)
    v = (1, 1)
    pivots = {(1, 1): (1, 1), (1, 2): (0, 2), (2, 1): (2, 0),
              (0, 4): (-2, 4)}
    monkeypatch.setattr(g, "constraints", lambda v, bound: pivots)
    coeffs = construct_weight_series(g, v, 4).coeffs
    assert coeffs == _unfloored_solve(g, v, 4, pivots)
    assert coeffs == {(1, 1): 1, (0, 2): -1, (2, 0): -1, (-2, 4): 1}


def test_a_table_below_the_static_floor_gets_its_own_map(monkeypatch):
    built = []

    def spy(graph, v, bound, floor=None):
        built.append(floor)
        return constraint_monomials(graph, v, bound, floor)

    monkeypatch.setattr(graded_graphs, "constraint_monomials", spy)
    g = make_graph("young", 3)
    v = (0, 1, 20)
    phi = construct_weight_series(g, v, 22)
    assert verify_weight_conditions(g, v, phi, 22).ok
    assert built == [None]
    phi.coeffs[(0, 9, 12)] = 1  # 20 - 8 is below the static floor 20 - 3
    rep = verify_weight_conditions(g, v, phi, 22)
    assert built == [None, tuple(map(min, zip(*phi.coeffs)))]
    assert built[1][2] == 12
    assert _outcome(rep) == _unfloored_check(g, v, phi.coeffs, 22)
    assert not rep.ok and rep.witness["monomial"] == (0, 9, 12)


def test_constraint_maps_do_not_grow_with_the_source(monkeypatch):
    g = make_graph("young", 6)
    sizes = {len(constraint_monomials(g, (0, 1, 2, 3, 4, top), 10 + top + 1))
             for top in (80, 160)}
    assert len(sizes) == 1 and sizes.pop() > 0
    g = make_graph("young", 3)
    calls = 0
    relation = g.neighbour_ok

    def counted(a, b):
        nonlocal calls
        calls += 1
        return relation(a, b)

    monkeypatch.setattr(g, "neighbour_ok", counted)
    work = []
    for top in (100, 10**6):
        calls = 0
        found = constraint_monomials(g, (0, 1, top), top + 3)
        work.append((len(found), calls))
    assert work[0] == work[1]
    assert 0 < work[1][0] and work[1][1] < 1000


def test_far_source_count_matches_the_dp(capsys):
    assert cli.main(["count", "--graph", "young", "--k", "6", "--from",
                     "0,1,2,3,4,160", "--to", "0,1,2,3,5,160",
                     "--method", "phi"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    g = make_graph("young", 4)
    v = (0, 1, 2, 40)
    phi = construct_weight_series(g, v, degree(v) + 3)
    for u, expected in path_count_table(g, v, degree(v) + 3).items():
        assert weighted_path_count(g, phi, v, u) == expected
