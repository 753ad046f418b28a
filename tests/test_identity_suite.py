"""End-to-end identity checks, seeded sweeps, negative controls."""

import random
import re

import pytest

from tableaux import formulas, graded_graphs, identity_suite
from tableaux.identity_suite import (DEFAULT_SKEW_ANCHORS, SWEEP_ANCHORS,
                                     check_counts_from_base,
                                     check_hook_identity, check_multinomial,
                                     check_polycomponent,
                                     check_series_construction,
                                     check_skew_identity, check_skew_pairs,
                                     check_skew_polycomponent,
                                     check_vandermonde, default_sweep,
                                     negative_controls)
from tableaux.graded_graphs import degree


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_vandermonde_passes(k, n):
    rep = check_vandermonde(k, n)
    assert rep.ok
    assert rep.identity == "vandermonde_convolution"


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2)])
def test_multinomial_passes(k, n):
    assert check_multinomial(k, n).ok


@pytest.mark.parametrize("k,steps", [(1, 3), (2, 2), (3, 2)])
def test_hook_identity_passes(k, steps):
    assert check_hook_identity(k, steps).ok


def test_skew_identity_passes_with_each_anchor():
    for k, anchors in SWEEP_ANCHORS.items():
        for anchor in anchors:
            for steps in (0, 1, 2):
                rep = check_skew_identity(k, anchor, steps)
                assert rep.ok, (anchor, steps, rep.witness)
                assert rep.params["anchor"] == anchor


def test_skew_identity_rejects_a_repeated_anchor_entry():
    # both alternants vanish there, so the check would compare 0 with 0
    for anchor in ((1, 1), (0, 2, 2)):
        with pytest.raises(ValueError, match="repeated entry"):
            check_skew_identity(len(anchor), anchor, 3)
    # an unsorted anchor only flips the sign of both sides
    assert check_skew_identity(2, (1, 0), 2).ok


def test_skew_identity_rejects_a_negative_anchor_entry():
    # ff(x, -1) does not exist; the message names the anchor, not the
    # falling factorial that would have failed
    for anchor in ((-1, 2), (0, 3, -2)):
        with pytest.raises(ValueError, match=re.escape(
                f"anchor {anchor} has a negative entry")):
            check_skew_identity(len(anchor), anchor, 2)


def test_skew_identity_rejects_an_anchor_whose_length_is_not_k():
    # the check runs in len(anchor) variables, so a pass would report a k
    # it did not check
    for k, anchor in ((2, (0, 1, 2)), (3, (0, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"anchor {anchor} is not of length k = {k}")):
            check_skew_identity(k, anchor, 1)


_STEPS = "steps must be non-negative, got -1"
_OUT_OF_RANGE = [
    # a vacuous pass on the base vertex alone, and an internal error
    (check_counts_from_base, ("young", 2, -1), _STEPS),
    (check_skew_pairs, ("young", 2, -1, 3, 1), _STEPS),
    # internal errors: negative length, negative power, factorial()
    (check_vandermonde, (2, -1), _STEPS),
    (check_multinomial, (2, -1), _STEPS),
    (check_hook_identity, (2, -1), _STEPS),
    (check_skew_identity, (2, (0, 1), -1), _STEPS),
    (check_polycomponent, (2, -1), _STEPS),
    (check_skew_polycomponent, ((), 2, -1), _STEPS),
    (check_series_construction, ("young", 3, -1), _STEPS),
    # internal errors: no variable, or an empty matrix
    (check_vandermonde, (0, 2), "need k >= 1"),
    (check_multinomial, (0, 2), "need k >= 1"),
    (check_hook_identity, (0, 2), "need k >= 1"),
    # internal wording: a partition longer than the coordinates
    (check_skew_polycomponent, ((1,), 0, 3), "need k >= 1"),
]


@pytest.mark.parametrize("check,args,message", _OUT_OF_RANGE,
                         ids=[f"{check.__name__}{args}"
                              for check, args, _ in _OUT_OF_RANGE])
def test_checks_reject_out_of_range_sizes_in_the_package_words(check, args,
                                                               message):
    with pytest.raises(ValueError) as caught:
        check(*args)
    assert str(caught.value) == message


@pytest.mark.parametrize("k,n", [(2, 0), (2, 2), (3, 1), (3, 3)])
def test_polycomponent_passes(k, n):
    rep = check_polycomponent(k, n)
    assert rep.ok, rep.witness


def test_skew_polycomponent_passes():
    for sigma in DEFAULT_SKEW_ANCHORS:
        k = max(len(sigma), 2)
        m = sum(sigma)
        for n in range(m, m + 2):
            rep = check_skew_polycomponent(sigma, k, n)
            assert rep.ok, (sigma, n, rep.witness)


def test_perturbed_identities_fail():
    assert not check_vandermonde(2, 2, perturb=True).ok
    assert not check_multinomial(2, 2, perturb=True).ok
    assert not check_hook_identity(2, 2, perturb=True).ok
    assert not check_skew_identity(2, (0, 2), 1, perturb=True).ok
    assert not check_polycomponent(2, 1, perturb=True).ok
    assert not check_skew_polycomponent((1,), 2, 2, perturb=True).ok


def test_antipolynomial_check_is_sharp(monkeypatch):
    # the perturbed controls fail the closed-form comparison first, so here
    # only the weight's limit below the anchor is wrong: a nonzero limit at
    # the origin, where ff(0 - 1, 2 - 1) = -1 and the part is 0
    real = identity_suite.skew_weight_limit
    assert real((1,), (0, 0, 0)) == 0
    monkeypatch.setattr(identity_suite, "skew_weight_limit",
                        lambda sigma, point: real(sigma, point)
                        + (tuple(point) == (0, 0, 0)))
    rep = check_skew_polycomponent((1,), 3, 2)
    assert not rep.ok
    assert rep.witness["part"] == "antipolynomial"
    assert rep.witness["point"] == (0, 0, 0)
    assert (rep.witness["function"], rep.witness["polynomial"]) == (-1, 0)
    monkeypatch.setattr(identity_suite, "skew_weight_limit", real)
    assert check_skew_polycomponent((1,), 3, 2).ok


def test_anchored_weight_with_a_remainder_raises(monkeypatch):
    # at anchor (0, 1), two steps and composition (0, 3), Aitken's
    # determinant is det([[2!/0!, 0], [0, 2!/2!]]) = 2 over 2!^1; one more
    # on its first entry gives 3/2, which is no integer
    real = formulas.det

    def tampered(rows):
        return real([[rows[0][0] + 1, *rows[0][1:]], *rows[1:]])

    monkeypatch.setattr(formulas, "det", tampered)
    with pytest.raises(ArithmeticError, match="non-integer count 3/2"):
        check_skew_identity(2, (0, 1), 2)
    with pytest.raises(ArithmeticError, match="non-integer count 3/2"):
        check_hook_identity(2, 2)


@pytest.mark.parametrize("check,args,points", [
    (check_polycomponent, (3, 6), 28),
    (check_skew_polycomponent, ((3, 1), 3, 7), 56),
])
def test_each_polycomponent_limit_is_computed_once(monkeypatch, check, args,
                                                   points):
    # limits only where the falling factor ff(|p| - m, n - m) is nonzero:
    # the top layer |p| = n for the closed form and, for the antipolynomial
    # step, the points below the anchor, |p| < m; each point's once
    seen = []
    real = identity_suite.skew_weight_limit

    def spy(sigma, point):
        seen.append(point)
        return real(sigma, point)

    monkeypatch.setattr(identity_suite, "skew_weight_limit", spy)
    assert check(*args).ok
    assert len(seen) == len(set(seen)) == points
    n, m = args[-1], sum(args[0]) if len(args) == 3 else 0
    assert all(sum(p) == n or sum(p) < m for p in seen)


def test_failure_reports_carry_a_witness():
    rep = check_vandermonde(2, 2, perturb=True)
    assert rep.witness is not None
    assert "monomial" in rep.witness


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_counts_from_base(kind):
    rep = check_counts_from_base(kind, 3, 5)
    assert rep.ok, rep.witness
    assert rep.params["graph"] == kind


def test_counts_from_base_checks_the_strict_product(monkeypatch):
    real = identity_suite.strict_count
    monkeypatch.setattr(identity_suite, "strict_count",
                        lambda rows: real(rows) + 1)
    rep = check_counts_from_base("strict", 3, 4)
    assert not rep.ok
    assert rep.witness["ratio_product"] == rep.witness["dp"] + 1


@pytest.mark.parametrize("route,module,name", [
    ("pfaffian", formulas, "_strict_pfaffian_count"),
    ("anchored_limit", identity_suite, "_strict_skew_count")])
def test_strict_checks_compare_the_pfaffian_and_the_paper_route(
        monkeypatch, route, module, name):
    # each strict route is compared with the DP on its own: one off by one
    # fails the check, and the witness names it
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda v, u: real(v, u) + 1)
    for rep in (check_counts_from_base("strict", 3, 4),
                check_skew_pairs("strict", 3, 6, pairs=10, seed=1)):
        assert not rep.ok
        assert rep.witness[route] == rep.witness["dp"] + 1


def test_strict_routes_are_the_pfaffian_and_up_to_the_cap_the_paper_route():
    graph = graded_graphs.make_graph("strict", 3)
    base, u = graph.base_vertex(), (1, 2, 4)
    assert set(identity_suite._formula_routes(graph, (0, 0, 1), u)) == \
        {"pfaffian", "anchored_limit"}
    assert set(identity_suite._formula_routes(graph, base, u)) == \
        {"pfaffian", "anchored_limit", "ratio_product"}
    graph = graded_graphs.make_graph("strict", formulas.SYMMETRIZATION_CAP + 1)
    u = (0,) * formulas.SYMMETRIZATION_CAP + (2,)
    assert identity_suite._formula_routes(graph, graph.base_vertex(), u) == \
        {"pfaffian": 1, "ratio_product": 1}


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_formula_routes_check_each_vertex_once(monkeypatch, kind):
    # each source is checked once, by the DP sweep from it, and no target:
    # a target read off the table or drawn from a level is a vertex by
    # construction.  Every vertex check, the graph's ``contains`` and the
    # closed forms' ``_checked_vertex``, applies ``in_relation``, and the
    # pascal route takes the multinomial body, which checks nothing
    calls = []
    real = graded_graphs.in_relation

    def spy(v, neighbour_ok):
        calls.append(v)
        return real(v, neighbour_ok)

    def forbidden(*args):
        raise AssertionError("multinomial_paths called")

    for module in (graded_graphs, formulas):
        monkeypatch.setattr(module, "in_relation", spy)
    monkeypatch.setattr(formulas, "multinomial_paths", forbidden)
    rep = check_counts_from_base(kind, 3, 5)
    assert rep.ok, rep.witness
    assert rep.params["targets"] > 1
    assert calls == [graded_graphs.make_graph(kind, 3).base_vertex()]
    calls.clear()
    assert check_skew_pairs(kind, 3, 6, pairs=40, seed=2).ok
    drawn = _drawn_pairs(kind, 3, 6, 40, 2)
    assert calls == list(dict.fromkeys(v for v, _ in drawn))


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_skew_pairs_seeded(kind):
    rep = check_skew_pairs(kind, 3, 8, pairs=25, seed=7)
    assert rep.ok, rep.witness
    assert rep.seed == 7


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_skew_pairs_sweep_once_per_source(monkeypatch, kind):
    # 200 pairs over the vertices within 6 levels: sources repeat, and each
    # is swept once for all its targets, with no per-pair DP
    def forbidden(*args):
        raise AssertionError("count_paths_dp called")

    for module in (graded_graphs, identity_suite):
        monkeypatch.setattr(module, "count_paths_dp", forbidden, raising=False)
    sources = []
    real = graded_graphs.path_counts_to

    def spy(graph, v, targets):
        sources.append(v)
        return real(graph, v, targets)

    monkeypatch.setattr(identity_suite, "path_counts_to", spy)
    rep = check_skew_pairs(kind, 3, 6, pairs=200, seed=5)
    assert rep.ok, rep.witness
    assert sources and len(sources) == len(set(sources)) < 200


def _drawn_pairs(kind, k, steps, pairs, seed):
    """The pairs check_skew_pairs draws, in order, from levels listed one
    degree at a time."""
    rng = random.Random(seed)
    g = graded_graphs.make_graph(kind, k)
    base = degree(g.base_vertex())
    levels = [g.vertices_of_degree(base + d) for d in range(steps + 1)]
    drawn = []
    for _ in range(pairs):
        d1 = rng.randint(0, steps)
        d2 = rng.randint(d1, steps)
        drawn.append((rng.choice(levels[d1]), rng.choice(levels[d2])))
    return drawn


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_skew_pairs_evaluate_each_distinct_pair_once(monkeypatch, kind):
    # 200 draws within 6 levels repeat some pairs; each distinct pair's
    # closed form is evaluated once, in the order it was first drawn
    seen = []
    real = identity_suite._closed_form_count

    def spy(kind, v, u):
        seen.append((v, u))
        return real(kind, v, u)

    monkeypatch.setattr(identity_suite, "_closed_form_count", spy)
    assert check_skew_pairs(kind, 3, 6, pairs=200, seed=5).ok
    drawn = _drawn_pairs(kind, 3, 6, 200, 5)
    assert len(set(drawn)) < len(drawn)
    assert seen == list(dict.fromkeys(drawn))


def test_skew_pairs_report_the_first_failing_pair(monkeypatch):
    # a closed form off by one on every pair fails at the first pair drawn,
    # and the witness carries the oracle's count
    real = identity_suite._closed_form_count

    def off_by_one(kind, v, u):
        route, count = real(kind, v, u)
        return route, count + 1

    monkeypatch.setattr(identity_suite, "_closed_form_count", off_by_one)
    rng = random.Random(11)
    d1 = rng.randint(0, 6)
    d2 = rng.randint(d1, 6)
    g = graded_graphs.make_graph("young", 3)
    base = degree(g.base_vertex())
    v = rng.choice(g.vertices_of_degree(base + d1))
    u = rng.choice(g.vertices_of_degree(base + d2))
    rep = check_skew_pairs("young", 3, 6, pairs=50, seed=11)
    dp = graded_graphs.count_paths_dp(g, v, u)
    route = real("young", v, u)[0]
    assert not rep.ok
    assert rep.witness == {"source": v, "target": u, "dp": dp, route: dp + 1}


def test_skew_pairs_rejects_a_negative_count():
    # a negative count, or zero, would check no pair and pass
    for pairs in (-4, 0):
        with pytest.raises(ValueError,
                           match=f"pairs must be positive, got {pairs}"):
            check_skew_pairs("young", 2, 4, pairs=pairs, seed=1)


def test_skew_pairs_are_reproducible():
    a = check_skew_pairs("young", 2, 8, pairs=10, seed=3)
    b = check_skew_pairs("young", 2, 8, pairs=10, seed=3)
    assert a.params == b.params


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_series_construction(kind):
    rep = check_series_construction(kind, 2, 4)
    assert rep.ok, rep.witness


def test_negative_controls_all_catch():
    reports = negative_controls()
    assert len(reports) >= 6
    for rep in reports:
        assert rep.ok, rep.identity
        assert rep.identity.endswith("_control")


def test_default_sweep_is_green():
    reports = default_sweep()
    assert len(reports) == 141
    bad = [r for r in reports if not r.ok]
    assert bad == []
    names = {r.identity for r in reports}
    assert {"vandermonde_convolution", "multinomial_expansion",
            "hook_expansion", "anchored_hook_expansion",
            "polynomial_component", "skew_polynomial_component",
            "pfaffian_product", "counts_from_base",
            "series_construction"} <= names
