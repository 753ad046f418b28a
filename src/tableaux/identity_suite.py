"""Mechanical verification of the polynomial identities behind the counts.

Every check returns a VerifyReport and compares exact polynomials (or exact
rational limits), never floats.  The right-hand sides are falling-factorial
expansions over the top simplex layer (``multipoly.ff_expansion``), with
weights given by multinomials, alternants at the composition, or limit
values of a rational function.  The ``perturb`` flag on each check injects a
stray monomial into one side first; the perturbed run must come back failed,
which is how the negative controls prove the comparisons have teeth.

Cross-validation helpers pit every closed-form count against the DP oracle,
and the weight-series construction against both, over seeded samples.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from .formulas import (aitken_weight, closed_form_count, skew_weight_limit,
                       strict_count, strict_partition_to_vertex,
                       strict_skew_path_series, strict_vertex_to_partition,
                       syt_count, syt_count_hook, young_vertex_to_partition)
from .graded_graphs import (GradedGraph, SeriesConstructionError,
                            construct_weight_series, count_paths_dp, degree,
                            make_graph, path_count_table,
                            verify_weight_conditions, weighted_path_count)
from .laurent import (check_trailing_negative_coeffs, polynomial_component,
                      verify_pfaffian_product)
from .multipoly import (Coeff, Exponents, MultiPoly, bounded_exponents,
                        exact_compositions, falling_alternant,
                        falling_factorial, ff_expansion, ff_of_poly, grlex_key,
                        multinomial, power_alternant)
from .reports import VerifyReport, failed, passed

# anchor vertices exercised by the default sweep, per dimension
SWEEP_ANCHORS: dict[int, list[tuple[int, ...]]] = {
    1: [(0,), (1,), (2,)],
    2: [(0, 1), (0, 2), (1, 3)],
    3: [(0, 1, 2), (0, 1, 3), (0, 2, 4)],
}


def _variable_sum(k: int) -> MultiPoly:
    total = MultiPoly.zero(k)
    for i in range(k):
        total = total + MultiPoly.var(k, i)
    return total


def _over_factorials(value: Coeff, comp: Exponents) -> Fraction:
    """value / prod(c_i!)."""
    return Fraction(value, prod(factorial(c) for c in comp))


def _compare(identity: str, params: dict, started: float,
             sides: list[tuple[str, MultiPoly, MultiPoly]]) -> VerifyReport:
    """Pass iff every (form, lhs, rhs) is an exact polynomial equality."""
    for form, lhs, rhs in sides:
        if lhs == rhs:
            continue
        diff = lhs - rhs
        top = max(diff.terms, key=grlex_key)
        return failed(identity, params,
                      {"form": form, "monomial": top, "difference": diff.terms[top]},
                      started)
    return passed(identity, params, started)


def _perturbed(poly: MultiPoly, flag: bool) -> MultiPoly:
    return poly + MultiPoly.var(poly.k, 0) if flag else poly


# -- full lattice identities ---------------------------------------------------

def check_vandermonde(k: int, n: int, perturb: bool = False) -> VerifyReport:
    """ff(x_1+..+x_k, n) expanded over compositions with multinomial
    weights.  Dividing both sides by n! gives the binomial form, so it is
    not checked separately."""
    started = time.perf_counter()
    params = {"k": k, "n": n, "perturbed": perturb}
    lhs = _perturbed(ff_of_poly(_variable_sum(k), n), perturb)
    rhs = ff_expansion(k, n, multinomial)
    return _compare("vandermonde_convolution", params, started,
                    [("falling_factorial", lhs, rhs)])


def check_multinomial(k: int, n: int, perturb: bool = False) -> VerifyReport:
    """(x_1+..+x_k)^n as the sum of multinomial monomials."""
    started = time.perf_counter()
    params = {"k": k, "n": n, "perturbed": perturb}
    lhs = _perturbed(_variable_sum(k) ** n, perturb)
    rhs = MultiPoly.zero(k)
    for comp in exact_compositions(k, n):
        rhs = rhs + MultiPoly.monomial(k, comp, multinomial(comp))
    return _compare("multinomial_expansion", params, started,
                    [("power", lhs, rhs)])


# -- strictly increasing coordinates -------------------------------------------

def _anchored_sides(anchor: tuple[int, ...], falling: MultiPoly,
                    power: MultiPoly, steps: int,
                    perturb: bool) -> list[tuple[str, MultiPoly, MultiPoly]]:
    """Both forms of the anchored expansion.  With w(c) = steps!/prod(c_i!)
    * det(ff(c_i, a_j)) over the compositions c of steps + |a|:

    * falling * ff(sum(x) - |a|, steps) = sum w(c) prod ff(x_i, c_i),
    * power * sum(x)^steps = sum w(c) x^c,

    where ``falling`` is det(ff(x_i, a_j)) and ``power`` is det(x_i^{a_j}).
    w is ``aitken_weight``, an integer."""
    k = len(anchor)
    total = steps + sum(anchor)
    weights = MultiPoly(k, {
        comp: aitken_weight(anchor, comp)
        for comp in exact_compositions(k, total)})
    lhs_ff = _perturbed(falling * ff_of_poly(_variable_sum(k) - sum(anchor), steps),
                        perturb)
    lhs_pw = _perturbed(power * _variable_sum(k) ** steps, perturb)
    return [("falling_factorial", lhs_ff,
             ff_expansion(k, total, weights.coefficient)),
            ("power", lhs_pw, weights)]


def check_hook_identity(k: int, steps: int, perturb: bool = False) -> VerifyReport:
    """The anchored expansion at the staircase anchor (0..k-1), where both
    alternants are the Vandermonde product prod_{i<j} (x_j - x_i):
    prod(x_j - x_i) * ff(sum(x) - k(k-1)/2, steps) equals the sum over
    compositions c of steps + k(k-1)/2 of
    steps!/prod(c_i!) * prod(c_j - c_i) * prod ff(x_i, c_i),
    plus the top-homogeneous (power) form of the same identity."""
    started = time.perf_counter()
    params = {"k": k, "steps": steps, "perturbed": perturb}
    staircase = tuple(range(k))
    vandermonde = power_alternant(staircase)
    return _compare("hook_expansion", params, started,
                    _anchored_sides(staircase, vandermonde, vandermonde, steps,
                                    perturb))


def check_skew_identity(k: int, anchor: Sequence[int], steps: int,
                        perturb: bool = False) -> VerifyReport:
    """The anchored form: det(ff(x_i, a_j)) * ff(sum(x) - |a|, steps) equals
    the composition sum weighted by det(ff(c_i, a_j)), and likewise with the
    power alternant det(x_i^{a_j}) on the left.  At the staircase anchor
    (0..k-1) the falling alternant collapses to the power alternant
    prod(x_j - x_i), recovering the un-anchored identity."""
    started = time.perf_counter()
    anchor = tuple(anchor)
    params = {"k": k, "anchor": anchor, "steps": steps, "perturbed": perturb}
    falling = falling_alternant(anchor)
    power = power_alternant(anchor)
    sides = _anchored_sides(anchor, falling, power, steps, perturb)
    if anchor == tuple(range(k)):
        sides.append(("staircase_collapse", falling, power))
    return _compare("anchored_hook_expansion", params, started, sides)


# -- distinct parts ------------------------------------------------------------

def _check_polycomponent(identity: str, params: dict, started: float,
                         sigma: tuple[int, ...], k: int,
                         n: int) -> VerifyReport:
    """The three checks on the strict path series anchored at the
    distinct-parts partition sigma, with m = |sigma|,

        fn = prod(ratios) * psi_sigma * ff(sum(x) - m, n - m),

    whose weight function w = prod(ratios) * psi_sigma is
    ``skew_weight_fn``.  The limit of w at a non-negative point is finite:
    its numerator carries prod(x_i - x_j), whose order in t is that of the
    denominator prod(x_i + x_j).  The polynomial component of ``fn`` up to
    total degree n

    * equals the falling-factorial expansion with weights
      (n - m)!/prod(c_i!) * w(c),
    * differs from ``fn`` by a part vanishing at every lattice point p of
      the simplex sum <= n, where ``fn`` tends to w(p) * ff(sum(p) - m, n - m),
    * has zero coefficients at every trailing-negative exponent pattern.

    The polynomial side always comes from ``expand`` and the limits never
    do, so each step pits the expansion against the closed form.  The top
    layer's limits serve both the closed form and the antipolynomial step,
    so each point's limit is computed once.
    """
    m = sum(sigma)
    fn = strict_skew_path_series(strict_partition_to_vertex(sigma, k), n)
    part = _perturbed(polynomial_component(fn, n), params["perturbed"])
    limit = functools.cache(functools.partial(skew_weight_limit, sigma))
    closed = ff_expansion(k, n, lambda comp: _over_factorials(
        factorial(n - m) * limit(comp), comp))
    if part != closed:
        diff = part - closed
        top = max(diff.terms, key=grlex_key)
        return failed(identity, params,
                      {"part": "closed_form", "monomial": top,
                       "difference": diff.terms[top]}, started)

    for point in bounded_exponents(k, n):
        value = limit(point) * falling_factorial(sum(point) - m, n - m)
        expected = Fraction(part.evaluate(point))
        if value != expected:
            return failed(identity, params,
                          {"part": "antipolynomial", "point": point,
                           "function": value, "polynomial": expected}, started)
    probes = check_trailing_negative_coeffs(fn, n, n + 2)
    if not probes.ok:
        return failed(identity, params,
                      {"part": "trailing_negative", **(probes.witness or {})},
                      started)
    return passed(identity, params, started)


def check_polycomponent(k: int, n: int, perturb: bool = False) -> VerifyReport:
    """The three polynomial-component checks for prod(ratios) * ff(sum(x), n),
    with the ratio product itself as the weight function: the skew checks
    at the empty partition."""
    started = time.perf_counter()
    return _check_polycomponent(
        "polynomial_component", {"k": k, "n": n, "perturbed": perturb},
        started, (), k, n)


def check_skew_polycomponent(sigma: Sequence[int], k: int, n: int,
                             perturb: bool = False) -> VerifyReport:
    """Same three checks for the skew series anchored at a distinct-parts
    partition sigma: prod(ratios) * psi_sigma * ff(sum(x) - |sigma|, n - |sigma|).
    The closed form weights are limit values of the anchored weight function."""
    started = time.perf_counter()
    sigma = tuple(sigma)
    return _check_polycomponent(
        "skew_polynomial_component",
        {"sigma": sigma, "k": k, "n": n, "perturbed": perturb},
        started, sigma, k, n)


# -- cross validation against the DP oracle -------------------------------------

def _formula_routes(graph: GradedGraph, v: tuple[int, ...],
                    u: tuple[int, ...]) -> dict[str, int]:
    route, count = closed_form_count(graph.name, v, u)
    routes = {route: count}
    if v == graph.base_vertex():
        if graph.name == "young":
            routes["ratio_product"] = syt_count(u)
            routes["hooks"] = syt_count_hook(young_vertex_to_partition(u))
        elif graph.name == "strict":
            routes["ratio_product"] = strict_count(strict_vertex_to_partition(u))
    return routes


def check_counts_from_base(kind: str, k: int, steps: int) -> VerifyReport:
    """Every closed-form route against the DP table, from the base vertex to
    every vertex within ``steps`` levels."""
    started = time.perf_counter()
    graph = make_graph(kind, k)
    base = graph.base_vertex()
    table = path_count_table(graph, base, degree(base) + steps)
    params = {"graph": kind, "k": k, "steps": steps, "targets": len(table)}
    for u in sorted(table, key=lambda w: (degree(w), w)):
        values = {"dp": table[u]}
        values.update(_formula_routes(graph, base, u))
        if len(set(values.values())) != 1:
            return failed("counts_from_base", params,
                          {"vertex": u, **values}, started)
    return passed("counts_from_base", params, started)


def check_skew_pairs(kind: str, k: int, steps: int, pairs: int,
                     seed: int) -> VerifyReport:
    """Seeded random source/target pairs: skew closed form against the DP."""
    started = time.perf_counter()
    rng = random.Random(seed)
    graph = make_graph(kind, k)
    base_deg = degree(graph.base_vertex())
    params = {"graph": kind, "k": k, "steps": steps, "pairs": pairs}
    levels = {d: graph.vertices_of_degree(base_deg + d) for d in range(steps + 1)}
    for _ in range(pairs):
        d1 = rng.randint(0, steps)
        d2 = rng.randint(d1, steps)
        v = rng.choice(levels[d1])
        u = rng.choice(levels[d2])
        dp = count_paths_dp(graph, v, u)
        for route, value in _formula_routes(graph, v, u).items():
            if value != dp:
                return failed("skew_pairs", params,
                              {"source": v, "target": u, "dp": dp, route: value},
                              started, seed=seed)
    return passed("skew_pairs", params, started, seed=seed)


def check_series_construction(kind: str, k: int, steps: int) -> VerifyReport:
    """Construct a weight series at the base vertex, verify the defining
    conditions, and match its counts against the DP on every target."""
    started = time.perf_counter()
    graph = make_graph(kind, k)
    v = graph.base_vertex()
    bound = degree(v) + steps
    params = {"graph": kind, "k": k, "bound": bound}
    try:
        phi = construct_weight_series(graph, v, bound)
    except SeriesConstructionError as exc:
        return failed("series_construction", params,
                      {"reason": str(exc), "monomial": exc.monomial}, started)
    params["support"] = len(phi.coeffs)
    conditions = verify_weight_conditions(graph, v, phi, bound)
    if not conditions.ok:
        return failed("series_construction", params,
                      {"part": "conditions", **(conditions.witness or {})}, started)
    table = path_count_table(graph, v, bound)
    for u in sorted(table, key=lambda w: (degree(w), w)):
        counted = weighted_path_count(graph, phi, v, u)
        if counted != table[u]:
            return failed("series_construction", params,
                          {"vertex": u, "dp": table[u], "series": counted},
                          started)
    return passed("series_construction", params, started)


# -- sweeps ---------------------------------------------------------------------

DEFAULT_SKEW_ANCHORS: list[tuple[int, ...]] = [(), (1,), (2,), (2, 1)]


def default_sweep() -> list[VerifyReport]:
    """The whole battery at its documented default sizes."""
    reports: list[VerifyReport] = []
    for k in (1, 2, 3):
        for n in range(6):
            reports.append(check_vandermonde(k, n))
            reports.append(check_multinomial(k, n))
            reports.append(check_hook_identity(k, n))
        for anchor in SWEEP_ANCHORS[k]:
            for steps in range(4):
                reports.append(check_skew_identity(k, anchor, steps))
    for k in (2, 3):
        for n in range(5):
            reports.append(check_polycomponent(k, n))
    for sigma in DEFAULT_SKEW_ANCHORS:
        for k in (2, 3):
            if k < len(sigma):
                continue
            m = sum(sigma)
            for n in range(m, m + 4):
                reports.append(check_skew_polycomponent(sigma, k, n))
    for k in (2, 4, 6):
        reports.append(verify_pfaffian_product(k))
    for kind in ("pascal", "young", "strict"):
        reports.append(check_counts_from_base(kind, 3, 6))
        reports.append(check_series_construction(kind, 3, 6))
    return reports


def negative_controls() -> list[VerifyReport]:
    """Perturbed reruns that must fail; each is wrapped so the control itself
    passes exactly when the tampering was caught."""
    probes = [
        check_vandermonde(2, 3, perturb=True),
        check_multinomial(2, 3, perturb=True),
        check_hook_identity(2, 2, perturb=True),
        check_skew_identity(2, (1, 3), 2, perturb=True),
        check_polycomponent(2, 2, perturb=True),
        check_skew_polycomponent((1,), 2, 3, perturb=True),
    ]
    controls = []
    for rep in probes:
        caught = not rep.ok
        controls.append(VerifyReport(
            identity=rep.identity + "_control",
            params=rep.params,
            status="pass" if caught else "fail",
            witness=None if caught else {"reason": "perturbation went unnoticed"},
            millis=rep.millis))
    return controls
