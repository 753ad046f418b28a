"""Mechanical verification of the polynomial identities behind the counts.

Every check returns a VerifyReport and compares exact polynomials, exact
values or exact rational limits, never floats.  The Vandermonde, multinomial
and power forms compare coefficients with a composition sum.  The anchored
falling-factorial form and the polynomial-component checks compare values
on the lattice simplex instead, by the lemma the polynomial method rests
on: a polynomial of total degree <= D is fixed by its values at the points
c >= 0 with |c| <= D, and a sum over the compositions c' of D of
w(c') * prod ff(x_i, c'_i) vanishes below the top layer |c| = D, where it
equals w(c) * prod(c_i!).  Only a failure reads the difference's
grlex-largest monomial off its forward differences (``_value_witness``),
so the witness is the grlex-largest differing monomial either way.  The
``perturb`` flag on each check adds x_0 to one side first; the perturbed
run must come back failed, which is how the negative controls prove the
comparisons have teeth.

Cross-validation helpers pit every closed-form count against the DP oracle,
and the weight-series construction against both, over seeded samples.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, factorial, prod
from typing import Sequence

from .formulas import (SYMMETRIZATION_CAP, _closed_form_count, _strict_rows,
                       _strict_skew_count, _syt_count, _young_rows,
                       aitken_weight, skew_weight_limit, strict_count,
                       strict_partition_to_vertex, strict_skew_path_series,
                       syt_count_hook)
from .graded_graphs import (GradedGraph, SeriesConstructionError, Vertex,
                            construct_weight_series, degree, make_graph,
                            path_count_table, path_counts_to,
                            verify_weight_conditions, weighted_counts_to)
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
    return sum((MultiPoly.var(k, i) for i in range(k)), MultiPoly.zero(k))


def _leading(poly: MultiPoly) -> dict:
    """The grlex-largest monomial of a nonzero polynomial and its
    coefficient: the witness of a failed comparison."""
    top = max(poly.terms, key=grlex_key)
    return {"monomial": top, "difference": poly.terms[top]}


def _compare(identity: str, params: dict, started: float,
             sides: list[tuple[str, MultiPoly, MultiPoly]]) -> VerifyReport:
    """Pass iff every (form, lhs, rhs) is an exact polynomial equality."""
    for form, lhs, rhs in sides:
        if lhs != rhs:
            return failed(identity, params,
                          {"form": form, **_leading(lhs - rhs)}, started)
    return passed(identity, params, started)


def _value_witness(k: int, top: int, values: dict[Exponents, Coeff]) -> dict:
    """``_leading`` of the polynomial P of total degree <= top with the
    given values on the simplex |c| <= top, a missing point counting as 0,
    read off without building P.  The value checks decode a failure's
    difference with it, and only a failure's.

    Newton's forward differences, one coordinate at a time, turn the values
    into Delta^c P(0), and P = sum_c Delta^c P(0) / prod(c_i!) *
    prod ff(x_i, c_i).  Each prod ff(x_i, c_i) is x^c plus monomials
    entrywise below c, so of lower degree.  Let c be the grlex-largest
    index with Delta^c P(0) != 0: every monomial of every other nonzero
    term lies grlex below it, so x^c is P's grlex-largest monomial, with
    the coefficient Delta^c P(0) / prod(c_i!)."""
    table = {c: values.get(c, 0) for c in bounded_exponents(k, top)}
    for i in range(k):
        table = {c: sum((-1) ** (c[i] - t) * comb(c[i], t)
                        * table[c[:i] + (t,) + c[i + 1:]]
                        for t in range(c[i] + 1))
                 for c in table}
    lead = max((c for c, d in table.items() if d), key=grlex_key)
    return {"monomial": lead,
            "difference": Fraction(table[lead], prod(map(factorial, lead)))}


def _perturbed(poly: MultiPoly, flag: bool) -> MultiPoly:
    return poly + MultiPoly.var(poly.k, 0) if flag else poly


def _check_sizes(k: int, steps: int) -> None:
    """Reject a size that would check nothing or fail mid-arithmetic."""
    if k < 1:
        raise ValueError("need k >= 1")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")


# -- full lattice identities ---------------------------------------------------

def check_vandermonde(k: int, n: int, perturb: bool = False) -> VerifyReport:
    """ff(x_1+..+x_k, n) expanded over compositions with multinomial
    weights.  Dividing both sides by n! gives the binomial form, so it is
    not checked separately."""
    _check_sizes(k, n)
    started = time.perf_counter()
    params = {"k": k, "n": n, "perturbed": perturb}
    lhs = _perturbed(ff_of_poly(_variable_sum(k), n), perturb)
    rhs = ff_expansion(k, n, multinomial)
    return _compare("vandermonde_convolution", params, started,
                    [("falling_factorial", lhs, rhs)])


def check_multinomial(k: int, n: int, perturb: bool = False) -> VerifyReport:
    """(x_1+..+x_k)^n as the sum of multinomial monomials."""
    _check_sizes(k, n)
    started = time.perf_counter()
    params = {"k": k, "n": n, "perturbed": perturb}
    lhs = _perturbed(_variable_sum(k) ** n, perturb)
    rhs = MultiPoly.zero(k)
    for comp in exact_compositions(k, n):
        rhs = rhs + MultiPoly.monomial(k, comp, multinomial(comp))
    return _compare("multinomial_expansion", params, started,
                    [("power", lhs, rhs)])


# -- strictly increasing coordinates -------------------------------------------

def _check_anchored(identity: str, params: dict, started: float,
                    anchor: tuple[int, ...], falling: MultiPoly,
                    power: MultiPoly, steps: int, perturb: bool,
                    *more: tuple[str, MultiPoly, MultiPoly]) -> VerifyReport:
    """Both forms of the anchored expansion, then the ``more`` sides.  With
    w(c) = steps!/prod(c_i!) * det(ff(c_i, a_j)) (``aitken_weight``, an
    integer) over the compositions c of total = |a| + steps:

    * falling * ff(sum(x) - |a|, steps) = sum w(c) prod ff(x_i, c_i),
    * power * sum(x)^steps = sum w(c) x^c,

    where ``falling`` is det(ff(x_i, a_j)) and ``power`` is det(x_i^{a_j}).

    The falling form is checked by its values on the simplex |c| <= total,
    which fix both sides once ``falling`` has degree <= |a|; a left side of
    higher degree fails at its leading term, which the right side, of
    degree total, cannot cancel.  The right side vanishes below the top
    layer and is w(c) * prod(c_i!) on it.  On the left, ff(|c| - |a|,
    steps) is 0 for |a| <= |c| < total, so those layers hold on their own,
    and it is nonzero below |a|.  So the identity says exactly two things:

    * the falling alternant vanishes at every c with |c| < |a|.  Each term
      sign(pi) prod_j ff(c_pi(j), a_j) of det(ff(c_i, a_j)) needs
      c_pi(j) >= a_j for every j, so |c| >= |a|.  This vanishing is the
      paper's key step;
    * on the top layer, falling(c) * steps! = w(c) * prod(c_i!).
      ``aitken_weight`` forms w(c) from the entries steps!/(c_i - a_j)!,
      not from det(ff(c_i, a_j)), so this layer checks Aitken's row
      identity ff(c, a)/c! = 1/(c - a)! at every c, and the integrality of
      w with it.

    Only those layers are evaluated, and the middle ones too when
    ``perturb`` adds the value of x_0 to the left side.  The alternant is
    never multiplied by ff(sum(x) - |a|, steps) as a polynomial, except to
    report a left side of too high a degree.  The power form stays a
    coefficient comparison."""
    k = len(anchor)
    base = sum(anchor)
    total = base + steps
    weights = {comp: aitken_weight(anchor, comp)
               for comp in exact_compositions(k, total)}
    drop = [falling_factorial(layer - base, steps) for layer in range(total + 1)]
    rhs = {c: w * prod(map(factorial, c)) for c, w in weights.items()}
    layers = range(total + 1) if perturb else [*range(base), total]
    diff = {c: value * drop[sum(c)] + (c[0] if perturb else 0) - rhs.get(c, 0)
            for c, value in falling.layer_values(layers).items()}
    above = falling.degree() > base or perturb and total == 0
    if above or any(diff.values()):
        # the right side has degree total, so terms above it are the left's
        witness = _leading(_perturbed(
            falling * ff_of_poly(_variable_sum(k) - base, steps), perturb)) \
            if above else _value_witness(k, total, diff)
        return failed(identity, params,
                      {"form": "falling_factorial", **witness}, started)
    lhs_pw = _perturbed(power * _variable_sum(k) ** steps, perturb)
    return _compare(identity, params, started,
                    [("power", lhs_pw, MultiPoly(k, weights)), *more])


def check_hook_identity(k: int, steps: int, perturb: bool = False) -> VerifyReport:
    """The anchored expansion at the staircase anchor (0..k-1), where both
    alternants are the Vandermonde product prod_{i<j} (x_j - x_i):
    prod(x_j - x_i) * ff(sum(x) - k(k-1)/2, steps) equals the sum over
    compositions c of steps + k(k-1)/2 of
    steps!/prod(c_i!) * prod(c_j - c_i) * prod ff(x_i, c_i),
    plus the top-homogeneous (power) form of the same identity."""
    _check_sizes(k, steps)
    started = time.perf_counter()
    params = {"k": k, "steps": steps, "perturbed": perturb}
    staircase = tuple(range(k))
    vandermonde = power_alternant(staircase)
    return _check_anchored("hook_expansion", params, started, staircase,
                           vandermonde, vandermonde, steps, perturb)


def check_skew_identity(k: int, anchor: Sequence[int], steps: int,
                        perturb: bool = False) -> VerifyReport:
    """The anchored form: det(ff(x_i, a_j)) * ff(sum(x) - |a|, steps) equals
    the composition sum weighted by det(ff(c_i, a_j)), and likewise with the
    power alternant det(x_i^{a_j}) on the left.  At the staircase anchor
    (0..k-1) the falling alternant collapses to the power alternant
    prod(x_j - x_i), recovering the un-anchored identity.  Rejected: an
    anchor of length other than k, one with a repeated entry (both
    alternants vanish, so the check would compare 0 with 0), and one with
    a negative entry, which has no falling factorial."""
    _check_sizes(k, steps)
    started = time.perf_counter()
    anchor = tuple(anchor)
    if len(anchor) != k:
        raise ValueError(f"anchor {anchor} is not of length k = {k}")
    if len(set(anchor)) != len(anchor):
        raise ValueError(f"anchor {anchor} has a repeated entry")
    if min(anchor) < 0:
        raise ValueError(f"anchor {anchor} has a negative entry")
    params = {"k": k, "anchor": anchor, "steps": steps, "perturbed": perturb}
    falling = falling_alternant(anchor)
    power = power_alternant(anchor)
    collapse = [("staircase_collapse", falling, power)] \
        if anchor == tuple(range(k)) else []
    return _check_anchored("anchored_hook_expansion", params, started, anchor,
                           falling, power, steps, perturb, *collapse)


# -- distinct parts ------------------------------------------------------------

def _check_polycomponent(identity: str, params: dict,
                         sigma: tuple[int, ...], k: int,
                         n: int) -> VerifyReport:
    """The three checks on the strict path series anchored at the
    distinct-parts partition sigma, with m = |sigma|,

        fn = prod(ratios) * psi_sigma * ff(sum(x) - m, n - m),

    whose weight function w = prod(ratios) * psi_sigma is
    ``skew_weight_fn``.  The limit of w at a non-negative point is finite:
    its numerator carries prod(x_i - x_j), whose order in t is that of the
    denominator prod(x_i + x_j).  So ``fn`` tends to
    w(p) * ff(|p| - m, n - m) at every lattice point p.  The polynomial
    component ``part`` of ``fn`` up to total degree n

    * equals the falling-factorial expansion with weights
      (n - m)!/prod(c_i!) * w(c) over the compositions c of n,
    * differs from ``fn`` by a part vanishing at every point p of the
      simplex |p| <= n,
    * has zero coefficients at every trailing-negative exponent pattern.

    Both sides of the first check have degree <= n, so it is checked by
    its values on the simplex: the expansion is (n - m)! * w(p) on the top
    layer |p| = n and 0 below it.  Then the second check holds on its own
    for m <= |p| < n, where ff(|p| - m, n - m) = 0, and on the top layer,
    where the first check forced it.  Below the anchor, |p| < m, the first
    check made part(p) = 0, and ff(|p| - m, n - m) is nonzero, so the
    second says that the limit of the weight function itself vanishes
    there: the paper's key step.  So limits are computed on the top layer and below
    the anchor, each point's once, and nowhere else; ``part`` is evaluated
    over the whole simplex in one pass (``MultiPoly.simplex_values``).
    The polynomial side always comes from ``expand`` and the limits never
    do, so each step pits the expansion against the closed form.
    """
    _check_sizes(k, n)
    started = time.perf_counter()
    m = sum(sigma)
    fn = strict_skew_path_series(strict_partition_to_vertex(sigma, k), n)
    part = _perturbed(polynomial_component(fn, n), params["perturbed"])
    scale = factorial(n - m)
    values = part.simplex_values(n)
    diff = {p: value - scale * skew_weight_limit(sigma, p) if sum(p) == n
            else value for p, value in values.items()}
    if part.degree() > n or any(diff.values()):
        # the expansion has degree n, so terms above it are part's own; only
        # x_0 added at n = 0 gets there
        witness = _leading(part) if part.degree() > n \
            else _value_witness(k, n, diff)
        return failed(identity, params,
                      {"part": "closed_form", **witness}, started)
    for point in bounded_exponents(k, m - 1):
        value = (skew_weight_limit(sigma, point)
                 * falling_factorial(sum(point) - m, n - m))
        if value:
            return failed(identity, params,
                          {"part": "antipolynomial", "point": point,
                           "function": value, "polynomial": values[point]},
                          started)
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
    return _check_polycomponent(
        "polynomial_component", {"k": k, "n": n, "perturbed": perturb},
        (), k, n)


def check_skew_polycomponent(sigma: Sequence[int], k: int, n: int,
                             perturb: bool = False) -> VerifyReport:
    """Same three checks for the skew series anchored at a distinct-parts
    partition sigma: prod(ratios) * psi_sigma * ff(sum(x) - |sigma|, n - |sigma|).
    The closed form weights are limit values of the anchored weight function."""
    sigma = tuple(sigma)
    return _check_polycomponent(
        "skew_polynomial_component",
        {"sigma": sigma, "k": k, "n": n, "perturbed": perturb}, sigma, k, n)


# -- cross validation against the DP oracle -------------------------------------

def _formula_routes(graph: GradedGraph, v: Vertex, u: Vertex) -> dict[str, int]:
    """Every closed form from v to u, vertices that a DP sweep checked or
    produced: a strict pair takes the Pfaffian and, up to the
    symmetrization cap, the paper's anchored limit; from the base vertex
    the ratio product (and for Young the hooks) join them."""
    route, count = _closed_form_count(graph.name, v, u)
    routes = {route: count}
    if graph.name == "strict" and graph.k <= SYMMETRIZATION_CAP:
        routes["anchored_limit"] = _strict_skew_count(v, u)
    if v == graph.base_vertex():
        if graph.name == "young":
            routes["ratio_product"] = _syt_count(u)
            routes["hooks"] = syt_count_hook(_young_rows(u))
        elif graph.name == "strict":
            routes["ratio_product"] = strict_count(_strict_rows(u))
    return routes


def check_counts_from_base(kind: str, k: int, steps: int) -> VerifyReport:
    """Every closed-form route against the DP table, from the base vertex to
    every vertex within ``steps`` levels."""
    _check_sizes(k, steps)
    started = time.perf_counter()
    graph = make_graph(kind, k)
    base = graph.base_vertex()
    table = path_count_table(graph, base, degree(base) + steps)
    params = {"graph": kind, "k": k, "steps": steps, "targets": len(table)}
    for u in sorted(table, key=grlex_key):
        values = {"dp": table[u], **_formula_routes(graph, base, u)}
        if len(set(values.values())) != 1:
            return failed("counts_from_base", params,
                          {"vertex": u, **values}, started)
    return passed("counts_from_base", params, started)


def check_skew_pairs(kind: str, k: int, steps: int, pairs: int,
                     seed: int) -> VerifyReport:
    """Seeded random source/target pairs: skew closed form against the DP.

    All pairs are drawn first, so the DP counts from a source to all its
    targets come from one ``path_counts_to`` sweep, which checks the
    source; the targets are vertices by construction.  Each distinct pair is
    compared once, in the order of its first draw, so the first failing
    pair is the one that comparing every draw would find."""
    _check_sizes(k, steps)
    if pairs < 1:
        raise ValueError(f"pairs must be positive, got {pairs}")
    started = time.perf_counter()
    rng = random.Random(seed)
    graph = make_graph(kind, k)
    base_deg = degree(graph.base_vertex())
    params = {"graph": kind, "k": k, "steps": steps, "pairs": pairs}
    levels = list(graph.levels_above((0,) * k,
                                     range(base_deg, base_deg + steps + 1)))
    drawn = []
    for _ in range(pairs):
        d1 = rng.randint(0, steps)
        d2 = rng.randint(d1, steps)
        drawn.append((rng.choice(levels[d1]), rng.choice(levels[d2])))
    targets: dict[Vertex, set[Vertex]] = {}
    for v, u in drawn:
        targets.setdefault(v, set()).add(u)
    counts = {v: path_counts_to(graph, v, us) for v, us in targets.items()}
    for v, u in dict.fromkeys(drawn):
        dp = counts[v][u]
        for route, value in _formula_routes(graph, v, u).items():
            if value != dp:
                return failed("skew_pairs", params,
                              {"source": v, "target": u, "dp": dp, route: value},
                              started, seed=seed)
    return passed("skew_pairs", params, started, seed=seed)


def check_series_construction(kind: str, k: int, steps: int) -> VerifyReport:
    """Construct a weight series at the base vertex, verify the defining
    conditions, and match its counts against the DP on every target."""
    _check_sizes(k, steps)
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
    series = weighted_counts_to(graph, phi, v, sorted(table, key=grlex_key))
    for u, counted in series.items():
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
