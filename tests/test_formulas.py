"""Codecs, closed-form counts, hook lengths, skew weight polynomials."""

import functools
import itertools
import operator
import random
from fractions import Fraction
from math import comb, factorial, perm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tableaux import formulas
from tableaux.cli import main
from tableaux.formulas import (SYMMETRIZATION_CAP, _symmetrized_sum,
                               aitken_weight,
                               format_partition, hook_lengths, hook_product,
                               parse_partition, partition_to_young_vertex,
                               skew_weight_fn, skew_weight_limit,
                               skew_weight_polynomial,
                               strict_count, strict_partition_to_vertex,
                               strict_pfaffian_count, strict_skew_count,
                               strict_skew_path_series,
                               strict_vertex_to_partition,
                               syt_count, syt_count_hook,
                               young_path_count, young_vertex_to_partition)
from tableaux.graded_graphs import (GradedGraph, count_paths_dp, degree,
                                    make_graph, path_counts_to)
from tableaux.laurent import LimitInfiniteError, evaluate_with_limits
from tableaux.multipoly import (MultiPoly, bounded_exponents,
                                canonical_text, det, exact_compositions,
                                falling_factorial, ff_poly)

partitions = st.lists(st.integers(min_value=1, max_value=6),
                      min_size=0, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


def test_young_codec_goldens():
    assert young_vertex_to_partition((1, 3)) == (2, 1)
    assert young_vertex_to_partition((2, 3)) == (2, 2)
    assert young_vertex_to_partition((1, 3, 5)) == (3, 2, 1)
    assert young_vertex_to_partition((0, 1, 2)) == ()
    assert partition_to_young_vertex((2, 1), 2) == (1, 3)
    assert partition_to_young_vertex((3, 1), 4) == (0, 1, 3, 6)
    assert young_vertex_to_partition((0, 1, 3, 6)) == (3, 1)


def test_strict_codec_goldens():
    assert strict_vertex_to_partition((0, 0, 1, 3)) == (3, 1)
    assert strict_partition_to_vertex((3, 1), 4) == (0, 0, 1, 3)
    assert strict_partition_to_vertex((2, 1), 2) == (1, 2)
    assert strict_vertex_to_partition((0, 0, 0)) == ()


def test_codecs_reject_small_k():
    with pytest.raises(ValueError):
        partition_to_young_vertex((3, 2, 1), 2)
    with pytest.raises(ValueError):
        strict_partition_to_vertex((3, 1), 1)
    with pytest.raises(ValueError):
        strict_partition_to_vertex((2, 2), 3)  # repeats not allowed


@given(partitions, st.integers(min_value=4, max_value=6))
def test_young_codec_round_trip(rows, k):
    assert young_vertex_to_partition(partition_to_young_vertex(rows, k)) == rows


@given(st.sets(st.integers(min_value=1, max_value=9), max_size=4),
       st.integers(min_value=4, max_value=6))
def test_strict_codec_round_trip(parts, k):
    rows = tuple(sorted(parts, reverse=True))
    assert strict_vertex_to_partition(strict_partition_to_vertex(rows, k)) == rows


def test_parse_and_format_partition():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("-") == ()
    assert parse_partition("") == ()
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == "-"
    with pytest.raises(ValueError):
        parse_partition("1,2")  # must be weakly decreasing
    with pytest.raises(ValueError):
        parse_partition("2,x")


def test_vertex_validators():
    with pytest.raises(ValueError):
        young_vertex_to_partition((3, 3))
    with pytest.raises(ValueError):
        young_vertex_to_partition((-1, 2))
    with pytest.raises(ValueError):
        strict_vertex_to_partition((2, 2))
    with pytest.raises(ValueError):
        strict_vertex_to_partition((3, 1))
    with pytest.raises(ValueError):
        young_vertex_to_partition((2, 1))
    for codec in (young_vertex_to_partition, strict_vertex_to_partition):
        with pytest.raises(ValueError):
            codec(())


def test_spot_counts():
    assert syt_count(partition_to_young_vertex((2, 1), 2)) == 2
    assert syt_count(partition_to_young_vertex((2, 2), 2)) == 2
    assert syt_count(partition_to_young_vertex((3, 2, 1), 3)) == 16
    assert strict_count((2, 1)) == 1
    assert strict_count((3, 1)) == 2
    assert young_path_count((0, 2), (1, 3)) == 2
    assert strict_skew_count((1,), (2, 1), 2) == 1


def test_young_path_count_against_dp():
    g = make_graph("young", 3)
    base = g.base_vertex()
    for d in range(7):
        for v in g.vertices_of_degree(d):
            assert young_path_count(base, v) == syt_count(v)
            assert young_path_count(base, v) == count_paths_dp(g, base, v)


def falling_alternant_at(exponents, point):
    """det(ff(point_i, m_j)) evaluated numerically; an int at an integer
    point.  The reference for ``aitken_weight``, which no longer forms it."""
    k = len(exponents)
    if len(point) != k:
        raise ValueError("point has wrong dimension")
    if len(set(point)) < k:
        return 0  # two equal rows
    return det([[falling_factorial(c, m) for m in exponents] for c in point])


def _aitken_by_falling_factorials(v, u):
    """Aitken's determinant as first written:
    steps!/prod(u_i!) * det(ff(u_i, v_j))."""
    numerator = factorial(sum(u) - sum(v)) * falling_alternant_at(v, u)
    count, remainder = divmod(numerator, prod(map(factorial, u)))
    assert not remainder, (v, u)
    return count


def test_step_bounded_aitken_weight_matches_the_falling_factorial_form():
    # sorted, unsorted, spread-out and one-coordinate anchors, against
    # every composition of their totals up to five steps: repeated entries,
    # zeros and entries below the anchor's included
    anchors = [(0, 1, 2), (0, 2, 4), (1, 3, 4), (0, 1, 3), (0, 1, 2, 7, 8),
               (3, 1), (2, 0, 5), (5, 0, 1, 3), (0,), (4,)]
    compared = 0
    for anchor in anchors:
        for steps in range(6):
            for comp in exact_compositions(len(anchor), sum(anchor) + steps):
                assert aitken_weight(anchor, comp) == \
                    _aitken_by_falling_factorials(anchor, comp), (anchor, comp)
                compared += 1
    assert compared == 76042


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_aitken_weight_counts_every_comparable_pair(k):
    # every pair v <= u of young vertices within 8 levels of the base
    g = make_graph("young", k)
    base = degree(g.base_vertex())
    vertices = [v for d in range(base, base + 9) for v in g.vertices_of_degree(d)]
    compared = 0
    for v in vertices:
        above = [u for u in vertices if all(map(operator.le, v, u))]
        counts = path_counts_to(g, v, above)
        for u in above:
            assert aitken_weight(v, u) == counts[u], (v, u)
            compared += 1
    assert compared >= len(vertices)


def test_aitken_weight_rejects_mismatched_or_empty_tuples():
    # both used to fail inside det as "need a non-empty square matrix"
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        aitken_weight((0, 1), (1,))
    with pytest.raises(ValueError, match="^need k >= 1$"):
        aitken_weight((), ())


def test_aitken_weight_is_zero_below_the_source():
    # |u| < |v| used to fail in factorial(-1); every entry of the
    # step-bounded matrix is then 0, and so is the weight
    assert aitken_weight((0, 1), (0,)) == 0
    assert aitken_weight((0, 2), (0, 1)) == 0
    assert aitken_weight((1, 3, 4), (0, 1, 2)) == 0


def test_skew_weight_fn_rejects_k_0():
    # it used to fail in MultiPoly as "need at least one variable"
    with pytest.raises(ValueError, match="^need k >= 1$"):
        skew_weight_fn((), 0)


def test_the_young_count_forms_no_factorial_above_the_steps(monkeypatch,
                                                             capsys):
    # five steps from a source with an entry of a million: the factorials
    # of the entries are never formed
    real = formulas.factorial

    def bounded(n):
        if n > 5:
            raise AssertionError(f"factorial({n}) above the 5 steps")
        return real(n)

    monkeypatch.setattr(formulas, "factorial", bounded)
    assert young_path_count((0, 1, 10**6), (1, 3, 10**6 + 2)) == 20
    assert main("count --graph young --k 3 --from 0,1,1000000 "
                "--to 1,3,1000002 --method formula".split()) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_the_strict_count_forms_no_factorial_above_the_steps(monkeypatch,
                                                             capsys):
    # five steps from a source with a part of a billion: no factorial or
    # falling factorial of a part is formed
    def bounded(real):
        def call(*args):
            if max(args) > 5:
                raise AssertionError(f"{real.__name__}{args} above the 5 steps")
            return real(*args)
        return call

    monkeypatch.setattr(formulas, "factorial", bounded(factorial))
    monkeypatch.setattr(formulas, "perm", bounded(perm))
    far = 10**9
    assert strict_pfaffian_count((far, 1), (far + 2, 3, 1)) == 20
    assert main(f"count --graph strict --k 3 --from 0,1,{far} "
                f"--to 1,3,{far + 2} --method formula".split()) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_young_path_count_outside_order_is_zero():
    assert young_path_count((1, 3), (0, 4)) == 0
    assert young_path_count((1, 3), (1, 3)) == 1


def test_hook_length_goldens():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert hook_lengths((3, 2, 1)) == [[5, 3, 1], [3, 1], [1]]
    assert hook_lengths((4,)) == [[4, 3, 2, 1]]
    assert hook_product((2, 1)) == 3
    assert hook_product((3, 2, 1)) == 45
    assert hook_product(()) == 1


@given(partitions)
def test_hook_length_claim_property(rows):
    # hook_product raises when the hooks disagree with the coordinate
    # encoding's prod(m_i!) / prod(m_j - m_i)
    assert hook_product(rows) == \
        prod(h for line in hook_lengths(rows) for h in line)


def test_syt_hook_route_matches_alternant_route():
    for rows in [(), (1,), (3, 1), (2, 2, 1), (4, 3, 1), (5, 2)]:
        k = max(len(rows), 1)
        v = partition_to_young_vertex(rows, k)
        assert syt_count_hook(rows) == syt_count(v)


def test_strict_count_values():
    # shifted shapes: known small values
    assert strict_count(()) == 1
    assert strict_count((1,)) == 1
    assert strict_count((2,)) == 1
    assert strict_count((3, 2, 1)) == 2
    g = make_graph("strict", 4)
    base = g.base_vertex()
    for d in range(8):
        for v in g.vertices_of_degree(d):
            assert strict_count(strict_vertex_to_partition(v)) == \
                count_paths_dp(g, base, v)


def test_skew_weight_polynomial_base_cases():
    assert skew_weight_polynomial((), 2) == MultiPoly.one(2)
    psi = skew_weight_polynomial((1,), 2)
    assert canonical_text(psi) == "1 * x1^1 x2^0 + 1 * x1^0 x2^1"


def test_skew_weight_polynomial_is_symmetric():
    psi = skew_weight_polynomial((2, 1), 3)
    for perm in ((1, 0, 2), (0, 2, 1)):
        swapped = {tuple(e[p] for p in perm): c for e, c in psi.terms.items()}
        assert MultiPoly(3, swapped) == psi


def test_skew_weight_polynomial_caps_symmetrization():
    with pytest.raises(ValueError):
        skew_weight_polynomial((1,), SYMMETRIZATION_CAP + 1)


def test_skew_weight_fn_shape():
    # indices x1, x2, x3, then the row 1; the row pairs with one variable
    # and the other two make the one denominator pair
    x = [MultiPoly.var(3, i) for i in range(3)]
    fn = skew_weight_fn((1,), 3)
    assert [(numerator, pairs) for numerator, pairs in fn.terms] == [
        ((x[0] - x[1]) * x[2], ((0, 1),)),
        (-(x[0] - x[2]) * x[1], ((0, 2),)),
        (x[0] * (x[1] - x[2]), ((1, 2),)),
    ]


def test_strict_skew_count_against_dp():
    g = make_graph("strict", 3)
    pairs = [((1,), (2, 1)), ((2,), (3, 1)), ((), (3, 2)), ((2, 1), (4, 2, 1))]
    for rows_from, rows_to in pairs:
        got = strict_skew_count(rows_from, rows_to, 3)
        want = count_paths_dp(g, strict_partition_to_vertex(rows_from, 3),
                              strict_partition_to_vertex(rows_to, 3))
        assert got == want


def test_strict_skew_count_edge_cases():
    assert strict_skew_count((2, 1), (2, 1), 2) == 1
    assert strict_skew_count((3,), (2, 1), 2) == 0  # not nested
    with pytest.raises(ValueError):
        strict_skew_count((2, 1), (3, 2, 1), 2)  # needs k >= 3


def test_closed_forms_reject_vertices_of_two_dimensions():
    # the strict count compares vertices, so it needs one k as the Young
    # and full-lattice counts do
    for kind, v, u in (("pascal", (0, 1), (0, 1, 2)),
                       ("young", (0, 1), (0, 1, 2)),
                       ("strict", (0, 1), (0, 0, 2))):
        v, u = (formulas._checked_vertex(kind, w) for w in (v, u))
        with pytest.raises(ValueError, match="dimension mismatch"):
            formulas._closed_form_count(kind, v, u)


def test_strict_skew_from_empty_matches_plain_count():
    for rows in [(1,), (2, 1), (3, 1), (3, 2)]:
        assert strict_skew_count((), rows, 3) == strict_count(rows)


def _sign(p):
    """The sign of a permutation, by inversion count."""
    inversions = sum(a > b for a, b in itertools.combinations(p, 2))
    return -1 if inversions % 2 else 1


def _raw_symmetrized_sum(rows, k):
    """S summed over all k! permutations, straight from its definition."""
    ell = len(rows)
    x = lambda i: MultiPoly.var(k, i)
    total = MultiPoly.zero(k)
    for p in itertools.permutations(range(k)):
        term = MultiPoly.const(k, _sign(p))
        for i in range(ell):
            term = term * ff_poly(k, p[i], rows[i])
            for j in range(i + 1, k):
                term = term * (x(p[i]) + x(p[j]))
        for i, j in itertools.combinations(range(ell, k), 2):
            term = term * (x(p[i]) - x(p[j]))
        total = total + term
    return total


@pytest.mark.parametrize("rows,k", [((), 3), ((1,), 2), ((2,), 3), ((2, 1), 3),
                                    ((3, 1), 3), ((1,), 4), ((3, 2, 1), 4)])
def test_difference_product_times_weight_is_symmetrized_sum(rows, k):
    quotient = _raw_symmetrized_sum(rows, k) * Fraction(1, factorial(k - len(rows)))
    differences = MultiPoly.one(k)
    for i, j in itertools.combinations(range(k), 2):
        differences = differences * (MultiPoly.var(k, i) - MultiPoly.var(k, j))
    assert differences * skew_weight_polynomial(rows, k) == quotient
    assert _cleared(skew_weight_fn(rows, k)) == quotient


@functools.lru_cache(maxsize=None)
def _cleared(fn):
    """The sum of fn's fractions as one numerator over prod_{a<b} (x_a + x_b):
    each numerator times the sums (x_a + x_b) of the pairs it lacks.  The
    numerators over the same pairs are added first."""
    x = [MultiPoly.var(fn.k, i) for i in range(fn.k)]
    by_pairs = {}
    for numerator, pairs in fn.terms:
        by_pairs[pairs] = by_pairs.get(pairs, MultiPoly.zero(fn.k)) + numerator
    total = MultiPoly.zero(fn.k)
    for pairs, numerator in by_pairs.items():
        for a, b in itertools.combinations(range(fn.k), 2):
            if (a, b) not in pairs:
                numerator = numerator * (x[a] + x[b])
        total = total + numerator
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pfaffian_terms_clear_to_the_symmetrized_sum(k):
    # every strict partition with parts <= 4 on at most k rows, so both
    # parities of k + l occur, and a zero variable pads the odd ones
    x = [MultiPoly.var(k, i) for i in range(k)]
    for ell in range(k + 1):
        for rows in itertools.combinations(range(4, 0, -1), ell):
            assert _cleared(skew_weight_fn(rows, k)) == \
                _symmetrized_sum(rows, x, MultiPoly.one(k)), rows


def _limit_by_terms(fn, point):
    """The exact limit of fn at a non-negative point, from its cleared
    numerator term by term: each zero coordinate becomes t, t^2, ... in
    ascending order, numerator and denominator become polynomials in t with
    Fraction coefficients, and their lowest terms give the limit."""
    t_power = {}
    for i, c in enumerate(point):
        if c == 0:
            t_power[i] = len(t_power) + 1

    def in_t(poly):
        out = {}
        for exps, coeff in poly.terms.items():
            scale, deg = Fraction(coeff), 0
            for i, e in enumerate(exps):
                if i in t_power:
                    deg += t_power[i] * e
                else:
                    scale *= Fraction(point[i]) ** e
            out[deg] = out.get(deg, 0) + scale
        return {d: c for d, c in out.items() if c}

    x = [MultiPoly.var(fn.k, i) for i in range(fn.k)]
    denominator = MultiPoly.one(fn.k)
    for a, b in itertools.combinations(range(fn.k), 2):
        denominator = denominator * (x[a] + x[b])
    num, den = in_t(_cleared(fn)), in_t(denominator)
    order = min(den)
    if num and min(num) < order:
        raise LimitInfiniteError(f"limit at {point} diverges")
    return num.get(order, 0) / den[order]


def test_skew_weight_limit_matches_evaluate_with_limits():
    rng = random.Random(5)
    for k in (1, 2, 3, 4, 5):
        for _ in range(25 if k < 5 else 10):
            # at k = 5 an expanded numerator of three parts takes a second
            parts = rng.randint(0, k if k < 5 else 2)
            rows = tuple(sorted(rng.sample(range(1, 5), parts), reverse=True))
            # small entries, so zeros and repeated entries both occur
            point = tuple(rng.randint(0, 4) for _ in range(k))
            assert skew_weight_limit(rows, point) == \
                _limit_by_terms(skew_weight_fn(rows, k), point), (rows, point)


class _TruncatedSeries:
    """A polynomial in t with exact coefficients and every power above a
    fixed order dropped: an element of Q[t] / (t^(order+1)).  The reference
    the packed-integer limits are compared against."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __add__(self, other):
        return _TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if isinstance(other, int):
            return _TruncatedSeries([self.coeffs[0] - other, *self.coeffs[1:]])
        return _TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, int):
            return _TruncatedSeries([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [0] * len(a)
        for i, c in enumerate(a):
            if c:
                for j in range(len(a) - i):
                    out[i + j] += c * b[j]
        return _TruncatedSeries(out)

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)


def _truncated_numerator(numerator, point):
    """The coefficients c_0..c_d of the numerator in t, where the zero
    coordinates become t, t^2, ... in ascending order and d is the t-order
    of prod (x_i + x_j), with d and that product's coefficient of t^d."""
    t_power = {}
    for i, c in enumerate(point):
        if c == 0:
            t_power[i] = len(t_power) + 1
    order, lowest = 0, 1
    for a, b in itertools.combinations(range(len(point)), 2):
        if a in t_power and b in t_power:
            order += min(t_power[a], t_power[b])
        else:
            lowest *= point[a] + point[b]
    xs = []
    for i, c in enumerate(point):
        coeffs = [c] + [0] * order
        d = t_power.get(i)
        if d is not None and d <= order:
            coeffs[d] = 1
        xs.append(_TruncatedSeries(coeffs))
    value = numerator(xs, _TruncatedSeries([1] + [0] * order))
    return value.coeffs, order, lowest


def _same_limit(evaluate, numerator, point):
    """Assert that ``evaluate()`` agrees with the truncated-series limit of
    the numerator at the point, divergence included; return the reference
    coefficients and order."""
    coeffs, order, lowest = _truncated_numerator(numerator, point)
    if any(coeffs[:order]):
        with pytest.raises(LimitInfiniteError):
            evaluate()
    else:
        assert evaluate() == Fraction(coeffs[order], lowest), point
    return coeffs, order


def _zero_heavy_point(rng, k):
    return tuple(rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(k))


@pytest.mark.parametrize("k", range(1, SYMMETRIZATION_CAP + 1))
def test_packed_weight_limits_match_truncated_series(k):
    rng = random.Random(100 + k)
    cases = [((), (0,) * k), (tuple(range(min(k, 3), 0, -1)), (0,) * k)]
    for _ in range(30):
        rows = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, min(k, 3))),
                            reverse=True))
        cases.append((rows, _zero_heavy_point(rng, k)))
    orders = set()
    for rows, point in cases:
        coeffs, order = _same_limit(
            lambda: skew_weight_limit(rows, point),
            lambda xs, one: _symmetrized_sum(rows, xs, one), point)
        assert max(map(abs, coeffs)) <= formulas._weight_bound(rows, point)
        orders.add(order)
    # every order from the point without zeros to the all-zero one, whose
    # order is sum over i < j of min(i, j) with zeros numbered from 1
    assert orders == {sum(min(i, j) for i, j in itertools.combinations(
        range(1, z + 1), 2)) for z in range(k + 1)}


def _weight_bound_by_products(rows, point):
    # the bound as first written: one factor X + j per cell of the rows
    k, x = len(point), max(point, default=0) + 1
    return (perm(k, len(rows)) * (2 * x) ** comb(k, 2)
            * prod(x + j for m in rows for j in range(m)))


def test_weight_bound_matches_its_product_form():
    rng = random.Random(24)
    rows_list = [()] + [(m,) for m in range(13)] + [
        tuple(rng.choice(range(13)) for _ in range(rng.randint(2, 4)))
        for _ in range(40)]
    for rows in rows_list:
        for top in range(41):
            for k in (1, 3, 6):
                point = (*(rng.randint(0, top) for _ in range(k - 1)), top)
                assert formulas._weight_bound(rows, point) == \
                    _weight_bound_by_products(rows, point), (rows, point)


def test_skew_weight_limit_needs_a_non_negative_integer_point():
    for point in [(-5, -3), (-1, 2), (Fraction(1, 2), 1), (1.0, 0)]:
        with pytest.raises(ValueError, match="point"):
            skew_weight_limit((1,), point)


@pytest.mark.parametrize("k", range(1, SYMMETRIZATION_CAP + 1))
def test_packed_limits_of_products_match_truncated_series(k):
    # a product of a few pair factors and falling factorials has a low
    # t-order, so many of these limits diverge; its bound multiplies the
    # factors' l1 norms, as skew_weight_limit's does
    rng = random.Random(200 + k)
    outcomes = set()
    for _ in range(40):
        point = _zero_heavy_point(rng, k)
        x = max(point) + 1
        pairs = [(a, b, rng.choice((1, -1))) for a, b in
                 itertools.combinations(range(k), 2) if rng.random() < 0.3]
        falling = [(rng.randrange(k), rng.randint(1, 3))
                   for _ in range(rng.randint(0, 1))]
        bound = (2 * x) ** len(pairs) * prod(x + j for _, m in falling
                                             for j in range(m))

        def numerator(xs, one, pairs=pairs, falling=falling):
            value = one
            for a, b, sign in pairs:
                value = value * (xs[a] + xs[b] if sign > 0 else xs[a] - xs[b])
            for a, m in falling:
                value = value * falling_factorial(xs[a], m)
            return value

        coeffs, order = _same_limit(
            lambda: evaluate_with_limits(numerator, point, bound),
            numerator, point)
        assert max(map(abs, coeffs)) <= bound
        outcomes.add(any(coeffs[:order]))
    if k > 1:
        assert outcomes == {True, False}


@pytest.mark.parametrize("rows,k,n", [((), 3, 2), ((), 5, 2), ((1,), 2, 3),
                                      ((1,), 5, 2), ((2, 1), 3, 4),
                                      ((3, 1), 4, 5)])
def test_weight_limit_times_falling_factorial_is_the_series_limit(rows, k, n):
    # the antipolynomial step of the polynomial-component checks reads the
    # series' limit at each simplex point as the weight's limit times
    # ff(sum(p) - |rows|, n - |rows|)
    m = sum(rows)
    fn = strict_skew_path_series(strict_partition_to_vertex(rows, k), n)
    for point in bounded_exponents(k, n):
        assert skew_weight_limit(rows, point) * \
            falling_factorial(sum(point) - m, n - m) == \
            _limit_by_terms(fn, point), point


@pytest.mark.parametrize("k", [5, 6])
def test_strict_skew_count_seeded_against_dp(k):
    rng = random.Random(k)
    g = make_graph("strict", k)
    levels = {d: g.vertices_of_degree(d) for d in range(12)}
    for _ in range(40):
        d1 = rng.randint(0, 7)
        v = rng.choice(levels[d1])
        u = rng.choice(levels[rng.randint(d1, 11)])
        got = strict_skew_count(strict_vertex_to_partition(v),
                                strict_vertex_to_partition(u), k)
        assert got == count_paths_dp(g, v, u), (v, u)


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_vertex_checks_agree_with_graph_membership(kind):
    for k in (1, 2, 3):
        graph = make_graph(kind, k)
        for v in itertools.product(range(-1, 4), repeat=k):
            if graph.contains(v):
                assert formulas._checked_vertex(kind, v) == v
            else:
                with pytest.raises(ValueError, match=(
                        rf"^\(.*\) is not a vertex of the {kind} graph$")):
                    formulas._checked_vertex(kind, v)
    with pytest.raises(ValueError, match="need k >= 1"):
        formulas._checked_vertex(kind, ())


def test_a_strict_formula_count_checks_only_at_entry_points(monkeypatch):
    checked, built = [], []
    real = formulas._checked_partition
    monkeypatch.setattr(formulas, "_checked_partition",
                        lambda rows: checked.append(tuple(rows)) or real(rows))
    init = GradedGraph.__init__
    monkeypatch.setattr(GradedGraph, "__init__",
                        lambda self, k: built.append(k) or init(self, k))
    assert main("count --graph strict --k 5 --from-partition 3,1 "
                "--to-partition 5,3,2,1 --method formula".split()) == 0
    # once each, when the CLI parses the partitions; the vertices that the
    # graph accepted go to the closed form unchecked, and the one graph is
    # the CLI's
    assert checked == [(3, 1), (5, 3, 2, 1)]
    assert built == [5]


# -- the closed forms over Fraction, as they were before they moved to ints ------

def _syt_count_by_fractions(v):
    k = len(v)
    value = Fraction(factorial(sum(v) - k * (k - 1) // 2))
    for c in v:
        value /= factorial(c)
    for i in range(k):
        for j in range(i + 1, k):
            value *= v[j] - v[i]
    return value


def _hooks_by_cells(rows):
    """The hook lengths cell by cell, their product, and the ratio
    prod(m_i!) / prod(m_j - m_i) it must equal."""
    grid = [[width - c + sum(1 for r2 in range(r + 1, len(rows))
                             if rows[r2] > c) for c in range(width)]
            for r, width in enumerate(rows)]
    ratio = Fraction(1)
    if rows:
        m = partition_to_young_vertex(rows, len(rows))
        ratio = Fraction(prod(factorial(c) for c in m),
                         prod(b - a for a, b in itertools.combinations(m, 2)))
    return grid, prod(h for line in grid for h in line), ratio


def _strict_count_by_fractions(rows):
    value = Fraction(factorial(sum(rows)))
    for r in rows:
        value /= factorial(r)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            value *= Fraction(rows[i] - rows[j], rows[i] + rows[j])
    return value


def _strict_skew_scale_by_fractions(frm, to, limit):
    scale = Fraction(factorial(sum(to) - sum(frm)))
    for r in to:
        scale /= factorial(r)
    return scale * limit


def _partitions(size, max_parts, cap=None):
    if size == 0:
        yield ()
    elif max_parts:
        for first in range(min(size, cap or size), 0, -1):
            for rest in _partitions(size - first, max_parts - 1, first):
                yield (first,) + rest


SMALL_PARTITIONS = [rows for size in range(15) for rows in _partitions(size, 6)]
SMALL_STRICT = [rows for rows in SMALL_PARTITIONS
                if len(set(rows)) == len(rows)]


def test_integer_young_closed_forms_match_the_fraction_forms():
    for rows in SMALL_PARTITIONS:
        for k in range(max(len(rows), 1), 7):
            v = partition_to_young_vertex(rows, k)
            assert syt_count(v) == _syt_count_by_fractions(v), v
        grid, product, ratio = _hooks_by_cells(rows)
        assert hook_lengths(rows) == grid
        assert hook_product(rows) == product == ratio, rows
        assert syt_count_hook(rows) * product == factorial(sum(rows))


def test_integer_strict_closed_forms_match_the_fraction_forms():
    sources = [rows for rows in SMALL_STRICT if sum(rows) <= 3]
    for to in SMALL_STRICT:
        assert strict_count(to) == _strict_count_by_fractions(to), to
        for k in range(max(len(to), 1), 7):
            u = strict_partition_to_vertex(to, k)
            for frm in sources:
                if len(frm) > k or not all(
                        map(operator.le, strict_partition_to_vertex(frm, k), u)):
                    continue
                limit = skew_weight_limit(frm, tuple(reversed(u)))
                assert strict_skew_count(frm, to, k) == \
                    _strict_skew_scale_by_fractions(frm, to, limit), (frm, to, k)


@pytest.mark.parametrize("limit", [
    Fraction(4), Fraction(2, 5), Fraction(0), Fraction(3), Fraction(1, 7),
    Fraction(-2), Fraction(-9, 8)])
def test_strict_skew_scale_matches_the_fraction_form_on_any_limit(monkeypatch,
                                                                  limit):
    # (1) -> (4, 2) has the scale 5!/(4! 2!) = 5/2, so some limits give
    # integer counts, some fractions and some negative integers
    monkeypatch.setattr(formulas, "_skew_weight_limit", lambda rows, point: limit)
    frm, to = (1,), (4, 2)
    want = _strict_skew_scale_by_fractions(frm, to, limit)
    if want.denominator != 1:
        with pytest.raises(ArithmeticError, match="non-integer count"):
            strict_skew_count(frm, to, 2)
    elif want < 0:
        with pytest.raises(ArithmeticError, match="negative count"):
            strict_skew_count(frm, to, 2)
    else:
        assert strict_skew_count(frm, to, 2) == want


def test_integer_closed_forms_raise_on_a_remainder(monkeypatch):
    # with 2! taken as 3, syt_count((0, 2)) is 1! * 2 / (0! * 3) and
    # strict_count((2, 1)) is 3! * 1 / (3 * 1! * 3)
    monkeypatch.setattr(formulas, "factorial", lambda n: factorial(n) + (n == 2))
    with pytest.raises(ArithmeticError, match="non-integer count 2/3"):
        syt_count((0, 2))
    with pytest.raises(ArithmeticError, match="non-integer count 6/9"):
        strict_count((2, 1))


@pytest.mark.parametrize("frm,to,count", [
    ((3, 2, 1), (9, 7, 5, 4, 3, 2, 1), 773358900),
    ((), (6, 5, 4, 3, 2, 1), 33592),
    ((4, 2), (8, 6, 4, 3, 1), 1160120),
    ((5, 3, 1), (7, 6, 5, 4, 3, 2, 1), 271320)])
def test_strict_counts_at_seven_coordinates(frm, to, count):
    assert strict_skew_count(frm, to, 7) == count
    assert strict_pfaffian_count(frm, to) == count


@pytest.mark.parametrize("frm,to,count", [
    ((3, 2, 1), (9, 7, 5, 4, 3, 2, 1), 773358900),
    ((4, 2, 1), (10, 8, 6, 5, 4, 3, 2, 1), 6999781501680),
    ((8, 6, 5, 4, 3, 2, 1), (10, 8, 6, 5, 4, 3, 2, 1), 231)])
def test_the_pfaffian_matches_the_dp_at_seven_and_eight_coordinates(frm, to,
                                                                     count):
    # k = 8 is past the symmetrization cap, which the Pfaffian does not have;
    # in the last pair 10 meets the appended 0 in an entry of degree n = 10
    k = len(to)
    assert count_paths_dp(make_graph("strict", k),
                          strict_partition_to_vertex(frm, k),
                          strict_partition_to_vertex(to, k)) == count
    assert strict_pfaffian_count(frm, to) == count


def test_the_pfaffian_matches_the_paper_route_on_every_small_pair():
    shapes = [rows for rows in SMALL_STRICT if sum(rows) <= 10]
    pairs = [(frm, to) for to in shapes for frm in shapes
             if len(frm) <= len(to) and all(map(operator.le, frm, to))]
    assert len(pairs) == 561
    for frm, to in pairs:
        assert strict_pfaffian_count(frm, to) == \
            strict_skew_count(frm, to, max(len(to), 1)), (frm, to)
    # pairs out of order count nothing
    assert strict_pfaffian_count((3,), (2, 1)) == 0
    assert strict_pfaffian_count((2, 1), (3,)) == 0


def test_the_pfaffian_count_raises_on_a_remainder_or_a_negative(monkeypatch):
    # (1) -> (3, 1) is a 4 x 4 Pfaffian over 3!^1
    real = formulas.pf
    monkeypatch.setattr(formulas, "pf", lambda rows: real(rows) + 1)
    with pytest.raises(ArithmeticError, match="non-integer count"):
        strict_pfaffian_count((1,), (3, 1))
    monkeypatch.setattr(formulas, "pf", lambda rows: -real(rows))
    with pytest.raises(ArithmeticError, match="negative count"):
        strict_pfaffian_count((1,), (3, 1))
    assert main("count --graph strict --k 2 --from-partition 1 "
                "--to-partition 3,1 --method formula".split()) == 2


def test_the_hook_route_checks_its_partition_once(monkeypatch):
    checked = []
    real = formulas._checked_partition
    monkeypatch.setattr(formulas, "_checked_partition",
                        lambda rows: checked.append(tuple(rows)) or real(rows))
    assert syt_count_hook((4, 2, 1)) == 35
    assert checked == [(4, 2, 1)]


def test_strict_skew_count_keeps_the_cap():
    with pytest.raises(ValueError):
        strict_skew_count((1,), (2,), SYMMETRIZATION_CAP + 1)


def test_strict_skew_count_rejects_negative_count(monkeypatch):
    monkeypatch.setattr(formulas, "_skew_weight_limit",
                        lambda rows, point: Fraction(-1))
    with pytest.raises(ArithmeticError, match="negative"):
        strict_skew_count((1,), (2, 1), 2)


def test_young_path_count_rejects_negative_count(monkeypatch):
    # a negated first row of Aitken's determinant negates the count
    real = formulas.det
    monkeypatch.setattr(formulas, "det", lambda rows: real(
        [[-entry for entry in rows[0]], *rows[1:]]))
    with pytest.raises(ArithmeticError, match="negative"):
        young_path_count((0, 1, 2), (1, 3, 5))
    assert main("count --graph young --k 3 --to-partition 3,2,1 "
                "--method formula".split()) == 2
