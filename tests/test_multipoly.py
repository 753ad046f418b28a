"""Exact polynomial arithmetic, falling-factorial expansion, determinants,
alternants, division."""

import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableaux.multipoly import (MultiPoly, bounded_exponents, canonical_text,
                                det, divide_exact_linear, pf,
                                exact_compositions, falling_alternant,
                                falling_factorial,
                                ff_expansion, ff_of_poly, ff_poly, grlex_key,
                                multinomial, power_alternant)


def x(k, i):
    return MultiPoly.var(k, i)


def test_zero_terms_are_dropped():
    p = MultiPoly(2, {(1, 0): 1, (0, 1): 0})
    assert p.terms == {(1, 0): 1}
    assert bool(MultiPoly.zero(2)) is False


def test_validation_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly.var(2, 5)


def test_arithmetic_small():
    k = 2
    p = (x(k, 0) + x(k, 1)) ** 2
    assert p == x(k, 0) ** 2 + 2 * x(k, 0) * x(k, 1) + x(k, 1) ** 2
    assert p - p == 0
    assert p * 0 == MultiPoly.zero(k)
    assert (p * Fraction(1, 2)).coefficient((1, 1)) == 1


def test_canonical_text_golden():
    k = 2
    p = (x(k, 0) + x(k, 1)) ** 2
    assert canonical_text(p) == "1 * x1^2 x2^0 + 2 * x1^1 x2^1 + 1 * x1^0 x2^2"
    assert canonical_text(MultiPoly.zero(3)) == "0"


def test_degree():
    k = 2
    assert MultiPoly.zero(k).degree() == float("-inf")
    p = x(k, 0) ** 3 + x(k, 1)
    assert p.degree() == 3


def test_evaluate_exact():
    k = 3
    p = x(k, 0) * x(k, 1) ** 2 - 7
    assert p.evaluate((2, 3, 99)) == 2 * 9 - 7
    assert p.evaluate((Fraction(1, 2), 2, 0)) == 2 - 7


def test_falling_factorial_values():
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(2, 4) == 0
    assert falling_factorial(-1, 2) == 2
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def _falling_factorial_by_product(x, n):
    value = 1
    for j in range(n):
        value *= x - j
    return value


def test_falling_factorial_of_an_int_matches_the_product():
    # math.perm serves the non-negative ints, the product the rest
    for x_ in range(-3, 13):
        for n in range(9):
            value = falling_factorial(x_, n)
            assert type(value) is int
            assert value == _falling_factorial_by_product(x_, n), (x_, n)
    assert falling_factorial(x(2, 0), 2) == x(2, 0) * (x(2, 0) - 1)
    with pytest.raises(ValueError):
        falling_factorial(4, -1)


def test_ff_poly_expansion():
    # x(x-1)(x-2) = x^3 - 3x^2 + 2x
    p = ff_poly(1, 0, 3)
    assert p.terms == {(3,): 1, (2,): -3, (1,): 2}
    total = MultiPoly.var(2, 0) + MultiPoly.var(2, 1)
    q = ff_of_poly(total, 2)
    assert q.evaluate((2, 1)) == falling_factorial(3, 2)


def test_multinomial_matches_factorial_ratio():
    assert multinomial((2, 1, 1)) == 12
    assert multinomial(()) == 1
    assert multinomial((0, 5)) == 1
    with pytest.raises(ValueError):
        multinomial((-1, 2))


def test_composition_enumeration():
    assert list(exact_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in bounded_exponents(3, 4)) == 35  # C(7,3)


def test_grlex_order():
    assert grlex_key((1, 1)) < grlex_key((0, 3))
    assert grlex_key((0, 3)) < grlex_key((3, 0))


def test_top_layer_expansion_round_trip():
    # prod ff(x_i, c_i) vanishes below the top layer by construction, so
    # weights P(c)/prod(c_i!) on the top layer rebuild P
    k = 2
    p = ff_poly(k, 0, 2) * ff_poly(k, 1, 1) + 3 * ff_poly(k, 0, 3)
    rebuilt = ff_expansion(
        k, 3, lambda c: Fraction(p.evaluate(c), factorial(c[0]) * factorial(c[1])))
    assert rebuilt == p
    assert ff_expansion(k, 2, lambda c: 1) == \
        ff_poly(k, 0, 2) + ff_poly(k, 0, 1) * ff_poly(k, 1, 1) + ff_poly(k, 1, 2)


def _ff_sum_by_composition(k, total, weight):
    """Each composition's product weight(c) * ff(x_1, c_1) ... ff(x_k, c_k)
    multiplied out and added on its own."""
    result = MultiPoly.zero(k)
    for comp in exact_compositions(k, total):
        term = MultiPoly.const(k, weight(comp))
        for i, c in enumerate(comp):
            term = term * ff_poly(k, i, c)
        result = result + term
    return result


@pytest.mark.parametrize("k, total", [(1, 5), (2, 4), (3, 5), (4, 3)])
def test_ff_expansion_matches_the_sum_by_composition(k, total):
    rng = random.Random(k * 100 + total)
    weights = {c: rng.choice([0, 0, 1, -2, 5, rng.randint(-9, 9)])
               for c in exact_compositions(k, total)}
    fractions = {c: Fraction(w, rng.randint(1, 6)) for c, w in weights.items()}
    for table in (weights, fractions):
        expanded = ff_expansion(k, total, table.__getitem__)
        assert expanded == _ff_sum_by_composition(k, total, table.__getitem__)
    # weights that cancel leave no zero terms behind
    assert ff_expansion(2, 3, lambda c: 0).terms == {}
    assert ff_expansion(3, 0, lambda c: Fraction(7, 2)) == \
        MultiPoly.const(3, Fraction(7, 2))


class _CountedInt(int):
    """An int that counts the multiplications and powers it takes part in."""

    products = 0

    def __mul__(self, other):
        _CountedInt.products += 1
        return int(self) * other

    __rmul__ = __mul__

    def __pow__(self, power):
        _CountedInt.products += 1
        return int(self) ** power


def test_evaluate_builds_each_power_once():
    k = 3
    poly = ff_expansion(k, 6, lambda c: 1 + c[0] - 2 * c[2])
    point = (2, -3, 5)
    expected = sum(coeff * 2 ** e[0] * (-3) ** e[1] * 5 ** e[2]
                   for e, coeff in poly.terms.items())
    _CountedInt.products = 0
    assert poly.evaluate(tuple(map(_CountedInt, point))) == expected
    # one product per power of each coordinate, up to its highest exponent
    assert _CountedInt.products <= 3 * 6 < len(poly.terms)
    half = (Fraction(1, 2), 1, Fraction(-2, 3))
    assert poly.evaluate(half) == sum(
        coeff * half[0] ** e[0] * half[2] ** e[2]
        for e, coeff in poly.terms.items())
    assert MultiPoly.zero(2).evaluate((4, 5)) == 0


def _random_poly(rng, k, degree, coefficient):
    return MultiPoly(k, {exps: coefficient(rng)
                         for exps in bounded_exponents(k, degree)
                         if rng.random() < 0.5})


def _value_by_terms(poly, point):
    return sum((coeff * prod(c ** e for c, e in zip(point, exps))
                for exps, coeff in poly.terms.items()), 0)


@pytest.mark.parametrize("k", range(1, 6))
def test_simplex_values_match_evaluation_point_by_point(k):
    rng = random.Random(k)
    polys = [MultiPoly.zero(k), MultiPoly.const(k, 3),
             _random_poly(rng, k, 4, lambda r: r.randint(-9, 9)),
             _random_poly(rng, k, 5, lambda r: Fraction(r.randint(-9, 9),
                                                        r.randint(1, 7)))]
    for poly in polys:
        for top in (-1, 0, 1, 4):
            values = poly.simplex_values(top)
            assert set(values) == set(bounded_exponents(k, top))
            for point, value in values.items():
                assert value == _value_by_terms(poly, point), (poly, point)
    assert MultiPoly.zero(k).simplex_values(-1) == {}
    assert MultiPoly.zero(k).simplex_values(0) == {(0,) * k: 0}


def test_power_alternant_is_vandermonde_at_staircase():
    k = 3
    expected = MultiPoly.one(k)
    for i in range(k):
        for j in range(i + 1, k):
            expected = expected * (x(k, j) - x(k, i))
    assert power_alternant((0, 1, 2)) == expected


def test_falling_alternant_triangular_at_own_point():
    m = (1, 3, 4)

    def at(point):
        return det([[falling_factorial(c, e) for e in m] for c in point])

    # det(ff(m_i, m_j)) has zeros above the diagonal, so it is the product
    # of the diagonal falling factorials m_i!
    assert at(m) == 1 * 6 * 24
    poly = falling_alternant(m)
    assert poly.evaluate(m) == at(m)
    # a repeated coordinate repeats a row
    assert at((5, 2, 5)) == poly.evaluate((5, 2, 5)) == 0


def test_det_values():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0], [7, 2]]) == 1


def _leibniz(rows):
    """The determinant straight from its definition: a sum over all
    permutations, each signed by its inversion count."""
    n = len(rows)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term = term * rows[i][p[i]]
        total = total + term
    return total


def _seeded_matrices():
    rng = random.Random(9)
    for n in range(1, 7):
        for seed in range(3):
            yield pytest.param([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)],
                               id=f"int-{n}x{n}-{seed}")
    yield pytest.param([[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(4)]
                        for _ in range(4)], id="fraction-4x4")
    yield pytest.param([[1, 2, 3], [4, 5, 6], [1, 2, 3]], id="equal-rows")
    yield pytest.param([[1, 0, 3, 2], [4, 0, 6, 1], [7, 0, 9, 5], [2, 0, 1, 1]],
                       id="zero-column")
    # every size the plan of minors is built for, in each ring
    yield pytest.param([[rng.randint(-5, 5) for _ in range(7)] for _ in range(7)],
                       id="int-7x7-0")
    for n in range(1, 8):
        yield pytest.param(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
             for _ in range(n)], id=f"fraction-{n}x{n}-1")
        # one monomial or zero per entry, so the reference stays cheap
        yield pytest.param(
            [[MultiPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)),
                                 rng.choice([0, 1, -1, 3])) for _ in range(n)]
             for _ in range(n)], id=f"poly-{n}x{n}")


@pytest.mark.parametrize("rows", _seeded_matrices())
def test_det_is_the_leibniz_sum(rows):
    assert det(rows) == _leibniz(rows)


def test_det_of_polynomials_is_the_leibniz_sum():
    k = 3
    rows = [[x(k, 0) + i, x(k, 1) * x(k, 2) - i, (x(k, i) - 2) ** (i + 1)]
            for i in range(k)]
    assert det(rows) == _leibniz(rows)
    assert det(rows) != 0


def test_det_rejects_a_non_square_matrix():
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        det([[1, 2], [3]])
    with pytest.raises(ValueError):
        det([])


def _matching_pfaffian(rows):
    """The Pfaffian straight from its definition: a sum over the perfect
    matchings, each listed as a1 b1 a2 b2 ... with a_i < b_i and a1 < a2 <
    ..., and signed by that permutation's inversion count."""
    def matchings(free):
        if not free:
            yield ()
            return
        for b in free[1:]:
            for rest in matchings([c for c in free[1:] if c != b]):
                yield (free[0], b) + rest

    total = 0
    for p in matchings(list(range(len(rows)))):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        term = -1 if inversions % 2 else 1
        for a, b in zip(p[::2], p[1::2]):
            term = term * rows[a][b]
        total = total + term
    return total


def _antisymmetric(n, entry, zero=0):
    rows = [[zero] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        rows[a][b] = entry()
        rows[b][a] = -rows[a][b]
    return rows


def _seeded_antisymmetric_matrices():
    rng = random.Random(4)
    for n in range(2, 11, 2):
        yield pytest.param(_antisymmetric(n, lambda: rng.randint(-5, 5)),
                           id=f"int-{n}")
        # mostly zero entries, so zero minors are skipped on the way
        yield pytest.param(_antisymmetric(
            n, lambda: rng.choice([0, 0, 0, rng.randint(-5, 5)])),
            id=f"sparse-{n}")
    yield pytest.param(_antisymmetric(
        6, lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))),
        id="fraction-6")
    yield pytest.param(_antisymmetric(
        4, lambda: MultiPoly.monomial(2, (rng.randint(0, 2), rng.randint(0, 2)),
                                      rng.choice([0, 1, -1, 3])),
        MultiPoly.zero(2)), id="poly-4")
    zero_row = _antisymmetric(6, lambda: rng.randint(1, 5))
    for b in range(6):
        zero_row[2][b] = zero_row[b][2] = 0
    yield pytest.param(zero_row, id="zero-row")


@pytest.mark.parametrize("rows", _seeded_antisymmetric_matrices())
def test_pf_is_the_matching_sum_and_squares_to_det(rows):
    value = pf(rows)
    assert value == _matching_pfaffian(rows)
    assert value * value == det(rows)


def test_pf_reads_only_the_entries_above_the_diagonal():
    rows = _antisymmetric(4, iter(range(1, 7)).__next__)
    upper = [[entry if a < b else 0 for b, entry in enumerate(row)]
             for a, row in enumerate(rows)]
    # a01 a23 - a02 a13 + a03 a12
    assert pf(upper) == pf(rows) == 1 * 6 - 2 * 5 + 3 * 4


def test_pf_rejects_a_matrix_of_odd_or_no_size():
    with pytest.raises(ValueError):
        pf([[0]])
    with pytest.raises(ValueError):
        pf([[0, 1], [-1]])
    with pytest.raises(ValueError):
        pf([])


def test_divide_exact_linear_round_trip():
    k = 3
    q = x(k, 0) ** 2 + 2 * x(k, 1) * x(k, 2) - 5
    p = q * (x(k, 0) - x(k, 2))
    assert divide_exact_linear(p, 0, 2) == q


def test_divide_exact_linear_rejects_remainder():
    k = 2
    with pytest.raises(ArithmeticError):
        divide_exact_linear(x(k, 0) + 1, 0, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.data())
def test_divide_exact_linear_random_round_trip(k, data):
    terms = {}
    for exps in bounded_exponents(k, 3):
        coeff = data.draw(st.integers(-3, 3))
        if coeff:
            terms[exps] = coeff
    q = MultiPoly(k, terms)
    a = data.draw(st.integers(0, k - 1))
    b = data.draw(st.integers(0, k - 1).filter(lambda v: v != a))
    assert divide_exact_linear(q * (x(k, a) - x(k, b)), a, b) == q
