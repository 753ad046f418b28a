"""Laurent expansion, coefficient extraction, exact limits, Pfaffians."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from tableaux import laurent
from tableaux.formulas import (skew_weight_fn, strict_partition_to_vertex,
                               strict_skew_path_series)
from tableaux.laurent import (LimitInfiniteError, RationalFn, _matching_sum,
                              _packing, _unpack,
                              check_trailing_negative_coeffs, coefficients,
                              evaluate_with_limits, expand,
                              polynomial_component, signed_matchings,
                              verify_pfaffian_product)
from tableaux.multipoly import MultiPoly, canonical_text, grlex_key


def _differences(xs, one):
    """prod over i<j of (x_i - x_j), in the ring of the xs."""
    value = one
    for i, j in itertools.combinations(range(len(xs)), 2):
        value = value * (xs[i] - xs[j])
    return value


def _fraction(numerator, *pairs):
    """numerator / prod over pairs (a, b) of (x_a + x_b), as one fraction."""
    return RationalFn(numerator.k, ((numerator, pairs),))


def test_rational_fn_validation():
    with pytest.raises(ValueError):
        _fraction(MultiPoly.one(2), (1, 0))  # pair must be ordered
    with pytest.raises(ValueError):
        _fraction(MultiPoly.one(2), (0, 1), (0, 1))  # at most once
    with pytest.raises(ValueError):
        _fraction(MultiPoly.one(3), (0, 1), (1, 2))  # pairs are disjoint
    with pytest.raises(ValueError):
        RationalFn(2, ((MultiPoly.one(3), ()),))
    # a pair may recur across fractions
    RationalFn(2, ((MultiPoly.one(2), ((0, 1),)), (MultiPoly.one(2), ((0, 1),))))


def test_expand_polynomial_only():
    p = MultiPoly(2, {(2, 0): 1, (0, 1): -3})
    series = expand(_fraction(p), (0, 0), (5, 5))
    assert series.terms == {(2, 0): 1, (0, 1): -3}
    assert expand(_fraction(p), (1, 0), (5, 5)).terms == {(2, 0): 1}


def test_pair_inverse_geometric_series():
    # 1/(x1+x2) = x1^-1 - x2 x1^-2 + x2^2 x1^-3 - ...
    fn = _fraction(MultiPoly.one(2), (0, 1))
    series = expand(fn, (-9, 0), (-1, 3))
    assert series.terms == {(-1, 0): 1, (-2, 1): -1, (-3, 2): 1, (-4, 3): -1}


def test_alternating_ratio_coefficients():
    # prod (x_i - x_j)/(x_i + x_j) is the weight function of the empty
    # partition
    R = skew_weight_fn((), 2)
    targets = [(0, 0), (-1, 1), (-2, 2), (1, -1), (1, 0)]
    # the derived regression pinning the trailing-negative orientation:
    # the expansion carries -2 at x1^-1 x2, not at x1 x2^-1
    assert coefficients(R, targets) == {(0, 0): 1, (-1, 1): -2, (-2, 2): 2,
                                        (1, -1): 0, (1, 0): 0}


def test_coefficients_batch_matches_single():
    R = skew_weight_fn((), 3)
    targets = [(0, 0, 0), (-1, 1, 0), (-2, 1, 1), (0, -1, 1)]
    batch = coefficients(R, targets)
    for e in targets:
        assert batch[e] == coefficients(R, [e])[e]


def test_windowed_expand_agrees_with_larger_window():
    fn = strict_skew_path_series((0, 0), 2)
    lo, hi = (-3, -3), (3, 3)
    wide = expand(fn, (-6, -6), (6, 6))
    expected = {e: c for e, c in wide.terms.items()
                if all(lo[i] <= e[i] <= hi[i] for i in range(2))}
    assert expand(fn, lo, hi).terms == expected


def test_expansion_is_supported_on_one_total_degree():
    # every denominator factor lowers total degree by exactly one, so the
    # ratio series is homogeneous in the graded sense
    series = expand(skew_weight_fn((), 2), (-9, -9), (9, 9))
    assert {sum(e) for e in series.terms} == {0}


@pytest.mark.parametrize("t1, t2", [(0, 0), (1, 0), (0, 2), (3, 1), (2, 5)])
def test_pair_intervals_are_exact(t1, t2):
    # in 1/((x1+x2)(x3+x4)) only the term with t = t1 from the first factor
    # and t = t2 from the second reaches the target, so a window of exactly
    # that point must keep both and return (-1)^(t1+t2)
    fn = _fraction(MultiPoly.one(4), (0, 1), (2, 3))
    target = (-1 - t1, t1, -1 - t2, t2)
    assert expand(fn, target, target).terms == {target: (-1) ** (t1 + t2)}
    assert coefficients(fn, [target]) == {target: (-1) ** (t1 + t2)}


def test_polynomial_component_golden():
    part = polynomial_component(strict_skew_path_series((0, 0), 2), 2)
    assert canonical_text(part) == \
        "1 * x1^2 x2^0 + -1 * x1^0 x2^2 + -1 * x1^1 x2^0 + 1 * x1^0 x2^1"


def test_polynomial_component_of_polynomial_is_itself():
    p = MultiPoly(2, {(1, 1): 4, (0, 0): -2})
    assert polynomial_component(_fraction(p), 3) == p


def _differences_bound(point):
    """A bound on every coefficient of ``_differences`` at the point as a
    polynomial in t: x_i is c_i or a power of t, of l1 norm max(c_i, 1), a
    factor (x_i - x_j) has norm at most the sum of the two, and the norm
    is submultiplicative."""
    norms = [max(c, 1) for c in point]
    return math.prod(a + b for a, b in itertools.combinations(norms, 2))


def test_evaluate_with_limits_plain_point():
    # the alternating ratio (x1 - x2)/(x1 + x2)
    assert evaluate_with_limits(_differences, (3, 1),
                                _differences_bound((3, 1))) == Fraction(1, 2)
    assert evaluate_with_limits(_differences, (1, 1),
                                _differences_bound((1, 1))) == 0


def test_evaluate_with_limits_zero_substitution():
    # x2 -> t: (3 - t)/(3 + t) -> 1
    assert evaluate_with_limits(_differences, (3, 0),
                                _differences_bound((3, 0))) == 1
    # both zero: (t - t^2)/(t + t^2) -> 1
    assert evaluate_with_limits(_differences, (0, 0),
                                _differences_bound((0, 0))) == 1
    # ascending substitution order matters: x1 -> t, x2 = 1 gives -1
    assert evaluate_with_limits(_differences, (0, 1),
                                _differences_bound((0, 1))) == -1


def test_evaluate_with_limits_divergence():
    # 1/(x1 + x2); the numerator 1 has the single coefficient 1
    def unit(xs, one):
        return one
    with pytest.raises(LimitInfiniteError):
        evaluate_with_limits(unit, (0, 0), 1)
    assert evaluate_with_limits(unit, (1, 0), 1) == 1
    with pytest.raises(ValueError):
        evaluate_with_limits(unit, (-1, 2), 1)


def test_evaluate_with_limits_at_order_four():
    # at (0, 0, 0) the denominator (t + t^2)(t + t^3)(t^2 + t^3) is
    # t^4 + higher powers; each numerator below is a sum of monomials in
    # t, and its bound is its l1 norm, the number of them
    point = (0, 0, 0)
    assert evaluate_with_limits(_differences, point,
                                _differences_bound(point)) == 1
    # t^3
    with pytest.raises(LimitInfiniteError):
        evaluate_with_limits(lambda xs, one: xs[0] * xs[1], point, 1)
    # t^3 - t^4: a nonzero digit below the order, then a negative one at it
    with pytest.raises(LimitInfiniteError):
        evaluate_with_limits(lambda xs, one: xs[0] * xs[1] * (one - xs[0]),
                             point, 2)
    # -t^4
    assert evaluate_with_limits(lambda xs, one: -xs[0] * xs[2], point, 1) == -1
    # t^3 + t^4 - t^3: the terms below the order cancel
    assert evaluate_with_limits(
        lambda xs, one: xs[0] * xs[1] * (xs[0] + one) - xs[0] * xs[1],
        point, 3) == 1
    # -t^4 + t^6: powers above the order drop out
    assert evaluate_with_limits(
        lambda xs, one: xs[0] * xs[1] * xs[2] - xs[1] * xs[1], point, 2) == -1


def test_evaluate_with_limits_needs_an_integer_point():
    # packing t = 2^B needs integer coordinates
    for point in [(Fraction(1, 2), 1), (1.0, 0)]:
        with pytest.raises(ValueError, match="integer point"):
            evaluate_with_limits(lambda xs, one: one, point, 1)


def test_strict_path_series_shape():
    # the plain series prod (x_i - x_j)/(x_i + x_j) * ff(sum(x), n) is the
    # one anchored at the zero vertex.  k = 3 is padded by a zero variable:
    # each matching pairs two variables and leaves the third with the zero
    # variable, which contributes 1
    fn = strict_skew_path_series((0, 0, 0), 2)
    assert [pairs for _numerator, pairs in fn.terms] == \
        [((0, 1),), ((0, 2),), ((1, 2),)]
    assert all(numerator.degree() == 1 + 2 for numerator, _pairs in fn.terms)
    with pytest.raises(ValueError):
        strict_skew_path_series((0, 0), -1)


def test_strict_skew_path_series_requires_enough_steps():
    with pytest.raises(ValueError):
        strict_skew_path_series((0, 1, 2), 2)  # partition weight is 3


def _sign(p):
    """The sign of a permutation, by inversion count."""
    inversions = sum(a > b for a, b in itertools.combinations(p, 2))
    return -1 if inversions % 2 else 1


def _brute_force_matchings(n):
    """Every perfect matching of 0..n-1 as (sign, pairs), read off the
    permutations that list it as increasing pairs in increasing order of
    their first entries, signed by inversion count, in the permutations'
    lexicographic order."""
    if n % 2:
        return []
    found = []
    for p in itertools.permutations(range(n)):
        pairs = tuple(zip(p[::2], p[1::2]))
        if all(a < b for a, b in pairs) and list(p[::2]) == sorted(p[::2]):
            found.append((_sign(p), pairs))
    return found


def _brute_force_matching_sum(xs):
    """The cleared Pfaffian straight from its definition, over every
    perfect matching that ``_brute_force_matchings`` reads off the
    permutations."""
    m = len(xs)
    total = MultiPoly.zero(xs[0].k)
    for sign, pairs in _brute_force_matchings(m):
        term = MultiPoly.const(xs[0].k, sign)
        for a, b in itertools.combinations(range(m), 2):
            term = term * (xs[a] - xs[b] if (a, b) in pairs else xs[a] + xs[b])
        total = total + term
    return total


@pytest.mark.parametrize("n", range(9))
def test_signed_matchings_are_the_brute_force_matchings(n):
    def pair(pairs, a, b, others):
        # others is what stays free once a and b are paired
        taken = {c for ab in pairs for c in ab} | {a, b}
        assert others == tuple(c for c in range(n) if c not in taken)
        return pairs + ((a, b),)

    every = _brute_force_matchings(n)
    assert list(signed_matchings(n, (), pair)) == every
    for k in range(n + 1):
        admitted = [(sign, pairs) for sign, pairs in every
                    if all(a < k for a, _ in pairs)]
        assert list(signed_matchings(n, (), pair,
                                     lambda a, b: a < k)) == admitted


def _packed(poly):
    """The value of poly at x_i = 2^(offset of entry i), term by term:
    evaluating a polynomial there is packing it."""
    _, _, shifts = _packing(poly.k)
    return sum(coeff << sum(map(operator.mul, shifts, exps))
               for exps, coeff in poly.terms.items())


@pytest.mark.parametrize("k,padded", [(2, False), (4, False), (6, False),
                                      (3, True), (5, True)])
def test_matching_sum_is_the_signed_matching_sum(k, padded):
    xs = [MultiPoly.var(k, i) for i in range(k)]
    if padded:
        xs.append(MultiPoly.zero(k))
    _, _, shifts = _packing(k)
    assert len(shifts) == len(xs)
    assert (_matching_sum(shifts)
            == _packed(_brute_force_matching_sum(xs)))


def test_matching_sum_of_four_variables_by_hand():
    x = [MultiPoly.var(4, i) for i in range(4)]
    d = lambda a, b: x[a] - x[b]
    s = lambda a, b: x[a] + x[b]
    # matchings 01|23 (+), 02|13 (-), 03|12 (+)
    expected = (d(0, 1) * d(2, 3) * s(0, 2) * s(0, 3) * s(1, 2) * s(1, 3)
                - d(0, 2) * d(1, 3) * s(0, 1) * s(0, 3) * s(1, 2) * s(2, 3)
                + d(0, 3) * d(1, 2) * s(0, 1) * s(0, 2) * s(1, 3) * s(2, 3))
    _, _, shifts = _packing(4)
    assert _matching_sum(shifts) == _packed(expected)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_unpack_inverts_the_packing_at_the_bounds(k):
    # homogeneous of degree D, single exponents up to n - 1 and
    # coefficients up to (M + 1) 2^D in absolute value: the widest
    # difference the Pfaffian check can meet
    degree, width, _ = _packing(k)
    n = k + k % 2
    bound = (math.prod(range(n - 1, 0, -2)) + 1) * 2 ** degree
    assert bound < 2 ** (width - 1)
    rng = random.Random(k)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 30)):
            head = [rng.choice((0, n - 1, rng.randint(0, n - 1)))
                    for _ in range(k - 1)]
            if sum(head) <= degree:
                terms[(*head, degree - sum(head))] = rng.choice(
                    (bound, -bound, rng.randint(-bound, bound))) or 1
        poly = MultiPoly(k, terms)
        assert _unpack(_packed(poly), k) == poly.terms


@pytest.mark.parametrize("k,e,c", [
    (2, (0, 1), 5),
    (3, (1, 2, 3), -7),
    (4, (3, 2, 1, 0), 2),   # cancels the doubled leading term
    (4, (0, 0, 0, 6), 1),
    (5, (5, 5, 0, 2, 3), 4),
    (6, (5, 4, 3, 2, 1, 0), -3),
])
def test_pfaffian_failure_reports_the_largest_difference_term(monkeypatch,
                                                             k, e, c):
    # the tampered sum is -Pf + c x^e, x^e of degree D, so the difference
    # from the product is -Pf - prod + c x^e, with many terms for the
    # witness to choose from
    original = laurent._matching_sum
    extra = MultiPoly.monomial(k, e, c)
    monkeypatch.setattr(laurent, "_matching_sum", lambda shifts: (
        _packed(extra) - original(shifts)))
    rep = verify_pfaffian_product(k)
    xs = [MultiPoly.var(k, i) for i in range(k)]
    xs += [MultiPoly.zero(k)] * (k % 2)
    diff = (extra - _brute_force_matching_sum(xs)
            - _differences(xs, MultiPoly.one(k)))
    top = max(diff.terms, key=grlex_key)
    assert rep.status == "fail"
    assert rep.params == {"k": k, "padded": k % 2 == 1}
    assert rep.witness == {"monomial": top, "difference": diff.terms[top]}


@pytest.mark.parametrize("k", [7, 8])
def test_pfaffian_product_rejects_k_beyond_six(k):
    # the range is the default max_k budget
    with pytest.raises(ValueError, match="2 <= k <= 6"):
        verify_pfaffian_product(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_pfaffian_product_identity(k):
    rep = verify_pfaffian_product(k)
    assert rep.ok
    assert rep.params["epsilon"] in (1, -1)
    assert rep.params["padded"] == (k % 2 == 1)


def _trailing_negative(e):
    """Some entry is negative, and only zeros follow the last negative one."""
    negatives = [i for i, x in enumerate(e) if x < 0]
    return bool(negatives) and all(x == 0 for x in e[negatives[-1] + 1:])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_trailing_negative_targets_match_box_filter(k):
    # each factor 1/(x_a + x_b) plants the terms x_a^(-1-t) x_b^t, some of
    # them trailing-negative, and a unit numerator over one pair plants
    # x_a^-1 itself.  The check expands a smaller box than [-bound, bound]^k,
    # and its witness must be the lexicographically first point of
    # [-bound, bound]^k that the filter below keeps.
    rng = random.Random(k)
    found = 0
    for _ in range(30):
        bound = rng.randint(0, 3)
        numerator = MultiPoly(k, {
            tuple(rng.randint(0, 2) for _ in range(k)): rng.choice([-2, -1, 1, 3])
            for _ in range(rng.randint(1, 4))})
        # a random partial matching: disjoint pairs, as in every fraction
        order = rng.sample(range(k), k)
        pairs = sorted(tuple(sorted(order[2 * i:2 * i + 2]))
                       for i in range(rng.randint(0, k // 2)))
        fn = RationalFn(k, ((numerator, tuple(pairs)),
                            (MultiPoly.one(k), tuple(pairs[:1]))))
        terms = expand(fn, (-bound,) * k, (bound,) * k).terms
        planted = [e for e in terms if _trailing_negative(e)]
        total = sum(rng.choice(sorted(planted or terms or [(0,) * k])))
        want = next((e for e in itertools.product(range(-bound, bound + 1),
                                                  repeat=k)
                     if sum(e) == total and terms.get(e)
                     and _trailing_negative(e)), None)
        rep = check_trailing_negative_coeffs(fn, total, bound)
        assert rep.ok == (want is None), (numerator, pairs, total, bound)
        if want is not None:
            found += 1
            assert rep.witness == {"exponent": want, "value": terms[want]}
    # one variable makes no pair, so nothing is planted at k = 1
    assert found >= 5 or k == 1


def test_trailing_negative_coeffs_vanish_for_path_series():
    for k, n in ((2, 3), (3, 2)):
        fn = strict_skew_path_series((0,) * k, n)
        rep = check_trailing_negative_coeffs(fn, n, n + 2)
        assert rep.ok, rep.witness


def test_trailing_negative_check_refuses_an_empty_box():
    # a negative bound probes no exponent, and used to report a pass
    fn = strict_skew_path_series((0, 0, 0), 3)
    with pytest.raises(ValueError, match="probe bound must be non-negative"):
        check_trailing_negative_coeffs(fn, 3, -1)
    assert check_trailing_negative_coeffs(fn, 3, 0).ok


def test_trailing_negative_check_catches_planted_term():
    # 1/(x1+x2) alone has support x1^{-1-t} x2^t including (-1, 0)
    fn = _fraction(MultiPoly.one(2), (0, 1))
    rep = check_trailing_negative_coeffs(fn, -1, 2)
    assert not rep.ok
    assert rep.witness["exponent"] == (-1, 0)
    # only the probed total degree counts: x1/(x1+x2) plants nothing on
    # degree 0, and the (-1, 0) of 1/(x1+x2) lies on degree -1
    fn = _fraction(MultiPoly(2, {(0, 0): 1, (1, 0): 1}), (0, 1))
    assert check_trailing_negative_coeffs(fn, 0, 2).ok
    assert check_trailing_negative_coeffs(fn, -1, 2).witness == \
        {"exponent": (-1, 0), "value": 1}


@functools.lru_cache(maxsize=None)
def _geometric_product(k, factors, terms):
    """prod over factors (a, b) of sum_{t < terms} (-1)^t x_a^(-1-t) x_b^t,
    multiplied out in full."""
    product = {(0,) * k: 1}
    for a, b in factors:
        nxt = {}
        for exps, coeff in product.items():
            for t in range(terms):
                key = list(exps)
                key[a] -= 1 + t
                key[b] += t
                key = tuple(key)
                nxt[key] = nxt.get(key, 0) + (-coeff if t % 2 else coeff)
        product = nxt
    return product


def _hand_coefficients(fn, targets, terms):
    out = dict.fromkeys(targets, 0)
    for numerator, pairs in fn.terms:
        product = _geometric_product(fn.k, pairs, terms)
        for e in targets:
            out[e] += sum(c * product.get(tuple(x - y for x, y in zip(e, n)), 0)
                          for n, c in numerator.terms.items())
    return out


def test_coefficients_match_hand_expansion_seeded():
    rng = random.Random(2015)
    nonzero = 0
    for _ in range(100):
        k = rng.randint(2, 5)
        kind = rng.choice(["ratio", "path", "skew"])
        if kind == "ratio":
            fn = skew_weight_fn((), k)
        elif kind == "path":
            fn = strict_skew_path_series((0,) * k, rng.randint(0, 2))
        else:
            sigma = rng.choice([(1,), (2,), (2, 1)][:k])
            fn = strict_skew_path_series(strict_partition_to_vertex(sigma, k),
                                         sum(sigma) + rng.randint(0, 1))
        # centre the window on one product term of one fraction, so that it
        # meets the support
        numerator, pairs = rng.choice(fn.terms)
        centre = list(rng.choice(sorted(numerator.terms)))
        for a, b in pairs:
            t = rng.randint(0, 2)
            centre[a] -= 1 + t
            centre[b] += t
        lo = [c - rng.randint(0, 1) for c in centre]
        hi = [c + rng.randint(0, 1) for c in centre]
        targets = list(itertools.product(*(range(a, b + 1)
                                           for a, b in zip(lo, hi))))
        expected = _hand_coefficients(fn, targets, 12)
        assert _hand_coefficients(fn, targets, 15) == expected, (kind, lo, hi)
        assert coefficients(fn, targets) == expected, (kind, lo, hi)
        nonzero += sum(1 for v in expected.values() if v)
    assert nonzero > 50
