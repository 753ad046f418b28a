"""Exact Laurent coefficients of rational functions with pair denominators.

The rational functions handled here are sums of fractions, each a
polynomial numerator over a product of variable-pair sums (x_i + x_j) with
i < j.  Expanding each inverse factor as

    (x_i + x_j)^-1 = x_i^-1 - x_j x_i^-2 + x_j^2 x_i^-3 - ...

(negative powers always on the smaller-index variable) embeds everything in
a Laurent cone where coefficient extraction is well defined.  No two pairs
of one fraction share a variable: each fraction is one term of a Pfaffian
expanded over perfect matchings, and a matching's pairs are disjoint.  So
each factor alone moves its two coordinates, and for every numerator
monomial the terms of that factor which land in a query's window, a box of
exponent vectors, form one exact interval.  ``expand`` multiplies out
exactly those terms, once, so the coefficients inside the window are the
true ones.

``evaluate_with_limits`` is the one exact limit evaluator: it takes a
numerator over prod (x_i + x_j) to a non-negative integer point where some
coordinates vanish, by substituting t, t^2, ... for the zeros (in ascending
coordinate order) and taking the exact one-sided limit t -> 0.  With d the
t-order of the denominator, only the numerator's coefficients of t^0..t^d
matter, so it runs in Z[t]/(t^(d+1)), and that ring is packed into plain
Python integers: t = 2^B, reduced mod 2^(B(d+1)) at the end.  That map is
a ring homomorphism sending t^(d+1) to 0, and when the caller proves that
no coefficient c_0..c_d exceeds a bound below 2^(B-1) in absolute value,
the balanced base-2^B digits of the residue are exactly those
coefficients.  It never expands the numerator, so every limit the package
needs, the closed-form counts' and the identity suite's, goes through it.
The rational functions themselves are built in ``formulas``.

``verify_pfaffian_product`` checks Schur's identity: the Pfaffian of the
pair ratio matrix (x_i - x_j)/(x_i + x_j) is the product of the ratios.  It
clears the denominators and expands the Pfaffian along its first row with
``signed_matchings``, which lists the signed matchings one term at a time,
as ``formulas.skew_weight_fn`` also needs; ``multipoly.pf``, the other
first-row expansion, folds a matrix of ring elements with each minor built
once, for the strict counts.
The polynomial-component checks expand the strict series as such a
Pfaffian and take its limits from the product, so at the empty partition
this identity backs them.  Both sides are compared as integers by
Kronecker substitution; the docstring of ``verify_pfaffian_product``
proves that exact and gives its timings.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .multipoly import Coeff, MultiPoly, bounded_exponents, grlex_key
from .reports import VerifyReport, failed, passed

SignedExponents = tuple[int, ...]
T = TypeVar("T")


class LimitInfiniteError(ArithmeticError):
    """The one-sided limit at the requested point diverges."""


Pairs = tuple[tuple[int, int], ...]


class RationalFn:
    """A sum of fractions, each a numerator over prod over its own pairs
    (i, j), i < j, of (x_i + x_j), with no two pairs of one fraction sharing
    an index."""

    def __init__(self, k: int,
                 terms: tuple[tuple[MultiPoly, Pairs], ...]) -> None:
        for numerator, pairs in terms:
            if numerator.k != k:
                raise ValueError("numerator dimension mismatch")
            if (len({c for pair in pairs for c in pair}) != 2 * len(pairs)
                    or not all(0 <= i < j < k for i, j in pairs)):
                raise ValueError(f"bad or overlapping denominator pairs {pairs}")
        self.k = k
        self.terms = terms


class LaurentSeries:
    def __init__(self, k: int, terms: dict[SignedExponents, Coeff]) -> None:
        self.k = k
        self.terms = terms


def _span(f: SignedExponents, a: int, b: int, lo: Sequence[int],
          hi: Sequence[int]) -> range:
    """The indices t of the terms (-1)^t x_a^(-1-t) x_b^t of
    (x_a + x_b)^-1 that take the monomial x^f into the box in coordinates
    a and b."""
    return range(max(0, lo[b] - f[b], f[a] - 1 - hi[a]),
                 min(hi[b] - f[b], f[a] - 1 - lo[a]) + 1)


def expand(fn: RationalFn, lo: Sequence[int],
           hi: Sequence[int]) -> LaurentSeries:
    """Every coefficient of the expansion inside the inclusive box
    ``lo <= e <= hi``.

    Expansion into the Laurent cone is a ring map, so each fraction is
    expanded on its own and added into one window.  Its pairs are disjoint,
    so factor (a, b) alone moves coordinates a and b, and ``_span`` gives
    exactly the terms that land in the box there.  A numerator monomial is
    kept when it lies in the box off the pairs and every span is non-empty;
    the factors are then applied one at a time, like terms merged after
    each.
    """
    k = fn.k
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != k or len(hi) != k:
        raise ValueError("window has wrong dimension")
    window: dict[SignedExponents, Coeff] = {}
    for numerator, pairs in fn.terms:
        free = [c for c in range(k) if all(c not in pair for pair in pairs)]
        cur = {f: coeff for f, coeff in numerator.terms.items()
               if all(lo[c] <= f[c] <= hi[c] for c in free)
               and all(_span(f, a, b, lo, hi) for a, b in pairs)}
        for a, b in pairs:
            nxt: dict[SignedExponents, Coeff] = {}
            for f, coeff in cur.items():
                e = list(f)
                for t in _span(f, a, b, lo, hi):
                    e[a], e[b] = f[a] - 1 - t, f[b] + t
                    key = tuple(e)
                    nxt[key] = nxt.get(key, 0) + (-coeff if t % 2 else coeff)
            cur = {e: c for e, c in nxt.items() if c}
        for e, c in cur.items():
            window[e] = window.get(e, 0) + c
    return LaurentSeries(k, {e: c for e, c in window.items() if c})


def coefficients(fn: RationalFn, targets: Iterable[SignedExponents]) -> dict[SignedExponents, Coeff]:
    """Exact coefficients at the given exponent vectors, from one expansion
    over the smallest box holding them all."""
    wanted = [tuple(e) for e in targets]
    if not wanted:
        return {}
    k = fn.k
    if any(len(e) != k for e in wanted):
        raise ValueError("target exponents have wrong dimension")
    lo = tuple(map(min, zip(*wanted)))
    hi = tuple(map(max, zip(*wanted)))
    terms = expand(fn, lo, hi).terms
    return {e: terms.get(e, 0) for e in wanted}


def polynomial_component(fn: RationalFn, degree_bound: int) -> MultiPoly:
    """The non-negative-exponent part of the expansion up to the given total
    degree.  The caller guarantees the polynomial part has no terms above
    the bound."""
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    k = fn.k
    return MultiPoly(k, coefficients(fn, bounded_exponents(k, degree_bound)))


# -- exact limits -------------------------------------------------------------

Numerator = Callable[[list[int], int], int]


def evaluate_with_limits(numerator: Numerator, point: Sequence[int],
                         bound: int) -> Fraction:
    """numerator(x) / prod over i<j of (x_i + x_j) at a non-negative integer
    point, with zero coordinates replaced by t, t^2, ... in ascending
    coordinate order and the exact limit t -> 0+ taken.

    With d the t-order of the denominator, the limit is c_d / lowest, where
    c_0, c_1, ... are the coefficients of the numerator as a polynomial in
    t and lowest is the denominator's coefficient of t^d; it diverges when
    some c_j with j < d is nonzero.  The caller proves ``bound`` >= |c_j|
    for every j <= d (an l1 norm of the numerator at the point will do).

    ``numerator(xs, one)`` evaluates the numerator at the values ``xs`` of
    x_1..x_k in any commutative ring with unit ``one``; here the ring is Z,
    with one = 1 and t = 2^B, B = bitlength(bound) + 1.  The zero
    coordinate that becomes t^e is x = 2^(B e), or 0 when e > d; the others
    stay as they are.  This is exact:
    - t -> 2^B followed by reduction mod 2^(B(d+1)) is a ring homomorphism
      from Z[t] that sends t^(d+1) to 0, so the residue of the value
      depends only on c_0..c_d, and is sum_{j<=d} c_j 2^(Bj) reduced;
    - |c_j| <= bound < 2^(B-1), so these are the balanced base-2^B digits
      of the residue, and the representation is unique;
    - so c_0..c_(d-1) all vanish exactly when the residue is 0 mod 2^(Bd),
      and then the digit at position d, read balanced, is c_d.
    A numerator that skips a term whose value is 0 stays exact: every
    extension of a zero image is zero as well.

    Raises ValueError for a negative or non-integer coordinate and
    LimitInfiniteError when the limit diverges."""
    point = tuple(point)
    if not all(isinstance(c, int) for c in point):
        raise ValueError("limit evaluation needs an integer point")
    if any(c < 0 for c in point):
        raise ValueError("limit evaluation needs a non-negative point")
    t_power: dict[int, int] = {}
    for i, c in enumerate(point):
        if c == 0:
            t_power[i] = len(t_power) + 1
    # prod (x_i + x_j) = lowest * t^order + higher powers of t
    order, lowest = 0, 1
    for a, b in itertools.combinations(range(len(point)), 2):
        if a in t_power and b in t_power:
            order += min(t_power[a], t_power[b])
        else:
            lowest *= point[a] + point[b]
    width = bound.bit_length() + 1
    xs = list(point)
    for i, e in t_power.items():
        xs[i] = 1 << (width * e) if e <= order else 0
    low = width * order
    value = numerator(xs, 1) & ((1 << (low + width)) - 1)
    if value & ((1 << low) - 1):
        raise LimitInfiniteError(f"limit at {point} diverges")
    digit = value >> low
    if digit >> (width - 1):
        digit -= 1 << width
    return Fraction(digit, lowest)


# -- Pfaffian ------------------------------------------------------------------

def _packing(k: int) -> tuple[int, int, list[int | None]]:
    """The degree D, digit width B and entry bit offsets of Schur's identity
    in k variables; ``verify_pfaffian_product`` says why they make the
    comparison exact.  Entry i < k - 1 is x_i = 2^(B n^i), entry k - 1 is
    x_(k-1) = 1, and the padding entry of odd k, offset None, is 0."""
    n = k + k % 2
    degree = n * (n - 1) // 2
    matchings = math.prod(range(n - 1, 0, -2))
    width = degree + (matchings + 1).bit_length() + 1
    shifts = [width * n ** i for i in range(k - 1)] + [0] + [None] * (k % 2)
    return degree, width, shifts


def _times(p: int, sa: int | None, sb: int | None, sign: int) -> int:
    """p * (x_a + sign * x_b) for the entries packed at bit offsets sa and
    sb: one shift-and-add, or one shift when either entry is the padding."""
    if sb is None:
        return p << sa
    if sa is None:
        return sign * (p << sb)
    return (p << sa) + (p << sb) if sign > 0 else (p << sa) - (p << sb)


def _unpack(value: int, k: int) -> dict[SignedExponents, int]:
    """The homogeneous polynomial of degree D in k variables whose packing,
    by ``_packing``, is ``value``: the balanced base-2^B digits of value are
    its coefficients, the digit's position read in base n gives the first
    k - 1 exponents, and the last one is D minus their sum."""
    degree, width, _ = _packing(k)
    n = k + k % 2
    half, mask = 1 << (width - 1), (1 << width) - 1
    terms: dict[SignedExponents, int] = {}
    position = 0
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        value = (value - digit) >> width
        if digit:
            e, rest = [], position
            for _ in range(k - 1):
                rest, r = divmod(rest, n)
                e.append(r)
            terms[(*e, degree - sum(e))] = digit
        position += 1
    return terms


def signed_matchings(n: int, start: T,
                     pair: Callable[[T, int, int, tuple[int, ...]], T],
                     admit: Callable[[int, int], bool] | None = None,
                     ) -> Iterator[tuple[int, T]]:
    """Each perfect matching of the indices 0..n-1 whose pairs all pass
    ``admit`` (every pair when it is None), as (sign, accumulator), by
    first-row expansion of a Pfaffian: the first free index a is paired
    with each later free index b in turn, the sign alternating with b's
    position among them.  The accumulator starts at ``start`` and each
    pair folds it once, as pair(acc, a, b, others) with ``others`` the
    indices still free after a and b, so matchings that share a prefix of
    pairs share its accumulator.  Matchings come in the order of the
    expansion, each with the sign of the permutation listing its pairs."""
    def fold(free: tuple[int, ...], acc: T) -> Iterator[tuple[int, T]]:
        if not free:
            yield 1, acc
            return
        a, rest = free[0], free[1:]
        for pos, b in enumerate(rest):
            if admit is None or admit(a, b):
                others = rest[:pos] + rest[pos + 1:]
                for sign, leaf in fold(others, pair(acc, a, b, others)):
                    yield (-sign if pos % 2 else sign), leaf

    return fold(tuple(range(n)), start)


def _matching_sum(shifts: Sequence[int | None]) -> int:
    """sum over perfect matchings M of the entries of
    sign(M) * prod_{(a,b) in M} (x_a - x_b) * prod_{other a<b} (x_a + x_b),
    the Pfaffian of (x_a - x_b)/(x_a + x_b) times prod_{a<b} (x_a + x_b),
    at x_a = 2^shifts[a] (0 where the shift is None).

    The accumulator of ``signed_matchings`` is the product so far: pairing
    a with b multiplies in (x_a - x_b) and (x_a + x_i)(x_b + x_i) for each
    index i still free, and the pairs among those i are left to later
    pairs, so each factor is one ``_times``, no two large integers are
    multiplied, and matchings that share a prefix share its product.
    Needs an even number of entries."""
    def pair(p: int, a: int, b: int, others: tuple[int, ...]) -> int:
        sa, sb = shifts[a], shifts[b]
        p = _times(p, sa, sb, -1)
        for i in others:
            p = _times(_times(p, sa, shifts[i], 1), sb, shifts[i], 1)
        return p

    return sum(p if sign > 0 else -p
               for sign, p in signed_matchings(len(shifts), 1, pair))


def verify_pfaffian_product(k: int) -> VerifyReport:
    """Check Schur's identity: the Pfaffian of the matrix
    (x_i - x_j)/(x_i + x_j) equals (up to a sign epsilon) the product of
    all the pair ratios, as an exact polynomial identity after clearing
    every denominator.  The cleared Pfaffian is ``_matching_sum``, a
    first-row expansion, and the cleared product is prod_{a<b} (x_a - x_b).
    Odd k appends the constant 0 to the entries: setting the padding
    variable to zero is a ring homomorphism, so both sides are polynomials
    in the k variables.

    Both sides are compared as integers, by Kronecker substitution.  With
    n = k + (k mod 2) entries, D = C(n, 2) pairs and M = (n - 1)!!
    matchings, ``_packing`` sets B = D + bitlength(M + 1) + 1 and
    x_i = 2^(B n^i) for i < k - 1, x_(k-1) = 1.  The comparison is exact:
    - every term is a product of D linear forms, so both sides are
      homogeneous of degree D, and setting x_(k-1) = 1 loses nothing;
    - each variable meets n - 1 pairs, so every exponent is at most n - 1,
      and distinct exponent vectors of x_0..x_(k-2) get distinct base-n
      positions;
    - the L1 norm of a product is at most the product of the L1 norms, so
      every coefficient of total -/+ target is at most (M + 1) 2^D in
      absolute value, below 2^(B-1), and balanced base-2^B digits give
      back each coefficient.
    So ``total == eps * target`` holds for the integers exactly when it
    holds for the polynomials.  On a failure ``_unpack`` decodes
    total - target, and the witness is its grlex-largest monomial.

    Supported for 2 <= k <= 6, the default ``max_k`` budget.  The
    integers have about B n^(k-1) bits, 163 000 at k = 6.  In CPython 3.11
    on one core the comparison takes about 2 ms at k = 6; beyond the range
    it takes 0.6 s at k = 7 (9.2 M bits) and 6 s at k = 8 (74 M bits,
    150 MB peak)."""

    started = time.perf_counter()
    if not 2 <= k <= 6:
        raise ValueError("supported range is 2 <= k <= 6")
    _, _, shifts = _packing(k)
    total = _matching_sum(shifts)
    target = 1
    for a, b in itertools.combinations(range(len(shifts)), 2):
        target = _times(target, shifts[a], shifts[b], -1)

    params = {"k": k, "padded": k % 2 == 1}
    for eps in (1, -1):
        if total == target * eps:
            params["epsilon"] = eps
            return passed("pfaffian_product", params, started)
    diff = _unpack(total - target, k)
    witness_key = max(diff, key=grlex_key)
    return failed("pfaffian_product", params,
                  {"monomial": witness_key, "difference": diff[witness_key]},
                  started)


# -- checkers ------------------------------------------------------------------

def check_trailing_negative_coeffs(fn: RationalFn, total_degree: int,
                                   probe_bound: int) -> VerifyReport:
    """Every exponent vector in [-b, b]^k (b = ``probe_bound``) with entry
    sum ``total_degree`` whose last nonzero entry is negative must have
    coefficient zero.  Such a vector ends in a non-positive entry, so one
    expansion over [-b, b]^(k-1) x [-b, 0] holds them all; the witness is
    the lexicographically smallest one with a nonzero coefficient.  Each
    factor lowers the total degree by one, so only the numerator terms of
    degree ``total_degree`` plus the number of pairs are expanded.  A
    negative bound leaves the box empty, so it is refused."""
    if probe_bound < 0:
        raise ValueError(f"probe bound must be non-negative, got {probe_bound}")
    started = time.perf_counter()
    params = {"k": fn.k, "total_degree": total_degree, "probe_bound": probe_bound}
    layer = RationalFn(fn.k, tuple(
        (MultiPoly(fn.k, {e: c for e, c in numerator.terms.items()
                          if sum(e) == total_degree + len(pairs)}), pairs)
        for numerator, pairs in fn.terms))
    b = probe_bound
    terms = expand(layer, (-b,) * fn.k, (b,) * (fn.k - 1) + (0,)).terms
    offending = [e for e in terms if next((c for c in reversed(e) if c), 0) < 0]
    if offending:
        e = min(offending)
        return failed("trailing_negative_vanishing", params,
                      {"exponent": e, "value": terms[e]}, started)
    return passed("trailing_negative_vanishing", params, started)
