"""Exact Laurent coefficients of rational functions with pair denominators.

The rational functions handled here are sums of fractions, each a
polynomial numerator over a product of distinct variable-pair sums
(x_i + x_j) with i < j.  Expanding each inverse factor as

    (x_i + x_j)^-1 = x_i^-1 - x_j x_i^-2 + x_j^2 x_i^-3 - ...

(negative powers always on the smaller-index variable) embeds everything in
a Laurent cone where coefficient extraction is well defined.  Every query
names a window, a box of exponent vectors, and only finitely many terms of
each geometric series can reach it: ``factor_limits`` derives, from the
window's upper corner alone, the largest term index t of every factor that
can, and ``expand`` multiplies out exactly those terms, once.  Nothing is
truncated by guesswork, so the coefficients inside the window are the true
ones.

``evaluate_with_limits`` is the one exact limit evaluator: it takes a
numerator over prod (x_i + x_j) to a non-negative point where some
coordinates vanish, by substituting t, t^2, ... for the zeros (in ascending
coordinate order) and taking the exact one-sided limit t -> 0 in truncated
power series.  It never expands the numerator, so every limit the package
needs, the closed-form counts' and the identity suite's, goes through it.
The rational functions themselves are built in ``formulas``.

``verify_pfaffian_product`` checks Schur's identity: the Pfaffian of the
pair ratio matrix (x_i - x_j)/(x_i + x_j) is the product of the ratios.  It
clears the denominators and expands the Pfaffian along its first row.
The polynomial-component checks expand the strict series as such a
Pfaffian and take its limits from the product, so at the empty partition
this identity backs them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .multipoly import Coeff, MultiPoly, grlex_key
from .reports import VerifyReport, failed, passed

SignedExponents = tuple[int, ...]


class LimitInfiniteError(ArithmeticError):
    """The one-sided limit at the requested point diverges."""


Pairs = tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class RationalFn:
    """A sum of fractions, each a numerator over prod over its own pairs
    (i, j), i < j, of (x_i + x_j), with no pair twice in one fraction."""

    k: int
    terms: tuple[tuple[MultiPoly, Pairs], ...]

    def __post_init__(self) -> None:
        for numerator, pairs in self.terms:
            if numerator.k != self.k:
                raise ValueError("numerator dimension mismatch")
            if (len(set(pairs)) != len(pairs)
                    or not all(0 <= i < j < self.k for i, j in pairs)):
                raise ValueError(f"bad or repeated denominator pair in {pairs}")


@dataclass
class LaurentSeries:
    k: int
    terms: dict[SignedExponents, Coeff]


def factor_limits(pairs: Sequence[tuple[int, int]],
                  hi: Sequence[int]) -> list[int]:
    """The largest term index t of each factor (x_a + x_b)^-1, in the order
    of ``pairs``, that can contribute to a coefficient at or below ``hi`` in
    every coordinate.

    Term t of factor (a, b), a < b, is (-1)^t x_a^(-1-t) x_b^t, and the
    numerator only raises exponents.  So in every product term, coordinate
    c is at least the sum of t over the factors (a, c) ending at c, minus
    the sum of 1 + t over the factors (c, b) starting at c.  Each factor
    (c, b) ends above c, so by induction down from c = k-1 its t is at most
    U_b, and a term at or below hi[c] has, for every factor ending at c,

        t <= U_c = hi[c] + sum over factors (c, b) of (1 + U_b).

    A term with a larger t lands outside the window, and every term up to
    the limits is kept, so the expansion is exact inside it.  A negative
    limit means that no term of that factor reaches the window.
    """
    bound = list(hi)
    for a, b in sorted(pairs, reverse=True):
        bound[a] += 1 + bound[b]
    return [bound[b] for _a, b in pairs]


def expand(fn: RationalFn, lo: Sequence[int],
           hi: Sequence[int]) -> LaurentSeries:
    """Every coefficient of the expansion inside the inclusive box
    ``lo <= e <= hi``.

    Expansion into the Laurent cone is a ring map, so each fraction is
    expanded on its own and added into one window.  A numerator is
    multiplied by one factor at a time, each with its terms up to
    ``factor_limits``.  A partial product that cannot re-enter the box,
    given the factors still to come and their limits, is dropped.
    """
    k = fn.k
    lo, hi = tuple(lo), tuple(hi)
    if len(lo) != k or len(hi) != k:
        raise ValueError("window has wrong dimension")
    window: dict[SignedExponents, Coeff] = {}
    for numerator, pairs in fn.terms:
        limits = factor_limits(pairs, hi)
        cur = dict(numerator.terms)
        for idx, (fi, fj) in enumerate(pairs):
            dec_left = [0] * k
            inc_left = [0] * k
            for (a, b), limit in zip(pairs[idx + 1:], limits[idx + 1:]):
                dec_left[a] += 1 + limit
                inc_left[b] += limit
            eff_lo = [lo[c] - inc_left[c] for c in range(k)]
            eff_hi = [hi[c] + dec_left[c] for c in range(k)]
            nxt: dict[SignedExponents, Coeff] = {}
            for exps, coeff in cur.items():
                if any(not (eff_lo[c] <= exps[c] <= eff_hi[c])
                       for c in range(k) if c not in (fi, fj)):
                    continue
                t_start = max(0, exps[fi] - 1 - eff_hi[fi],
                              eff_lo[fj] - exps[fj])
                t_stop = min(limits[idx] + 1, exps[fi] - eff_lo[fi],
                             eff_hi[fj] - exps[fj] + 1)
                base = list(exps)
                for t in range(t_start, t_stop):
                    base[fi] = exps[fi] - 1 - t
                    base[fj] = exps[fj] + t
                    key = tuple(base)
                    value = coeff if t % 2 == 0 else -coeff
                    new = nxt.get(key, 0) + value
                    if new:
                        nxt[key] = new
                    else:
                        del nxt[key]
            cur = nxt
        for e, c in cur.items():
            if all(lo[i] <= e[i] <= hi[i] for i in range(k)):
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
    lo = tuple(min(e[c] for e in wanted) for c in range(k))
    hi = tuple(max(e[c] for e in wanted) for c in range(k))
    terms = expand(fn, lo, hi).terms
    return {e: terms.get(e, 0) for e in wanted}


def polynomial_component(fn: RationalFn, degree_bound: int) -> MultiPoly:
    """The non-negative-exponent part of the expansion up to the given total
    degree.  The caller guarantees the polynomial part has no terms above
    the bound."""
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    k = fn.k
    terms = expand(fn, (0,) * k, (degree_bound,) * k).terms
    return MultiPoly(k, {e: c for e, c in terms.items()
                         if sum(e) <= degree_bound})


# -- exact limits -------------------------------------------------------------

class _TruncatedSeries:
    """A polynomial in t with exact coefficients and every power above a
    fixed order dropped: an element of Q[t] / (t^(order+1))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[Coeff]):
        self.coeffs = coeffs

    def __add__(self, other: "_TruncatedSeries") -> "_TruncatedSeries":
        return _TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "_TruncatedSeries | int") -> "_TruncatedSeries":
        if isinstance(other, int):
            return _TruncatedSeries([self.coeffs[0] - other, *self.coeffs[1:]])
        return _TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "_TruncatedSeries | int") -> "_TruncatedSeries":
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

    def __bool__(self) -> bool:
        return any(self.coeffs)


Numerator = Callable[[list[_TruncatedSeries], _TruncatedSeries], _TruncatedSeries]


def evaluate_with_limits(numerator: Numerator,
                         point: Sequence[Coeff]) -> Fraction:
    """numerator(x) / prod over i<j of (x_i + x_j) at a non-negative point,
    with zero coordinates replaced by t, t^2, ... in ascending coordinate
    order and the exact limit t -> 0+ taken.

    ``numerator(xs, one)`` evaluates the numerator at the values ``xs`` of
    x_1..x_k in any commutative ring with unit ``one``; here the ring is
    that of polynomials in t modulo t^(d+1), where d is the t-order of the
    denominator.  Substitution and truncation are ring homomorphisms, so
    the coefficients up to t^d are exact.  Raises LimitInfiniteError when
    one below t^d is nonzero."""
    point = tuple(point)
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
    xs = []
    for i, c in enumerate(point):
        coeffs = [c] + [0] * order
        d = t_power.get(i)
        if d is not None and d <= order:
            coeffs[d] = 1
        xs.append(_TruncatedSeries(coeffs))
    value = numerator(xs, _TruncatedSeries([1] + [0] * order))
    if any(value.coeffs[:order]):
        raise LimitInfiniteError(f"limit at {point} diverges")
    return Fraction(value.coeffs[order], lowest)


# -- Pfaffian ------------------------------------------------------------------

def _matching_sum(xs: Sequence[MultiPoly]) -> MultiPoly:
    """sum over perfect matchings M of the indices of ``xs`` of
    sign(M) * prod_{(a,b) in M} (x_a - x_b) * prod_{other a<b} (x_a + x_b),
    the Pfaffian of (x_a - x_b)/(x_a + x_b) times prod_{a<b} (x_a + x_b).

    Expanded along the first row: the first free index a is matched with
    each other free index b in turn, the sign alternating with b's
    position, and every pair that meets a or b is multiplied in once per
    branch, as (x_a - x_b) and (x_a + x_i)(x_b + x_i) for each index i
    still free.  The pairs among those i are left to the recursion.  Needs
    an even number of entries."""
    def pf(free: tuple[int, ...]) -> MultiPoly:
        a, rest = free[0], free[1:]
        if len(rest) == 1:
            return xs[a] - xs[rest[0]]
        total = MultiPoly.zero(xs[a].k)
        for pos, b in enumerate(rest):
            others = rest[:pos] + rest[pos + 1:]
            term = xs[a] - xs[b]
            for i in others:
                term = term * (xs[a] + xs[i]) * (xs[b] + xs[i])
            term = term * pf(others)
            total = total - term if pos % 2 else total + term
        return total

    return pf(tuple(range(len(xs))))


def verify_pfaffian_product(k: int) -> VerifyReport:
    """Check Schur's identity: the Pfaffian of the matrix
    (x_i - x_j)/(x_i + x_j) equals (up to a sign epsilon) the product of
    all the pair ratios, as an exact polynomial identity after clearing
    every denominator.  The cleared Pfaffian is ``_matching_sum``, a
    first-row expansion, and the cleared product is prod_{a<b} (x_a - x_b).
    Odd k appends the constant 0 to the variable list: setting the padding
    variable to zero is a ring homomorphism, so both sides are computed in
    the k variables at once.

    Supported for 2 <= k <= 6, the default ``max_k`` budget.  Beyond it
    the expansion grows fast: in CPython 3.11 on one core, k = 7 takes
    about 2 s and k = 8 about 40 s."""

    started = time.perf_counter()
    if not 2 <= k <= 6:
        raise ValueError("supported range is 2 <= k <= 6")
    xs = [MultiPoly.var(k, i) for i in range(k)]
    if k % 2:
        xs.append(MultiPoly.zero(k))
    total = _matching_sum(xs)
    target = MultiPoly.one(k)
    for a, b in itertools.combinations(range(len(xs)), 2):
        target = target * (xs[a] - xs[b])

    params = {"k": k, "padded": k % 2 == 1}
    for eps in (1, -1):
        if total == target * eps:
            params["epsilon"] = eps
            return passed("pfaffian_product", params, started)
    diff = total - target
    witness_key = max(diff.terms, key=grlex_key)
    return failed("pfaffian_product", params,
                  {"monomial": witness_key, "difference": diff.terms[witness_key]},
                  started)


# -- checkers ------------------------------------------------------------------

def check_trailing_negative_coeffs(fn: RationalFn, total_degree: int,
                                   probe_bound: int) -> VerifyReport:
    """Every exponent vector in [-b, b]^k (b = ``probe_bound``) with entry
    sum ``total_degree`` whose last nonzero entry is negative must have
    coefficient zero.  Such a vector ends in a non-positive entry, so one
    expansion over [-b, b]^(k-1) x [-b, 0] holds them all; the witness is
    the lexicographically smallest one with a nonzero coefficient."""
    started = time.perf_counter()
    params = {"k": fn.k, "total_degree": total_degree, "probe_bound": probe_bound}
    b = probe_bound
    terms = expand(fn, (-b,) * fn.k, (b,) * (fn.k - 1) + (0,)).terms
    offending = [e for e in terms if sum(e) == total_degree
                 and next((c for c in reversed(e) if c), 0) < 0]
    if offending:
        e = min(offending)
        return failed("trailing_negative_vanishing", params,
                      {"exponent": e, "value": terms[e]}, started)
    return passed("trailing_negative_vanishing", params, started)
