"""Truncated Laurent expansion of rational functions with pair denominators.

The rational functions handled here have an arbitrary polynomial numerator
and a denominator that is a product of variable-pair sums (x_i + x_j) with
i < j.  Expanding each inverse factor as

    (x_i + x_j)^-1 = x_i^-1 - x_j x_i^-2 + x_j^2 x_i^-3 - ...

(negative powers always on the smaller-index variable) embeds everything in
a Laurent cone where coefficient extraction is well defined.  Expansions are
truncated: every geometric factor keeps its first T terms, and the series
carries an explicit certificate window inside which the truncated
coefficients equal the true ones.  Every public coefficient query recomputes
at T+1 and insists the answers agree, so a too-small truncation aborts
loudly instead of returning silently wrong numbers.

The module also evaluates these functions at non-negative points where some
coordinates vanish, by substituting t, t^2, ... for the zeros (in ascending
coordinate order) and taking the exact one-sided limit t -> 0, and it checks
the Pfaffian product identity for the antisymmetric pair ratio matrix.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .multipoly import (Coeff, MultiPoly, _perm_sign, bounded_exponents,
                        ff_of_poly, grlex_key)
from .reports import VerifyReport, failed, passed

SignedExponents = tuple[int, ...]


class StabilizationError(ArithmeticError):
    """Truncations T and T+1 disagreed inside the requested window."""


class LimitInfiniteError(ArithmeticError):
    """The one-sided limit at the requested point diverges."""


@dataclass(frozen=True, eq=False)
class RationalFn:
    """numerator / prod over pairs (i,j) of (x_i + x_j)^multiplicity."""

    k: int
    numerator: MultiPoly
    denominators: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        if self.numerator.k != self.k:
            raise ValueError("numerator dimension mismatch")
        for (i, j), mult in self.denominators.items():
            if not (0 <= i < j < self.k):
                raise ValueError(f"bad denominator pair {(i, j)}")
            if mult < 1:
                raise ValueError("denominator multiplicities must be positive")

    def factor_list(self) -> list[tuple[int, int]]:
        factors: list[tuple[int, int]] = []
        for pair in sorted(self.denominators):
            factors.extend([pair] * self.denominators[pair])
        return factors


@dataclass(frozen=True)
class ExactWindow:
    """Certificate: coefficients are exact wherever sum(|e_i|) stays within
    ``abs_sum_bound`` (None = exact everywhere); ``coord_lower`` are hard
    cone floors no stored key can cross."""

    abs_sum_bound: int | None
    coord_lower: tuple[int, ...]

    def contains(self, exps: SignedExponents) -> bool:
        if self.abs_sum_bound is None:
            return True
        return sum(abs(e) for e in exps) <= self.abs_sum_bound


@dataclass
class LaurentSeries:
    k: int
    terms: dict[SignedExponents, Coeff]
    trunc: int
    window: ExactWindow

    def coefficient(self, exps: SignedExponents) -> Coeff:
        return self.terms.get(tuple(exps), 0)


def default_truncation(fn: RationalFn, target_abs_sum: int) -> int:
    """Pinned default: numerator total degree + sum|e_i| + k^2 + 8."""
    num_deg = fn.numerator.degree()
    base = 0 if num_deg == float("-inf") else int(num_deg)
    return max(1, base + target_abs_sum + fn.k * fn.k + 8)


def expand(fn: RationalFn, trunc: int,
           window: tuple[Sequence[int], Sequence[int]] | None = None) -> LaurentSeries:
    """Multiply the numerator by every inverse factor's first ``trunc`` terms.

    With ``window=(lo, hi)`` only terms landing inside the inclusive
    per-coordinate box are kept; partial products that provably cannot
    re-enter the box (given the factors still to come) are pruned early.
    The certificate window of the result is the same either way.
    """
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    k = fn.k
    factors = fn.factor_list()

    num_max = [0] * k
    for exps in fn.numerator.terms:
        for c in range(k):
            num_max[c] = max(num_max[c], exps[c])

    lo = hi = None
    if window is not None:
        lo, hi = (tuple(window[0]), tuple(window[1]))
        if len(lo) != k or len(hi) != k:
            raise ValueError("window has wrong dimension")

    cur: dict[SignedExponents, Coeff] = {(0,) * k: 1}
    if not fn.numerator.terms:
        cur = {}
    for idx, (fi, fj) in enumerate(factors):
        if not cur:
            break
        remaining = factors[idx + 1:]
        if window is not None:
            dec_left = [0] * k
            inc_left = [0] * k
            for (a, b) in remaining:
                dec_left[a] += 1
                inc_left[b] += 1
            eff_lo = [lo[c] - (trunc - 1) * inc_left[c] - num_max[c] for c in range(k)]
            eff_hi = [hi[c] + trunc * dec_left[c] for c in range(k)]
        nxt: dict[SignedExponents, Coeff] = {}
        for exps, coeff in cur.items():
            t_start, t_stop = 0, trunc
            if window is not None:
                if any(not (eff_lo[c] <= exps[c] <= eff_hi[c])
                       for c in range(k) if c not in (fi, fj)):
                    continue
                t_start = max(t_start, exps[fi] - 1 - eff_hi[fi], eff_lo[fj] - exps[fj])
                t_stop = min(t_stop, exps[fi] - eff_lo[fi], eff_hi[fj] - exps[fj] + 1)
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
            base[fi], base[fj] = exps[fi], exps[fj]
        cur = nxt

    out: dict[SignedExponents, Coeff] = {}
    for exps, coeff in cur.items():
        for nexps, ncoeff in fn.numerator.terms.items():
            key = tuple(a + b for a, b in zip(exps, nexps))
            if window is not None and any(
                    not (lo[c] <= key[c] <= hi[c]) for c in range(k)):
                continue
            new = out.get(key, 0) + coeff * ncoeff
            if new:
                out[key] = new
            else:
                del out[key]

    num_deg = fn.numerator.degree()
    base_deg = 0 if num_deg == float("-inf") else int(num_deg)
    abs_bound: int | None
    if factors:
        abs_bound = trunc - base_deg - k * k - 8
    else:
        abs_bound = None
    dec_total = [0] * k
    for (a, _b) in factors:
        dec_total[a] += 1
    floors = tuple(-trunc * dec_total[c] for c in range(k))
    return LaurentSeries(k, out, trunc, ExactWindow(abs_bound, floors))


def coefficients(fn: RationalFn, targets: Iterable[SignedExponents]) -> dict[SignedExponents, Coeff]:
    """Exact coefficients at the given exponent vectors, stabilization-guarded."""
    wanted = [tuple(e) for e in targets]
    if not wanted:
        return {}
    k = fn.k
    if any(len(e) != k for e in wanted):
        raise ValueError("target exponents have wrong dimension")
    lo = tuple(min(e[c] for e in wanted) for c in range(k))
    hi = tuple(max(e[c] for e in wanted) for c in range(k))
    trunc = default_truncation(fn, max(sum(abs(x) for x in e) for e in wanted))
    first = expand(fn, trunc, (lo, hi))
    second = expand(fn, trunc + 1, (lo, hi))
    result: dict[SignedExponents, Coeff] = {}
    for e in wanted:
        c1 = first.terms.get(e, 0)
        c2 = second.terms.get(e, 0)
        if c1 != c2:
            raise StabilizationError(
                f"coefficient at {e} changed between T={trunc} and T+1")
        result[e] = c1
    return result


def coefficient(fn: RationalFn, exps: SignedExponents) -> Coeff:
    return coefficients(fn, [exps])[tuple(exps)]


def polynomial_component(fn: RationalFn, degree_bound: int) -> MultiPoly:
    """The non-negative-exponent part of the expansion, certified up to the
    given total degree.  The caller guarantees the polynomial part has no
    terms above the bound."""
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    k = fn.k
    lo = (0,) * k
    hi = (degree_bound,) * k
    trunc = default_truncation(fn, degree_bound)
    first = expand(fn, trunc, (lo, hi))
    second = expand(fn, trunc + 1, (lo, hi))
    pick = lambda s: {e: c for e, c in s.terms.items() if sum(e) <= degree_bound}
    p1, p2 = pick(first), pick(second)
    if p1 != p2:
        raise StabilizationError(
            f"polynomial component changed between T={trunc} and T+1")
    return MultiPoly(k, p1)


# -- exact limits -------------------------------------------------------------

def evaluate_with_limits(fn: RationalFn, point: Sequence[Coeff]) -> Fraction:
    """Value at a non-negative point, with zero coordinates replaced by
    t, t^2, ... in ascending coordinate order and the exact limit t -> 0+
    taken.  Raises LimitInfiniteError when the limit diverges."""
    if len(point) != fn.k:
        raise ValueError("point has wrong dimension")
    values = [Fraction(c) for c in point]
    if any(c < 0 for c in values):
        raise ValueError("limit evaluation needs a non-negative point")
    t_power: dict[int, int] = {}
    for i, c in enumerate(values):
        if c == 0:
            t_power[i] = len(t_power) + 1

    num_t: dict[int, Fraction] = {}
    for exps, coeff in fn.numerator.terms.items():
        scale = Fraction(coeff)
        t_deg = 0
        for i, e in enumerate(exps):
            if not e:
                continue
            if i in t_power:
                t_deg += t_power[i] * e
            else:
                scale *= values[i] ** e
        new = num_t.get(t_deg, Fraction(0)) + scale
        if new:
            num_t[t_deg] = new
        else:
            num_t.pop(t_deg, None)

    den_t: dict[int, Fraction] = {0: Fraction(1)}
    for (i, j), mult in sorted(fn.denominators.items()):
        fac: dict[int, Fraction] = {}
        for pos in (i, j):
            d = t_power.get(pos, 0)
            fac[d] = fac.get(d, Fraction(0)) + (Fraction(1) if pos in t_power
                                                else values[pos])
        fac = {d: c for d, c in fac.items() if c}
        for _ in range(mult):
            den_t = _uni_mul(den_t, fac)

    if not num_t:
        return Fraction(0)
    ord_num = min(num_t)
    ord_den = min(den_t)
    if ord_num < ord_den:
        raise LimitInfiniteError(f"limit at {tuple(point)} diverges")
    if ord_num > ord_den:
        return Fraction(0)
    return num_t[ord_num] / den_t[ord_den]


def _uni_mul(p: dict[int, Fraction], q: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            new = out.get(d1 + d2, Fraction(0)) + c1 * c2
            if new:
                out[d1 + d2] = new
            else:
                out.pop(d1 + d2, None)
    return out


# -- builders ------------------------------------------------------------------

def _all_pairs(k: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(k), 2))


def difference_product(k: int) -> MultiPoly:
    """prod over i<j of (x_i - x_j)."""
    result = MultiPoly.one(k)
    for i, j in _all_pairs(k):
        result = result * (MultiPoly.var(k, i) - MultiPoly.var(k, j))
    return result


def alternating_ratio(k: int) -> RationalFn:
    """prod over i<j of (x_i - x_j)/(x_i + x_j)."""
    return RationalFn(k, difference_product(k), {p: 1 for p in _all_pairs(k)})


def strict_path_series(k: int, n: int) -> RationalFn:
    """The alternating ratio times the falling factorial of the variable sum;
    its polynomial component generates degree-n strict path counts."""
    if n < 0:
        raise ValueError("need n >= 0")
    total = sum((MultiPoly.var(k, i) for i in range(k)), MultiPoly.zero(k))
    numerator = difference_product(k) * ff_of_poly(total, n)
    return RationalFn(k, numerator, {p: 1 for p in _all_pairs(k)})


def strict_skew_path_series(v: Sequence[int], n: int) -> RationalFn:
    """Skew analogue anchored at the strict vertex v: the skew weight
    function for v (the alternating ratio times the skew weight polynomial)
    times ff(sum(x) - m, n - m)."""
    from .formulas import skew_weight_fn, strict_vertex_to_partition

    v = tuple(v)
    k = len(v)
    rows = strict_vertex_to_partition(v)
    m = sum(rows)
    if n < m:
        raise ValueError(f"need n >= {m}")
    total = sum((MultiPoly.var(k, i) for i in range(k)), MultiPoly.zero(k))
    weight = skew_weight_fn(rows, k)
    return RationalFn(k, weight.numerator * ff_of_poly(total - m, n - m),
                      weight.denominators)


# -- Pfaffian ------------------------------------------------------------------

@dataclass(frozen=True)
class SignedMatching:
    pairs: tuple[tuple[int, int], ...]
    sign: int


def pfaffian_matchings(n: int) -> list[SignedMatching]:
    """All perfect matchings of n points with their permutation signs."""
    if n < 0 or n % 2:
        raise ValueError("need an even number of points")
    result: list[SignedMatching] = []

    def rec(remaining: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> None:
        if not remaining:
            flat = [x for p in pairs for x in p]
            result.append(SignedMatching(pairs, _perm_sign(flat)))
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            rec(remaining[1:idx] + remaining[idx + 1:],
                pairs + ((first, remaining[idx]),))

    rec(tuple(range(n)), ())
    return result


def verify_pfaffian_product(k: int) -> VerifyReport:
    """Check that the Pfaffian of the matrix (x_i - x_j)/(x_i + x_j) equals
    (up to a sign epsilon) the product of all the pair ratios, as an exact
    polynomial identity after clearing every denominator.  Odd k is handled
    by padding with one extra variable that is then set to zero.

    Supported for 2 <= k <= 6.  Both k = 7 and k = 8 pad to the 8-variable
    matching sum (105 matchings of 28 linear factors each), which takes
    minutes."""
    started = time.perf_counter()
    if not 2 <= k <= 6:
        raise ValueError("supported range is 2 <= k <= 6")
    m = k if k % 2 == 0 else k + 1
    pairs = _all_pairs(m)

    total = MultiPoly.zero(m)
    for matching in pfaffian_matchings(m):
        chosen = set(matching.pairs)
        term = MultiPoly.const(m, matching.sign)
        for a, b in matching.pairs:
            term = term * (MultiPoly.var(m, a) - MultiPoly.var(m, b))
        for a, b in pairs:
            if (a, b) not in chosen:
                term = term * (MultiPoly.var(m, a) + MultiPoly.var(m, b))
        total = total + term

    target = difference_product(m)
    if m != k:
        total = _drop_last_variable(total)
        target = _drop_last_variable(target)

    params = {"k": k, "padded": m != k}
    for eps in (1, -1):
        if total == target * eps:
            params["epsilon"] = eps
            return passed("pfaffian_product", params, started)
    diff = total - target
    witness_key = max(diff.terms, key=grlex_key)
    return failed("pfaffian_product", params,
                  {"monomial": witness_key, "difference": diff.terms[witness_key]},
                  started)


def _drop_last_variable(poly: MultiPoly) -> MultiPoly:
    kept = {e[:-1]: c for e, c in poly.terms.items() if e[-1] == 0}
    return MultiPoly(poly.k - 1, kept)


# -- checkers ------------------------------------------------------------------

ZERO_SUBSTITUTION_ORDER = "zeros -> t, t^2, ... in ascending coordinate order"


def check_antipolynomial_vanishes(fn: RationalFn, poly_part: MultiPoly,
                                  n: int) -> VerifyReport:
    """The negative-exponent remainder fn - poly_part must vanish on every
    lattice point with non-negative entries summing to at most n; checked by
    exact limit evaluation of fn against the polynomial's values."""
    started = time.perf_counter()
    params = {"k": fn.k, "n": n, "zero_substitution": ZERO_SUBSTITUTION_ORDER}
    for point in bounded_exponents(fn.k, n):
        try:
            lhs = evaluate_with_limits(fn, point)
        except LimitInfiniteError:
            return failed("antipolynomial_vanishing", params,
                          {"point": point, "reason": "infinite limit"}, started)
        rhs = Fraction(poly_part.evaluate(point))
        if lhs != rhs:
            return failed("antipolynomial_vanishing", params,
                          {"point": point, "function": lhs, "polynomial": rhs},
                          started)
    return passed("antipolynomial_vanishing", params, started)


def trailing_negative(exps: SignedExponents) -> bool:
    """True when some entry is negative and every later entry is zero, i.e.
    there is no positive entry after the last negative one."""
    last_neg = None
    for i, e in enumerate(exps):
        if e < 0:
            last_neg = i
    if last_neg is None:
        return False
    return all(e == 0 for e in exps[last_neg + 1:])


def check_trailing_negative_coeffs(fn: RationalFn, total_degree: int,
                                   probe_bound: int) -> VerifyReport:
    """Every exponent vector in the probe box whose trailing pattern forces a
    vanishing coefficient must indeed have coefficient zero."""
    started = time.perf_counter()
    params = {"k": fn.k, "total_degree": total_degree, "probe_bound": probe_bound}
    targets = [e for e in itertools.product(range(-probe_bound, probe_bound + 1),
                                            repeat=fn.k)
               if sum(e) == total_degree and trailing_negative(e)]
    if not targets:
        return passed("trailing_negative_vanishing", params, started)
    values = coefficients(fn, targets)
    for e in sorted(targets):
        if values[e] != 0:
            return failed("trailing_negative_vanishing", params,
                          {"exponent": e, "value": values[e]}, started)
    return passed("trailing_negative_vanishing", params, started)
