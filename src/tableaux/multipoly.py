"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in k variables is stored as a dict mapping exponent tuples
(length k, entries >= 0) to nonzero coefficients.  Coefficients are Python
ints or ``fractions.Fraction``; both interoperate exactly, so no floating
point ever enters a computation.  The zero polynomial is the empty dict.

Besides ring arithmetic this module provides the expansion primitives the
rest of the package is built on:

* the values at every lattice point of some layers of a simplex, in one
  pass that substitutes one coordinate at a time,
* falling factorials of a number (``math.perm`` for a non-negative int), of
  a variable or of an arbitrary polynomial,
* the falling-factorial expansion sum_c w(c) * prod ff(x_i, c_i) over the
  compositions c of a fixed total, which the Vandermonde check compares
  against,
* one determinant over any commutative ring (ints, Fractions, MultiPolys),
  by top-row expansion with each minor of the lower rows built once, named
  by the bitmask of its columns, from a plan built once per size; and the
  alternants det(x_i^{m_j}) and det(ff(x_i, m_j)) built on it,
* one Pfaffian over any commutative ring, by first-row expansion with each
  minor built once, named by the bitmask of its indices, likewise planned,
* exact division by a difference of variables.  Only
  ``skew_weight_polynomial`` uses it, to divide prod (x_i - x_j) out of the
  symmetrized sum; the counts take limits of that sum and the Laurent
  expansions use its Pfaffian terms, so neither goes through that form.

Term order everywhere is graded lexicographic, leading term first.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial, perm, prod
from operator import add
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

Exponents = tuple[int, ...]
Coeff = int | Fraction
Ring = TypeVar("Ring")


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms: Mapping[Exponents, Coeff] | None = None):
        if k < 1:
            raise ValueError("need at least one variable")
        self.k = k
        clean: dict[Exponents, Coeff] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != k:
                raise ValueError(f"exponent tuple {exps} has wrong length for k={k}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> "MultiPoly":
        return cls(k)

    @classmethod
    def const(cls, k: int, value: Coeff) -> "MultiPoly":
        return cls(k, {(0,) * k: value})

    @classmethod
    def one(cls, k: int) -> "MultiPoly":
        return cls.const(k, 1)

    @classmethod
    def var(cls, k: int, index: int) -> "MultiPoly":
        if not 0 <= index < k:
            raise ValueError(f"variable index {index} out of range for k={k}")
        exps = tuple(1 if i == index else 0 for i in range(k))
        return cls(k, {exps: 1})

    @classmethod
    def monomial(cls, k: int, exps: Exponents, coeff: Coeff = 1) -> "MultiPoly":
        return cls(k, {tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.k != other.k:
            raise ValueError(f"dimension mismatch: {self.k} vs {other.k}")

    def __add__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        other = _as_poly(other, self.k)
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps, 0) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        result = MultiPoly.__new__(MultiPoly)
        result.k = self.k
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        result = MultiPoly.__new__(MultiPoly)
        result.k = self.k
        result.terms = {e: -c for e, c in self.terms.items()}
        return result

    def __sub__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        return self + (-_as_poly(other, self.k))

    def __rsub__(self, other: Coeff) -> "MultiPoly":
        return _as_poly(other, self.k) - self

    def __mul__(self, other: "MultiPoly | Coeff") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            result = MultiPoly.__new__(MultiPoly)
            result.k = self.k
            result.terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return result
        self._check_compatible(other)
        out: dict[Exponents, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                new = out.get(exps, 0) + c1 * c2
                if new:
                    out[exps] = new
                else:
                    del out[exps]
        result = MultiPoly.__new__(MultiPoly)
        result.k = self.k
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.one(self.k)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other, self.k)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.k == other.k and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"MultiPoly({self.k}, {canonical_text(self)!r})"

    # -- queries -----------------------------------------------------------

    def degree(self) -> int | float:
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return float("-inf")
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Exponents) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def layer_values(self, layers: Sequence[int]) -> dict[Exponents, Coeff]:
        """The value at every non-negative integer point whose entry sum
        is one of ``layers``; none when there are no layers.

        One coordinate is substituted at a time, so the points that share a
        prefix share its partial polynomial in the remaining variables.  A
        coordinate before the last takes every value that leaves room below
        the top layer, and the last only the values that land on a layer.
        Each substituted value's powers are built once, up to the highest
        exponent its variable has in that partial polynomial."""
        top, last = max(layers, default=-1), self.k - 1
        values: dict[Exponents, Coeff] = {}

        def substitute(prefix: Exponents, used: int, terms: dict) -> None:
            rows: dict[Exponents, list[tuple[int, Coeff]]] = {}
            for exps, coeff in terms.items():
                rows.setdefault(exps[1:], []).append((exps[0], coeff))
            high = max((exps[0] for exps in terms), default=0)
            bases = range(top + 1 - used) if len(prefix) < last else [
                layer - used for layer in layers if layer >= used]
            for base in bases:
                powers = [1]
                for _ in range(high):
                    powers.append(powers[-1] * base)
                partial = {}
                for rest, row in rows.items():
                    value = 0
                    for power, coeff in row:
                        value += coeff * powers[power]
                    if value:
                        partial[rest] = value
                point = prefix + (base,)
                if len(point) == self.k:
                    values[point] = partial.get((), 0)
                else:
                    substitute(point, used + base, partial)

        substitute((), 0, self.terms)
        return values


def _as_poly(value: "MultiPoly | Coeff", k: int) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(k, value)


def canonical_text(poly: MultiPoly) -> str:
    """Deterministic rendering: graded-lex descending, every exponent shown."""
    if not poly.terms:
        return "0"
    parts = []
    for exps in sorted(poly.terms, key=grlex_key, reverse=True):
        coeff = Fraction(poly.terms[exps])
        vars_text = " ".join(f"x{i + 1}^{e}" for i, e in enumerate(exps))
        parts.append(f"{coeff} * {vars_text}")
    return " + ".join(parts)


# -- falling factorials ----------------------------------------------------

def falling_factorial(x: Coeff, n: int) -> Coeff:
    """x(x-1)...(x-n+1); empty product is 1.  ``math.perm`` for a plain
    non-negative int, the product otherwise."""
    if n < 0:
        raise ValueError("negative length")
    if type(x) is int and x >= 0:
        return perm(x, n)
    value: Coeff = 1
    for j in range(n):
        value *= x - j
    return value


def ff_poly(k: int, index: int, n: int) -> MultiPoly:
    """The falling factorial of variable ``index`` as a polynomial."""
    return ff_of_poly(MultiPoly.var(k, index), n)


def ff_of_poly(poly: MultiPoly, n: int) -> MultiPoly:
    if n < 0:
        raise ValueError("negative length")
    result = MultiPoly.one(poly.k)
    for j in range(n):
        result = result * (poly - j)
    return result


def multinomial(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(parts!); parts must be non-negative."""
    if min(parts, default=0) < 0:
        raise ValueError("negative part")
    return factorial(sum(parts)) // prod(map(factorial, parts))


# -- exponent enumeration ---------------------------------------------------

def exact_compositions(k: int, total: int) -> Iterator[Exponents]:
    """All tuples of k non-negative ints summing to exactly ``total``; none
    when total < 0."""
    if k == 1:
        if total >= 0:
            yield (total,)
        return
    for head in range(total + 1):
        for rest in exact_compositions(k - 1, total - head):
            yield (head,) + rest


def bounded_exponents(k: int, max_total: int) -> Iterator[Exponents]:
    """All tuples of k non-negative ints with sum <= max_total."""
    for total in range(max_total + 1):
        yield from exact_compositions(k, total)


def ff_expansion(k: int, total: int,
                 weight: Callable[[Exponents], Coeff]) -> MultiPoly:
    """Sum over compositions c of ``total`` of weight(c) * prod_i ff(x_i, c_i).

    A polynomial P of degree <= n that vanishes at every non-negative lattice
    point with entry sum < n equals this sum for total n and weight
    P(c) / prod(c_i!): both sides agree on the simplex sum <= n, which
    determines a polynomial of degree <= n.  The value checks of
    ``identity_suite`` rest on that and compare values, so only the
    Vandermonde check builds the sum.

    The weights go into one table keyed by composition.  Then, one
    variable i at a time, each entry c_i is replaced by the power
    coefficients of ff(x_i, c_i), the signed Stirling numbers of the first
    kind, from rows built once; entries that cancel are dropped.
    """
    table: dict[Exponents, Coeff] = {}
    for comp in exact_compositions(k, total):
        value = weight(comp)
        if value:
            table[comp] = value
    stirling = [[1]]
    for n in range(total):
        row = stirling[-1] + [0]
        stirling.append([(row[m - 1] if m else 0) - n * row[m]
                         for m in range(n + 2)])
    for i in range(k):
        expanded: dict[Exponents, Coeff] = {}
        for exps, value in table.items():
            head, tail = exps[:i], exps[i + 1:]
            for m, s in enumerate(stirling[exps[i]]):
                if s:
                    key = head + (m,) + tail
                    expanded[key] = expanded.get(key, 0) + value * s
        table = {exps: c for exps, c in expanded.items() if c}
    return MultiPoly(k, table)


# -- alternants --------------------------------------------------------------

def det(rows: Sequence[Sequence[Ring]]) -> Ring:
    """Determinant of a square matrix over any commutative ring whose
    elements support +, - and * (int, Fraction, MultiPoly).

    Expansion along the top row, where each minor is itself expanded along
    its own top row.  A minor of the rows below row r is fixed by its column
    set, so each one is built once, from the bottom row up: n * 2^(n-1)
    products in all, against n * n! for the Leibniz sum.  The order of the
    work depends only on n and comes from ``_det_plan``.  The 1x1 minors are
    the entries of the bottom row, so no unit of the ring is needed."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("need a non-empty square matrix")
    minors: list = [None] * (1 << n)
    for j, entry in enumerate(rows[-1]):
        minors[1 << j] = entry
    for r, mask, (first, first_minor), rest in _det_plan(n):
        row = rows[r]
        total = row[first] * minors[first_minor]
        for col, minor, odd in rest:
            term = row[col] * minors[minor]
            total = total - term if odd else total + term
        minors[mask] = total
    return minors[-1]


@functools.cache
def _det_plan(n: int) -> tuple:
    """The minors ``det`` builds for an n x n matrix, bottom row first.

    A minor on the rows r..n-1 is named by the bitmask of its columns
    c_0 < c_1 < ...; it is sum_p (-1)^p row_r[c_p] times the minor on the
    rows below with column c_p dropped.  Each entry is (r, mask,
    (c_0, its sub-minor's mask), ((c_p, sub-minor's mask, p odd) for
    p >= 1)), and the full minor, mask 2^n - 1, comes last."""
    plan = []
    for r in range(n - 2, -1, -1):
        for cols in itertools.combinations(range(n), n - r):
            mask = sum(1 << c for c in cols)
            terms = [(c, mask & ~(1 << c), p % 2 == 1)
                     for p, c in enumerate(cols)]
            plan.append((r, mask, terms[0][:2], tuple(terms[1:])))
    return tuple(plan)


def pf(rows: Sequence[Sequence[Ring]]) -> Ring:
    """Pfaffian of an antisymmetric matrix of even size over any commutative
    ring (int, Fraction, MultiPoly); only the entries above the diagonal
    are read, and the diagonal entry rows[0][0] is the ring's zero.

    Expansion along the first row, Pf = sum_p (-1)^p a_{0,j_p} times the
    Pfaffian with rows and columns 0 and j_p dropped, where j_0 < j_1 < ...
    are the other indices, and each minor expanded along its own first row.
    A minor is fixed by the bitmask of its indices, so each one is built
    once, smallest first, in an order that depends only on the size and
    comes from ``_pf_plan``; a term whose entry or minor is zero is
    skipped."""
    n = len(rows)
    if n == 0 or n % 2 or any(len(row) != n for row in rows):
        raise ValueError("need a non-empty square matrix of even size")
    minors = {}
    for mask, first, terms in _pf_plan(n):
        row, total = rows[first], rows[0][0]
        for col, minor, odd in terms:
            if not minor:
                total = row[col]
            elif (entry := row[col]) and (sub := minors[minor]):
                total = total - entry * sub if odd else total + entry * sub
        minors[mask] = total
    return minors[(1 << n) - 1]


@functools.cache
def _pf_plan(n: int) -> tuple:
    """The minors ``pf`` builds for an n x n matrix, smallest first: those
    reached from the full index set by dropping its first index and one
    more.  Each entry is (mask, its first index, ((j_p, sub-minor's mask,
    p odd) for the later indices j_0 < j_1 < ...)); a pair's sub-minor is
    the empty mask 0."""
    plan, level = {}, {(1 << n) - 1}
    while level:
        for mask in level:
            first, *rest = (i for i in range(n) if mask >> i & 1)
            plan[mask] = first, tuple(
                (j, mask & ~(1 << first | 1 << j), p % 2 == 1)
                for p, j in enumerate(rest))
        level = {sub for mask in level for _, sub, _ in plan[mask][1] if sub}
    return tuple((mask, *plan[mask]) for mask in reversed(plan))


def power_alternant(exponents: Sequence[int]) -> MultiPoly:
    """det(x_i ^ m_j) for the k exponents m; zero when exponents repeat."""
    k = len(exponents)
    return det([[MultiPoly.monomial(k, (0,) * i + (m,) + (0,) * (k - 1 - i))
                 for m in exponents] for i in range(k)])


def falling_alternant(exponents: Sequence[int]) -> MultiPoly:
    """det(ff(x_i, m_j)) for the k exponents m."""
    k = len(exponents)
    return det([[ff_poly(k, i, m) for m in exponents] for i in range(k)])


# -- exact division ----------------------------------------------------------

def divide_exact_linear(poly: MultiPoly, a: int, b: int) -> MultiPoly:
    """Exact quotient poly / (x_a - x_b); raises if the division leaves a
    remainder.  Synthetic division treating poly as univariate in x_a."""
    if a == b:
        raise ValueError("need two distinct variables")
    k = poly.k
    layers: dict[int, dict[Exponents, Coeff]] = {}
    for exps, coeff in poly.terms.items():
        d = exps[a]
        stripped = exps[:a] + (0,) + exps[a + 1:]
        layers.setdefault(d, {})[stripped] = coeff
    if not layers:
        return MultiPoly.zero(k)

    top = max(layers)
    quotient: dict[Exponents, Coeff] = {}
    carry: dict[Exponents, Coeff] = {}
    for d in range(top, 0, -1):
        layer = dict(layers.get(d, {}))
        for exps, coeff in carry.items():
            layer[exps] = layer.get(exps, 0) + coeff
        # q_{d-1} = P_d + x_b * q_d, accumulated into the quotient at x_a^{d-1}
        next_carry: dict[Exponents, Coeff] = {}
        for exps, coeff in layer.items():
            if not coeff:
                continue
            quotient[exps[:a] + (d - 1,) + exps[a + 1:]] = coeff
            shifted = exps[:b] + (exps[b] + 1,) + exps[b + 1:]
            next_carry[shifted] = next_carry.get(shifted, 0) + coeff
        carry = next_carry
    remainder = dict(layers.get(0, {}))
    for exps, coeff in carry.items():
        new = remainder.get(exps, 0) + coeff
        if new:
            remainder[exps] = new
        else:
            remainder.pop(exps, None)
    if any(remainder.values()):
        raise ArithmeticError("division by difference of variables is not exact")
    return MultiPoly(k, quotient)
