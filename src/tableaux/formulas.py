"""Closed-form path counts and the partition codecs behind them.

Vertices of the lattice graphs are ascending coordinate tuples; partitions
are written with rows in decreasing order.  The codecs here translate
between the two pictures:

* a strictly increasing tuple (c_1 < ... < c_k) encodes the Young diagram
  with rows c_k - (k-1) >= c_{k-1} - (k-2) >= ...,
* a weakly increasing tuple with repeats only at zero encodes a partition
  into distinct parts (the positive entries, read backwards).

Counts come from product and determinant formulas: multinomials for the
full lattice, the ratio product / hook lengths / falling-factorial
determinant family for the Young case, and a symmetrized weight function
for the distinct-parts case.  That last one is a sum over permutations; a
count hands it to ``laurent.evaluate_with_limits``, which evaluates it
directly at the target, as truncated power series in the t that replaces
each zero coordinate, and never expands it into a polynomial.
``skew_weight_fn`` keeps the expanded form, and ``strict_skew_path_series``
multiplies it by a falling factorial, for the Laurent expansions of the
identity suite.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .graded_graphs import RestrictedYoungGraph, StrictPartitionGraph
from .laurent import RationalFn, evaluate_with_limits
from .multipoly import (Coeff, MultiPoly, divide_exact_linear,
                        falling_alternant_at, falling_factorial, ff_of_poly,
                        multinomial)
from .reports import VerifyReport, failed, passed

Vertex = tuple[int, ...]
Rows = tuple[int, ...]

SYMMETRIZATION_CAP = 7


# -- validation ---------------------------------------------------------------

def _checked_young_vertex(v: Sequence[int]) -> Vertex:
    v = tuple(int(c) for c in v)
    if not RestrictedYoungGraph(len(v)).contains(v):
        raise ValueError(f"{v} is not a strictly increasing non-negative tuple")
    return v


def _checked_strict_vertex(v: Sequence[int]) -> Vertex:
    v = tuple(int(c) for c in v)
    if not StrictPartitionGraph(len(v)).contains(v):
        raise ValueError(f"{v} must increase weakly, with repeats only at zero")
    return v


def _checked_partition(rows: Sequence[int]) -> Rows:
    rows = tuple(int(r) for r in rows)
    if any(a < b for a, b in zip(rows, rows[1:])) or any(r < 0 for r in rows):
        raise ValueError(f"{rows} is not a partition (weakly decreasing, non-negative)")
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    return rows


def _checked_strict_partition(rows: Sequence[int]) -> Rows:
    rows = _checked_partition(rows)
    if any(a == b for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{rows} has repeated parts")
    return rows


# -- codecs -------------------------------------------------------------------

def young_vertex_to_partition(v: Sequence[int]) -> Rows:
    v = _checked_young_vertex(v)
    k = len(v)
    rows = tuple(v[k - 1 - j] - (k - 1 - j) for j in range(k))
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    return rows


def partition_to_young_vertex(rows: Sequence[int], k: int) -> Vertex:
    rows = _checked_partition(rows)
    if k < len(rows):
        raise ValueError(f"need k >= {len(rows)} coordinates for {rows}")
    padded = list(rows) + [0] * (k - len(rows))
    return tuple(padded[k - 1 - i] + i for i in range(k))


def strict_vertex_to_partition(v: Sequence[int]) -> Rows:
    v = _checked_strict_vertex(v)
    return tuple(c for c in reversed(v) if c > 0)


def strict_partition_to_vertex(rows: Sequence[int], k: int) -> Vertex:
    rows = _checked_strict_partition(rows)
    if k < len(rows):
        raise ValueError(f"need k >= {len(rows)} coordinates for {rows}")
    return (0,) * (k - len(rows)) + tuple(reversed(rows))


def parse_partition(text: str) -> Rows:
    """Rows from comma-separated text; '-' or '' is the empty partition."""
    text = text.strip()
    if text in ("", "-"):
        return ()
    try:
        rows = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition from {text!r}") from None
    return _checked_partition(rows)


def format_partition(rows: Sequence[int]) -> str:
    rows = tuple(rows)
    return ",".join(str(r) for r in rows) if rows else "-"


# -- full lattice -------------------------------------------------------------

def multinomial_paths(v_from: Sequence[int], v_to: Sequence[int]) -> int:
    """Paths in the full lattice: the multinomial of the coordinate gaps."""
    v_from, v_to = tuple(v_from), tuple(v_to)
    if len(v_from) != len(v_to):
        raise ValueError("dimension mismatch")
    if any(c < 0 for c in v_from) or any(c < 0 for c in v_to):
        raise ValueError("lattice vertices have non-negative coordinates")
    diffs = [b - a for a, b in zip(v_from, v_to)]
    if any(d < 0 for d in diffs):
        return 0
    return multinomial(diffs)


# -- strictly increasing coordinates ------------------------------------------

def syt_count(v: Sequence[int]) -> int:
    """Paths from (0, 1, .., k-1) to v: the ratio-product formula
    steps! / prod(v_i!) * prod_{i<j} (v_j - v_i)."""
    v = _checked_young_vertex(v)
    k = len(v)
    steps = sum(v) - k * (k - 1) // 2
    value = Fraction(factorial(steps))
    for c in v:
        value /= factorial(c)
    for i in range(k):
        for j in range(i + 1, k):
            value *= v[j] - v[i]
    if value.denominator != 1:
        raise ArithmeticError(f"non-integer count {value} at {v}")
    return int(value)


def aitken_weight(v: Sequence[int], u: Sequence[int]) -> int:
    """Aitken's determinant steps! / prod(u_i!) * det(ff(u_i, v_j)), with
    steps = |u| - |v|.  At strictly increasing v <= u it counts the skew
    standard tableaux of shape u / v; reordering u only changes its sign.
    An integer either way, so a remainder raises ArithmeticError."""
    numerator = factorial(sum(u) - sum(v)) * falling_alternant_at(v, u)
    denominator = prod(factorial(c) for c in u)
    count, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"non-integer count {numerator}/{denominator} for {v} -> {u}")
    return count


def young_path_count(v_from: Sequence[int], v_to: Sequence[int]) -> int:
    """Paths between two strictly increasing tuples: ``aitken_weight``."""
    v = _checked_young_vertex(v_from)
    u = _checked_young_vertex(v_to)
    if len(v) != len(u):
        raise ValueError("dimension mismatch")
    if not all(a <= b for a, b in zip(v, u)):
        return 0
    count = aitken_weight(v, u)
    if count < 0:
        raise ArithmeticError(f"negative count {count} for {v} -> {u}")
    return count


def hook_lengths(rows: Sequence[int]) -> list[list[int]]:
    """Hook length of each cell: arm + leg + 1."""
    rows = _checked_partition(rows)
    grid: list[list[int]] = []
    for r, width in enumerate(rows):
        line = []
        for c in range(width):
            arm = width - c - 1
            leg = sum(1 for r2 in range(r + 1, len(rows)) if rows[r2] > c)
            line.append(arm + leg + 1)
        grid.append(line)
    return grid


def _hook_product_and_ratio(rows: Rows) -> tuple[int, Fraction]:
    """The product of all hook lengths, and the value the coordinate encoding
    predicts for it: prod(m_i!) / prod_{i<j} (m_j - m_i), where m is the
    vertex for the partition on exactly its number of rows."""
    product = prod(h for line in hook_lengths(rows) for h in line)
    ratio = Fraction(1)
    if rows:
        m = partition_to_young_vertex(rows, len(rows))
        ratio = Fraction(prod(factorial(c) for c in m),
                         prod(b - a for a, b in itertools.combinations(m, 2)))
    return product, ratio


def hook_product(rows: Sequence[int]) -> int:
    """Product of all hook lengths, cross-checked against the coordinate
    encoding (see ``check_hook_length_claim``)."""
    rows = _checked_partition(rows)
    product, ratio = _hook_product_and_ratio(rows)
    if ratio != product:
        raise ArithmeticError(
            f"hook product {product} disagrees with {ratio} for {rows}")
    return product


def check_hook_length_claim(rows: Sequence[int]) -> VerifyReport:
    """Report form of the hook-product cross-check."""
    started = time.perf_counter()
    rows = _checked_partition(rows)
    params = {"partition": rows}
    product, ratio = _hook_product_and_ratio(rows)
    if ratio != product:
        return failed("hook_length_product", params,
                      {"hooks": product, "ratio": ratio}, started)
    return passed("hook_length_product", params, started)


def syt_count_hook(rows: Sequence[int]) -> int:
    """Cell count factorial over the hook product."""
    rows = _checked_partition(rows)
    cells = sum(rows)
    product = hook_product(rows)
    if factorial(cells) % product:
        raise ArithmeticError(f"hook product {product} does not divide {cells}!")
    return factorial(cells) // product


# -- distinct parts -----------------------------------------------------------

def strict_count(rows: Sequence[int]) -> int:
    """Paths from the origin to a distinct-parts partition:
    n! / prod(m_i!) * prod_{i<j} (m_i - m_j)/(m_i + m_j)."""
    rows = _checked_strict_partition(rows)
    if not rows:
        return 1
    value = Fraction(factorial(sum(rows)))
    for r in rows:
        value /= factorial(r)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            value *= Fraction(rows[i] - rows[j], rows[i] + rows[j])
    if value.denominator != 1:
        raise ArithmeticError(f"non-integer count {value} at {rows}")
    return int(value)


def _checked_symmetrization(rows: Sequence[int], k: int) -> Rows:
    rows = _checked_strict_partition(rows)
    if k < len(rows):
        raise ValueError(f"need k >= {len(rows)} variables for {rows}")
    if k > SYMMETRIZATION_CAP:
        raise ValueError(f"symmetrization is capped at k = {SYMMETRIZATION_CAP}")
    return rows


def _symmetrized_sum(rows: Rows, xs: Sequence, one):
    """S / (k-l)! at the values ``xs`` of x_1..x_k in a commutative ring
    (``one`` is its unit), where l = len(rows) and

        S = sum over permutations p of sign(p) * prod_{i<l} ff(x_{p_i}, m_i)
            * prod_{i<l, j>i} (x_{p_i} + x_{p_j})
            * prod_{l<=i<j} (x_{p_i} - x_{p_j}).

    The last product is antisymmetric in p_l..p_{k-1}, so the (k-l)!
    permutations that share the prefix p_0..p_{l-1} contribute equally: the
    sum runs over prefixes only, the remaining variables in increasing
    order, and the (k-l)! never appears.  A prefix contributes
    prod_{w after p_i} (x_{p_i} + x_w) at each position i, so prefixes are
    extended one variable at a time and a zero partial product is dropped
    with all its extensions."""
    k, ell = len(xs), len(rows)
    falling = [[falling_factorial(x, m) for x in xs] for m in rows]
    total = one - one

    def extend(depth: int, free: tuple[int, ...], term, sign: int) -> None:
        nonlocal total
        if depth == ell:
            for a, b in itertools.combinations(free, 2):
                term = term * (xs[a] - xs[b])
            total = total + term if sign > 0 else total - term
            return
        for pos, v in enumerate(free):
            rest = free[:pos] + free[pos + 1:]
            product = term * falling[depth][v]
            for w in rest:
                product = product * (xs[v] + xs[w])
            if product:
                # v precedes the pos smaller variables still free
                extend(depth + 1, rest, product, -sign if pos % 2 else sign)

    extend(0, tuple(range(k)), one, 1)
    return total


@lru_cache(maxsize=None)
def _symmetrized_numerator(rows: Rows, k: int) -> MultiPoly:
    return _symmetrized_sum(rows, [MultiPoly.var(k, i) for i in range(k)],
                            MultiPoly.one(k))


def skew_weight_polynomial(rows: Sequence[int], k: int) -> MultiPoly:
    """The symmetric polynomial of degree sum(rows) in k variables obtained
    by symmetrizing ff(x_1, m_1)..ff(x_l, m_l) against the pair ratios
    (x_i + x_j)/(x_i - x_j): S / (k-l)! with every (x_i - x_j) divided out.
    The counts never need it in this form; see ``skew_weight_fn``."""
    rows = _checked_symmetrization(rows, k)
    result = _symmetrized_numerator(rows, k)
    for a, b in itertools.combinations(range(k), 2):
        result = divide_exact_linear(result, a, b)
    if result.degree() != sum(rows):
        raise ArithmeticError(
            f"weight polynomial for {rows} has degree {result.degree()}")
    return result


def skew_weight_fn(rows: Sequence[int], k: int) -> RationalFn:
    """The weight polynomial times prod (x_i - x_j)/(x_i + x_j), kept as
    S / (k-l)! over prod (x_i + x_j): the product prod (x_i - x_j) that the
    weight polynomial divides out is never divided out here."""
    rows = _checked_symmetrization(rows, k)
    pairs = {p: 1 for p in itertools.combinations(range(k), 2)}
    return RationalFn(k, _symmetrized_numerator(rows, k), pairs)


def strict_skew_path_series(v: Sequence[int], n: int) -> RationalFn:
    """The strict path series anchored at the strict vertex v: the skew
    weight function for v (the alternating ratio times the skew weight
    polynomial) times ff(sum(x) - m, n - m).  At the zero vertex it is the
    plain series prod (x_i - x_j)/(x_i + x_j) * ff(sum(x), n), whose
    polynomial component generates degree-n strict path counts."""
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


def skew_weight_limit(rows: Sequence[int], point: Sequence[Coeff]) -> Fraction:
    """The exact limit of ``skew_weight_fn(rows, len(point))`` at the point,
    from ``evaluate_with_limits`` on the symmetrized sum, without building
    a polynomial."""
    rows = _checked_symmetrization(rows, len(point))
    return evaluate_with_limits(
        lambda xs, one: _symmetrized_sum(rows, xs, one), point)


def strict_skew_count(rows_from: Sequence[int], rows_to: Sequence[int],
                      k: int) -> int:
    """Paths between two distinct-parts partitions inside k coordinates:
    (n-m)! / prod(n_i!) times the anchored weight function evaluated (with
    exact limits) at the descending zero-padded target."""
    frm = _checked_strict_partition(rows_from)
    to = _checked_strict_partition(rows_to)
    if k < len(frm) or k < len(to):
        raise ValueError(f"need k >= {max(len(frm), len(to))} coordinates")
    v = strict_partition_to_vertex(frm, k)
    u = strict_partition_to_vertex(to, k)
    if not all(a <= b for a, b in zip(v, u)):
        return 0
    value = skew_weight_limit(frm, tuple(reversed(u)))
    scale = Fraction(factorial(sum(to) - sum(frm)))
    for r in to:
        scale /= factorial(r)
    total = scale * value
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer count {total} for {frm} -> {to}")
    if total < 0:
        raise ArithmeticError(f"negative count {total} for {frm} -> {to}")
    return int(total)


# -- dispatch -----------------------------------------------------------------

def closed_form_count(kind: str, v_from: Sequence[int],
                      v_to: Sequence[int]) -> tuple[str, int]:
    """The closed-form path count between two vertices of the lattice graph
    of the given kind, with the name of the formula that produced it."""
    if kind == "pascal":
        return "multinomial", multinomial_paths(v_from, v_to)
    if kind == "young":
        return "determinant", young_path_count(v_from, v_to)
    if kind == "strict":
        return "anchored_limit", strict_skew_count(
            strict_vertex_to_partition(v_from), strict_vertex_to_partition(v_to),
            len(v_from))
    raise ValueError(f"no closed form for {kind} graphs")
