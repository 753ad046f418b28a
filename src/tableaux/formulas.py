"""Closed-form path counts and the partition codecs behind them.

Vertices of the lattice graphs are ascending coordinate tuples; partitions
are written with rows in decreasing order.  The codecs here translate
between the two pictures:

* a strictly increasing tuple (c_1 < ... < c_k) encodes the Young diagram
  with rows c_k - (k-1) >= c_{k-1} - (k-2) >= ...,
* a weakly increasing tuple with repeats only at zero encodes a partition
  into distinct parts (the positive entries, read backwards).

Counts come from product, determinant and Pfaffian formulas: multinomials
for the full lattice, the ratio product / hook lengths / falling-factorial
determinant family for the Young case, and for the distinct-parts case the
ratio product at the base and a Pfaffian of two-row counts between any two
vertices.  Aitken's determinant, the Young count between any two vertices,
is formed on entries s!/(u_i - v_j)! bounded by the step count s
(``aitken_weight``), and the strict Pfaffian (``strict_pfaffian_count``),
which ``tableaux count`` takes, on entries bounded the same way, so
neither cost grows with the coordinates.  Each count is formed on plain
ints as a numerator and a denominator and divided once; a remainder raises
``ArithmeticError``, and so does a negative count where one can arise.
The hook product is cross-checked by cross-multiplication, with no
division.  The paper's own strict count, ``strict_skew_count``, is the
cross-check of the Pfaffian in the identity suite, up to
``SYMMETRIZATION_CAP`` coordinates: a symmetrized weight function, a sum
over permutations that ``laurent.evaluate_with_limits`` evaluates directly
at the target in Z[t]/(t^(d+1)), where t replaces each zero coordinate and
d is the t-order of prod (x_i + x_j), packed into plain Python integers
with t = 2^B; ``skew_weight_limit`` proves the bound on the coefficients
that fixes B.  Its integers still grow with the target's entries.  The sum
is never expanded into a polynomial.

Inputs are checked once, at the public functions, and the checked values
are passed down to private bodies (``_hook_product``,
``_skew_weight_limit``, ...).  The CLI checks its inputs where it reads
them, and calls the private bodies: a partition argument is checked by
``parse_partition`` and, on the strict graph, the distinct-parts test of
``_partition_vertex``; a vertex by the graph's ``contains`` before
``_closed_form_count``.  ``contains`` and ``_checked_vertex``, the check
of the public functions, apply one rule, ``graded_graphs.in_relation``.
For the Laurent expansions of the identity suite, ``skew_weight_fn`` writes
the same weight function as a Pfaffian, one small fraction per matching
over that matching's own pair sums, with the matchings listed by
``laurent.signed_matchings``, and ``strict_skew_path_series`` multiplies
each fraction by a falling factorial.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, factorial, perm, prod
from typing import Sequence

from .graded_graphs import GRAPH_KINDS, in_relation
from .laurent import RationalFn, evaluate_with_limits, signed_matchings
from .multipoly import (MultiPoly, det, divide_exact_linear,
                        falling_factorial, ff_of_poly, ff_poly, multinomial,
                        pf)

Vertex = tuple[int, ...]
Rows = tuple[int, ...]

SYMMETRIZATION_CAP = 7


# -- validation ---------------------------------------------------------------

def _checked_vertex(kind: str, v: Sequence[int]) -> Vertex:
    """v as a vertex of the built-in graph of the given kind, by the rule
    its ``contains`` applies (``graded_graphs.in_relation``), without
    building the graph."""
    v = tuple(map(int, v))
    if not v:
        raise ValueError("need k >= 1")
    if not in_relation(v, GRAPH_KINDS[kind].neighbour_ok):
        raise ValueError(f"{v} is not a vertex of the {kind} graph")
    return v


def _checked_partition(rows: Sequence[int]) -> Rows:
    rows = tuple(map(int, rows))
    # weakly decreasing, so the last row is the smallest
    if not all(map(operator.ge, rows, rows[1:])) or rows and rows[-1] < 0:
        raise ValueError(f"{rows} is not a partition (weakly decreasing, non-negative)")
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    return rows


def _checked_strict_partition(rows: Sequence[int]) -> Rows:
    return _distinct_parts(_checked_partition(rows))


def _distinct_parts(rows: Rows) -> Rows:
    """Rows from ``_checked_partition``, checked for distinct parts."""
    if not all(map(operator.gt, rows, rows[1:])):
        raise ValueError(f"{rows} has repeated parts")
    return rows


def _quotient(numerator: int, denominator: int, *where: object,
              signed: bool = False) -> int:
    """numerator / denominator, exactly: a remainder raises
    ArithmeticError, and so does a negative quotient unless ``signed``; the
    message names ``where``."""
    count, remainder = divmod(numerator, denominator)
    if remainder or count < 0 and not signed:
        raise ArithmeticError(" ".join(map(str, (
            f"non-integer count {numerator}/{denominator}" if remainder
            else f"negative count {count}", *where))))
    return count


# -- codecs -------------------------------------------------------------------

def young_vertex_to_partition(v: Sequence[int]) -> Rows:
    return _young_rows(_checked_vertex("young", v))


def _young_rows(v: Vertex) -> Rows:
    # v_i - i, read from the last coordinate, lists the rows in decreasing
    # order, so the zero rows are the trailing ones
    return tuple(c - i for i, c in reversed(tuple(enumerate(v))) if c > i)


def partition_to_young_vertex(rows: Sequence[int], k: int) -> Vertex:
    return _partition_vertex("young", _checked_partition(rows), k)


def _partition_vertex(kind: str, rows: Rows, k: int) -> Vertex:
    """Rows from ``_checked_partition`` as a vertex of the young or strict
    graph on k coordinates: the strict graph's distinct-parts test, the
    room test, then the codec, with no second pass over the rows."""
    if kind == "young":
        codec = _young_vertex
    elif kind == "strict":
        rows, codec = _distinct_parts(rows), _strict_vertex
    else:
        raise ValueError(f"partition input is not defined for {kind} graphs")
    if k < len(rows):
        raise ValueError(f"need k >= {len(rows)} coordinates for {rows}")
    return codec(rows, k)


def _young_vertex(rows: Rows, k: int) -> Vertex:
    padded = list(rows) + [0] * (k - len(rows))
    return tuple(padded[k - 1 - i] + i for i in range(k))


def _strict_vertex(rows: Rows, k: int) -> Vertex:
    return (0,) * (k - len(rows)) + tuple(reversed(rows))


def strict_vertex_to_partition(v: Sequence[int]) -> Rows:
    return _strict_rows(_checked_vertex("strict", v))


def _strict_rows(v: Vertex) -> Rows:
    return tuple(c for c in reversed(v) if c > 0)


def strict_partition_to_vertex(rows: Sequence[int], k: int) -> Vertex:
    return _partition_vertex("strict", _checked_partition(rows), k)


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
    return _multinomial_paths(_checked_vertex("pascal", v_from),
                              _checked_vertex("pascal", v_to))


def _multinomial_paths(v: Vertex, u: Vertex) -> int:
    """``multinomial_paths`` between checked vertices."""
    if len(v) != len(u):
        raise ValueError("dimension mismatch")
    gaps = list(map(operator.sub, u, v))
    return multinomial(gaps) if min(gaps) >= 0 else 0


# -- strictly increasing coordinates ------------------------------------------

def syt_count(v: Sequence[int]) -> int:
    """Paths from (0, 1, .., k-1) to v: the ratio-product formula
    steps! / prod(v_i!) * prod_{i<j} (v_j - v_i)."""
    return _syt_count(_checked_vertex("young", v))


def _syt_count(v: Vertex) -> int:
    k = len(v)
    numerator = factorial(sum(v) - k * (k - 1) // 2) * prod(
        b - a for a, b in itertools.combinations(v, 2))
    return _quotient(numerator, prod(map(factorial, v)), "at", v)


def aitken_weight(v: Sequence[int], u: Sequence[int]) -> int:
    """Aitken's determinant steps!/prod(u_i!) * det(ff(u_i, v_j)) at
    non-negative integer tuples, with steps = s = |u| - |v|.  At strictly
    increasing v <= u it counts the skew standard tableaux of shape u / v;
    reordering u only changes its sign.

    It is formed on entries bounded by s.  Row i divided by u_i! has the
    entries ff(u_i, v_j)/u_i! = 1/(u_i - v_j)!, read as 0 when u_i < v_j.
    Every nonzero term of the Leibniz sum has differences u_i - v_pi(i)
    that are >= 0 and sum to s, so each lies in [0, s]; an entry with a
    difference above s appears only in terms that are already 0, and is
    set to 0.  So the weight is det(M) / s!^(k-1), with M_ij =
    s!/(u_i - v_j)! for 0 <= u_i - v_j <= s and 0 otherwise: no factorial
    above s! is formed, whatever the size of the entries.  The weight is an
    integer, so a remainder raises ArithmeticError; it is 0 at |u| < |v|."""
    steps = sum(u) - sum(v)
    if steps < 0:
        return 0
    if len(u) != len(v) or not v:
        raise ValueError("dimension mismatch" if v else "need k >= 1")
    numerator = det([[perm(steps, steps - d) if 0 <= (d := c - a) <= steps
                      else 0 for a in v] for c in u])
    return _quotient(numerator, factorial(steps) ** (len(v) - 1),
                     "for", v, "->", u, signed=True)


def young_path_count(v_from: Sequence[int], v_to: Sequence[int]) -> int:
    """Paths between two strictly increasing tuples: ``aitken_weight``."""
    return _young_path_count(_checked_vertex("young", v_from),
                             _checked_vertex("young", v_to))


def _young_path_count(v: Vertex, u: Vertex) -> int:
    """``young_path_count`` on checked vertices."""
    if len(v) != len(u):
        raise ValueError("dimension mismatch")
    if not all(map(operator.le, v, u)):
        return 0
    count = aitken_weight(v, u)
    if count < 0:
        raise ArithmeticError(f"negative count {count} for {v} -> {u}")
    return count


def hook_lengths(rows: Sequence[int]) -> list[list[int]]:
    """Hook length of each cell: arm + leg + 1."""
    return _hook_lengths(_checked_partition(rows))


def _hook_lengths(rows: Rows) -> list[list[int]]:
    """``hook_lengths`` on checked rows; the leg of a cell in row r and
    column c is the length of column c less r + 1."""
    columns = [sum(1 for width in rows if width > c)
               for c in range(rows[0] if rows else 0)]
    return [[width - c + columns[c] - r - 1 for c in range(width)]
            for r, width in enumerate(rows)]


def hook_product(rows: Sequence[int]) -> int:
    """Product of all hook lengths, cross-checked against the value the
    coordinate encoding predicts for it: prod(m_i!) / prod_{i<j} (m_j - m_i),
    where m is the vertex for the partition on exactly its number of rows."""
    rows = _checked_partition(rows)
    return _hook_product(rows, _hook_lengths(rows))


def _hook_product(rows: Rows, grid: list[list[int]]) -> int:
    """``hook_product`` on checked rows and their ``_hook_lengths``.  The
    cross-check multiplies out: product * prod_{i<j} (m_j - m_i) ==
    prod(m_i!)."""
    product = prod(h for line in grid for h in line)
    m = _young_vertex(rows, len(rows))
    factorials = prod(map(factorial, m))
    if product * prod(b - a for a, b in itertools.combinations(m, 2)) \
            != factorials:
        raise ArithmeticError(
            f"hook product {product} disagrees with {factorials} / "
            f"prod(m_j - m_i) for {rows}")
    return product


def syt_count_hook(rows: Sequence[int]) -> int:
    """Cell count factorial over the hook product."""
    rows = _checked_partition(rows)
    return _hook_count(rows, _hook_product(rows, _hook_lengths(rows)))


def _hook_count(rows: Rows, product: int) -> int:
    """``syt_count_hook`` on checked rows and their ``_hook_product``."""
    return _quotient(factorial(sum(rows)), product, "for", rows)


# -- distinct parts -----------------------------------------------------------

def strict_count(rows: Sequence[int]) -> int:
    """Paths from the origin to a distinct-parts partition:
    n! / prod(m_i!) * prod_{i<j} (m_i - m_j)/(m_i + m_j)."""
    rows = _checked_strict_partition(rows)
    pairs = list(itertools.combinations(rows, 2))
    numerator = factorial(sum(rows)) * prod(a - b for a, b in pairs)
    denominator = prod(map(factorial, rows)) * prod(a + b for a, b in pairs)
    return _quotient(numerator, denominator, "at", rows)


def strict_pfaffian_count(rows_from: Sequence[int],
                          rows_to: Sequence[int]) -> int:
    """Paths between two distinct-parts partitions, as a Pfaffian on
    entries bounded by the step count (``_strict_pfaffian_count``).  The
    rows are checked here, once."""
    frm, to = map(_checked_strict_partition, (rows_from, rows_to))
    k = max(len(frm), len(to))
    return _strict_pfaffian_count(_strict_vertex(frm, k), _strict_vertex(to, k))


def _strict_pfaffian_count(v: Vertex, u: Vertex) -> int:
    """Paths between vertices of the strict graph, as ``_checked_vertex``
    or ``StrictPartitionGraph.contains`` accepts them: the number of
    standard shifted tableaux of shape lambda / mu, for the rows lambda of
    u and mu of v, with n = |lambda| - |mu| steps.

    It is n! times the exponential specialization of the Jozefiak-Pragacz /
    Nimmo Pfaffian of M = [[A, B], [-B^T, 0]], on the indices lambda_1 >
    ... > lambda_l, with a 0 appended when l + m is odd, then mu_m < ... <
    mu_1 for the m rows of mu:

    * A_ij = E(lambda_i, lambda_j), where E(a, b) = 1/(a! b!) + 2
      sum_{i=1..b} (-1)^i / ((a+i)! (b-i)!), of degree d = a + b.  Pascal's
      rule telescopes sum_{i=0..b} (-1)^i C(d, b-i) to C(d-1, b), so
      d! E(a, b) = 2 C(d-1, b) - C(d, b) = C(d-1, b) - C(d-1, b-1) =
      (a-b) C(d, b) / d, the two-row count ``strict_count((a, b))``;
    * B_ij = 1/(lambda_i - mu_j)!, of degree lambda_i - mu_j, and 0 when
      that degree is negative.

    Setting every entry of degree above n to 0 changes nothing.  The mu-mu
    block is 0, so every nonzero term of the Pfaffian pairs each mu index
    with a lambda index, and the degrees of its factors sum to |lambda| -
    |mu| = n.  A factor of negative degree is 0, so in a nonzero term every
    degree lies in [0, n]; an entry of degree above n appears only in terms
    that are already 0.  Scaled by n!, the entries left are the integers
    n!/d! and n!/d! times a two-row count, d <= n, so no factorial above n!
    is formed, whatever the size of the parts.  Pf(n! M) = n!^(size/2)
    Pf(M), so the count is Pf(n! M) / n!^(size/2 - 1), divided once.  Only
    the entries above the diagonal, which ``pf`` reads, are filled in.
    With this ordering the Pfaffian has come out positive on every pair
    tried; a remainder or a negative count raises ArithmeticError."""
    if len(v) != len(u):
        raise ValueError("dimension mismatch")
    if not all(map(operator.le, v, u)):
        return 0
    frm, to = _strict_rows(v), _strict_rows(u)
    if not to:
        return 1
    n = sum(to) - sum(frm)
    rows = to + (0,) * ((len(to) + len(frm)) % 2)
    size = len(rows) + len(frm)
    matrix = [[0] * size for _ in rows] + [[0] * size] * len(frm)
    for i, a in enumerate(rows):
        for j, b in enumerate(rows[i + 1:], i + 1):
            if (d := a + b) <= n:
                matrix[i][j] = perm(n, n - d) * (a - b) * comb(d, b) // d
        for j, m in enumerate(reversed(frm), len(rows)):
            if 0 <= a - m <= n:
                matrix[i][j] = perm(n, n - a + m)
    return _quotient(pf(matrix), factorial(n) ** (size // 2 - 1),
                     "for", frm, "->", to)


def _check_symmetrization_size(rows: Rows, k: int) -> None:
    if k < 1:
        raise ValueError("need k >= 1")
    if k < len(rows):
        raise ValueError(f"need k >= {len(rows)} variables for {rows}")
    if k > SYMMETRIZATION_CAP:
        raise ValueError(f"symmetrization is capped at k = {SYMMETRIZATION_CAP}")


def _checked_symmetrization(rows: Sequence[int], k: int) -> Rows:
    rows = _checked_strict_partition(rows)
    _check_symmetrization_size(rows, k)
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


def skew_weight_polynomial(rows: Sequence[int], k: int) -> MultiPoly:
    """The symmetric polynomial of degree sum(rows) in k variables obtained
    by symmetrizing ff(x_1, m_1)..ff(x_l, m_l) against the pair ratios
    (x_i + x_j)/(x_i - x_j): S / (k-l)! with every (x_i - x_j) divided out.
    The counts never need it in this form; see ``skew_weight_fn``."""
    rows = _checked_symmetrization(rows, k)
    result = _symmetrized_sum(rows, [MultiPoly.var(k, i) for i in range(k)],
                              MultiPoly.one(k))
    for a, b in itertools.combinations(range(k), 2):
        result = divide_exact_linear(result, a, b)
    if result.degree() != sum(rows):
        raise ArithmeticError(
            f"weight polynomial for {rows} has degree {result.degree()}")
    return result


def skew_weight_fn(rows: Sequence[int], k: int) -> RationalFn:
    """The weight function prod (x_i - x_j)/(x_i + x_j) * psi_rows as the
    Pfaffian of [[R, F], [-F^T, 0]] (Jozefiak-Pragacz, Nimmo), where
    R_ab = (x_a - x_b)/(x_a + x_b) and F_ai = ff(x_a, m_i), on the indices:
    the k variables, a zero variable when k + l is odd, the rows from last
    to first.  Row-row and zero-variable-row entries vanish; a variable
    paired with the zero variable gives R = 1.  Expanded along its first
    row by ``signed_matchings``, pruned to the pairs (a, b) with a < k,
    which are all the nonzero entries, it is one fraction per perfect
    matching, over the sums (x_a + x_b) of that matching's variable pairs
    only."""
    rows = _checked_symmetrization(rows, k)
    pad = (k + len(rows)) % 2
    size = k + pad + len(rows)
    xs = [MultiPoly.var(k, i) for i in range(k)]
    terms = []
    for sign, pairs in signed_matchings(
            size, (), lambda pairs, a, b, _: pairs + ((a, b),),
            lambda a, b: a < k):
        numerator = MultiPoly.const(k, sign)
        variable_pairs = []
        for a, b in pairs:
            if b < k:
                numerator = numerator * (xs[a] - xs[b])
                variable_pairs.append((a, b))
            elif b >= k + pad:
                numerator = numerator * ff_poly(k, a, rows[size - 1 - b])
        terms.append((numerator, tuple(variable_pairs)))
    return RationalFn(k, tuple(terms))


def strict_skew_path_series(v: Sequence[int], n: int) -> RationalFn:
    """The strict path series anchored at the strict vertex v: each fraction
    of the skew weight function for v times ff(sum(x) - m, n - m).  At the
    zero vertex it is the plain series prod (x_i - x_j)/(x_i + x_j) *
    ff(sum(x), n), whose polynomial component generates degree-n strict
    path counts."""
    v = tuple(v)
    k = len(v)
    rows = strict_vertex_to_partition(v)
    m = sum(rows)
    if n < m:
        raise ValueError(f"need n >= {m}")
    total = sum((MultiPoly.var(k, i) for i in range(k)), MultiPoly.zero(k))
    falling = ff_of_poly(total - m, n - m)
    return RationalFn(k, tuple((numerator * falling, pairs) for numerator, pairs
                               in skew_weight_fn(rows, k).terms))


def skew_weight_limit(rows: Sequence[int], point: Sequence[int]) -> Fraction:
    """The exact limit of ``skew_weight_fn(rows, len(point))`` at the
    non-negative integer point, from ``evaluate_with_limits`` on the
    symmetrized sum, without building a polynomial.

    The evaluator needs a bound on the coefficients c_j of the sum as a
    polynomial in t, where each zero coordinate is a power of t.  The l1
    norm (the sum of the absolute values of the coefficients) of a
    polynomial in t is submultiplicative and bounds each c_j.  With
    X = max(point) + 1, every x_i has norm at most X, each pair factor
    (x_a +- x_b) at most 2X and each ff(x, m) = prod_{j<m} (x - j) at most
    prod_{j<m} (X + j).  Each of the k!/(k-l)! prefix terms of the sum is a
    product of C(k, 2) pair factors and one falling factorial per row, so

        M = k!/(k-l)! * (2X)^C(k, 2) * prod_i prod_{j<m_i} (X + j)

    bounds every c_j."""
    point = tuple(point)
    rows = _checked_symmetrization(rows, len(point))
    # the bound's factorials need the point that the evaluator accepts
    if not all(isinstance(c, int) and c >= 0 for c in point):
        raise ValueError(f"need a non-negative integer point, got {point}")
    return _skew_weight_limit(rows, point)


def _weight_bound(rows: Rows, point: Vertex) -> int:
    """The bound M of ``skew_weight_limit``."""
    k, x = len(point), max(point, default=0) + 1
    # prod_{j<m} (X + j) = (X + m - 1)! / (X - 1)!
    return (perm(k, len(rows)) * (2 * x) ** comb(k, 2)
            * prod(perm(x + m - 1, m) for m in rows))


def _skew_weight_limit(rows: Rows, point: Vertex) -> Fraction:
    """``skew_weight_limit`` on rows already checked for len(point)
    variables."""
    return evaluate_with_limits(
        lambda xs, one: _symmetrized_sum(rows, xs, one), point,
        _weight_bound(rows, point))


def strict_skew_count(rows_from: Sequence[int], rows_to: Sequence[int],
                      k: int) -> int:
    """Paths between two distinct-parts partitions inside k coordinates:
    (n-m)! / prod(n_i!) times the anchored weight function evaluated (with
    exact limits) at the descending zero-padded target: the paper's route.
    The rows and their room in k coordinates are checked once, by
    ``strict_partition_to_vertex``; the identity suite reaches the
    vertex-level ``_strict_skew_count`` with vertices it checked itself, as
    a cross-check of ``strict_pfaffian_count``."""
    return _strict_skew_count(strict_partition_to_vertex(rows_from, k),
                              strict_partition_to_vertex(rows_to, k))


def _strict_skew_count(v: Vertex, u: Vertex) -> int:
    """``strict_skew_count`` between vertices of the strict graph, as
    ``_checked_vertex`` or ``StrictPartitionGraph.contains`` accepts
    them."""
    if len(v) != len(u):
        raise ValueError("dimension mismatch")
    if not all(map(operator.le, v, u)):
        return 0
    frm, to = _strict_rows(v), _strict_rows(u)
    _check_symmetrization_size(frm, len(v))
    limit = _skew_weight_limit(frm, tuple(reversed(u)))
    numerator = factorial(sum(to) - sum(frm)) * limit.numerator
    denominator = prod(map(factorial, to)) * limit.denominator
    return _quotient(numerator, denominator, "for", frm, "->", to)


# -- dispatch -----------------------------------------------------------------

def _closed_form_count(kind: str, v: Vertex, u: Vertex) -> tuple[str, int]:
    """The closed-form path count between two vertices of the lattice graph
    of the given kind, with the name of the formula that produced it, on
    vertices from ``_checked_vertex`` or that the graph's ``contains``
    accepted, which applies the same rule."""
    if kind == "pascal":
        return "multinomial", _multinomial_paths(v, u)
    if kind == "young":
        return "determinant", _young_path_count(v, u)
    if kind == "strict":
        return "pfaffian", _strict_pfaffian_count(v, u)
    raise ValueError(f"no closed form for {kind} graphs")
