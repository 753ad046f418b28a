"""Reference answers for the benchmark, written apart from the program.

Nothing here imports ``tableaux``: the graphs are re-stated as vertex
predicates, path counts come from a memoized recursion over those
predicates, and weight-series replies are checked by convolving their
coefficients with multinomials.  The benchmark runs these checks outside
its timed phase.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator

Vertex = tuple[int, ...]
Predicate = Callable[[Vertex], bool]


def pascal_contains(v: Vertex) -> bool:
    return all(c >= 0 for c in v)


def young_contains(v: Vertex) -> bool:
    return v[0] >= 0 and all(a < b for a, b in zip(v, v[1:]))


def strict_contains(v: Vertex) -> bool:
    return v[0] >= 0 and all(a < b or a == b == 0 for a, b in zip(v, v[1:]))


PREDICATES: dict[str, Predicate] = {
    "pascal": pascal_contains,
    "young": young_contains,
    "strict": strict_contains,
}


def base_vertex(graph: str, k: int) -> Vertex:
    return tuple(range(k)) if graph == "young" else (0,) * k


def strict_vertex(rows: Iterable[int], k: int) -> Vertex:
    """Distinct-parts partition -> weakly increasing vertex, zero padded."""
    rows = tuple(rows)
    return (0,) * (k - len(rows)) + tuple(reversed(rows))


def strict_rows(v: Vertex) -> tuple[int, ...]:
    return tuple(c for c in reversed(v) if c > 0)


def multinomial(parts: Iterable[int]) -> int:
    value, total = 1, 0
    for p in parts:
        total += p
        value *= comb(total, p)
    return value


def compositions(k: int, total: int) -> Iterator[Vertex]:
    """All k-tuples of non-negative integers summing to ``total``."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(k - 1, total - head):
            yield (head,) + rest


class PathCounter:
    """Monotone unit-step path counts from one source, memoized over targets.

    A path into u arrives from some u - e_i that is itself a vertex; since
    steps only raise coordinates, every vertex on a path from the source
    majorizes the source entrywise.
    """

    def __init__(self, contains: Predicate, source: Vertex):
        self.contains = contains
        self.source = tuple(source)
        self.memo: dict[Vertex, int] = {self.source: 1}

    def count(self, u: Vertex) -> int:
        u = tuple(u)
        if u in self.memo:
            return self.memo[u]
        total = 0
        if self.contains(u) and sum(u) > sum(self.source) and all(
                a >= b for a, b in zip(u, self.source)):
            for i in range(len(u)):
                total += self.count(u[:i] + (u[i] - 1,) + u[i + 1:])
        self.memo[u] = total
        return total


def parse_series(text: str) -> tuple[dict[Vertex, Fraction], str]:
    """Coefficients and the trailing status word of a plain ``phi`` reply."""
    lines = text.strip().splitlines()
    if not lines or not lines[-1].startswith("conditions "):
        raise ValueError("reply does not end with a conditions line")
    coeffs: dict[Vertex, Fraction] = {}
    for line in lines[:-1]:
        exps, coeff = line.split()
        coeffs[tuple(int(e) for e in exps.split(","))] = Fraction(coeff)
    return coeffs, lines[-1].split()[1]


def series_mismatch(contains: Predicate, base: Vertex,
                    coeffs: dict[Vertex, Fraction], bound: int) -> str | None:
    """None when the series reproduces every path count from ``base`` up to
    degree ``bound``, else a description of the first disagreement.

    The count to u must be the coefficient of u in phi * (x_1+..+x_k)^s with
    s = deg u - deg base, i.e. the sum over e <= u of phi_e * multinomial(u-e).
    """
    if coeffs.get(base) != 1:
        return f"coefficient at the base {base} is {coeffs.get(base, 0)}, not 1"
    counter = PathCounter(contains, base)
    k = len(base)
    for d in range(sum(base), bound + 1):
        for u in compositions(k, d):
            if not contains(u):
                continue
            value = sum(c * multinomial(a - b for a, b in zip(u, e))
                        for e, c in coeffs.items()
                        if all(a >= b for a, b in zip(u, e)))
            if value != counter.count(u):
                return f"series gives {value} at {u}, paths {counter.count(u)}"
    return None
