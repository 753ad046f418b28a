"""Tests of the benchmark's own reference checks, batches and tracer.

Run with ``python3 -m pytest benchmarks``; nothing here imports ``tableaux``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from reference import (PREDICATES, PathCounter, base_vertex, compositions,
                       parse_series, series_mismatch, strict_vertex)
from tracing import Tracer
from workloads import (FAULT_SOURCE, FAULT_TARGET, FAULT_VERTICES, MIN_OPS,
                       TARGETS_PER_SOURCE, WORKLOADS, strict_partitions)


def partitions(n: int, max_parts: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for part in range(min(n, cap), 0, -1):
        for rest in partitions(n - part, max_parts - 1, part):
            yield (part,) + rest


def hook_count(rows: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape ``rows`` by the hook-length formula."""
    cols = [sum(1 for r in rows if r > c) for c in range(rows[0])] if rows else []
    product = 1
    for i, width in enumerate(rows):
        for j in range(width):
            product *= (width - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(rows)) // product


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pascal_counts_are_multinomials(k):
    counter = PathCounter(PREDICATES["pascal"], (0,) * k)
    for d in range(7):
        for v in compositions(k, d):
            expected, total = 1, 0
            for c in v:
                total += c
                expected *= comb(total, c)
            assert counter.count(v) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_young_counts_match_hook_lengths(k):
    counter = PathCounter(PREDICATES["young"], base_vertex("young", k))
    for n in range(9):
        for rows in partitions(n, k):
            padded = list(rows) + [0] * (k - len(rows))
            vertex = tuple(padded[k - 1 - i] + i for i in range(k))
            assert counter.count(vertex) == hook_count(rows)


def test_hook_count_spot_values():
    assert [hook_count(r) for r in [(1,), (2, 1), (3, 2, 1), (4, 2, 1)]] == \
        [1, 2, 16, 35]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_strict_counts_match_schur_product(k):
    counter = PathCounter(PREDICATES["strict"], (0,) * k)
    for n in range(1, 13):
        for rows in strict_partitions(n, k):
            value = Fraction(factorial(n))
            for r in rows:
                value /= factorial(r)
            for i, a in enumerate(rows):
                for b in rows[i + 1:]:
                    value *= Fraction(a - b, a + b)
            assert counter.count(strict_vertex(rows, k)) == value


def test_fault_request_has_no_path():
    contains = frozenset(FAULT_VERTICES).__contains__
    assert PathCounter(contains, FAULT_SOURCE).count(FAULT_TARGET) == 0
    assert PathCounter(contains, (0, 0)).count((1, 1)) == 2


def test_series_check_accepts_the_monomial_series_and_rejects_a_change():
    coeffs, status = parse_series("0,0,0 1\nconditions pass\n")
    assert status == "pass"
    assert series_mismatch(PREDICATES["pascal"], (0, 0, 0), coeffs, 5) is None
    assert series_mismatch(PREDICATES["pascal"], (0, 0, 0),
                           {(0, 0, 0): 1, (1, 0, -1): 1}, 5) is not None
    assert series_mismatch(PREDICATES["pascal"], (0, 0, 0), {}, 5) is not None


def test_young_series_from_the_program_docs():
    # phi for young k=2 at the base (0,1): x_2 - x_1 after clearing, i.e.
    # coefficient 1 at (0,1) and -1 at (1,0).
    assert series_mismatch(PREDICATES["young"], (0, 1),
                           {(0, 1): 1, (1, 0): -1}, 8) is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batches_repeat_per_seed_and_keep_the_failure_share(workload):
    make = WORKLOADS[workload]
    a, b = make(random.Random(3), 20), make(random.Random(3), 20)
    assert [op.argv for op in a] == [op.argv for op in b]
    assert [op.argv for op in a] != [op.argv for op in make(random.Random(4), 20)]
    assert len(a) >= MIN_OPS
    shares = {Fraction(sum(op.exempt for op in make(random.Random(s), t)),
                       len(make(random.Random(s), t)))
              for s in (1, 2) for t in (5, 20, 40)}
    assert len(shares) == 1


def test_strict_formula_sources_are_cold_once():
    ops = WORKLOADS["strict-formula"](random.Random(5), 20)
    cold = [op for op in ops if op.kind == "cold"]
    sources = [op.check[2] + (op.argv[4],) for op in cold]
    assert len(set(sources)) == len(sources)
    assert len(ops) == TARGETS_PER_SOURCE * len(cold)
    for op in ops:
        _, graph, src, dst = op.check
        counter = PathCounter(PREDICATES[graph], src)
        assert counter.count(dst) > 0


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer.wrap("inner", inner, None)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    tracer.wrap("outer", outer, None)()
    self_s = tracer.self_times()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert 0.04 <= self_s["inner"] < 0.1
    assert 0.01 <= self_s["outer"] < 0.03
    assert list(tracer.span_parent) == [-1, 0, 0]
