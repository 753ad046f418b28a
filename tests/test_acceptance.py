"""Acceptance gate.

Each criterion below runs one self-contained battery and prints exactly one
``[PASS]``/``[FAIL]`` line with its elapsed time and runtime limit.  A
criterion fails the build if any check inside it fails or if it exceeds its
limit on this machine.
"""

import random
import time

from tableaux.formulas import (hook_product, partition_to_young_vertex,
                               strict_count, strict_skew_count, syt_count,
                               young_path_count)
from tableaux.identity_suite import (SWEEP_ANCHORS, check_counts_from_base,
                                     check_hook_identity, check_multinomial,
                                     check_polycomponent,
                                     check_series_construction,
                                     check_skew_identity, check_skew_pairs,
                                     check_skew_polycomponent,
                                     check_vandermonde, negative_controls)
from tableaux.laurent import verify_pfaffian_product

SEED = 1


def _criterion(capsys, number, label, limit, run):
    started = time.perf_counter()
    failures = run()
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed <= limit
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} "
              f"({elapsed:.2f}s, limit {limit:.0f}s)")
    assert not failures, failures
    assert elapsed <= limit, f"took {elapsed:.2f}s, limit {limit}s"


def _collect(bad, rep, *context):
    if not rep.ok:
        bad.append((rep.identity, rep.params, rep.witness, context))


def test_criterion_1_pascal_counts(capsys):
    def run():
        bad = []
        _collect(bad, check_counts_from_base("pascal", 3, 9))
        return bad
    _criterion(capsys, 1, "pascal k=3: multinomial formula matches the "
               "oracle through degree 9", 5, run)


def test_criterion_2_young_counts_and_pairs(capsys):
    def run():
        bad = []
        for k in (2, 3, 4):
            _collect(bad, check_counts_from_base("young", k, 12), k)
            _collect(bad, check_skew_pairs("young", k, 12, 200, SEED), k)
        return bad
    _criterion(capsys, 2, "young k=2..4: determinant, ratio and hook "
               "formulas match the oracle through degree 12, plus 200 "
               "seeded skew pairs per k", 30, run)


def test_criterion_3_strict_counts_and_pairs(capsys):
    def run():
        bad = []
        for k in (2, 3, 4):
            _collect(bad, check_counts_from_base("strict", k, 12), k)
            _collect(bad, check_skew_pairs("strict", k, 12, 200, SEED), k)
        return bad
    _criterion(capsys, 3, "strict k=2..4: product and limit formulas match "
               "the oracle through degree 12, plus 200 seeded skew pairs "
               "per k", 60, run)


def test_criterion_4_polynomial_identities(capsys):
    def run():
        bad = []
        for k in (1, 2, 3):
            for n in range(6):
                _collect(bad, check_vandermonde(k, n))
                _collect(bad, check_multinomial(k, n))
                _collect(bad, check_hook_identity(k, n))
            for anchor in SWEEP_ANCHORS[k]:
                for steps in range(4):
                    _collect(bad, check_skew_identity(k, anchor, steps))
        for rep in negative_controls():
            _collect(bad, rep)
        return bad
    _criterion(capsys, 4, "polynomial identities for k=1..3, n<=5, three "
               "anchors per k, and all negative controls", 10, run)


def test_criterion_5_polynomial_components(capsys):
    def run():
        bad = []
        for k in (2, 3):
            for n in range(5):
                _collect(bad, check_polycomponent(k, n))
        for sigma in ((), (1,), (2,), (2, 1)):
            for k in (2, 3):
                for n in range(sum(sigma), sum(sigma) + 4):
                    _collect(bad, check_skew_polycomponent(sigma, k, n))
        return bad
    _criterion(capsys, 5, "polynomial components of the limit ratios, with "
               "vanishing and sign-pattern probes, plain and skew", 60, run)


def test_criterion_6_pfaffian_products(capsys):
    def run():
        bad = []
        for k in (2, 4, 6):
            _collect(bad, verify_pfaffian_product(k), k)
        return bad
    _criterion(capsys, 6, "matching-sum product identity holds exactly for "
               "k=2,4,6", 10, run)


def test_criterion_7_weight_series_construction(capsys):
    def run():
        bad = []
        for kind in ("pascal", "young", "strict"):
            _collect(bad, check_series_construction(kind, 3, 6), kind)
        return bad
    _criterion(capsys, 7, "weight series construct+verify+count matches the "
               "oracle for all three graphs at k=3 through degree 6", 30, run)


def test_criterion_8_spot_values(capsys):
    def run():
        spots = [
            ("syt 2,1", syt_count(partition_to_young_vertex((2, 1), 2)), 2),
            ("syt 2,2", syt_count(partition_to_young_vertex((2, 2), 2)), 2),
            ("syt 3,2,1",
             syt_count(partition_to_young_vertex((3, 2, 1), 3)), 16),
            ("strict 2,1", strict_count((2, 1)), 1),
            ("strict 3,1", strict_count((3, 1)), 2),
            ("skew (0,2)->(1,3)", young_path_count((0, 2), (1, 3)), 2),
            ("strict skew (1)->(2,1)", strict_skew_count((1,), (2, 1), 2), 1),
        ]
        return [(name, got, want) for name, got, want in spots if got != want]
    _criterion(capsys, 8, "seven pinned spot values", 5, run)


def test_criterion_9_hook_length_property(capsys):
    def run():
        rng = random.Random(SEED)
        bad = []
        for _ in range(50):
            rows = sorted((rng.randint(1, 8)
                           for _ in range(rng.randint(0, 6))), reverse=True)
            while sum(rows) > 30:
                rows.pop()
            try:
                hook_product(rows)  # raises when the claim fails
            except ArithmeticError as exc:
                bad.append((tuple(rows), str(exc)))
        return bad
    _criterion(capsys, 9, "hook length product claim on 50 seeded partitions "
               "with at most 6 rows and 30 cells", 5, run)
