"""The polynomial-component and anchored checks against reference copies.

The reference copies below compare whole polynomials: the polynomial
component against the falling-factorial expansion with ``Fraction`` weights,
and the anchored left side, multiplied out, against its expansion.  The
checks in ``identity_suite`` must give the same verdict and the same witness,
perturbed or not, and under every tampering below.  The references look up
the functions the tests replace through ``identity_suite``, so one
monkeypatch reaches both sides.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from tableaux import identity_suite
from tableaux.formulas import strict_partition_to_vertex
from tableaux.identity_suite import (DEFAULT_SKEW_ANCHORS, SWEEP_ANCHORS,
                                     check_hook_identity, check_multinomial,
                                     check_polycomponent, check_skew_identity,
                                     check_skew_polycomponent,
                                     check_vandermonde, negative_controls)
from tableaux.laurent import check_trailing_negative_coeffs
from tableaux.multipoly import (MultiPoly, bounded_exponents,
                                exact_compositions, falling_factorial,
                                ff_expansion, ff_of_poly, grlex_key)
from tableaux.reports import failed, passed


# -- reference copies: whole-polynomial comparisons ---------------------------

def _variable_sum(k):
    return sum((MultiPoly.var(k, i) for i in range(k)), MultiPoly.zero(k))


def _perturbed(poly, flag):
    return poly + MultiPoly.var(poly.k, 0) if flag else poly


def _compare(identity, params, sides):
    started = time.perf_counter()
    for form, lhs, rhs in sides:
        if lhs == rhs:
            continue
        diff = lhs - rhs
        top = max(diff.terms, key=grlex_key)
        return failed(identity, params,
                      {"form": form, "monomial": top,
                       "difference": diff.terms[top]}, started)
    return passed(identity, params, started)


def _reference_anchored_sides(anchor, falling, power, steps, perturb):
    k = len(anchor)
    total = steps + sum(anchor)
    weights = MultiPoly(k, {
        comp: identity_suite.aitken_weight(anchor, comp)
        for comp in exact_compositions(k, total)})
    lhs_ff = _perturbed(
        falling * ff_of_poly(_variable_sum(k) - sum(anchor), steps), perturb)
    lhs_pw = _perturbed(power * _variable_sum(k) ** steps, perturb)
    return [("falling_factorial", lhs_ff,
             ff_expansion(k, total, weights.coefficient)),
            ("power", lhs_pw, weights)]


def reference_hook(k, steps, perturb=False):
    params = {"k": k, "steps": steps, "perturbed": perturb}
    vandermonde = identity_suite.power_alternant(tuple(range(k)))
    return _compare("hook_expansion", params, _reference_anchored_sides(
        tuple(range(k)), vandermonde, vandermonde, steps, perturb))


def reference_skew(k, anchor, steps, perturb=False):
    anchor = tuple(anchor)
    params = {"k": k, "anchor": anchor, "steps": steps, "perturbed": perturb}
    falling = identity_suite.falling_alternant(anchor)
    power = identity_suite.power_alternant(anchor)
    sides = _reference_anchored_sides(anchor, falling, power, steps, perturb)
    if anchor == tuple(range(k)):
        sides.append(("staircase_collapse", falling, power))
    return _compare("anchored_hook_expansion", params, sides)


def _reference_polycomponent(identity, params, sigma, k, n):
    started = time.perf_counter()
    m = sum(sigma)
    fn = identity_suite.strict_skew_path_series(
        strict_partition_to_vertex(sigma, k), n)
    part = _perturbed(identity_suite.polynomial_component(fn, n),
                      params["perturbed"])
    closed = ff_expansion(k, n, lambda comp: Fraction(
        factorial(n - m) * identity_suite.skew_weight_limit(sigma, comp),
        prod(factorial(c) for c in comp)))
    if part != closed:
        diff = part - closed
        top = max(diff.terms, key=grlex_key)
        return failed(identity, params,
                      {"part": "closed_form", "monomial": top,
                       "difference": diff.terms[top]}, started)
    values = part.layer_values(range(n))
    for point in bounded_exponents(k, n - 1):
        value = (identity_suite.skew_weight_limit(sigma, point)
                 * falling_factorial(sum(point) - m, n - m))
        expected = Fraction(values[point])
        if value != expected:
            return failed(identity, params,
                          {"part": "antipolynomial", "point": point,
                           "function": value, "polynomial": expected}, started)
    probes = check_trailing_negative_coeffs(fn, n, n + 2)
    if not probes.ok:
        return failed(identity, params,
                      {"part": "trailing_negative", **(probes.witness or {})},
                      started)
    return passed(identity, params, started)


def reference_polycomponent(k, n, perturb=False):
    return _reference_polycomponent(
        "polynomial_component", {"k": k, "n": n, "perturbed": perturb}, (), k, n)


def reference_skew_polycomponent(sigma, k, n, perturb=False):
    sigma = tuple(sigma)
    return _reference_polycomponent(
        "skew_polynomial_component",
        {"sigma": sigma, "k": k, "n": n, "perturbed": perturb}, sigma, k, n)


def _verdict(rep):
    return rep.identity, rep.params, rep.status, rep.witness


def _same(check, reference, *args):
    got = check(*args)
    want = reference(*args)
    assert _verdict(got) == _verdict(want), args
    # a Fraction and an equal int print alike, so the JSON must agree too
    assert got.to_json_line().rsplit('"millis"', 1)[0] == \
        want.to_json_line().rsplit('"millis"', 1)[0]
    return got


# -- sizes ----------------------------------------------------------------------

HOOK_CASES = [(k, steps) for k in (1, 2, 3) for steps in range(6)] + \
    [(4, steps) for steps in range(3)]
SKEW_CASES = [(k, anchor, steps) for k, anchors in SWEEP_ANCHORS.items()
              for anchor in anchors for steps in range(4)] + \
    [(2, (3, 1), steps) for steps in range(4)] + \
    [(3, (2, 0, 5), steps) for steps in range(3)] + \
    [(4, (0, 1, 2, 3), 2), (4, (0, 2, 3, 5), 1), (4, (5, 0, 1, 3), 1)]
POLY_CASES = [(k, n) for k in (2, 3) for n in range(5)] + \
    [(1, n) for n in range(5)] + [(3, 5), (3, 6), (4, 3)]
SKEW_POLY_CASES = [
    (sigma, k, n) for sigma in DEFAULT_SKEW_ANCHORS for k in (2, 3)
    if k >= len(sigma) for n in range(sum(sigma), sum(sigma) + 4)] + \
    [(sigma, 3, sum(sigma) + 3) for sigma in ((1,), (2,), (2, 1), (3,), (3, 1))] + \
    [((1,), 1, 3), ((3, 1), 4, 5)]


@pytest.mark.parametrize("perturb", [False, True])
def test_anchored_checks_match_the_expansions(perturb):
    for k, steps in HOOK_CASES:
        _same(check_hook_identity, reference_hook, k, steps, perturb)
    for k, anchor, steps in SKEW_CASES:
        _same(check_skew_identity, reference_skew, k, anchor, steps, perturb)


@pytest.mark.parametrize("perturb", [False, True])
def test_polycomponent_checks_match_the_expansions(perturb):
    for k, n in POLY_CASES:
        _same(check_polycomponent, reference_polycomponent, k, n, perturb)
    for sigma, k, n in SKEW_POLY_CASES:
        _same(check_skew_polycomponent, reference_skew_polycomponent,
              sigma, k, n, perturb)


def test_negative_control_witnesses_are_pinned():
    # the probes of negative_controls, each failing at the stray x_0
    for control in negative_controls():
        assert control.ok
    probes = [(check_vandermonde(2, 3, True), "form", "falling_factorial"),
              (check_multinomial(2, 3, True), "form", "power"),
              (check_hook_identity(2, 2, True), "form", "falling_factorial"),
              (check_skew_identity(2, (1, 3), 2, True), "form",
               "falling_factorial"),
              (check_polycomponent(2, 2, True), "part", "closed_form"),
              (check_skew_polycomponent((1,), 2, 3, True), "part",
               "closed_form")]
    for rep, key, form in probes:
        assert rep.witness == {key: form, "monomial": (1, 0), "difference": 1}
    # a perturbation of degree 1 above a degree-0 identity is caught too
    assert check_hook_identity(1, 0, True).witness == {
        "form": "falling_factorial", "monomial": (1,), "difference": 1}
    assert check_polycomponent(2, 0, True).witness == {
        "part": "closed_form", "monomial": (1, 0), "difference": 1}


# -- tampered runs --------------------------------------------------------------

def _tamper_limit(monkeypatch, at, by):
    real = identity_suite.skew_weight_limit

    def tampered(sigma, point):
        value = real(sigma, point)
        return value + by if tuple(point) == at else value

    monkeypatch.setattr(identity_suite, "skew_weight_limit", tampered)


def test_a_changed_top_layer_limit_gives_the_expansion_witness(monkeypatch):
    _tamper_limit(monkeypatch, (1, 2, 2), Fraction(1, 3))
    rep = _same(check_polycomponent, reference_polycomponent, 3, 5)
    # (5 - 0)! * 1/3 / (1! 2! 2!) = 10
    assert rep.witness == {"part": "closed_form", "monomial": (1, 2, 2),
                           "difference": -10}
    _same(check_skew_polycomponent, reference_skew_polycomponent,
          (2, 1), 3, 6)


def test_a_changed_top_layer_limit_of_a_skew_series(monkeypatch):
    _tamper_limit(monkeypatch, (0, 3, 3), 5)
    rep = _same(check_skew_polycomponent, reference_skew_polycomponent,
                (2, 1), 3, 6)
    # (6 - 3)! * 5 / (3! 3!) = 5/6
    assert rep.witness == {"part": "closed_form", "monomial": (0, 3, 3),
                           "difference": Fraction(-5, 6)}


def test_a_nonzero_limit_below_the_anchor_fails_the_antipolynomial_step(
        monkeypatch):
    _tamper_limit(monkeypatch, (0, 1, 1), 2)
    rep = _same(check_skew_polycomponent, reference_skew_polycomponent,
                (2, 1), 3, 6)
    # ff(2 - 3, 3) = -6
    assert rep.witness == {"part": "antipolynomial", "point": (0, 1, 1),
                           "function": -12, "polynomial": 0}


def test_a_changed_limit_between_the_anchor_and_the_top_is_multiplied_by_zero(
        monkeypatch):
    _tamper_limit(monkeypatch, (1, 1, 2), 7)
    assert _same(check_skew_polycomponent, reference_skew_polycomponent,
                 (2, 1), 3, 6).ok


@pytest.mark.parametrize("extra", [
    ((0, 0, 0), 1), ((1, 0, 1), Fraction(1, 2)), ((2, 2, 1), -3),
    ((0, 0, 5), 1), ((6, 0, 0), 2), ((0, 7, 0), 1)])
def test_a_tampered_polynomial_component(monkeypatch, extra):
    real = identity_suite.polynomial_component
    monomial, coeff = extra
    monkeypatch.setattr(identity_suite, "polynomial_component",
                        lambda fn, n: real(fn, n)
                        + MultiPoly.monomial(fn.k, monomial, coeff))
    rep = _same(check_polycomponent, reference_polycomponent, 3, 5)
    assert not rep.ok
    _same(check_skew_polycomponent, reference_skew_polycomponent, (3,), 3, 6)


@pytest.mark.parametrize("extra", [
    ((0, 0), 1), ((1, 0), -2), ((0, 3), 1), ((2, 2), 3), ((5, 0), 1)])
def test_a_tampered_falling_alternant(monkeypatch, extra):
    real = identity_suite.falling_alternant
    monomial, coeff = extra
    monkeypatch.setattr(identity_suite, "falling_alternant",
                        lambda anchor: real(anchor)
                        + MultiPoly.monomial(len(anchor), monomial, coeff))
    for anchor, steps in (((1, 3), 2), ((0, 1), 3), ((3, 1), 1)):
        rep = _same(check_skew_identity, reference_skew, 2, anchor, steps)
        assert not rep.ok
        assert rep.witness["form"] == "falling_factorial"


def test_a_tampered_vandermonde_product(monkeypatch):
    real = identity_suite.power_alternant
    monkeypatch.setattr(identity_suite, "power_alternant",
                        lambda anchor: real(anchor)
                        + MultiPoly.monomial(len(anchor), (1,) * len(anchor)))
    for k, steps in ((2, 2), (3, 1)):
        rep = _same(check_hook_identity, reference_hook, k, steps)
        assert rep.witness["form"] == "falling_factorial"


def test_a_tampered_anchored_weight(monkeypatch):
    real = identity_suite.aitken_weight
    monkeypatch.setattr(identity_suite, "aitken_weight",
                        lambda v, u: real(v, u) + (u == (2, 4)))
    rep = _same(check_skew_identity, reference_skew, 2, (1, 3), 2)
    assert rep.witness == {"form": "falling_factorial", "monomial": (2, 4),
                           "difference": -1}


# -- the witness of a failed value check ----------------------------------------

def _reference_interpolate(k, top, values):
    """The polynomial of total degree <= top with the given values on the
    simplex |c| <= top, a missing point counting as 0, built in full:
    Newton's forward differences, then the falling-factorial expansion of
    each layer with the weights Delta^c P(0) / prod(c_i!)."""
    table = {c: values.get(c, 0) for c in bounded_exponents(k, top)}
    for i in range(k):
        table = {c: sum((-1) ** (c[i] - t) * comb(c[i], t)
                        * table[c[:i] + (t,) + c[i + 1:]]
                        for t in range(c[i] + 1))
                 for c in table}
    return sum((ff_expansion(k, total, lambda c: Fraction(
        table[c], prod(map(factorial, c)))) for total in range(top + 1)),
        MultiPoly.zero(k))


def _random_value_tables(rng):
    """Dense, sparse, single-point and ``Fraction`` tables, and the values
    of polynomials with a few terms, whose differences are sparse too, so
    that the grlex-largest index is often not the lexicographically
    largest."""
    for k in range(1, 5):
        for top in range(7):
            points = list(bounded_exponents(k, top))
            for shape in ("dense", "sparse", "single", "fraction", "terms"):
                if shape == "terms":
                    values = MultiPoly(k, {
                        rng.choice(points): Fraction(rng.randint(1, 9),
                                                     rng.randint(1, 4))
                        for _ in range(3)}).layer_values(range(top + 1))
                    yield k, top, values
                    continue
                if shape == "single":
                    chosen = [rng.choice(points)]
                elif shape == "sparse":
                    chosen = rng.sample(points, min(len(points), 3))
                else:
                    chosen = points
                values = {}
                for c in chosen:
                    values[c] = (Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                 if shape == "fraction"
                                 else rng.randint(-5, 5))
                if not any(values.values()):
                    values[chosen[0]] = 1
                yield k, top, values


def test_the_value_witness_is_the_leading_term_of_the_interpolant():
    rng = random.Random(28)
    tables = list(_random_value_tables(rng))
    assert len(tables) == 4 * 7 * 5
    for k, top, values in tables:
        got = identity_suite._value_witness(k, top, values)
        want = identity_suite._leading(_reference_interpolate(k, top, values))
        assert got == want, (k, top, values)
        assert type(got["difference"]) is type(want["difference"])
