"""End-to-end identity checks, seeded sweeps, negative controls."""

import pytest

from tableaux import formulas, identity_suite
from tableaux.identity_suite import (DEFAULT_SKEW_ANCHORS, SWEEP_ANCHORS,
                                     check_counts_from_base,
                                     check_hook_identity, check_multinomial,
                                     check_polycomponent,
                                     check_series_construction,
                                     check_skew_identity, check_skew_pairs,
                                     check_skew_polycomponent,
                                     check_vandermonde, default_sweep,
                                     negative_controls)
from tableaux.formulas import strict_skew_path_series
from tableaux.laurent import polynomial_component
from tableaux.multipoly import MultiPoly


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_vandermonde_passes(k, n):
    rep = check_vandermonde(k, n)
    assert rep.ok
    assert rep.identity == "vandermonde_convolution"


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2)])
def test_multinomial_passes(k, n):
    assert check_multinomial(k, n).ok


@pytest.mark.parametrize("k,steps", [(1, 3), (2, 2), (3, 2)])
def test_hook_identity_passes(k, steps):
    assert check_hook_identity(k, steps).ok


def test_skew_identity_passes_with_each_anchor():
    for k, anchors in SWEEP_ANCHORS.items():
        for anchor in anchors:
            for steps in (0, 1, 2):
                rep = check_skew_identity(k, anchor, steps)
                assert rep.ok, (anchor, steps, rep.witness)
                assert rep.params["anchor"] == anchor


@pytest.mark.parametrize("k,n", [(2, 0), (2, 2), (3, 1), (3, 3)])
def test_polycomponent_passes(k, n):
    rep = check_polycomponent(k, n)
    assert rep.ok, rep.witness


def test_skew_polycomponent_passes():
    for sigma in DEFAULT_SKEW_ANCHORS:
        k = max(len(sigma), 2)
        m = sum(sigma)
        for n in range(m, m + 2):
            rep = check_skew_polycomponent(sigma, k, n)
            assert rep.ok, (sigma, n, rep.witness)


def test_perturbed_identities_fail():
    assert not check_vandermonde(2, 2, perturb=True).ok
    assert not check_multinomial(2, 2, perturb=True).ok
    assert not check_hook_identity(2, 2, perturb=True).ok
    assert not check_skew_identity(2, (0, 2), 1, perturb=True).ok
    assert not check_polycomponent(2, 1, perturb=True).ok
    assert not check_skew_polycomponent((1,), 2, 2, perturb=True).ok


def test_antipolynomial_check_is_sharp(monkeypatch):
    # the perturbed controls fail the closed-form comparison first, so here
    # both the expansion and the closed form return the same wrong part
    part = polynomial_component(strict_skew_path_series((0, 0, 0), 1), 1)
    wrong = part + MultiPoly.one(3)
    monkeypatch.setattr(identity_suite, "polynomial_component",
                        lambda fn, n: wrong)
    monkeypatch.setattr(identity_suite, "ff_expansion",
                        lambda k, n, weight: wrong)
    rep = check_polycomponent(3, 1)
    assert not rep.ok
    assert rep.witness["part"] == "antipolynomial"
    # the true part x1 - x2 + x3 and the series vanish at the origin, the
    # first point of the simplex, where the planted constant does not
    assert rep.witness["point"] == (0, 0, 0)
    assert (rep.witness["function"], rep.witness["polynomial"]) == (0, 1)
    monkeypatch.setattr(identity_suite, "ff_expansion",
                        lambda k, n, weight: part)
    monkeypatch.setattr(identity_suite, "polynomial_component",
                        lambda fn, n: part)
    assert check_polycomponent(3, 1).ok


def test_anchored_weight_with_a_remainder_raises(monkeypatch):
    # at anchor (0, 1) and composition (0, 2) the alternant is 2; one more
    # gives 1!/(0! 2!) * 3, which is no integer
    real = formulas.falling_alternant_at
    monkeypatch.setattr(formulas, "falling_alternant_at",
                        lambda anchor, comp: real(anchor, comp) + 1)
    with pytest.raises(ArithmeticError, match="non-integer count 3/2"):
        check_skew_identity(2, (0, 1), 1)
    with pytest.raises(ArithmeticError, match="non-integer count 3/2"):
        check_hook_identity(2, 1)


@pytest.mark.parametrize("check,args,points", [
    (check_polycomponent, (3, 6), 84),
    (check_skew_polycomponent, ((3, 1), 3, 7), 120),
])
def test_each_polycomponent_limit_is_computed_once(monkeypatch, check, args,
                                                   points):
    # the closed form needs the top layer's limits and the antipolynomial
    # step every simplex point's, top layer included
    seen = []
    real = identity_suite.skew_weight_limit

    def spy(sigma, point):
        seen.append(point)
        return real(sigma, point)

    monkeypatch.setattr(identity_suite, "skew_weight_limit", spy)
    assert check(*args).ok
    assert len(seen) == len(set(seen)) == points


def test_failure_reports_carry_a_witness():
    rep = check_vandermonde(2, 2, perturb=True)
    assert rep.witness is not None
    assert "monomial" in rep.witness


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_counts_from_base(kind):
    rep = check_counts_from_base(kind, 3, 5)
    assert rep.ok, rep.witness
    assert rep.params["graph"] == kind


def test_counts_from_base_checks_the_strict_product(monkeypatch):
    real = identity_suite.strict_count
    monkeypatch.setattr(identity_suite, "strict_count",
                        lambda rows: real(rows) + 1)
    rep = check_counts_from_base("strict", 3, 4)
    assert not rep.ok
    assert rep.witness["ratio_product"] == rep.witness["dp"] + 1


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_skew_pairs_seeded(kind):
    rep = check_skew_pairs(kind, 3, 8, pairs=25, seed=7)
    assert rep.ok, rep.witness
    assert rep.seed == 7


def test_skew_pairs_are_reproducible():
    a = check_skew_pairs("young", 2, 8, pairs=10, seed=3)
    b = check_skew_pairs("young", 2, 8, pairs=10, seed=3)
    assert a.params == b.params


@pytest.mark.parametrize("kind", ["pascal", "young", "strict"])
def test_series_construction(kind):
    rep = check_series_construction(kind, 2, 4)
    assert rep.ok, rep.witness


def test_negative_controls_all_catch():
    reports = negative_controls()
    assert len(reports) >= 6
    for rep in reports:
        assert rep.ok, rep.identity
        assert rep.identity.endswith("_control")


def test_default_sweep_is_green():
    reports = default_sweep()
    assert len(reports) == 141
    bad = [r for r in reports if not r.ok]
    assert bad == []
    names = {r.identity for r in reports}
    assert {"vandermonde_convolution", "multinomial_expansion",
            "hook_expansion", "anchored_hook_expansion",
            "polynomial_component", "skew_polynomial_component",
            "pfaffian_product", "counts_from_base",
            "series_construction"} <= names
