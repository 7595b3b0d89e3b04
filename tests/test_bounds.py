import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jacobilab import (EqualityStatus, GradientMode, HopfTorus, Regime, RegimeMismatchError,
                       SampledKappa, ScalarField1D, TheoremPart, Verdict,
                       alpha_invariant, build_bound_report, corollary_checks,
                       equality_classify, homogeneous_model, hopf_torus,
                       horizontal_slice, product_model, solve, solve_surface,
                       stability_verdict, surface_regime, surface_spectral_problem,
                       theorem_bound)
from jacobilab.bounds import REGIME_PARTS
from jacobilab.scenario import run_scenario

TWO_PI = 2 * math.pi
INTR = GradientMode.INTRINSIC_ON_SURFACE


def torus(kappa, tau, H, L=TWO_PI, ell=TWO_PI):
    return hopf_torus(homogeneous_model(kappa, tau, ell), L, 2 * H)


def sphere_slice():
    m = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    return horizontal_slice(m, base_area=4 * math.pi, genus=0)


def genus2_slice():
    m = product_model(ScalarField1D.constant(-1.0, TWO_PI), TWO_PI)
    return horizontal_slice(m, base_area=4 * math.pi, genus=2)


def test_report_evaluates_through_the_public_functions(monkeypatch):
    import jacobilab.bounds as bounds_mod
    calls = {}
    for name in ("theorem_bound", "equality_classify", "corollary_checks"):
        real = getattr(bounds_mod, name)

        def counted(*args, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(bounds_mod, name, counted)
    t = torus(4.0, 0.5, 0.5)
    build_bound_report(t, solve_surface(t).lambda1)
    # both bounds of the regime under both gradient modes, one corollary pass
    assert calls == {"theorem_bound": 4, "equality_classify": 4, "corollary_checks": 1}


# --- positive regime -------------------------------------------------------------

def test_plus_i_slice_equality():
    s = sphere_slice()
    assert theorem_bound(s, TheoremPart.PLUS_I) == pytest.approx(0.0, abs=1e-15)
    lam = solve_surface(s).lambda1
    eq = equality_classify(s, lam, theorem_bound(s, TheoremPart.PLUS_I), TheoremPart.PLUS_I)
    assert eq.status is EqualityStatus.EQUALITY


def test_plus_i_hopf_strict():
    t = torus(4.0, 0.5, 0.0)
    assert theorem_bound(t, TheoremPart.PLUS_I) == pytest.approx(-0.5, abs=1e-14)
    lam = solve_surface(t).lambda1
    assert lam == pytest.approx(-4.0, abs=1e-10)
    eq = equality_classify(t, lam, theorem_bound(t, TheoremPart.PLUS_I), TheoremPart.PLUS_I)
    assert eq.status is EqualityStatus.NO_EQUALITY


def test_plus_i_hopf_with_mean_curvature():
    t = torus(4.0, 0.5, 1.0)
    assert theorem_bound(t, TheoremPart.PLUS_I) == pytest.approx(-2.5, abs=1e-14)
    assert solve_surface(t).lambda1 == pytest.approx(-8.0, abs=1e-10)


def test_plus_ii_hopf_equality():
    t = torus(4.0, 0.5, 0.0)
    assert theorem_bound(t, TheoremPart.PLUS_II) == pytest.approx(-4.0, abs=1e-14)
    lam = solve_surface(t).lambda1
    eq = equality_classify(t, lam, theorem_bound(t, TheoremPart.PLUS_II), TheoremPart.PLUS_II)
    assert eq.status is EqualityStatus.EQUALITY
    t2 = torus(4.0, 0.5, 0.5)
    assert theorem_bound(t2, TheoremPart.PLUS_II) == pytest.approx(-5.0, abs=1e-14)
    assert solve_surface(t2).lambda1 == pytest.approx(-5.0, abs=1e-10)


def test_plus_ii_slice_strict():
    s = sphere_slice()
    assert theorem_bound(s, TheoremPart.PLUS_II) == pytest.approx(1.0, abs=1e-14)
    lam = solve_surface(s).lambda1
    assert lam == 0.0
    eq = equality_classify(s, lam, theorem_bound(s, TheoremPart.PLUS_II), TheoremPart.PLUS_II)
    assert eq.status is EqualityStatus.NO_EQUALITY


# --- negative regime --------------------------------------------------------------

def test_minus_i_values():
    t = torus(0.0, 1.0, 0.0)
    assert theorem_bound(t, TheoremPart.MINUS_I) == pytest.approx(2.0, abs=1e-14)
    assert solve_surface(t).lambda1 == pytest.approx(0.0, abs=1e-10)
    # equality additionally requires tau = 0 on the surface, impossible here
    eq = equality_classify(t, 0.0, theorem_bound(t, TheoremPart.MINUS_I), TheoremPart.MINUS_I)
    assert eq.status is EqualityStatus.NO_EQUALITY


def test_minus_i_product_minimal_torus_equality():
    t = torus(-1.0, 0.0, 0.0)
    assert theorem_bound(t, TheoremPart.MINUS_I) == pytest.approx(1.0, abs=1e-14)
    lam = solve_surface(t).lambda1
    assert lam == pytest.approx(1.0, abs=1e-10)
    eq = equality_classify(t, lam, theorem_bound(t, TheoremPart.MINUS_I), TheoremPart.MINUS_I)
    assert eq.status is EqualityStatus.EQUALITY


def test_minus_i_cmc_strict():
    t = torus(-1.0, 0.0, 0.5)
    assert theorem_bound(t, TheoremPart.MINUS_I) == pytest.approx(0.5, abs=1e-14)
    assert solve_surface(t).lambda1 == pytest.approx(0.0, abs=1e-10)


def test_minus_ii_genus2_slice_equality():
    s = genus2_slice()
    assert theorem_bound(s, TheoremPart.MINUS_II) == pytest.approx(0.0, abs=1e-14)
    lam = solve_surface(s).lambda1
    eq = equality_classify(s, lam, theorem_bound(s, TheoremPart.MINUS_II), TheoremPart.MINUS_II)
    assert eq.status is EqualityStatus.EQUALITY


def test_minus_ii_hopf_strict():
    t = torus(0.0, 1.0, 0.0)
    assert theorem_bound(t, TheoremPart.MINUS_II) == pytest.approx(4.0, abs=1e-14)
    t2 = torus(-1.0, 0.0, 0.0)
    assert theorem_bound(t2, TheoremPart.MINUS_II) == pytest.approx(2.0, abs=1e-14)
    assert solve_surface(t2).lambda1 == pytest.approx(1.0, abs=1e-10)


# --- regime guards -------------------------------------------------------------------

def test_bounds_refuse_wrong_regime():
    positive = torus(4.0, 0.5, 0.0)
    negative = torus(0.0, 1.0, 0.0)
    null = torus(4.0, 1.0, 0.0)
    with pytest.raises(RegimeMismatchError):
        theorem_bound(positive, TheoremPart.MINUS_I)
    with pytest.raises(RegimeMismatchError):
        theorem_bound(negative, TheoremPart.PLUS_I)
    for part in TheoremPart:
        with pytest.raises(RegimeMismatchError):
            theorem_bound(null, part)


def test_report_refuses_null_regime():
    with pytest.raises(RegimeMismatchError):
        build_bound_report(torus(4.0, 1.0, 0.0), 0.0)


# --- verdicts -----------------------------------------------------------------------

def test_stability_verdicts():
    assert stability_verdict(-4.0) is Verdict.UNSTABLE
    assert stability_verdict(0.0) is Verdict.MARGINAL
    assert stability_verdict(1.0) is Verdict.STRONGLY_STABLE
    assert stability_verdict(5e-9) is Verdict.MARGINAL


# --- equality anomaly flag -------------------------------------------------------------

def test_numeric_equality_without_characterization_is_anomalous():
    t = torus(0.0, 1.0, 0.0)  # negative regime, tau != 0
    bound = theorem_bound(t, TheoremPart.MINUS_I)
    eq = equality_classify(t, bound, bound, TheoremPart.MINUS_I)
    assert eq.numeric_equality and not eq.characterization_holds
    assert eq.status is EqualityStatus.ANOMALY


def test_characterization_without_numeric_equality_is_anomalous():
    t = torus(-1.0, 0.0, 0.0)
    bound = theorem_bound(t, TheoremPart.MINUS_I)
    eq = equality_classify(t, bound - 1.0, bound, TheoremPart.MINUS_I)
    assert not eq.numeric_equality and eq.characterization_holds
    assert eq.status is EqualityStatus.ANOMALY


# --- corollaries ------------------------------------------------------------------------

def test_corollaries_vacuous_for_unstable_torus():
    t = torus(4.0, 0.5, 0.0)
    records = corollary_checks(t, -4.0)
    applicable = [r for r in records if r.applicable]
    assert applicable == []
    assert any(r.name == "thm_plus_cor_i" and r.satisfied is None for r in records)


def test_corollaries_slice_strongly_stable():
    s = sphere_slice()
    records = {r.name: r for r in corollary_checks(s, 0.0)}
    cor_i = records["thm_plus_cor_i"]
    assert cor_i.applicable and cor_i.satisfied
    # equality branch: H = 0 and the right-hand side is 0 for a slice
    assert cor_i.lhs == 0.0 and cor_i.rhs == pytest.approx(0.0, abs=1e-14)
    assert records["thm_plus_cor_const_tau"].satisfied


def test_corollaries_marginal_hopf_area_genus():
    t = torus(0.0, 1.0, 0.0)  # 0 <= kappa < 4 tau^2, |H| <= tau, lambda1 = 0
    records = {r.name: r for r in corollary_checks(t, 0.0)}
    rec = records["area_genus_consequence"]
    assert rec.applicable and rec.satisfied
    assert rec.lhs == pytest.approx(t.area * 1.0)
    assert rec.rhs == 0.0


def test_corollaries_large_h_cannot_be_stable():
    t = torus(0.0, 0.5, 1.0)  # |H| > tau in 0 <= kappa < 4 tau^2
    lam = solve_surface(t).lambda1
    records = {r.name: r for r in corollary_checks(t, lam)}
    rec = records["area_genus_consequence"]
    assert rec.applicable and rec.satisfied  # lambda1 < 0 as forced


def test_constant_tau_specializations():
    # with tau constant: bound_plus_i == -2 (H^2 + tau^2)
    t = torus(4.0, 0.5, 0.7)
    h2 = 0.49
    assert theorem_bound(t, TheoremPart.PLUS_I) == pytest.approx(-2.0 * (h2 + 0.25), abs=1e-13)
    tm = torus(-1.0, 0.3, 0.2)
    records = {r.name: r for r in corollary_checks(tm, solve_surface(tm).lambda1)}
    expect_i = -2.0 * (0.04 - 0.09) - (-1.0)
    assert records["thm_minus_cor_const_tau_i"].rhs == pytest.approx(expect_i, abs=1e-13)
    expect_ii = -4.0 * (0.04 - 0.09) - 0.0 - 2.0 * (-1.0)
    assert records["thm_minus_cor_const_tau_ii"].rhs == pytest.approx(expect_ii, abs=1e-13)
    assert records["thm_minus_cor_const_tau_i"].satisfied
    assert records["thm_minus_cor_const_tau_ii"].satisfied


def varying_tau_torus(kappa_mean):
    """kappa = kappa_mean + 0.3 cos s, tau = 0.2 + 0.1 cos s and H = 0.25 on a
    2 pi x 2 pi torus.  No model that a document builds has a tau that varies
    along a closed curve, so this torus is built directly."""
    return HopfTorus(
        TWO_PI, TWO_PI, 0.25,
        kappa_on_curve=ScalarField1D.from_function(lambda s: kappa_mean + 0.3 * np.cos(s),
                                                   TWO_PI),
        tau_on_curve=ScalarField1D.from_function(lambda s: 0.2 + 0.1 * np.cos(s), TWO_PI))


@pytest.mark.parametrize("kappa_mean, theorem", [(-1.0, "thm_minus"), (2.0, "thm_plus")],
                         ids=["negative", "positive"])
def test_corollaries_with_varying_tau(kappa_mean, theorem):
    t = varying_tau_torus(kappa_mean)
    lam = solve_surface(t).lambda1
    records = corollary_checks(t, lam, GradientMode.AMBIENT)
    # a varying tau emits no constant-tau specialization and no area-genus record
    assert [r.name for r in records] == [f"{theorem}_cor_i", f"{theorem}_cor_ii"]
    s = t.tau_on_curve.grid
    kappa = kappa_mean + 0.3 * np.cos(s)
    tau = 0.2 + 0.1 * np.cos(s)
    grad = 0.1 * np.abs(np.sin(s))
    # the bound at lambda1 = 0 solved for H^2; genus 1 has no genus term
    if theorem == "thm_plus":
        rhs = [np.mean(grad / 2 - tau**2), np.mean(grad - kappa) / 4]
    else:
        rhs = [np.mean(2 * tau**2 + grad - kappa) / 2,
               np.mean(4 * tau**2 + grad - 2 * kappa) / 4]
    for record, expected in zip(records, rhs):
        assert record.lhs == 0.0625
        assert record.rhs == pytest.approx(expected, abs=1e-14)
        assert record.applicable is (lam >= 0.0)
    report = build_bound_report(t, lam, GradientMode.AMBIENT)
    assert report.corollaries == records
    assert report.violations == []


# --- consolidated report -----------------------------------------------------------------

def test_report_round_trip():
    t = torus(4.0, 0.5, 0.0)
    lam = solve_surface(t).lambda1
    rep = build_bound_report(t, lam)
    assert rep.stability is Verdict.UNSTABLE
    assert rep.violations == []
    d = rep.to_dict()
    assert d["regime"] == "positive"
    assert d["bounds"]["intrinsic_on_surface"]["equality_ii"]["status"] == "equality"
    assert d["lambda1"] == pytest.approx(-4.0, abs=1e-10)


def test_report_flags_violation():
    t = torus(4.0, 0.5, 0.0)
    rep = build_bound_report(t, lambda1=10.0)  # deliberately impossible value
    assert rep.violations


# --- weighted slices: kappa given at quadrature nodes with their weights ----------------

def weighted_slice(sign, genus):
    """Slice with kappa = sign (6/7)(1 + cos^2(phi)/2) at 64 Gauss nodes in the
    polar angle phi of a round base of area 4 pi.  The area mean E[kappa] is
    sign, so Gauss-Bonnet holds; the plain mean of the nodes is about 7 %
    larger, so only the weights give the right value."""
    nodes, glw = np.polynomial.legendre.leggauss(64)
    phi = 0.5 * math.pi * (nodes + 1.0)
    weights = glw * (math.pi / 2) * (TWO_PI * np.sin(phi))
    values = sign * (6.0 / 7.0) * (1.0 + 0.5 * np.cos(phi) ** 2)
    model = product_model(ScalarField1D.constant(sign, TWO_PI), TWO_PI)
    s = horizontal_slice(model, base_area=float(np.sum(weights)), genus=genus,
                         kappa=SampledKappa(values, weights))
    return s, values, weights


@pytest.mark.parametrize("sign, genus", [(1.0, 0), (-1.0, 2)])
def test_weighted_slice_bounds_and_corollaries(sign, genus):
    s, values, weights = weighted_slice(sign, genus)
    e_kappa = float(values @ weights) / s.area
    assert abs(e_kappa - float(np.mean(values))) > 0.05
    genus_term = 8.0 * math.pi * (genus - 1) / s.area
    regime = Regime.POSITIVE if sign > 0 else Regime.NEGATIVE
    assert surface_regime(s) is regime
    expected_bound = {TheoremPart.PLUS_I: 0.0,
                      TheoremPart.PLUS_II: -genus_term - e_kappa,
                      TheoremPart.MINUS_I: -e_kappa,
                      TheoremPart.MINUS_II: -genus_term - 2.0 * e_kappa}
    for part in REGIME_PARTS[regime]:
        for mode in GradientMode:
            assert theorem_bound(s, part, mode) == pytest.approx(
                expected_bound[part], rel=1e-14, abs=1e-15)
    if regime is Regime.POSITIVE:
        expected_rhs = {"thm_plus_cor_i": 0.0,
                        "thm_plus_cor_ii": -genus_term / 4.0 - e_kappa / 4.0}
    else:
        expected_rhs = {"thm_minus_cor_i": -e_kappa / 2.0,
                        "thm_minus_cor_ii": -genus_term / 4.0 - e_kappa / 2.0,
                        "thm_minus_cor_const_tau_i": -e_kappa,
                        "thm_minus_cor_const_tau_ii": -genus_term - 2.0 * e_kappa}
    records = {r.name: r for r in corollary_checks(s, 0.0)}
    for name, rhs in expected_rhs.items():
        assert records[name].rhs == pytest.approx(rhs, rel=1e-14, abs=1e-15)
        assert records[name].satisfied


def test_weighted_slice_scenario():
    s, values, weights = weighted_slice(1.0, 0)
    doc = {"version": 1, "name": "weighted_sphere",
           "model": {"kind": "product", "fiber_length": TWO_PI, "kappa": {"constant": 1.0}},
           "surface": {"type": "horizontal_slice", "base_area": s.area, "genus": 0,
                       "kappa": {"values": values.tolist(), "weights": weights.tolist()}}}
    outcome = run_scenario(doc)
    report = outcome.report
    assert outcome.exit_code == 0 and report["anomalies"] == []
    e_kappa = float(values @ weights) / s.area
    for mode in ("intrinsic_on_surface", "ambient"):
        bounds = report["bounds"]["bounds"][mode]
        assert bounds["bound_i"] == pytest.approx(0.0, abs=1e-15)
        assert bounds["bound_ii"] == pytest.approx(8.0 * math.pi / s.area - e_kappa,
                                                   rel=1e-14)
    assert report["identities"]["alpha"] == 0.0
    assert report["identities"]["gauss_bonnet_residual"] < 1e-12


# --- bound (ii) on non-constant kappa, close to its boundary -------------------------------
#
# Product Hopf tori with tau = 0 and kappa = c + three harmonics.  By the alpha
# identity lambda1 = -(alpha + integral of q)/area, bound (ii) - lambda1 equals
# alpha/area in the positive regime and alpha/area - E[kappa] in the negative one.
# Errors relative to max(1, |bound|, |lambda1|), measured over uniform draws of
# the strategy below and over the corners of its box (L = 2 or 10, |c| = 4 or
# 0.2, all of the amplitude in the third harmonic, H = 0 or +-1.5):
#   fourier (K = 64): 2.4e-15 over 4,000 draws, 3.3e-14 at the corners;
#   fd (N = 2048, the production grid, Richardson): 7.9e-7 over 1,600 draws,
#   2.3e-6 at the corners (L = 10, c = 4, H = 0).  The fd error is the h^2
#   error of alpha on the fd ground state; at N = 512 it was 3.6e-5.
# The smallest positive-regime gap seen was 1.8e-12, far above the fourier
# error, so the fourier bound is checked to be strict; the fd gap can round to
# either side of 0 there.
FOURIER_GAP_RTOL = 2e-13
FD_GAP_RTOL = 1e-5
FD_GRID = 2048


@st.composite
def band_limited_tori(draw, sign):
    L = draw(st.floats(2.0, 10.0))
    c = sign * draw(st.floats(0.2, 4.0))
    coef = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)))
    assume(np.sum(np.abs(coef)) >= 0.1)
    # the amplitudes sum to at most 0.9 |c|, so kappa keeps the sign of c
    coef *= 0.9 * 10.0 ** draw(st.floats(-4.0, 0.0)) * abs(c) / np.sum(np.abs(coef))

    def kappa_fn(s):
        out = np.full_like(s, c)
        for j in range(3):
            arg = TWO_PI * (j + 1) * s / L
            out += coef[j] * np.cos(arg) + coef[3 + j] * np.sin(arg)
        return out

    model = product_model(ScalarField1D.from_function(kappa_fn, L, 256),
                          draw(st.floats(1.0, 10.0)))
    return hopf_torus(model, L, 2.0 * draw(st.floats(-1.5, 1.5)), n=256)


def _gap_and_identity(torus, result):
    regime = surface_regime(torus)
    bound = theorem_bound(torus, REGIME_PARTS[regime][1])
    identity = alpha_invariant(result.ground_state, torus.area) / torus.area
    if regime is Regime.NEGATIVE:
        identity -= torus.mean(torus.kappa_on_curve.samples)
    scale = max(1.0, abs(bound), abs(result.lambda1))
    return bound - result.lambda1, identity, scale


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_bound_ii_gap_is_the_alpha_identity_fourier(sign, data):
    torus = data.draw(band_limited_tori(sign))
    gap, identity, scale = _gap_and_identity(torus, solve_surface(torus, m=1))
    assert abs(gap - identity) <= FOURIER_GAP_RTOL * scale
    assert gap > 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_bound_ii_gap_is_the_alpha_identity_fd(sign, data):
    torus = data.draw(band_limited_tori(sign))
    result = solve(surface_spectral_problem(torus, truncation=FD_GRID, conv_tol=1e-2), m=1,
                   backend="fd", richardson=True)
    gap, identity, scale = _gap_and_identity(torus, result)
    assert abs(gap - identity) <= FD_GAP_RTOL * scale
