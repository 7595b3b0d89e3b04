import math

import numpy as np
import pytest

from jacobilab import (GradientMode, ModelError, Regime, RegimeMismatchError,
                       ScalarField1D, TheoremPart, base_curvature_oracle,
                       bounds_in_theta_form, constant_profile,
                       half_arctan_profile, parallel_hopf_torus, sampled_profile,
                       solve_surface, submersion_from_theta, surface_regime,
                       theorem_bound)
from conftest import base_regime, ulp_tol

AMB = GradientMode.AMBIENT
INTR = GradientMode.INTRINSIC_ON_SURFACE


def half_arctan_model(window=(0.25, 4.0)):
    return submersion_from_theta(half_arctan_profile(), window=window)


# --- curvature data of the family ----------------------------------------------

def test_curvature_closed_forms_at_one():
    p = half_arctan_profile()
    assert float(p.theta_prime(1.0)) == pytest.approx(0.25, abs=1e-15)
    assert float(p.theta_second(1.0)) == pytest.approx(-0.25, abs=1e-15)
    assert float(p.tau(1.0)) == pytest.approx(-0.25, abs=1e-15)
    # 2 theta = pi/4: cot = 1, kappa = 4/16 + 1/2
    assert float(p.kappa(1.0)) == pytest.approx(0.75, abs=1e-14)


def test_regime_split_of_the_two_profiles():
    assert base_regime(half_arctan_model()) is Regime.POSITIVE
    shifted = submersion_from_theta(half_arctan_profile(offset=math.pi / 4),
                                    window=(0.25, 4.0))
    assert base_regime(shifted) is Regime.NEGATIVE


def test_constant_profile_is_flat_null():
    m = submersion_from_theta(constant_profile(math.pi / 6), window=(0.0, 1.0))
    assert np.all(m.tau_field.samples == 0.0)
    assert np.all(m.kappa_field.samples == 0.0)
    assert base_regime(m) is Regime.NULL


def test_kappa_identity_relative():
    # kappa - 4 tau^2 == -2 cot(2 theta) theta'' at 1e-10 relative accuracy
    p = half_arctan_profile()
    x = np.linspace(0.3, 3.5, 41)
    kappa = np.asarray(p.kappa(x))
    tau = np.asarray(p.tau(x))
    th = 0.5 * np.arctan(x)
    rhs = -2.0 * (np.cos(2 * th) / np.sin(2 * th)) * np.asarray(p.theta_second(x))
    lhs = kappa - 4.0 * tau**2
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10


def test_derivatives_match_finite_differences():
    p = half_arctan_profile()
    x = np.linspace(0.3, 3.0, 28)
    h = 1e-3
    d1 = (np.asarray(p.theta(x + h)) - np.asarray(p.theta(x - h))) / (2 * h)
    d1r = (4 * d1 - (np.asarray(p.theta(x + 2 * h)) - np.asarray(p.theta(x - 2 * h))) / (4 * h)) / 3
    assert np.max(np.abs(d1r - np.asarray(p.theta_prime(x)))) < 1e-6
    d2 = (np.asarray(p.theta(x + h)) - 2 * np.asarray(p.theta(x)) + np.asarray(p.theta(x - h))) / h**2
    assert np.max(np.abs(d2 - np.asarray(p.theta_second(x)))) < 1e-6


def test_base_curvature_oracle():
    p = half_arctan_profile()
    assert base_curvature_oracle(p, 1.0) == pytest.approx(0.75, abs=1e-6)
    assert base_curvature_oracle(constant_profile(0.7), 0.0) == pytest.approx(0.0, abs=1e-8)
    sweep = np.linspace(0.5, 3.0, 26)
    worst = max(abs(base_curvature_oracle(p, float(x)) - float(p.kappa(x))) for x in sweep)
    assert worst < 1e-5


def test_oracle_margin_validation():
    p = half_arctan_profile()
    with pytest.raises(ModelError):
        base_curvature_oracle(p, 1e-5)  # closer to the end than 2 h = 2e-4


# --- parallels and their tori ------------------------------------------------------

def test_parallel_torus_at_one():
    model = half_arctan_model()
    t = parallel_hopf_torus(model, 1.0)
    assert t.curve_length == pytest.approx(math.pi * math.sqrt(2) / 2, rel=1e-14)
    assert t.mean_curvature == pytest.approx(0.25, abs=1e-14)
    assert t.fiber_length == pytest.approx(2 * math.pi)
    assert surface_regime(t) is Regime.POSITIVE
    lam = solve_surface(t).lambda1
    assert lam == pytest.approx(-1.0, abs=1e-8)


def test_parallel_torus_constant_profile_is_minimal():
    m = submersion_from_theta(constant_profile(math.pi / 4), window=(0.0, 1.0))
    t = parallel_hopf_torus(m, 0.5)
    assert t.mean_curvature == 0.0
    assert solve_surface(t).lambda1 == pytest.approx(0.0, abs=1e-10)


def test_parallel_validation():
    model = half_arctan_model()
    with pytest.raises(ModelError):
        parallel_hopf_torus(model, -1.0)
    from jacobilab import homogeneous_model
    with pytest.raises(ModelError):
        parallel_hopf_torus(homogeneous_model(1.0, 0.0, 1.0), 1.0)


# --- bounds in theta form ------------------------------------------------------------

def test_theta_form_values_at_one():
    model = half_arctan_model()
    t = parallel_hopf_torus(model, 1.0)
    b_i, b_ii = bounds_in_theta_form(model, t)
    assert b_i == pytest.approx(0.0, abs=1e-14)
    assert b_ii == pytest.approx(-0.75, abs=1e-14)


def test_theta_form_matches_ambient_bounds_across_parallels():
    model = half_arctan_model()
    for u in np.linspace(0.5, 3.0, 26):
        t = parallel_hopf_torus(model, float(u))
        b_i, b_ii = bounds_in_theta_form(model, t)
        g_i = theorem_bound(t, TheoremPart.PLUS_I, AMB)
        g_ii = theorem_bound(t, TheoremPart.PLUS_II, AMB)
        scale = 2 * t.mean_curvature**2 + 1.0
        assert abs(b_i - g_i) <= ulp_tol(4, scale)
        assert abs(b_ii - g_ii) <= ulp_tol(4, scale)


def test_ambient_and_intrinsic_disagree_by_theta_second():
    model = half_arctan_model()
    p = half_arctan_profile()
    for u in (0.5, 1.0, 2.0):
        t = parallel_hopf_torus(model, u)
        lam = solve_surface(t).lambda1
        b_intr = theorem_bound(t, TheoremPart.PLUS_II, INTR)
        b_amb = theorem_bound(t, TheoremPart.PLUS_II, AMB)
        assert abs(b_intr - lam) < 1e-8
        assert b_amb - b_intr == pytest.approx(abs(float(p.theta_second(u))), abs=1e-8)
        assert lam < b_amb - 1e-6  # strictly below the ambient bound


def test_theta_form_hypothesis_guard():
    shifted = submersion_from_theta(half_arctan_profile(offset=math.pi / 4),
                                    window=(0.25, 4.0))
    t = parallel_hopf_torus(shifted, 1.0)
    with pytest.raises(RegimeMismatchError):
        bounds_in_theta_form(shifted, t)


def test_profile_validation():
    with pytest.raises(ModelError):
        constant_profile(0.0)
    with pytest.raises(ModelError):
        submersion_from_theta(half_arctan_profile(), window=(0.0, 1.0))  # theta -> 0
    with pytest.raises(ModelError):
        submersion_from_theta(half_arctan_profile())  # unbounded interval


def test_sampled_profile_tracks_closed_form():
    exact = half_arctan_profile()
    grid_field = ScalarField1D.on_interval(0.5 * np.arctan(np.linspace(0.25, 4.0, 2001)),
                                           (0.25, 4.0))
    approx = sampled_profile(grid_field)
    model = submersion_from_theta(approx, window=(0.5, 3.0), n=129)
    assert base_regime(model) is Regime.POSITIVE
    for u in (0.8, 1.5, 2.5):
        # linear interpolation on h ~ 2e-3 carries O(h^2) error
        assert float(np.asarray(approx.theta(u))) == pytest.approx(
            float(np.asarray(exact.theta(u))), abs=1e-6)
        assert float(np.asarray(approx.theta_prime(u))) == pytest.approx(
            float(np.asarray(exact.theta_prime(u))), abs=1e-5)
        assert float(np.asarray(approx.theta_second(u))) == pytest.approx(
            float(np.asarray(exact.theta_second(u))), abs=1e-3)
