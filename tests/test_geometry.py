import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobilab import (CurvatureData, Regime, classify_regime,
                       combined_integrand, ricci_normal, sectional_curvature)
from conftest import ulp_tol

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def data(kappa, tau, nu, x_tau):
    return CurvatureData(kappa=kappa, tau=tau, nu=nu, x_tau=x_tau)


# --- worked values -----------------------------------------------------------

def test_sectional_values():
    assert sectional_curvature(data(4, 0.5, 0, 0)) == pytest.approx(0.25, abs=1e-15)
    assert sectional_curvature(data(4, 0.5, 1, 0)) == pytest.approx(3.25, abs=1e-15)
    # 1 + 0.36*(-3) - 2*0.6*0.8*0.5
    assert sectional_curvature(data(1, 1, 0.6, 0.5)) == pytest.approx(-0.56, abs=1e-15)


def test_ricci_values():
    assert ricci_normal(data(4, 0.5, 0, 0)) == pytest.approx(3.5, abs=1e-15)
    assert ricci_normal(data(4, 0.5, 1, 0)) == pytest.approx(0.5, abs=1e-15)
    # 1 - 2 - 0.36*(-3) + 2*0.6*0.8*0.5
    assert ricci_normal(data(1, 1, 0.6, 0.5)) == pytest.approx(0.56, abs=1e-15)


def test_combined_values():
    assert combined_integrand(data(4, 0.5, 0, 0)) == pytest.approx(4.0, abs=1e-15)
    assert combined_integrand(data(1, 1, 0.6, 0.5)) == pytest.approx(-0.56, abs=1e-15)


def test_rejects_bad_nu_and_nonfinite():
    with pytest.raises(ValueError):
        data(1, 1, 1.0001, 0)
    with pytest.raises(ValueError):
        data(np.inf, 1, 0, 0)
    with pytest.raises(ValueError):
        data(1, np.nan, 0, 0)


def test_array_inputs_broadcast():
    d = data(np.array([4.0, 1.0]), np.array([0.5, 1.0]), np.array([0.0, 0.6]),
             np.array([0.0, 0.5]))
    np.testing.assert_allclose(sectional_curvature(d), [0.25, -0.56], atol=1e-15)


# --- algebraic properties -----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(finite, finite, angles, finite)
def test_identity_two_sectional_plus_ricci(kappa, tau, nu, x_tau):
    d = data(kappa, tau, nu, x_tau)
    lhs = 2.0 * sectional_curvature(d) + ricci_normal(d)
    rhs = combined_integrand(d)
    scale = abs(kappa) + 4 * tau * tau + abs(kappa - 4 * tau * tau) + 2 * abs(x_tau) + 1e-30
    assert abs(lhs - rhs) <= ulp_tol(8, scale)


@settings(max_examples=200, deadline=None)
@given(finite, finite, angles, finite)
def test_nu_symmetry_is_exact(kappa, tau, nu, x_tau):
    d = data(kappa, tau, nu, x_tau)
    flipped = data(kappa, tau, -nu, -x_tau)
    assert sectional_curvature(d) == sectional_curvature(flipped)
    assert ricci_normal(d) == ricci_normal(flipped)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite)
def test_nu_zero_collapse_exact(kappa, tau, x_tau):
    d = data(kappa, tau, 0.0, x_tau)
    assert sectional_curvature(d) == tau * tau
    assert ricci_normal(d) == kappa - 2.0 * (tau * tau)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, st.sampled_from([-1.0, 1.0]))
def test_nu_one_collapse(kappa, tau, x_tau, nu):
    d = data(kappa, tau, nu, x_tau)
    scale = abs(kappa) + 4 * tau * tau + 1e-30
    assert abs(sectional_curvature(d) - (kappa - 3 * tau * tau)) <= ulp_tol(8, scale)
    assert abs(ricci_normal(d) - 2 * tau * tau) <= ulp_tol(8, scale)


@settings(max_examples=300, deadline=None)
@given(finite, finite, angles, finite)
def test_sectional_matches_unsimplified_frame_formula(kappa, tau, nu, x_tau):
    """Independent route: evaluate the frame form
    (kappa - 3 tau^2) - <E,xi>^2 (kappa - 4 tau^2) + 2 <E,Y><E,xi> x_tau
    with <E,xi>^2 = 1 - nu^2 and <E,Y><E,xi> = -nu sqrt(1 - nu^2)."""
    w = kappa - 4 * tau * tau
    e_xi_sq = 1.0 - nu * nu
    cross = -nu * np.sqrt(max(0.0, e_xi_sq))
    frame_value = (kappa - 3 * tau * tau) - e_xi_sq * w + 2.0 * cross * x_tau
    direct = sectional_curvature(data(kappa, tau, nu, x_tau))
    scale = abs(kappa) + 4 * tau * tau + abs(w) + 2 * abs(x_tau) + 1e-30
    assert abs(direct - frame_value) <= ulp_tol(16, scale)


# --- regime classification ------------------------------------------------------

def test_regime_constants():
    assert classify_regime([4.0] * 5, [0.5] * 5) is Regime.POSITIVE
    assert classify_regime([0.0] * 5, [1.0] * 5) is Regime.NEGATIVE
    assert classify_regime([4.0] * 5, [1.0] * 5) is Regime.NULL
    assert classify_regime([4.0, -1.0], [0.5, 0.5]) is Regime.MIXED


def test_regime_strictness():
    # one sample inside the tolerance band (4e-12 here) spoils a strict sign
    assert classify_regime([4.0, 1e-14], [0.5, 0.0]) is Regime.MIXED


def test_regime_of_a_stack_is_that_of_each_row():
    kappa = np.array([[4.0] * 3, [0.0] * 3, [4.0] * 3, [4.0, -1.0, 4.0], [4.0, 1e-14, 4.0]])
    tau = np.array([[0.5] * 3, [1.0] * 3, [1.0] * 3, [0.5] * 3, [0.5, 0.0, 0.5]])
    stacked = classify_regime(kappa, tau)
    assert list(stacked) == [classify_regime(k, t) for k, t in zip(kappa, tau)] == [
        Regime.POSITIVE, Regime.NEGATIVE, Regime.NULL, Regime.MIXED, Regime.MIXED]
    assert classify_regime(4.0, 0.5) is Regime.POSITIVE


def test_regime_input_validation():
    with pytest.raises(ValueError):
        classify_regime([], [])
    with pytest.raises(ValueError):
        classify_regime([1.0], [1.0, 2.0])


# --- the coefficient table against the three hand-written formulas -------------

def _oracle_formulas(kappa, tau, nu, x_tau):
    """sectional, ricci and combined as written out before they became rows
    of one table, kept here as the oracle."""
    root = np.sqrt(np.maximum(0.0, 1.0 - np.asarray(nu) ** 2))
    w = kappa - 4.0 * np.square(tau)
    return (np.square(tau) + np.square(nu) * w - 2.0 * nu * root * x_tau,
            kappa - 2.0 * np.square(tau) - np.square(nu) * w + 2.0 * nu * root * x_tau,
            kappa + np.square(nu) * w - 2.0 * nu * root * x_tau)


def test_curvature_table_matches_the_written_formulas():
    rng = np.random.default_rng(7)
    n = 100_000
    kappa, tau, x_tau = (rng.uniform(-10.0, 10.0, n) for _ in range(3))
    nu = rng.uniform(-1.0, 1.0, n)
    # signed zeros and the horizontal and vertical angles, in every column
    special = np.array([0.0, -0.0, 1.0, -1.0])
    kappa[:64], tau[64:128], x_tau[128:192] = np.resize(special, (3, 64))
    nu[:n // 4] = np.resize(special, n // 4)
    d = CurvatureData(kappa=kappa, tau=tau, nu=nu, x_tau=x_tau)
    sectional, ricci, combined = _oracle_formulas(kappa, tau, nu, x_tau)
    assert sectional_curvature(d).tobytes() == sectional.tobytes()
    assert ricci_normal(d).tobytes() == ricci.tobytes()
    # kappa + 0 tau^2 turns kappa = -0.0 into +0.0, so only the values agree
    assert np.array_equal(combined_integrand(d), combined)
