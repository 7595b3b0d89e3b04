import math

import numpy as np
import pytest

from jacobilab import (GradientMode, ModelError, ModelKind, Regime,
                       ScalarField1D, half_arctan_profile, homogeneous_model,
                       hopf_torus, parallel_hopf_torus, product_model,
                       submersion_from_theta)
from conftest import base_regime


def test_homogeneous_model_regimes():
    assert base_regime(homogeneous_model(4.0, 0.5, 2 * math.pi)) is Regime.POSITIVE
    assert base_regime(homogeneous_model(0.0, 1.0, 2 * math.pi)) is Regime.NEGATIVE
    assert base_regime(homogeneous_model(4.0, 1.0, 2 * math.pi)) is Regime.NULL


def test_homogeneous_model_rejects_bad_fiber():
    with pytest.raises(ModelError):
        homogeneous_model(1.0, 0.0, 0.0)
    with pytest.raises(ModelError):
        homogeneous_model(1.0, 0.0, -2.0)


def test_product_model_has_zero_tau():
    kappa = ScalarField1D.from_function(lambda v: 1 + 0.3 * np.cos(v), 2 * np.pi)
    m = product_model(kappa, 2 * math.pi)
    assert m.kind is ModelKind.PRODUCT
    assert np.all(m.tau_field.samples == 0.0)
    assert m.kappa_field.same_grid(m.tau_field)


def test_product_model_noncompact_fiber():
    kappa = ScalarField1D.constant(-1.0, 2 * math.pi)
    m = product_model(kappa, None)
    assert not m.has_compact_fibers


def test_product_model_regimes():
    sphere = product_model(ScalarField1D.constant(1.0, 2 * math.pi), 2 * math.pi)
    hyperbolic = product_model(ScalarField1D.constant(-1.0, 2 * math.pi), 2 * math.pi)
    assert base_regime(sphere) is Regime.POSITIVE
    assert base_regime(hyperbolic) is Regime.NEGATIVE


def test_gradient_norm_constant_field_vanishes():
    t = hopf_torus(homogeneous_model(4.0, 0.5, 2 * math.pi), 2 * math.pi, 0.0)
    for mode in GradientMode:
        assert np.max(np.abs(t.grad_tau(mode).samples)) < 1e-10


def test_gradient_norm_spectral_accuracy():
    # tau(v) = sin v on a circle should differentiate to |cos v| at spectral accuracy
    tau = ScalarField1D.from_function(np.sin, 2 * np.pi, 256)
    g = tau.derivative().map(np.abs)
    assert np.max(np.abs(g.samples - np.abs(np.cos(tau.grid)))) < 1e-8


def test_gradient_norm_warped_modes():
    # grid of (0.5, 1.5) with 257 points contains x = 1 exactly
    model = submersion_from_theta(half_arctan_profile(), window=(0.5, 1.5), n=257)
    ambient = model.tau_field.derivative().map(np.abs)
    # tau = -theta', so |d tau/dx| = |theta''| = x / (1+x^2)^2
    x = model.tau_field.grid
    expect = np.abs(x / (1 + x**2) ** 2)
    interior = slice(4, -4)
    assert np.max(np.abs(ambient.samples[interior] - expect[interior])) < 1e-6
    i = np.argmin(np.abs(x - 1.0))
    assert x[i] == pytest.approx(1.0, abs=1e-12)
    assert ambient.samples[i] == pytest.approx(0.25, abs=1e-6)
    # tau is constant along the parallel torus: its intrinsic reading vanishes
    torus = parallel_hopf_torus(model, float(x[i]))
    assert np.all(torus.grad_tau(GradientMode.INTRINSIC_ON_SURFACE).samples == 0.0)


def test_model_fields_share_grid():
    m = submersion_from_theta(half_arctan_profile(), window=(0.5, 2.0))
    assert m.kappa_field.same_grid(m.tau_field)
