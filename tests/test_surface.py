import ast
import math
from pathlib import Path

import numpy as np
import pytest

import jacobilab

from jacobilab import (GradientMode, ModelError, SampledKappa, ScalarField1D,
                       SurfaceError, gauss_bonnet_check, homogeneous_model,
                       hopf_torus, horizontal_slice, potential_field,
                       product_model, surface_regime, Regime)

TWO_PI = 2 * math.pi


def berger_like():
    return homogeneous_model(4.0, 0.5, TWO_PI)


def test_minimal_hopf_torus_basics():
    t = hopf_torus(berger_like(), TWO_PI, 0.0)
    assert t.mean_curvature == 0.0
    assert t.area == pytest.approx(4 * math.pi**2)
    assert t.genus == 1
    assert gauss_bonnet_check(t) == 0.0


def test_hopf_torus_shape_operator():
    t = hopf_torus(berger_like(), TWO_PI, 1.0)
    assert t.mean_curvature == 0.5
    # q = |A|^2 + Ric(N, N) with |A|^2 = 4 H^2 + 2 tau^2 = 1 + 0.5 and
    # Ric(N, N) = kappa - 2 tau^2 = 3.5
    assert np.all(potential_field(t).samples == pytest.approx(5.0, abs=1e-15))


def test_hopf_torus_requires_compact_fibers():
    m = product_model(ScalarField1D.constant(1.0, TWO_PI), None)
    with pytest.raises(ModelError):
        hopf_torus(m, TWO_PI, 0.0)


def test_hopf_torus_period_mismatch_rejected():
    bad = ScalarField1D.constant(4.0, 1.0, 64)
    with pytest.raises(SurfaceError):
        hopf_torus(berger_like(), TWO_PI, 0.0, kappa_on_curve=bad)


def test_hopf_torus_variable_kappa_needs_field():
    kappa = ScalarField1D.from_function(lambda v: 1 + 0.3 * np.cos(v), TWO_PI)
    m = product_model(kappa, TWO_PI)
    with pytest.raises(SurfaceError):
        hopf_torus(m, TWO_PI, 0.0)
    field = ScalarField1D.from_function(lambda sarr: 1 + 0.3 * np.cos(sarr), TWO_PI)
    t = hopf_torus(m, TWO_PI, 0.0, kappa_on_curve=field,
                   tau_on_curve=ScalarField1D.constant(0.0, TWO_PI))
    assert surface_regime(t) is Regime.POSITIVE


def test_potential_field_constant_case():
    # q = 4 H^2 + kappa, independent of tau
    t = hopf_torus(berger_like(), TWO_PI, 0.0)
    q = potential_field(t)
    assert np.all(q.samples == pytest.approx(4.0, abs=4 * np.spacing(4.0)))
    t2 = hopf_torus(homogeneous_model(4.0, 1.5, TWO_PI), TWO_PI, 0.0)
    assert np.all(potential_field(t2).samples == pytest.approx(4.0, abs=4 * np.spacing(4.0)))


def test_potential_field_variable_kappa():
    kappa = ScalarField1D.from_function(lambda sarr: 1 + 0.3 * np.cos(sarr), TWO_PI)
    m = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    t = hopf_torus(m, TWO_PI, 1.0, kappa_on_curve=kappa,
                   tau_on_curve=ScalarField1D.constant(0.0, TWO_PI))
    q = potential_field(t)
    expect = 1.0 + 1 + 0.3 * np.cos(q.grid)
    assert np.max(np.abs(q.samples - expect)) < 1e-14


def test_slice_gauss_bonnet_validation():
    sphere_product = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    s = horizontal_slice(sphere_product, base_area=4 * math.pi, genus=0)
    assert gauss_bonnet_check(s) < 1e-12
    # genus 2 with kappa = -1 requires area 4 pi; any other area is inconsistent
    hyper = product_model(ScalarField1D.constant(-1.0, TWO_PI), TWO_PI)
    ok = horizontal_slice(hyper, base_area=4 * math.pi, genus=2)
    assert gauss_bonnet_check(ok) < 1e-12
    with pytest.raises(SurfaceError):
        horizontal_slice(hyper, base_area=2 * math.pi, genus=2)


def test_flat_torus_slice_any_area():
    flat = product_model(ScalarField1D.constant(0.0, TWO_PI), TWO_PI)
    s = horizontal_slice(flat, base_area=7.3, genus=1)
    assert gauss_bonnet_check(s) == 0.0
    assert surface_regime(s) is Regime.NULL


def test_slice_rejects_nonzero_tau():
    with pytest.raises(SurfaceError):
        horizontal_slice(berger_like(), base_area=4 * math.pi, genus=0)


def test_sampled_kappa_slice_quadrature():
    # genus-1 base, kappa(v) = 0.4 cos v over a 2 pi parameter, area 2 pi:
    # total curvature integrates to zero = 2 pi chi
    n = 256
    v = np.arange(n) * (TWO_PI / n)
    area = TWO_PI
    weights = np.full(n, area / n)
    kappa = SampledKappa(values=0.4 * np.cos(v), weights=weights)
    flat = product_model(ScalarField1D.constant(0.0, TWO_PI), TWO_PI)
    s = horizontal_slice(flat, base_area=area, genus=1, kappa=kappa)
    assert gauss_bonnet_check(s) < 1e-6
    assert s.mean(s.samples(GradientMode.AMBIENT)[0]) == pytest.approx(0.0, abs=1e-14)


def test_sampled_kappa_weights_must_match_area():
    n = 64
    weights = np.full(n, 1.0)
    kappa = SampledKappa(values=np.zeros(n), weights=weights)
    flat = product_model(ScalarField1D.constant(0.0, TWO_PI), TWO_PI)
    with pytest.raises(SurfaceError):
        horizontal_slice(flat, base_area=5.0, genus=1, kappa=kappa)


def test_grad_tau_modes_on_torus():
    prof_tau = ScalarField1D.from_function(lambda sarr: 0.2 * np.sin(sarr), TWO_PI)
    kappa = ScalarField1D.constant(3.0, TWO_PI)
    from jacobilab import SubmersionModel, ModelKind
    m = SubmersionModel(kind=ModelKind.WARPED, kappa_field=kappa, tau_field=prof_tau,
                        fiber_length=TWO_PI)
    t = hopf_torus(m, TWO_PI, 0.0, kappa_on_curve=kappa, tau_on_curve=prof_tau)
    g = t.grad_tau(GradientMode.INTRINSIC_ON_SURFACE)
    assert np.max(np.abs(g.samples - np.abs(0.2 * np.cos(g.grid)))) < 1e-10
    # ambient defaults to the intrinsic derivative when not supplied
    assert np.all(t.grad_tau(GradientMode.AMBIENT).samples == g.samples)


# --- the surface class is decided in jacobilab.surface only ------------------------------

CLASS_NAMES = {"HopfTorus", "HorizontalSlice", "curve_length"}


def _class_tests(tree):
    """Lines of isinstance/hasattr calls whose arguments name a surface class
    or the torus-only attribute ``curve_length``."""
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "hasattr")):
            named = {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
            named |= {n.attr for arg in node.args for n in ast.walk(arg)
                      if isinstance(n, ast.Attribute)}
            named |= {n.value for arg in node.args for n in ast.walk(arg)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            if named & CLASS_NAMES:
                hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("module", ["bounds", "spectral", "scenario", "verification"])
def test_only_surface_module_dispatches_on_surface_class(module):
    path = Path(jacobilab.__file__).parent / f"{module}.py"
    assert _class_tests(ast.parse(path.read_text())) == []


def test_class_dispatch_detector_sees_both_forms():
    source = ("isinstance(s, HopfTorus)\nisinstance(s, (int, surface.HorizontalSlice))\n"
              "hasattr(s, 'curve_length')\nisinstance(s, dict)\n")
    assert _class_tests(ast.parse(source)) == [1, 2, 3]
