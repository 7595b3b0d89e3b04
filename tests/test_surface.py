import ast
import dataclasses
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import jacobilab

from jacobilab import (GradientMode, HopfTorus, ModelError, SampledKappa, ScalarField1D,
                       SurfaceError, gauss_bonnet_check, homogeneous_model,
                       hopf_torus, horizontal_slice, potential_field,
                       product_model, surface_regime, Regime)
from jacobilab.surface import out_of_range
from jacobilab.warped import half_arctan_profile, parallel_hopf_torus, submersion_from_theta

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


def berger_curve(**fields):
    """Keyword arguments of a HopfTorus with the Berger torus's curve fields,
    64 samples on a 2 pi curve, with ``fields`` replacing some of them."""
    return {"curve_length": TWO_PI, "fiber_length": TWO_PI, "mean_curvature": 0.0,
            "kappa_on_curve": ScalarField1D.constant(4.0, TWO_PI, 64),
            "tau_on_curve": ScalarField1D.constant(0.5, TWO_PI, 64), **fields}


def test_hopf_torus_period_mismatch_rejected():
    bad = ScalarField1D.constant(4.0, 1.0, 64)
    with pytest.raises(SurfaceError):
        HopfTorus(**berger_curve(kappa_on_curve=bad))


@pytest.mark.parametrize("curve_fields", [
    {"tau_on_curve": ScalarField1D.constant(0.5, 1.0, 64)},
    {"kappa_on_curve": ScalarField1D.constant(4.0, TWO_PI, 128)},
    {"tau_on_curve": ScalarField1D.on_interval(np.full(64, 0.5), (0.0, TWO_PI))},
], ids=["tau_period", "grid_mismatch", "tau_on_interval"])
def test_hopf_torus_curve_fields_rejected(curve_fields):
    with pytest.raises(SurfaceError):
        HopfTorus(**berger_curve(**curve_fields))


def test_hopf_torus_variable_kappa_needs_field():
    # a varying model kappa is carried onto the curve only along its period
    kappa = ScalarField1D.from_function(lambda v: 1 + 0.3 * np.cos(v), TWO_PI)
    m = product_model(kappa, TWO_PI)
    with pytest.raises(SurfaceError):
        hopf_torus(m, 3.0, 0.0)
    t = hopf_torus(m, TWO_PI, 0.0)
    assert t.kappa_on_curve is kappa
    assert surface_regime(t) is Regime.POSITIVE


def test_hopf_torus_resamples_a_varying_kappa_only_without_loss():
    kappa = ScalarField1D.from_function(lambda v: 1 + 0.3 * np.cos(v) + 0.1 * np.sin(20 * v),
                                        TWO_PI, 2048)
    m = product_model(kappa, TWO_PI)
    t = hopf_torus(m, TWO_PI, 0.0, n=64)
    s = t.kappa_on_curve.grid
    np.testing.assert_allclose(t.kappa_on_curve.samples,
                               1 + 0.3 * np.cos(s) + 0.1 * np.sin(20 * s), rtol=0, atol=1e-13)
    # 40 samples alias harmonic 20: resampling would drop it
    with pytest.raises(SurfaceError, match="^40 samples cannot carry every harmonic of "
                                           "the model kappa, which has 2048 samples"):
        hopf_torus(m, TWO_PI, 0.0, n=40)


def test_model_constant_messages_name_the_missing_data():
    varying = product_model(ScalarField1D.from_function(lambda v: 1 + 0.3 * np.cos(v), TWO_PI),
                            TWO_PI)
    with pytest.raises(SurfaceError, match="^the model kappa varies, so curve_length must "
                                           "equal its period: got curve_length 3.0, period "
                                           f"{TWO_PI}$"):
        hopf_torus(varying, 3.0, 0.0)
    with pytest.raises(SurfaceError, match="^kappa descriptor is required when the model "
                                           "kappa varies$"):
        horizontal_slice(varying, 4 * math.pi, 0)
    warped = submersion_from_theta(half_arctan_profile(), window=(0.25, 4.0))
    with pytest.raises(SurfaceError, match="^the model kappa varies, so curve_length must "
                                           "equal its period: got curve_length "
                                           f"{TWO_PI}, period None$"):
        hopf_torus(warped, TWO_PI, 0.0)
    with pytest.raises(SurfaceError, match="^the model tau varies, so curve_length must "
                                           "equal its period: got curve_length 3.0, period "
                                           f"{TWO_PI}$"):
        hopf_torus(varying_tau_model(), 3.0, 0.0)


def test_potential_field_constant_case():
    # q = 4 H^2 + kappa, independent of tau
    t = hopf_torus(berger_like(), TWO_PI, 0.0)
    q = potential_field(t)
    assert np.all(q.samples == pytest.approx(4.0, abs=4 * np.spacing(4.0)))
    t2 = hopf_torus(homogeneous_model(4.0, 1.5, TWO_PI), TWO_PI, 0.0)
    assert np.all(potential_field(t2).samples == pytest.approx(4.0, abs=4 * np.spacing(4.0)))


def test_potential_field_variable_kappa():
    kappa = ScalarField1D.from_function(lambda sarr: 1 + 0.3 * np.cos(sarr), TWO_PI)
    t = hopf_torus(product_model(kappa, TWO_PI), TWO_PI, 1.0)
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


def test_slice_genus_must_be_an_integer():
    # kappa * area = -2 pi = 2 pi (2 - 2 * 1.5): Gauss-Bonnet alone would pass
    hyper = product_model(ScalarField1D.constant(-1.0, TWO_PI), TWO_PI)
    with pytest.raises(SurfaceError, match="integer"):
        horizontal_slice(hyper, base_area=TWO_PI, genus=1.5)
    assert horizontal_slice(hyper, base_area=4 * math.pi, genus=np.int64(2)).genus == 2


@pytest.mark.parametrize("k_g", [math.nan, math.inf])
def test_hopf_torus_mean_curvature_must_be_finite(k_g):
    with pytest.raises(SurfaceError, match="finite"):
        hopf_torus(berger_like(), TWO_PI, k_g)


def test_curvature_range_rule_admits_its_limit_and_nothing_above():
    # H = tau = 0: the torus's curvature is kappa; n = 512 exceeds its area 4 pi^2
    limit = sys.float_info.max / (4 * 512)
    assert hopf_torus(homogeneous_model(-limit, 0.0, TWO_PI), TWO_PI, 0.0).regime \
        is Regime.NEGATIVE
    with pytest.raises(SurfaceError, match="curvature out of range"):
        hopf_torus(homogeneous_model(-np.nextafter(limit, math.inf), 0.0, TWO_PI),
                   TWO_PI, 0.0)
    # an area above n takes n's place
    wide = homogeneous_model(limit / 2, 0.0, 4096.0)
    with pytest.raises(SurfaceError, match="of area 25735.9"):
        hopf_torus(wide, TWO_PI, 0.0)


def test_slice_range_rule_counts_the_euler_term():
    # kappa = 1 on two nodes of a tiny slice: the genus term 8 pi (g - 1)/A
    # of the bounds, -2 (2 pi chi)/A, overflows unless chi = 0
    flat = homogeneous_model(1.0, 0.0, TWO_PI)
    kappa = SampledKappa(np.array([1.0, 1.0]), np.array([0.5e-308, 0.5e-308]))
    assert horizontal_slice(flat, 1e-308, 1, kappa=kappa).regime is Regime.POSITIVE
    with pytest.raises(SurfaceError, match="a horizontal slice of area 1e-308 on 2 samples"):
        horizontal_slice(flat, 1e-308, 0, kappa=kappa)


def test_range_rule_names_the_first_torus_of_a_stack_outside_it():
    # a stack of flat tori, one per row of kappa: inside, at the limit, one
    # ulp above it, far above; the third is the first one refused
    limit = sys.float_info.max / (4 * 512)
    kappa = -np.repeat([[1.0], [limit], [np.nextafter(limit, math.inf)], [1e308]], 512, axis=1)

    def stack(rows):
        zero = np.zeros_like(kappa[:rows])
        return SimpleNamespace(area=np.full(rows, 4 * math.pi**2), mean_curvature=np.zeros(rows),
                               genus=1, horizontal=False,
                               samples=lambda mode: (kappa[:rows], zero, zero))

    i, error = out_of_range(stack(4))
    assert i == 2 and str(error).startswith(
        "curvature out of range: a Hopf torus of area 39.4784 on 512 samples")
    assert out_of_range(stack(2)) is None


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


def varying_tau_model():
    """A model with kappa 3 and tau = 0.2 sin v on a 2 pi base circle."""
    prof_tau = ScalarField1D.from_function(lambda sarr: 0.2 * np.sin(sarr), TWO_PI)
    kappa = ScalarField1D.constant(3.0, TWO_PI)
    from jacobilab import SubmersionModel, ModelKind
    return SubmersionModel(kind=ModelKind.WARPED, kappa_field=kappa, tau_field=prof_tau,
                           fiber_length=TWO_PI)


def test_grad_tau_modes_on_torus():
    t = hopf_torus(varying_tau_model(), TWO_PI, 0.0)
    g = t.grad_tau(GradientMode.INTRINSIC_ON_SURFACE)
    assert np.max(np.abs(g.samples - np.abs(0.2 * np.cos(g.grid)))) < 1e-10
    # ambient defaults to the intrinsic derivative when not supplied
    assert np.all(t.grad_tau(GradientMode.AMBIENT).samples == g.samples)


def test_grad_tau_intrinsic_is_derived_from_tau():
    tau = ScalarField1D.from_function(lambda sarr: 0.2 + 0.1 * np.cos(2 * sarr), TWO_PI, 64)
    fields = berger_curve(tau_on_curve=tau)
    with pytest.raises(TypeError):
        HopfTorus(**fields, grad_tau_intrinsic=ScalarField1D.constant(0.0, TWO_PI, 64))
    t = HopfTorus(**fields)
    assert np.array_equal(t.grad_tau_intrinsic.samples, np.abs(tau.derivative().samples))
    assert t.grad_tau_ambient is t.grad_tau_intrinsic
    assert np.max(np.abs(t.grad_tau_intrinsic.samples
                         - np.abs(0.2 * np.sin(2 * tau.grid)))) < 1e-13


def test_regime_is_derived_from_the_curve_fields():
    fields = berger_curve()
    with pytest.raises(TypeError):
        HopfTorus(**fields, regime=Regime.NEGATIVE)
    t = HopfTorus(**fields)
    assert t.regime is Regime.POSITIVE
    # kappa 4 -> -4 flips kappa - 4 tau^2 = 3 to -5
    flipped = dataclasses.replace(t, kappa_on_curve=ScalarField1D.constant(-4.0, TWO_PI, 64))
    assert flipped.regime is Regime.NEGATIVE


def _sampled_slice():
    n = 64
    kappa = SampledKappa(values=0.4 * np.cos(np.arange(n) * (TWO_PI / n)),
                         weights=np.full(n, TWO_PI / n))
    flat = product_model(ScalarField1D.constant(0.0, TWO_PI), TWO_PI)
    return horizontal_slice(flat, base_area=TWO_PI, genus=1, kappa=kappa)


REGIME_SURFACES = {
    "homogeneous_torus": (lambda: hopf_torus(berger_like(), TWO_PI, 1.0), Regime.POSITIVE),
    "varying_product_torus": (lambda: hopf_torus(product_model(ScalarField1D.from_function(
        lambda v: -2.0 + 0.5 * np.cos(v), TWO_PI), TWO_PI), TWO_PI, 0.4), Regime.NEGATIVE),
    "warped_parallel": (lambda: parallel_hopf_torus(
        submersion_from_theta(half_arctan_profile(), window=(0.25, 4.0)), 1.0),
        Regime.POSITIVE),
    "constant_slice": (lambda: horizontal_slice(product_model(
        ScalarField1D.constant(1.0, TWO_PI), TWO_PI), base_area=4 * math.pi, genus=0),
        Regime.POSITIVE),
    "sampled_kappa_slice": (_sampled_slice, Regime.MIXED),
}


@pytest.mark.parametrize("build, expected", list(REGIME_SURFACES.values()),
                         ids=list(REGIME_SURFACES))
def test_surface_carries_its_regime(build, expected):
    s = build()
    assert s.regime is surface_regime(s) is expected


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


def test_surface_module_tells_the_classes_apart_by_horizontal():
    path = Path(jacobilab.__file__).parent / "surface.py"
    assert _class_tests(ast.parse(path.read_text())) == []


def test_class_dispatch_detector_sees_both_forms():
    source = ("isinstance(s, HopfTorus)\nisinstance(s, (int, surface.HorizontalSlice))\n"
              "hasattr(s, 'curve_length')\nisinstance(s, dict)\n")
    assert _class_tests(ast.parse(source)) == [1, 2, 3]
