"""Built-in verification catalog: every closed-form claim at desk scale.

Each check exercises one end-to-end claim of the package against an
independent route (closed forms against spectral solves, dual
discretizations, finite-difference oracles, quadrature identities) at a fixed
tolerance.  The catalog backs both the acceptance test module and the
``verify`` CLI subcommand; checks draw any randomness from a caller-supplied
seed so results are reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (REGIME_PARTS, TheoremPart, Verdict, equality_classify,
                     stability_verdict, theorem_bound)
from .fields import ScalarField1D
from .geometry import CurvatureData, Regime, combined_integrand, ricci_normal, \
    sectional_curvature
from .spectral import (SpectralProblem, lambda1_identity_check,
                       rayleigh_quotient, solve, solve_surface)
from .submersion import GradientMode, homogeneous_model, product_model
from .surface import (SampledKappa, gauss_bonnet_check, hopf_torus,
                      horizontal_slice, surface_regime)
from .warped import (base_curvature_oracle, bounds_in_theta_form,
                     half_arctan_profile, parallel_hopf_torus,
                     submersion_from_theta)

TWO_PI = 2.0 * math.pi
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(name: str, started: float, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       elapsed=time.perf_counter() - started)


def _random_constant_torus(rng, regime: Regime):
    tau = rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0])
    gap = rng.uniform(0.1, 8.0)
    kappa = 4.0 * tau**2 + (gap if regime is Regime.POSITIVE else -gap)
    h = rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0])
    model = homogeneous_model(kappa, tau, TWO_PI)
    return hopf_torus(model, TWO_PI, 2.0 * h), kappa, tau, h


def check_hopf_spectrum_closed_form(seed: int = DEFAULT_SEED) -> CheckResult:
    """Spectral lambda1 of constant-data Hopf tori equals -4H^2 - kappa."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for regime in (Regime.POSITIVE, Regime.NEGATIVE):
        for _ in range(28):
            torus, kappa, tau, h = _random_constant_torus(rng, regime)
            lam = solve_surface(torus, m=1).lambda1
            worst = max(worst, abs(lam - (-4.0 * h**2 - kappa)))
    return _result("hopf_spectrum_closed_form", started, worst <= 1e-8,
                   f"56 tori, worst |lambda1 + 4H^2 + kappa| = {worst:.3e} (tol 1e-8)")


def check_slice_spectrum(seed: int = DEFAULT_SEED) -> CheckResult:
    """Every horizontal slice has lambda1 = 0 and a MARGINAL verdict."""
    started = time.perf_counter()
    slices = []
    for kappa in (0.5, 1.0, 2.5):
        m = product_model(ScalarField1D.constant(kappa, TWO_PI), TWO_PI)
        slices.append(horizontal_slice(m, base_area=4 * math.pi / kappa, genus=0))
    for kappa, genus in ((-1.0, 2), (-0.5, 3), (-2.0, 2)):
        m = product_model(ScalarField1D.constant(kappa, TWO_PI), TWO_PI)
        area = 4 * math.pi * (genus - 1) / abs(kappa)
        slices.append(horizontal_slice(m, base_area=area, genus=genus))
    m = product_model(ScalarField1D.constant(0.0, TWO_PI), None)
    slices.append(horizontal_slice(m, base_area=3.7, genus=1))
    worst = 0.0
    verdicts_ok = True
    for s in slices:
        r = solve_surface(s)
        worst = max(worst, abs(r.lambda1))
        verdicts_ok &= stability_verdict(r.lambda1) is Verdict.MARGINAL
    return _result("slice_spectrum", started, worst <= 1e-10 and verdicts_ok,
                   f"{len(slices)} slices, worst |lambda1| = {worst:.3e} (tol 1e-10), "
                   f"all marginal: {verdicts_ok}")


def check_curvature_identities(seed: int = DEFAULT_SEED) -> CheckResult:
    """2K + Ric identity and nu in {0, +-1} collapses over 10^4 random tuples."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = 10_000
    kappa = rng.uniform(-10, 10, n)
    tau = rng.uniform(-10, 10, n)
    nu = rng.uniform(-1, 1, n)
    x_tau = rng.uniform(-10, 10, n)
    d = CurvatureData(kappa=kappa, tau=tau, nu=nu, x_tau=x_tau)
    w = kappa - 4 * tau**2
    scale = np.abs(kappa) + 4 * tau**2 + np.abs(w) + 2 * np.abs(x_tau) + 1e-30
    tol = 8.0 * np.spacing(scale)
    ok = True
    msgs = []
    resid = np.abs(2.0 * sectional_curvature(d) + ricci_normal(d) - combined_integrand(d))
    if not np.all(resid <= tol):
        ok = False
        msgs.append(f"identity worst {np.max(resid / tol):.2f}x tol")
    d0 = CurvatureData(kappa=kappa, tau=tau, nu=np.zeros(n), x_tau=x_tau)
    ok &= np.all(np.abs(sectional_curvature(d0) - tau**2) <= tol)
    ok &= np.all(np.abs(ricci_normal(d0) - (kappa - 2 * tau**2)) <= tol)
    for sign in (1.0, -1.0):
        d1 = CurvatureData(kappa=kappa, tau=tau, nu=np.full(n, sign), x_tau=x_tau)
        ok &= np.all(np.abs(sectional_curvature(d1) - (kappa - 3 * tau**2)) <= tol)
        ok &= np.all(np.abs(ricci_normal(d1) - 2 * tau**2) <= tol)
    return _result("curvature_identities", started, bool(ok),
                   f"{n} tuples within 8 ulps" + ("; " + "; ".join(msgs) if msgs else ""))


def _expected_equality(part: TheoremPart, s) -> bool:
    if part is TheoremPart.PLUS_II:
        return not s.horizontal  # constant-data Hopf tori always attain it
    if part is TheoremPart.MINUS_I:
        tau = s.samples(GradientMode.INTRINSIC_ON_SURFACE)[1]
        return (not s.horizontal and abs(s.mean_curvature) <= 1e-12
                and float(np.max(np.abs(tau))) <= 1e-12)
    return s.horizontal


def _soundness_catalog(rng, regime: Regime) -> list:
    surfaces = [
        _random_constant_torus(rng, regime)[0] for _ in range(185)
    ]
    if regime is Regime.NEGATIVE:
        # deterministic tori exercising the equality case tau = H = 0
        for kappa in np.linspace(-5.0, -0.2, 15):
            model = homogeneous_model(float(kappa), 0.0, TWO_PI)
            surfaces.append(hopf_torus(model, TWO_PI, 0.0))
            surfaces.append(hopf_torus(model, TWO_PI, 1.0))
        for kappa, genus in [(-0.5, 2), (-1.0, 2), (-1.5, 3), (-2.0, 2), (-2.5, 4),
                             (-3.0, 2), (-0.8, 3), (-1.2, 2), (-4.0, 5), (-0.3, 2),
                             (-0.7, 2), (-1.8, 3), (-2.2, 2), (-3.5, 4), (-1.1, 2),
                             (-0.9, 3), (-2.8, 2), (-1.4, 2), (-0.6, 3), (-1.6, 2)]:
            m = product_model(ScalarField1D.constant(kappa, TWO_PI), TWO_PI)
            area = 4 * math.pi * (genus - 1) / abs(kappa)
            surfaces.append(horizontal_slice(m, base_area=area, genus=genus))
    else:
        for kappa in np.linspace(0.2, 5.0, 30):
            m = product_model(ScalarField1D.constant(float(kappa), TWO_PI), TWO_PI)
            surfaces.append(
                horizontal_slice(m, base_area=4 * math.pi / float(kappa), genus=0))
    return surfaces


def _check_soundness(name: str, regime: Regime, seed: int) -> CheckResult:
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    surfaces = _soundness_catalog(rng, regime)
    parts = REGIME_PARTS[regime]
    violations = 0
    misclassified = 0
    for s in surfaces:
        lam = solve_surface(s, m=1).lambda1
        for part in parts:
            bound = theorem_bound(s, part)
            if lam > bound + 1e-8:
                violations += 1
            eq = equality_classify(s, lam, bound, part)
            expected = _expected_equality(part, s)
            if eq.numeric_equality != expected or \
                    eq.characterization_holds != expected:
                misclassified += 1
    passed = violations == 0 and misclassified == 0
    return _result(name, started, passed,
                   f"{len(surfaces)} surfaces, {violations} bound violations, "
                   f"{misclassified} equality misclassifications")


def check_thm_plus_soundness(seed: int = DEFAULT_SEED) -> CheckResult:
    """lambda1 <= both positive-regime bounds over a constant-data catalog,
    with equality exactly on the characterized surfaces."""
    return _check_soundness("thm_plus_soundness", Regime.POSITIVE, seed)


def check_thm_minus_soundness(seed: int = DEFAULT_SEED) -> CheckResult:
    """lambda1 <= both negative-regime bounds over a constant-data catalog,
    with equality exactly on the characterized surfaces."""
    return _check_soundness("thm_minus_soundness", Regime.NEGATIVE, seed)


def check_alpha_identity(seed: int = DEFAULT_SEED) -> CheckResult:
    """lambda1 = -(alpha + integral of q)/area for non-constant potentials."""
    started = time.perf_counter()
    cases = [(2.0, 0.5, 0.5), (1.0, 0.3, 0.0), (3.0, 1.0, 0.7),     # kappa > 0
             (-2.0, 0.5, 0.5), (-1.0, 0.3, 0.4), (-3.0, 1.0, 0.0)]  # kappa < 0
    worst = 0.0
    for c, a, h in cases:
        kappa = ScalarField1D.from_function(lambda v: c + a * np.cos(v), TWO_PI)
        m = product_model(ScalarField1D.constant(c, TWO_PI), TWO_PI)
        torus = hopf_torus(m, TWO_PI, 2.0 * h, kappa_on_curve=kappa,
                           tau_on_curve=ScalarField1D.constant(0.0, TWO_PI))
        expected_regime = Regime.POSITIVE if c > 0 else Regime.NEGATIVE
        if surface_regime(torus) is not expected_regime:
            return _result("alpha_identity", started, False,
                           f"case (c={c}, a={a}) landed in {surface_regime(torus)}")
        r = solve_surface(torus)
        worst = max(worst, lambda1_identity_check(torus, r))
    return _result("alpha_identity", started, worst <= 1e-6,
                   f"6 potentials, worst residual {worst:.3e} (tol 1e-6)")


def check_minmax_property(seed: int = DEFAULT_SEED) -> CheckResult:
    """Rayleigh quotients dominate lambda1; the ground state saturates it."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    problems = [
        SpectralProblem(TWO_PI, TWO_PI,
                        ScalarField1D.constant(4.0, TWO_PI), truncation=64),
        SpectralProblem(TWO_PI, TWO_PI,
                        ScalarField1D.from_function(lambda s: 1 + 0.3 * np.cos(s), TWO_PI),
                        truncation=64),
        SpectralProblem(TWO_PI, TWO_PI,
                        ScalarField1D.from_function(
                            lambda s: -1 + np.cos(s) + 0.5 * np.sin(2 * s), TWO_PI),
                        truncation=64),
    ]
    deg = 8
    worst_slack = math.inf
    worst_saturation = 0.0
    for p in problems:
        r = solve(p)
        grid = p.potential.grid
        cos_table = np.stack([np.cos(j * grid) for j in range(deg + 1)])
        sin_table = np.stack([np.sin(j * grid) for j in range(1, deg + 1)])
        for _ in range(1000):
            coef_c = rng.standard_normal(deg + 1)
            coef_s = rng.standard_normal(deg)
            f = coef_c @ cos_table + coef_s @ sin_table
            rq = rayleigh_quotient(p, ScalarField1D.periodic(f, TWO_PI))
            worst_slack = min(worst_slack, rq - r.lambda1)
        worst_saturation = max(
            worst_saturation, abs(rayleigh_quotient(p, r.ground_state) - r.lambda1))
    passed = worst_slack >= -1e-9 and worst_saturation <= 1e-9
    return _result("minmax_property", started, passed,
                   f"3000 test functions, min RQ - lambda1 = {worst_slack:.3e} "
                   f"(>= -1e-9), ground-state gap {worst_saturation:.3e} (tol 1e-9)")


def check_backend_equivalence(seed: int = DEFAULT_SEED) -> CheckResult:
    """Galerkin and finite-difference lambda1 agree on smooth potentials."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    potentials: list[Callable] = [lambda s: 1.0 + 0.3 * np.cos(s)]
    for _ in range(19):
        c0 = rng.uniform(-2.0, 4.0)
        amps = rng.uniform(-1.5, 1.5, size=6)

        def q_fn(s, c0=c0, amps=amps):
            out = np.full_like(s, c0)
            for j in range(3):
                out += amps[j] * np.cos((j + 1) * s) + amps[3 + j] * np.sin((j + 1) * s)
            return out

        potentials.append(q_fn)
    worst = 0.0
    for q_fn in potentials:
        qf = ScalarField1D.from_function(q_fn, TWO_PI, 512)
        p_fourier = SpectralProblem(TWO_PI, TWO_PI, qf, truncation=64)
        p_fd = SpectralProblem(TWO_PI, TWO_PI, qf, truncation=1024, conv_tol=1e-3)
        lam_f = solve(p_fourier, m=1).lambda1
        lam_fd = solve(p_fd, m=1, backend="fd", richardson=True).lambda1
        worst = max(worst, abs(lam_f - lam_fd))
    return _result("backend_equivalence", started, worst <= 1e-7,
                   f"20 potentials, worst |fourier - fd| = {worst:.3e} (tol 1e-7)")


def check_warped_example(seed: int = DEFAULT_SEED) -> CheckResult:
    """Closed forms, oracles and the two gradient readings on the arctan family."""
    started = time.perf_counter()
    profile = half_arctan_profile()
    model = submersion_from_theta(profile, window=(0.25, 4.0))
    msgs = []
    ok = True
    for u in (0.5, 1.0, 2.0):
        kappa_u = float(np.asarray(profile.kappa(u)))
        tau_u = float(np.asarray(profile.tau(u)))
        ddth = float(np.asarray(profile.theta_second(u)))
        th = float(np.asarray(profile.theta(u)))
        # (a) closed form vs -f''/f finite differences
        oracle = base_curvature_oracle(profile, u)
        if abs(oracle - kappa_u) > 1e-5:
            ok = False
            msgs.append(f"u={u}: oracle gap {abs(oracle - kappa_u):.2e}")
        # (b) kappa - 4 tau^2 identity, relative
        lhs = kappa_u - 4.0 * tau_u**2
        rhs = -2.0 * (math.cos(2 * th) / math.sin(2 * th)) * ddth
        if abs(lhs - rhs) > 1e-10 * abs(rhs):
            ok = False
            msgs.append(f"u={u}: regime identity off by {abs(lhs - rhs):.2e}")
        torus = parallel_hopf_torus(model, u)
        # (c) theta-form bounds == ambient bounds, 4 ulps
        b_i, b_ii = bounds_in_theta_form(model, torus)
        g_i = theorem_bound(torus, TheoremPart.PLUS_I, GradientMode.AMBIENT)
        g_ii = theorem_bound(torus, TheoremPart.PLUS_II, GradientMode.AMBIENT)
        scale = 2 * torus.mean_curvature**2 + abs(kappa_u) + abs(ddth) + 1.0
        if abs(b_i - g_i) > 4 * np.spacing(scale) or abs(b_ii - g_ii) > 4 * np.spacing(scale):
            ok = False
            msgs.append(f"u={u}: theta-form mismatch")
        # (d) intrinsic equality vs strictly larger ambient bound
        lam = solve_surface(torus, m=1).lambda1
        closed = -4.0 * torus.mean_curvature**2 - kappa_u
        b_intr = theorem_bound(torus, TheoremPart.PLUS_II,
                               GradientMode.INTRINSIC_ON_SURFACE)
        if abs(lam - closed) > 1e-8 or abs(b_intr - lam) > 1e-8:
            ok = False
            msgs.append(f"u={u}: intrinsic equality broken")
        if abs((g_ii - b_intr) - abs(ddth)) > 1e-8 or not (g_ii > lam + 1e-9):
            ok = False
            msgs.append(f"u={u}: ambient offset != |theta''|")
    detail = "u in {0.5, 1, 2}: oracle, identity, theta-form, both gradient readings"
    if msgs:
        detail += " -- " + "; ".join(msgs)
    return _result("warped_example", started, ok, detail)


def check_gauss_bonnet(seed: int = DEFAULT_SEED) -> CheckResult:
    """Total-curvature residuals: quadrature slices and exact flat tori."""
    started = time.perf_counter()
    ok = True
    msgs = []
    # genus-1 base with oscillating curvature, 256 periodic-trapezoid points
    n = 256
    v = np.arange(n) * (TWO_PI / n)
    area = TWO_PI
    flat = product_model(ScalarField1D.constant(0.0, TWO_PI), TWO_PI)
    s1 = horizontal_slice(flat, base_area=area, genus=1,
                          kappa=SampledKappa(0.4 * np.cos(v), np.full(n, area / n)))
    r1 = gauss_bonnet_check(s1)
    # round base of constant curvature 1 in polar-angle samples, 256 Gauss nodes
    nodes, glw = np.polynomial.legendre.leggauss(256)
    phi = 0.5 * math.pi * (nodes + 1.0)
    weights = glw * (math.pi / 2) * (TWO_PI * np.sin(phi))
    sphere = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    s2 = horizontal_slice(sphere, base_area=float(np.sum(weights)), genus=0,
                          kappa=SampledKappa(np.ones(256), weights))
    r2 = gauss_bonnet_check(s2)
    if r1 >= 1e-6 or r2 >= 1e-6:
        ok = False
        msgs.append(f"slice residuals {r1:.2e}, {r2:.2e}")
    torus = hopf_torus(homogeneous_model(4.0, 0.5, TWO_PI), TWO_PI, 1.0)
    if gauss_bonnet_check(torus) != 0.0:
        ok = False
        msgs.append("torus residual not exactly zero")
    detail = f"sampled slices: residuals {r1:.2e}, {r2:.2e} (tol 1e-6); torus exact"
    if msgs:
        detail += " -- " + "; ".join(msgs)
    return _result("gauss_bonnet", started, ok, detail)


def check_area_genus_consequence(seed: int = DEFAULT_SEED) -> CheckResult:
    """Stable tori with 0 <= kappa < 4 tau^2 and |H| <= tau satisfy
    area (tau^2 - H^2) >= 2 pi (g - 1)."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    surfaces = []
    for _ in range(100):
        tau = rng.uniform(0.3, 1.5)
        kappa = rng.uniform(0.0, 0.95) * 4.0 * tau**2
        h = rng.uniform(-tau, tau)
        surfaces.append((homogeneous_model(kappa, tau, TWO_PI), kappa, tau, h))
    for tau in (0.5, 1.0, 1.3):  # lambda1 = 0 witnesses keep the claim non-vacuous
        surfaces.append((homogeneous_model(0.0, tau, TWO_PI), 0.0, tau, 0.0))
    triggered = 0
    holds = True
    for model, kappa, tau, h in surfaces:
        torus = hopf_torus(model, TWO_PI, 2.0 * h)
        lam = solve_surface(torus, m=1).lambda1
        if lam >= -1e-8:
            triggered += 1
            lhs = torus.area * (tau**2 - h**2)
            if lhs < -1e-8:  # 2 pi (g - 1) = 0 for tori
                holds = False
    passed = holds and triggered >= 3
    return _result("area_genus_consequence", started, passed,
                   f"{len(surfaces)} tori, inequality checked on {triggered} "
                   f"stable ones, holds: {holds}")


CATALOG: list[tuple[str, Callable]] = [
    ("hopf_spectrum_closed_form", check_hopf_spectrum_closed_form),
    ("slice_spectrum", check_slice_spectrum),
    ("curvature_identities", check_curvature_identities),
    ("thm_plus_soundness", check_thm_plus_soundness),
    ("thm_minus_soundness", check_thm_minus_soundness),
    ("alpha_identity", check_alpha_identity),
    ("minmax_property", check_minmax_property),
    ("backend_equivalence", check_backend_equivalence),
    ("warped_example", check_warped_example),
    ("gauss_bonnet", check_gauss_bonnet),
    ("area_genus_consequence", check_area_genus_consequence),
]


def run_checks(name_filter: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    for name, fn in CATALOG:
        if name_filter and name_filter not in name:
            continue
        results.append(fn(seed))
    return results
