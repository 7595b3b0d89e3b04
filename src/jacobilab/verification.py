"""Built-in verification catalog: every closed-form claim at desk scale.

Each check exercises one end-to-end claim of the package against an
independent route (closed forms against spectral solves, dual
discretizations, finite-difference oracles, quadrature identities) at a fixed
tolerance.  The catalog backs both the acceptance test module and the
``verify`` CLI subcommand; checks draw any randomness from a caller-supplied
seed so results are reproducible.

One runner judges every check.  ``@_check`` registers a ``check_<name>``
function in ``CATALOG`` under ``<name>``.  Its body returns what it sampled
and a list of criteria ``(label, value, tol)``, each of which holds when
``value <= tol``: a lower bound or a strict inequality is stated as a
sign-flipped value, a count as a value with tolerance 0.  The runner times
the body, passes the check exactly when every criterion holds and writes the
detail line ``<sampled>; <label> <value> (tol <tol>); ...``, so every line
shows how close each criterion came to its tolerance.  A check takes its
worst value with ``np.maximum``, which keeps a NaN where ``max`` can drop
it, so a NaN fails its criterion.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (REGIME_PARTS, STABILITY_TOL, TheoremPart, Verdict,
                     corollary_checks, equality_classify, stability_verdict,
                     theorem_bound)
from .fields import ScalarField1D
from .geometry import CurvatureData, Regime, combined_integrand, ricci_normal, \
    sectional_curvature
from .spectral import (SpectralProblem, _rayleigh_quotients,
                       lambda1_identity_check, rayleigh_quotient, solve,
                       solve_surface)
from .submersion import GradientMode, homogeneous_model, product_model
from .surface import SampledKappa, gauss_bonnet_check, hopf_torus, horizontal_slice
from .warped import (base_curvature_oracle, bounds_in_theta_form,
                     half_arctan_profile, parallel_hopf_torus,
                     submersion_from_theta)

TWO_PI = 2.0 * math.pi
DEFAULT_SEED = 20260810
# test functions per Rayleigh-quotient block in check_minmax_property.  On a
# 2-core x86_64 VM with 1 BLAS thread (numpy 2.4.6) the check took a median of
# 272 ms one function at a time and 44-71 ms with blocks of 25 to 100; one
# block of 1000 was no faster and raised the peak RSS of a bare process from
# 41.8 to 61.3 MB.
MINMAX_BLOCK = 50

# (label, value, tol): the criterion holds when value <= tol
Criterion = tuple[str, float, float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


CATALOG: list[tuple[str, Callable]] = []


def _describe(criterion: Criterion) -> str:
    """``<label> <value> (tol <tol>)``: a count as an integer, any other value
    in ``%.3e``, the tolerance in ``%g``."""
    label, value, tol = criterion
    shown = value if isinstance(value, numbers.Integral) else f"{value:.3e}"
    return f"{label} {shown} (tol {tol:g})"


def _check(body: Callable[[int], tuple[str, list[Criterion]]]) -> Callable[..., CheckResult]:
    """Register ``check_<name>`` in ``CATALOG`` as ``<name>``; the registered
    function times ``body(seed)``, judges its criteria and writes its detail
    line."""
    name = body.__name__.removeprefix("check_")

    @functools.wraps(body)
    def check(seed: int = DEFAULT_SEED) -> CheckResult:
        started = time.perf_counter()
        sampled, criteria = body(seed)
        return CheckResult(name=name, passed=all(value <= tol for _, value, tol in criteria),
                           detail="; ".join([sampled, *map(_describe, criteria)]),
                           elapsed=time.perf_counter() - started)

    CATALOG.append((name, check))
    return check


def _random_constant_torus(rng, regime: Regime):
    tau = rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0])
    gap = rng.uniform(0.1, 8.0)
    kappa = 4.0 * tau**2 + (gap if regime is Regime.POSITIVE else -gap)
    h = rng.uniform(0.05, 1.5) * rng.choice([-1.0, 1.0])
    model = homogeneous_model(kappa, tau, TWO_PI)
    return hopf_torus(model, TWO_PI, 2.0 * h), kappa, tau, h


def _constant_slice(kappa: float, genus: int):
    """Horizontal slice of constant curvature ``kappa != 0`` at its
    Gauss-Bonnet area 4 pi (1 - genus) / kappa."""
    model = product_model(ScalarField1D.constant(kappa, TWO_PI), TWO_PI)
    return horizontal_slice(model, base_area=4 * math.pi * (1 - genus) / kappa, genus=genus)


@_check
def check_hopf_spectrum_closed_form(seed: int) -> tuple[str, list[Criterion]]:
    """Spectral lambda1 of constant-data Hopf tori equals -4H^2 - kappa."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for regime in (Regime.POSITIVE, Regime.NEGATIVE):
        for _ in range(28):
            torus, kappa, tau, h = _random_constant_torus(rng, regime)
            lam = solve_surface(torus, m=1).lambda1
            worst = np.maximum(worst, abs(lam - (-4.0 * h**2 - kappa)))
    return "56 tori", [("worst |lambda1 + 4H^2 + kappa|", worst, 1e-8)]


@_check
def check_slice_spectrum(seed: int) -> tuple[str, list[Criterion]]:
    """Every horizontal slice has lambda1 = 0 and a MARGINAL verdict."""
    slices = [_constant_slice(kappa, genus) for kappa, genus in
              ((0.5, 0), (1.0, 0), (2.5, 0), (-1.0, 2), (-0.5, 3), (-2.0, 2))]
    m = product_model(ScalarField1D.constant(0.0, TWO_PI), None)
    slices.append(horizontal_slice(m, base_area=3.7, genus=1))
    lambdas = [solve_surface(s).lambda1 for s in slices]
    not_marginal = sum(stability_verdict(lam) is not Verdict.MARGINAL for lam in lambdas)
    return f"{len(slices)} slices", [("worst |lambda1|", np.max(np.abs(lambdas)), 1e-10),
                                     ("verdicts not marginal", not_marginal, 0)]


@_check
def check_curvature_identities(seed: int) -> tuple[str, list[Criterion]]:
    """2K + Ric identity and nu in {0, +-1} collapses over 10^4 random tuples,
    each residual in ulps of the tuple's curvature scale."""
    rng = np.random.default_rng(seed)
    n = 10_000
    kappa = rng.uniform(-10, 10, n)
    tau = rng.uniform(-10, 10, n)
    nu = rng.uniform(-1, 1, n)
    x_tau = rng.uniform(-10, 10, n)
    d = CurvatureData(kappa=kappa, tau=tau, nu=nu, x_tau=x_tau)
    w = kappa - 4 * tau**2
    ulp = np.spacing(np.abs(kappa) + 4 * tau**2 + np.abs(w) + 2 * np.abs(x_tau) + 1e-30)

    def ulps(*residuals) -> float:
        return float(np.max(np.abs(residuals) / ulp))

    d0 = CurvatureData(kappa=kappa, tau=tau, nu=np.zeros(n), x_tau=x_tau)
    poles = [CurvatureData(kappa=kappa, tau=tau, nu=np.full(n, sign), x_tau=x_tau)
             for sign in (1.0, -1.0)]
    tol = 8
    return f"{n} tuples", [
        ("worst |2K + Ric - combined| ulps",
         ulps(2.0 * sectional_curvature(d) + ricci_normal(d) - combined_integrand(d)), tol),
        ("worst nu = 0 collapse ulps",
         ulps(sectional_curvature(d0) - tau**2, ricci_normal(d0) - (kappa - 2 * tau**2)), tol),
        ("worst nu = +-1 collapse ulps",
         ulps(*(r for d1 in poles for r in (sectional_curvature(d1) - (kappa - 3 * tau**2),
                                            ricci_normal(d1) - 2 * tau**2))), tol)]


def _expected_equality(part: TheoremPart, s) -> bool:
    if part is TheoremPart.PLUS_II:
        return not s.horizontal  # constant-data Hopf tori always attain it
    if part is TheoremPart.MINUS_I:
        tau = s.samples(GradientMode.INTRINSIC_ON_SURFACE)[1]
        return not s.horizontal and s.mean_curvature == 0.0 and not np.any(tau)
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
        surfaces += [_constant_slice(kappa, genus) for kappa, genus in
                     [(-0.5, 2), (-1.0, 2), (-1.5, 3), (-2.0, 2), (-2.5, 4),
                      (-3.0, 2), (-0.8, 3), (-1.2, 2), (-4.0, 5), (-0.3, 2),
                      (-0.7, 2), (-1.8, 3), (-2.2, 2), (-3.5, 4), (-1.1, 2),
                      (-0.9, 3), (-2.8, 2), (-1.4, 2), (-0.6, 3), (-1.6, 2)]]
    else:
        surfaces += [_constant_slice(float(kappa), 0) for kappa in np.linspace(0.2, 5.0, 30)]
    return surfaces


def _check_soundness(regime: Regime, seed: int) -> tuple[str, list[Criterion]]:
    rng = np.random.default_rng(seed)
    surfaces = _soundness_catalog(rng, regime)
    worst = -math.inf
    misclassified = 0
    for s in surfaces:
        lam = solve_surface(s, m=1).lambda1
        for part in REGIME_PARTS[regime]:
            bound = theorem_bound(s, part)
            worst = np.maximum(worst, lam - bound)
            eq = equality_classify(s, lam, bound, part)
            expected = _expected_equality(part, s)
            misclassified += (eq.numeric_equality != expected
                              or eq.characterization_holds != expected)
    return f"{len(surfaces)} surfaces", [("worst lambda1 - bound", worst, 1e-8),
                                         ("equality misclassifications", misclassified, 0)]


@_check
def check_thm_plus_soundness(seed: int) -> tuple[str, list[Criterion]]:
    """lambda1 <= both positive-regime bounds over a constant-data catalog,
    with equality exactly on the characterized surfaces."""
    return _check_soundness(Regime.POSITIVE, seed)


@_check
def check_thm_minus_soundness(seed: int) -> tuple[str, list[Criterion]]:
    """lambda1 <= both negative-regime bounds over a constant-data catalog,
    with equality exactly on the characterized surfaces."""
    return _check_soundness(Regime.NEGATIVE, seed)


@_check
def check_alpha_identity(seed: int) -> tuple[str, list[Criterion]]:
    """lambda1 = -(alpha + integral of q)/area for non-constant potentials."""
    cases = [(2.0, 0.5, 0.5), (1.0, 0.3, 0.0), (3.0, 1.0, 0.7),     # kappa > 0
             (-2.0, 0.5, 0.5), (-1.0, 0.3, 0.4), (-3.0, 1.0, 0.0)]  # kappa < 0
    worst = 0.0
    off_regime = 0
    for c, a, h in cases:
        kappa = ScalarField1D.from_function(lambda v: c + a * np.cos(v), TWO_PI)
        torus = hopf_torus(product_model(kappa, TWO_PI), TWO_PI, 2.0 * h)
        off_regime += torus.regime is not (Regime.POSITIVE if c > 0 else Regime.NEGATIVE)
        worst = np.maximum(worst, lambda1_identity_check(torus, solve_surface(torus)))
    return "6 potentials", [("worst residual", worst, 1e-6),
                            ("potentials outside their regime", off_regime, 0)]


@_check
def check_minmax_property(seed: int) -> tuple[str, list[Criterion]]:
    """Rayleigh quotients dominate lambda1; the ground state saturates it."""
    rng = np.random.default_rng(seed)
    problems = [SpectralProblem(TWO_PI, TWO_PI, ScalarField1D.from_function(q, TWO_PI))
                for q in (lambda s: np.full_like(s, 4.0),
                          lambda s: 1 + 0.3 * np.cos(s),
                          lambda s: -1 + np.cos(s) + 0.5 * np.sin(2 * s))]
    deg = 8
    worst_excess = -math.inf
    worst_saturation = 0.0
    for p in problems:
        r = solve(p)
        grid = p.potential.grid
        # cosines 0..deg before sines 1..deg: the order in which the 17
        # coefficients of one test function (one row of draws) are drawn
        table = np.stack([np.cos(j * grid) for j in range(deg + 1)]
                         + [np.sin(j * grid) for j in range(1, deg + 1)])
        for _ in range(1000 // MINMAX_BLOCK):
            rows = rng.standard_normal((MINMAX_BLOCK, 2 * deg + 1)) @ table
            worst_excess = np.maximum(
                worst_excess, r.lambda1 - float(np.min(_rayleigh_quotients(p, rows))))
        worst_saturation = np.maximum(
            worst_saturation, abs(rayleigh_quotient(p, r.ground_state) - r.lambda1))
    tol = 1e-9
    return "3000 test functions", [("lambda1 - min RQ", worst_excess, tol),
                                   ("ground-state gap", worst_saturation, tol)]


def _equivalence_potentials(seed: int) -> list[Callable]:
    """The 20 smooth potentials of :func:`check_backend_equivalence`: one
    harmonic, then 19 random three-harmonic ones."""
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
    return potentials


@_check
def check_backend_equivalence(seed: int) -> tuple[str, list[Criterion]]:
    """Galerkin and finite-difference lambda1 agree on smooth potentials."""
    worst = 0.0
    for q_fn in _equivalence_potentials(seed):
        qf = ScalarField1D.from_function(q_fn, TWO_PI, 512)
        p_fourier = SpectralProblem(TWO_PI, TWO_PI, qf, truncation=64)
        p_fd = SpectralProblem(TWO_PI, TWO_PI, qf, truncation=1024, conv_tol=1e-3)
        lam_f = solve(p_fourier, m=1).lambda1
        lam_fd = solve(p_fd, m=1, backend="fd", richardson=True).lambda1
        worst = np.maximum(worst, abs(lam_f - lam_fd))
    return "20 potentials", [("worst |fourier - fd|", worst, 1e-7)]


@_check
def check_warped_example(seed: int) -> tuple[str, list[Criterion]]:
    """Closed forms, oracles and the two gradient readings on the arctan family."""
    profile = half_arctan_profile()
    model = submersion_from_theta(profile, window=(0.25, 4.0))
    rows = []
    for u in (0.5, 1.0, 2.0):
        kappa_u = float(np.asarray(profile.kappa(u)))
        tau_u = float(np.asarray(profile.tau(u)))
        ddth = float(np.asarray(profile.theta_second(u)))
        th = float(np.asarray(profile.theta(u)))
        torus = parallel_hopf_torus(model, u)
        b_i, b_ii = bounds_in_theta_form(model, torus)
        g_i = theorem_bound(torus, TheoremPart.PLUS_I, GradientMode.AMBIENT)
        g_ii = theorem_bound(torus, TheoremPart.PLUS_II, GradientMode.AMBIENT)
        lam = solve_surface(torus, m=1).lambda1
        closed = -4.0 * torus.mean_curvature**2 - kappa_u
        b_intr = theorem_bound(torus, TheoremPart.PLUS_II, GradientMode.INTRINSIC_ON_SURFACE)
        rhs = -2.0 * (math.cos(2 * th) / math.sin(2 * th)) * ddth
        ulp = np.spacing(2 * torus.mean_curvature**2 + abs(kappa_u) + abs(ddth) + 1.0)
        rows.append([
            # (a) closed form vs -f''/f finite differences
            abs(base_curvature_oracle(profile, u) - kappa_u),
            # (b) kappa - 4 tau^2 identity, relative
            abs(kappa_u - 4.0 * tau_u**2 - rhs) / abs(rhs),
            # (c) theta-form bounds == ambient bounds, in ulps
            np.maximum(abs(b_i - g_i), abs(b_ii - g_ii)) / ulp,
            # (d) intrinsic equality vs strictly larger ambient bound
            np.maximum(abs(lam - closed), abs(b_intr - lam)),
            abs((g_ii - b_intr) - abs(ddth)),
            lam - g_ii])
    tol = 1e-8
    criteria = (("worst |oracle - kappa|", 1e-5),
                ("worst regime identity relative error", 1e-10),
                ("worst |theta-form - ambient bound| ulps", 4),
                ("worst intrinsic equality gap", tol),
                ("worst |ambient - intrinsic bound - |theta''||", tol),
                ("worst lambda1 - ambient bound", -1e-9))
    return "u in {0.5, 1, 2}", [(label, float(worst), t) for (label, t), worst
                                in zip(criteria, np.max(rows, axis=0))]


@_check
def check_gauss_bonnet(seed: int) -> tuple[str, list[Criterion]]:
    """Total-curvature residuals: quadrature slices and exact flat tori."""
    # genus-1 base with oscillating curvature, 256 periodic-trapezoid points
    n = 256
    v = np.arange(n) * (TWO_PI / n)
    area = TWO_PI
    flat = product_model(ScalarField1D.constant(0.0, TWO_PI), TWO_PI)
    s1 = horizontal_slice(flat, base_area=area, genus=1,
                          kappa=SampledKappa(0.4 * np.cos(v), np.full(n, area / n)))
    # round base of constant curvature 1 in polar-angle samples, 256 Gauss nodes
    nodes, glw = np.polynomial.legendre.leggauss(256)
    phi = 0.5 * math.pi * (nodes + 1.0)
    weights = glw * (math.pi / 2) * (TWO_PI * np.sin(phi))
    sphere = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    s2 = horizontal_slice(sphere, base_area=float(np.sum(weights)), genus=0,
                          kappa=SampledKappa(np.ones(256), weights))
    torus = hopf_torus(homogeneous_model(4.0, 0.5, TWO_PI), TWO_PI, 1.0)
    return "2 sampled slices, 1 torus", [
        *((f"{label} slice residual", gauss_bonnet_check(s), 1e-6)
          for label, s in (("oscillating", s1), ("round", s2))),
        ("torus residual", gauss_bonnet_check(torus), 0)]


@_check
def check_area_genus_consequence(seed: int) -> tuple[str, list[Criterion]]:
    """Stable tori with 0 <= kappa < 4 tau^2 and |H| <= tau satisfy
    area (tau^2 - H^2) >= 2 pi (g - 1), and the record that reports carry
    for this corollary says so with the same numbers."""
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
    worst = -math.inf
    disagreements = 0
    for model, kappa, tau, h in surfaces:
        torus = hopf_torus(model, TWO_PI, 2.0 * h)
        lam = solve_surface(torus, m=1).lambda1
        # the tori that a report calls stable, where its record applies
        if lam >= -STABILITY_TOL:
            triggered += 1
            lhs = torus.area * (tau**2 - h**2)
            record = {r.name: r for r in corollary_checks(torus, lam)}.get(
                "area_genus_consequence")
            disagreements += record is None or not (
                record.applicable and record.satisfied and record.lhs == lhs
                and record.rhs == 0.0)
            worst = np.maximum(worst, -lhs)  # 2 pi (g - 1) = 0 for tori
    return f"{len(surfaces)} tori, {triggered} stable", [
        ("3 - stable tori", 3 - triggered, 0),
        ("worst 2 pi (g - 1) - area (tau^2 - H^2)", worst, 1e-8),
        ("report records that disagree", disagreements, 0)]


def run_checks(name_filter: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [fn(seed) for name, fn in CATALOG if not name_filter or name_filter in name]
