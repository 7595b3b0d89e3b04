import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import jacobilab
from jacobilab import (ConvergenceError, FieldError, ScalarField1D,
                       SpectralProblem, alpha_invariant, homogeneous_model,
                       hopf_torus, horizontal_slice, lambda1_identity_check,
                       product_model, rayleigh_quotient, solve, solve_surface,
                       solve_torus_2d, surface_spectral_problem)
from jacobilab.spectral import (FD_RESIDUAL_ULPS, _fd_count_below, _fd_eigs,
                                assemble_fd, assemble_fourier)
from conftest import ulp_tol

TWO_PI = 2 * math.pi


def problem(q_fn, L=TWO_PI, ell=TWO_PI, n=512, K=64, conv_tol=1e-6):
    q = ScalarField1D.from_function(q_fn, L, n)
    return SpectralProblem(circle_length=L, fiber_length=ell, potential=q,
                           truncation=K, conv_tol=conv_tol)


def test_constant_potential_closed_form():
    r = solve(problem(lambda s: np.full_like(s, 4.0)))
    assert r.lambda1 == pytest.approx(-4.0, abs=1e-12)
    assert r.ground_state.is_constant(1e-10)
    assert r.convergence_estimate < 1e-12


def test_zero_potential_second_eigenvalue_2d():
    p = problem(lambda s: np.zeros_like(s), L=TWO_PI, ell=math.pi, K=16)
    r = solve_torus_2d(p, m=4)
    assert r.lambda1 == pytest.approx(0.0, abs=1e-12)
    # (2 pi / max(L, ell))^2 = 1 for L = 2 pi
    assert r.eigenvalues[1] == pytest.approx(1.0, abs=1e-10)


def test_zero_potential_second_eigenvalue_1d():
    r = solve(problem(lambda s: np.zeros_like(s)), m=3)
    assert r.lambda1 == pytest.approx(0.0, abs=1e-12)
    assert r.eigenvalues[1] == pytest.approx(1.0, abs=1e-10)


def test_mathieu_against_scipy_and_fd():
    q_fn = lambda s: 1.0 + 0.3 * np.cos(s)
    lam_ref = (scipy.special.mathieu_a(0, 0.6) - 4.0) / 4.0
    r_fourier = solve(problem(q_fn))
    assert r_fourier.lambda1 == pytest.approx(lam_ref, abs=1e-12)
    # second-order finite differences on 4096 points: independent oracle
    p_fd = problem(q_fn, K=4096, conv_tol=1e-4)
    r_fd = solve(p_fd, m=1, backend="fd")
    assert r_fd.lambda1 == pytest.approx(lam_ref, abs=1e-7)
    assert abs(r_fourier.lambda1 - r_fd.lambda1) < 1e-7


def test_backend_equivalence_with_richardson():
    q_fn = lambda s: 1.0 + 0.3 * np.cos(s)
    r_fourier = solve(problem(q_fn))
    r_fd = solve(problem(q_fn, K=1024, conv_tol=1e-4), backend="fd", richardson=True)
    tol = max(1e-7, 10 * r_fd.convergence_estimate)
    assert abs(r_fourier.lambda1 - r_fd.lambda1) < min(tol, 1e-7)
    assert r_fd.backend == "fd_richardson"


def test_ground_state_simplicity_gap():
    for q_fn in (lambda s: 1.0 + 0.3 * np.cos(s),
                 lambda s: 2.0 + np.cos(s) + 0.5 * np.sin(2 * s)):
        r = solve(problem(q_fn), m=3)
        assert r.eigenvalues[1] - r.eigenvalues[0] > 1e-3
        assert np.min(r.ground_state.samples) > 0.0


def test_monotone_convergence_diagnostic():
    q_fn = lambda s: 2.0 + np.cos(s) + 0.5 * np.sin(2 * s)
    r8 = solve(problem(q_fn, K=8))
    r16 = solve(problem(q_fn, K=16))
    doubling_change = abs(r16.lambda1 - r8.lambda1)
    assert doubling_change < r8.convergence_estimate


def test_fd_monotone_convergence():
    q_fn = lambda s: 1.0 + 0.3 * np.cos(s)
    r256 = solve(problem(q_fn, K=256, conv_tol=1.0), backend="fd")
    r512 = solve(problem(q_fn, K=512, conv_tol=1.0), backend="fd")
    assert abs(r512.lambda1 - r256.lambda1) < r256.convergence_estimate


def test_potential_shift_covariance():
    rng = np.random.default_rng(7)
    s = np.arange(512) * (TWO_PI / 512)
    q = 1.0 + 0.5 * np.cos(s) + 0.25 * np.sin(2 * s)
    c = 3.7
    K = 32
    H = assemble_fourier(TWO_PI, q, K)
    Hc = assemble_fourier(TWO_PI, q + c, K)
    shift = H - c * np.eye(H.shape[0])
    scale = np.max(np.abs(q)) + abs(c)
    assert np.max(np.abs(Hc - shift)) <= ulp_tol(4, scale)
    w = np.linalg.eigvalsh(H)[:5]
    wc = np.linalg.eigvalsh(Hc)[:5]
    assert np.max(np.abs(wc - (w - c))) <= ulp_tol(4, np.max(np.abs(np.diag(H))))


def test_reduction_matches_2d_for_fiber_constant_potentials():
    p = problem(lambda s: 1.0 + 0.3 * np.cos(s), ell=3.0, K=24)
    r1 = solve(p)
    r2 = solve_torus_2d(p)
    assert abs(r1.lambda1 - r2.lambda1) < 1e-8
    assert r2.convergence_estimate == r1.convergence_estimate


def test_torus_spectrum_matches_kron_reference():
    # reference: the full tensor-mode matrix over circle modes x fiber modes
    # |k| <= m // 2, block-diagonal for fiber-constant potentials
    K, m = 16, 12
    F = m // 2
    p = problem(lambda s: 1.0 + 0.8 * np.cos(s) + 0.3 * np.sin(2 * s), ell=3.0, K=K)
    H1 = assemble_fourier(TWO_PI, p.potential.samples, K)
    k = np.concatenate(([0.0], np.arange(1.0, F + 1), np.arange(1.0, F + 1)))
    fiber = (TWO_PI / 3.0) ** 2 * k**2
    H = np.kron(np.eye(k.size), H1) + np.kron(np.diag(fiber), np.eye(H1.shape[0]))
    ref = np.linalg.eigvalsh(H)[:m]
    r = solve_torus_2d(p, m=m)
    assert r.eigenvalues.shape == (m,)
    # the merge mixes fiber modes into the lowest m: mode k = 1 enters twice
    assert np.sum(np.isclose(r.eigenvalues, r.lambda1 + fiber[1], atol=1e-9)) == 2
    assert np.max(np.abs(r.eigenvalues - ref)) <= ulp_tol(64, H)
    assert r.lambda1 == solve(p).lambda1


@pytest.mark.parametrize("m", [18, 40])
def test_torus_spectrum_keeps_every_fiber_mode_it_needs(m):
    # on a long fiber (2 pi / ell)^2 = 0.01, so fiber modes up to |k| = m // 2
    # enter the lowest m; compare with a merge over every |k| <= m
    p = problem(lambda s: 1.0 + 0.3 * np.cos(s), ell=20 * math.pi)
    mu = solve(p, m=m).eigenvalues
    k = np.arange(-m, m + 1, dtype=float)
    ref = np.sort(((TWO_PI / p.fiber_length) ** 2 * k[:, None] ** 2 + mu).ravel())[:m]
    assert np.array_equal(solve_torus_2d(p, m=m).eigenvalues, ref)


def test_assembled_matrices_exactly_symmetric(rng):
    for n, K in ((512, 64), (513, 40), (8, 64), (33, 5)):
        q = rng.standard_normal(n) * 3.0
        H = assemble_fourier(rng.uniform(1.0, 10.0), q, K)
        assert H.shape == (2 * K + 1, 2 * K + 1)
        assert np.array_equal(H, H.T)
        A = assemble_fd(rng.uniform(1.0, 10.0), q)
        assert np.array_equal(A, A.T)


@pytest.mark.parametrize("n,K", [(512, 64), (33, 20), (8, 64)])
def test_ground_state_matches_direct_trig_evaluation(n, K):
    # with 8 samples and K = 64 the expansion has modes far above the grid
    # Nyquist: rho must be the expansion sampled at the grid points
    q_fn = lambda s: 2.0 + 1.5 * np.cos(s) + 0.5 * np.sin(2 * s)
    p = problem(q_fn, n=n, K=K)
    r = solve(p)
    vec = np.linalg.eigh(assemble_fourier(TWO_PI, p.potential.samples, K))[1][:, 0]
    arg = np.outer(p.potential.grid, np.arange(1, K + 1))
    direct = (vec[0] / math.sqrt(TWO_PI)
              + math.sqrt(2.0 / TWO_PI) * (np.cos(arg) @ vec[1:K + 1]
                                           + np.sin(arg) @ vec[K + 1:]))
    direct *= np.sign(np.mean(direct))
    direct *= math.sqrt(n / np.sum(direct**2))
    assert np.max(np.abs(r.ground_state.samples - direct)) <= 1e-12


def test_convergence_error_for_tiny_truncation():
    # strong high harmonic: K = 32 and K = 16 resolve it very differently
    p = problem(lambda s: 50.0 * np.cos(20 * s), K=32)
    with pytest.raises(ConvergenceError):
        solve(p)
    # the torus spectrum is built on the circle solve and its check
    with pytest.raises(ConvergenceError):
        solve_torus_2d(p)


def test_truncation_validation():
    with pytest.raises(FieldError):
        problem(lambda s: np.zeros_like(s), K=3)
    with pytest.raises(FieldError):
        solve(problem(lambda s: np.zeros_like(s), K=8), backend="fd")


def test_period_mismatch_rejected():
    q = ScalarField1D.constant(1.0, period=1.0)
    with pytest.raises(FieldError):
        SpectralProblem(circle_length=2.0, fiber_length=1.0, potential=q)


def test_unknown_backend():
    with pytest.raises(ValueError):
        solve(problem(lambda s: np.zeros_like(s)), backend="magic")


# --- fd eigensolve against the dense oracle ---------------------------------------

FD_POTENTIALS = {
    # exact double eigenvalues
    "constant": lambda s: np.full_like(s, 3.7),
    "band_limited": lambda s: 1.0 + 2.0 * np.cos(s) - 1.5 * np.sin(2 * s) + 0.8 * np.cos(3 * s),
    "deep_well": lambda s: 40.0 * np.exp(-30.0 * (1.0 - np.cos(s))),
}
# eigenvalue difference from eigh(assemble_fd) in units of eps ||A||, with
# ||A|| <= 4/h^2 + max|q|; both solves round.  Measured worst: 2.2 over the
# 30 cases below, 9.1 on 8 cos s - 8 sin 3s at N = 512
FD_EIG_ULPS = 16


@functools.lru_cache(maxsize=None)
def dense_fd(kind, n):
    q = FD_POTENTIALS[kind](np.arange(n) * (TWO_PI / n))
    w, v = np.linalg.eigh(assemble_fd(TWO_PI, q))
    eps_norm = np.finfo(float).eps * (4.0 * (n / TWO_PI) ** 2 + np.max(np.abs(q)))
    return q, w, v[:, 0], eps_norm


def fd_problem(q):
    return SpectralProblem(TWO_PI, TWO_PI, ScalarField1D(q, period=TWO_PI),
                           truncation=q.size)


@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("n", [16, 17, 64, 1000, 2048])
@pytest.mark.parametrize("kind", list(FD_POTENTIALS))
def test_fd_eigensolve_matches_dense(kind, n, m):
    q, w, v0, eps_norm = dense_fd(kind, n)
    eigenvalues, x0 = _fd_eigs(fd_problem(q), n, m)
    assert eigenvalues.shape == (m,)
    assert np.max(np.abs(eigenvalues - w[:m])) <= FD_EIG_ULPS * eps_norm
    # Davis-Kahan: a residual below FD_RESIDUAL_ULPS eps ||A|| leaves the
    # ground vector within that over the spectral gap (measured: a third of it)
    x0 = x0 * np.sign(x0 @ v0)
    assert np.max(np.abs(x0 - v0)) <= FD_RESIDUAL_ULPS * eps_norm / (w[1] - w[0])


@pytest.mark.parametrize("n", [16, 17, 64, 1000])
@pytest.mark.parametrize("kind", list(FD_POTENTIALS))
def test_fd_inertia_count_matches_eigvalsh(kind, n, rng):
    q, w, _, eps_norm = dense_fd(kind, n)
    inv_h2 = 1.0 / (TWO_PI / n) ** 2
    # random shifts over the low spectrum, and the midpoints of its gaps,
    # where the solve places its shift; a shift within rounding of an
    # eigenvalue (the middle of a double one) has no defined count
    shifts = np.concatenate((rng.uniform(w[0] - 1.0, w[min(n, 40) - 1], 20),
                             0.5 * (w[:12] + w[1:13])))
    shifts = shifts[np.min(np.abs(shifts[:, None] - w), axis=1) > FD_RESIDUAL_ULPS * eps_norm]
    assert shifts.size >= 20
    for sigma in shifts:
        assert _fd_count_below(q, inv_h2, sigma) == np.sum(w < sigma)


def test_fd_edge_sizes_keep_their_arrays():
    # m above the grid size: every eigenvalue of the 16-point grid, and the
    # 8 of its half grid for Richardson, as the dense solve returned them
    q, w16, _, eps_norm = dense_fd("band_limited", 16)
    w8 = dense_fd("band_limited", 8)[1]
    p = SpectralProblem(TWO_PI, TWO_PI, ScalarField1D(q, period=TWO_PI), truncation=16,
                        conv_tol=math.inf)
    plain = solve(p, m=40, backend="fd")
    assert np.max(np.abs(plain.eigenvalues - w16)) <= FD_EIG_ULPS * eps_norm
    extrapolated = solve(p, m=40, backend="fd", richardson=True)
    assert extrapolated.eigenvalues.shape == (8,)
    # (4 a - b) / 3 carries up to 5/3 of the two solves' errors
    assert np.max(np.abs(extrapolated.eigenvalues - (4.0 * w16[:8] - w8) / 3.0)) \
        <= 3 * FD_EIG_ULPS * eps_norm


def test_fd_solve_imports_no_scipy():
    code = ("import sys, numpy as np\n"
            "from jacobilab import ScalarField1D, SpectralProblem, solve\n"
            "q = ScalarField1D.from_function(lambda s: 1 + 0.3 * np.cos(s), 2 * np.pi)\n"
            "solve(SpectralProblem(2 * np.pi, 2 * np.pi, q, truncation=2048),"
            " backend='fd', richardson=True)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(jacobilab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


# --- Rayleigh quotient -----------------------------------------------------------

def test_rayleigh_constant_function():
    p = problem(lambda s: np.full_like(s, 4.0))
    f = ScalarField1D.constant(1.0, TWO_PI, 512)
    assert rayleigh_quotient(p, f) == pytest.approx(-4.0, abs=1e-12)


def test_rayleigh_ground_state_saturates():
    p = problem(lambda s: 1.0 + 0.3 * np.cos(s))
    r = solve(p)
    assert rayleigh_quotient(p, r.ground_state) == pytest.approx(r.lambda1, abs=1e-9)


def test_rayleigh_min_max_property(rng):
    p = problem(lambda s: 1.0 + 0.3 * np.cos(s))
    r = solve(p)
    grid = p.potential.grid
    for _ in range(200):
        deg = 8
        coef = rng.standard_normal(2 * deg + 1)
        f = coef[0] + sum(coef[j] * np.cos(j * grid) for j in range(1, deg + 1)) \
            + sum(coef[deg + j] * np.sin(j * grid) for j in range(1, deg + 1))
        rq = rayleigh_quotient(p, ScalarField1D.periodic(f, TWO_PI))
        assert rq >= r.lambda1 - 1e-9


def test_rayleigh_rejects_zero_function():
    p = problem(lambda s: np.zeros_like(s))
    with pytest.raises(ValueError):
        rayleigh_quotient(p, ScalarField1D.constant(0.0, TWO_PI, 512))


# --- alpha invariant ---------------------------------------------------------------

def test_alpha_constant_is_zero():
    rho = ScalarField1D.constant(2.5, TWO_PI)
    assert alpha_invariant(rho, area=TWO_PI) == 0.0


def test_alpha_against_adaptive_quadrature():
    # rho = 2 + sin s on the unit-fiber torus
    rho = ScalarField1D.from_function(lambda s: 2.0 + np.sin(s), TWO_PI, 512)
    expect, _ = scipy.integrate.quad(
        lambda t: np.cos(t) ** 2 / (2.0 + np.sin(t)) ** 2, 0.0, TWO_PI)
    assert alpha_invariant(rho, area=TWO_PI * 1.0) == pytest.approx(expect, abs=1e-8)


def test_alpha_rejects_nonpositive_rho():
    rho = ScalarField1D.from_function(np.sin, TWO_PI)
    with pytest.raises(ValueError):
        alpha_invariant(rho, area=1.0)


def test_alpha_of_constant_potential_ground_state():
    r = solve(problem(lambda s: np.full_like(s, 2.0)))
    assert alpha_invariant(r.ground_state, r.area) < 1e-18


# --- surface-level solves -------------------------------------------------------------

def test_hopf_torus_spectrum_closed_form():
    m = homogeneous_model(4.0, 0.5, TWO_PI)
    t = hopf_torus(m, TWO_PI, 0.0)
    r = solve_surface(t)
    assert r.lambda1 == pytest.approx(-4.0, abs=1e-10)
    assert lambda1_identity_check(t, r) < 1e-8


def test_slice_spectrum_is_exact_zero():
    m = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    s = horizontal_slice(m, base_area=4 * math.pi, genus=0)
    r = solve_surface(s)
    assert r.lambda1 == 0.0
    assert r.backend == "closed_form"
    assert lambda1_identity_check(s, r) == 0.0


def test_identity_check_nonconstant_potential():
    kappa = ScalarField1D.from_function(lambda sarr: 1 + 0.3 * np.cos(sarr), TWO_PI)
    m = product_model(ScalarField1D.constant(1.0, TWO_PI), TWO_PI)
    t = hopf_torus(m, TWO_PI, 1.0, kappa_on_curve=kappa,
                   tau_on_curve=ScalarField1D.constant(0.0, TWO_PI))
    r = solve_surface(t)
    assert lambda1_identity_check(t, r) < 1e-6


def test_ground_state_normalization():
    p = problem(lambda s: 1.0 + 0.3 * np.cos(s))
    r = solve(p)
    rho = r.ground_state
    circle_norm = np.sum(rho.samples**2) * rho.spacing
    # surface integral of rho^2 equals the area <=> circle integral equals L
    assert circle_norm == pytest.approx(TWO_PI, rel=1e-12)


def test_surface_problem_potential():
    m = homogeneous_model(4.0, 0.5, TWO_PI)
    t = hopf_torus(m, TWO_PI, 1.0)
    p = surface_spectral_problem(t)
    assert np.all(p.potential.samples == pytest.approx(5.0, abs=1e-14))
    assert p.area == pytest.approx(t.area)
