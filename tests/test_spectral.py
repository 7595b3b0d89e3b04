import functools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import jacobilab
from jacobilab import (ConvergenceError, FieldError, ScalarField1D,
                       SpectralProblem, alpha_invariant, homogeneous_model,
                       hopf_torus, horizontal_slice, lambda1_identity_check,
                       product_model, rayleigh_quotient, solve, solve_surface,
                       solve_torus_2d, spectral, surface_spectral_problem,
                       verification)
from jacobilab.spectral import (FD_RESIDUAL_ULPS, _fd_count_below, assemble_fd,
                                assemble_fourier)
from jacobilab.fields import _spectral_derivative
from conftest import ulp_tol

TWO_PI = 2 * math.pi


def problem(q_fn, L=TWO_PI, ell=TWO_PI, n=512, K=64, conv_tol=1e-6):
    q = ScalarField1D.from_function(q_fn, L, n)
    return SpectralProblem(circle_length=L, fiber_length=ell, potential=q,
                           truncation=K, conv_tol=conv_tol)


def test_constant_potential_closed_form():
    r = solve(problem(lambda s: np.full_like(s, 4.0)))
    assert r.lambda1 == pytest.approx(-4.0, abs=1e-12)
    assert r.ground_state.is_constant()
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


def test_truncation_must_be_an_integer():
    with pytest.raises(FieldError, match="integer"):
        problem(lambda s: np.zeros_like(s), K=6.5)
    p = problem(lambda s: np.full_like(s, 1.0), K=np.int64(16))
    assert solve(p, m=1).lambda1 == pytest.approx(-1.0, abs=1e-12)


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
# deep periodic wells: their low eigenvalues come in nearly equal pairs
WELL_POTENTIALS = {
    "cos20": lambda s: 400.0 * np.cos(20.0 * s),
    "cos40": lambda s: 800.0 * np.cos(40.0 * s),
}
# eigenvalue difference from eigh(assemble_fd) in units of eps ||A||, with
# ||A|| <= 4/h^2 + max|q|; both solves round.  Measured worst: 2.2 over the
# 30 cases below, 9.1 on 8 cos s - 8 sin 3s at N = 512
FD_EIG_ULPS = 16


@functools.lru_cache(maxsize=None)
def dense_fd(kind, n):
    q = {**FD_POTENTIALS, **WELL_POTENTIALS}[kind](np.arange(n) * (TWO_PI / n))
    w, v = np.linalg.eigh(assemble_fd(TWO_PI, q))
    eps_norm = np.finfo(float).eps * (4.0 * (n / TWO_PI) ** 2 + np.max(np.abs(q)))
    return q, w, v[:, 0], eps_norm


def fd_problem(q):
    return SpectralProblem(TWO_PI, TWO_PI, ScalarField1D(q, period=TWO_PI),
                           truncation=q.size)


@pytest.fixture
def fd_solves(monkeypatch):
    """One [rungs, dense solves] record per ``spectral._fd_eigs`` call: the
    rung t of each of its Rayleigh-Ritz steps (``_fd_rayleigh_ritz`` calls),
    in order, and its ``assemble_fd`` calls."""
    solves = []
    fd_eigs, assemble_fd = spectral._fd_eigs, spectral.assemble_fd
    rayleigh_ritz = spectral._fd_rayleigh_ritz

    def recording(*args):
        solves.append([[], 0])
        return fd_eigs(*args)

    def recording_step(length, q, inv_h2, coefficients):
        solves[-1][0].append(coefficients.shape[0] // 2)
        return rayleigh_ritz(length, q, inv_h2, coefficients)

    def counting_assemble_fd(*args):
        solves[-1][1] += 1
        return assemble_fd(*args)

    monkeypatch.setattr(spectral, "_fd_eigs", recording)
    monkeypatch.setattr(spectral, "_fd_rayleigh_ritz", recording_step)
    monkeypatch.setattr(spectral, "assemble_fd", counting_assemble_fd)
    return solves


@pytest.mark.parametrize("m", [1, 6, 20])
@pytest.mark.parametrize("n", [16, 17, 64, 1000, 2048])
@pytest.mark.parametrize("kind", list(FD_POTENTIALS))
def test_fd_eigensolve_matches_dense(kind, n, m, fd_solves):
    q, w, v0, eps_norm = dense_fd(kind, n)
    eigenvalues, x0 = spectral._fd_eigs(fd_problem(q), n, m)
    assert eigenvalues.shape == (min(m, n),)
    assert np.max(np.abs(eigenvalues - w[:m])) <= FD_EIG_ULPS * eps_norm
    # no rung steps with fewer than the k = m + 2 Ritz vectors the step
    # needs (m = 20 passes over rung 8); a top rung K0 below that makes no
    # step, and the dense matrix answers
    top = 2 * min(spectral.DEFAULT_TRUNCATION, (n - 1) // 4) + 1
    assert all(2 * t + 1 >= m + 2 for t in fd_solves[0][0])
    if top < m + 2:
        assert fd_solves == [[[], 1]]
    # Davis-Kahan: a residual below FD_RESIDUAL_ULPS eps ||A|| leaves the
    # ground vector within that over the spectral gap (measured: a third of it)
    x0 = x0 * np.sign(x0 @ v0)
    assert np.max(np.abs(x0 - v0)) <= FD_RESIDUAL_ULPS * eps_norm / (w[1] - w[0])


def fd_and_dense_on_periodic_wells(amplitude, wells, m, n=512):
    """``_fd_eigs`` and dense eigenvalues of amplitude cos(wells s), and the
    FD_RESIDUAL_ULPS eps ||A|| within which they must agree."""
    q = amplitude * np.cos(wells * np.arange(n) * (TWO_PI / n))
    w = np.linalg.eigvalsh(assemble_fd(TWO_PI, q))
    eps_norm = np.finfo(float).eps * (4.0 * (n / TWO_PI) ** 2 + np.max(np.abs(q)))
    return spectral._fd_eigs(fd_problem(q), n, m)[0], w[:m], FD_RESIDUAL_ULPS * eps_norm


@pytest.mark.parametrize("m", [1, 6])
def test_fd_deep_periodic_well_goes_dense_after_one_step(m, fd_solves):
    # no rung resolves the 40 wells of 800 cos 40s: the one Rayleigh-Ritz
    # step of every rung up to the top one, K0 = 64, fails to certify, and
    # the answer is the dense matrix's
    eigenvalues, dense, tol = fd_and_dense_on_periodic_wells(800.0, 40, m)
    assert fd_solves == [[[8, 16, 32, 64], 1]]
    assert np.max(np.abs(eigenvalues - dense)) <= tol


@pytest.mark.parametrize("m", [1, 6])
def test_fd_twenty_deep_wells_match_dense(m, fd_solves):
    # 400 cos 20s: a cluster of 20 nearly equal eigenvalues at the bottom,
    # which the one step does not separate
    eigenvalues, dense, tol = fd_and_dense_on_periodic_wells(400.0, 20, m)
    assert fd_solves == [[[8, 16, 32, 64], 1]]
    assert np.max(np.abs(eigenvalues - dense)) <= tol


WRONG_POTENTIAL_BLOCKS = {
    "negated_q": lambda block, q_samples, K: block(-q_samples, K),
    "zero_q": lambda block, q_samples, K: np.zeros((2 * K + 1, 2 * K + 1)),
}


@pytest.mark.parametrize("m", [1, 6])
@pytest.mark.parametrize("n", [64, 1000])
@pytest.mark.parametrize("kind", ["band_limited", "deep_well"])
@pytest.mark.parametrize("wrong", list(WRONG_POTENTIAL_BLOCKS))
def test_fd_answer_does_not_depend_on_the_start(wrong, kind, n, m, monkeypatch, fd_solves):
    # the start shares its potential block with assemble_fourier; a wrong
    # block there fails the residual stop of every rung's step, and the
    # dense matrix answers, so the fd oracle stays independent of the
    # Galerkin assembly
    calls = []
    block = spectral._potential_block

    def wrong_block(q_samples, K):
        calls.append(K)
        return WRONG_POTENTIAL_BLOCKS[wrong](block, q_samples, K)

    monkeypatch.setattr(spectral, "_potential_block", wrong_block)
    q, w, v0, eps_norm = dense_fd(kind, n)
    eigenvalues, x0 = spectral._fd_eigs(fd_problem(q), n, m)
    assert calls
    assert fd_solves == [[{64: [8, 15], 1000: [8, 16, 32, 64]}[n], 1]]
    assert np.max(np.abs(eigenvalues - w[:m])) <= FD_EIG_ULPS * eps_norm
    x0 = x0 * np.sign(x0 @ v0)
    assert np.max(np.abs(x0 - v0)) <= FD_RESIDUAL_ULPS * eps_norm / (w[1] - w[0])


def _oracle_potentials():
    # q0 + a cos(s + phi) over the oracle workload's ranges, a up to 1
    rng = np.random.default_rng(91)
    draws = [(rng.uniform(-2.0, 4.0), rng.uniform(0.05, 1.0), rng.uniform(0.0, TWO_PI))
             for _ in range(6)]
    return [lambda s, q0=q0, a=a, phi=phi: q0 + a * np.cos(s + phi)
            for q0, a, phi in draws + [(-2.0, 1.0, 0.0), (4.0, 1.0, 2.0)]]


@pytest.mark.parametrize("cases, sizes, ms, certified", [
    pytest.param(_oracle_potentials(), (1024, 2048), (6,), (8, 16), id="oracle"),
    pytest.param(verification._equivalence_potentials(verification.DEFAULT_SEED),
                 (512, 1024), (1,), (8, 32), id="backend_equivalence"),
    pytest.param([FD_POTENTIALS["deep_well"]], (512, 2048), (1, 6), (64, 64),
                 id="deep_well"),
])
def test_fd_smooth_potentials_take_one_rayleigh_ritz_step(cases, sizes, ms, certified,
                                                          fd_solves):
    # the start resolves smooth potentials on the grid: each solve takes one
    # Rayleigh-Ritz step per rung it climbs and certifies without the dense
    # matrix.  The oracle's
    # gentle potentials certify at rung 8 or 16 (measured: 16 solves, 18
    # steps), the backend_equivalence ones by rung 32; the Gaussian well
    # only at the top rung, K0 = 64
    for q_fn in cases:
        for n in sizes:
            for m in ms:
                spectral._fd_eigs(fd_problem(q_fn(np.arange(n) * (TWO_PI / n))), n, m)
    assert len(fd_solves) == len(cases) * len(sizes) * len(ms)
    lowest, highest = certified
    for rungs, dense_solves in fd_solves:
        assert dense_solves == 0 and lowest <= rungs[-1] <= highest
        assert rungs == [8 << i for i in range(len(rungs))]


@pytest.mark.parametrize("n", [16, 17, 64, 1000, 1024, 2048])
@pytest.mark.parametrize("kind", list(FD_POTENTIALS) + list(WELL_POTENTIALS))
def test_fd_inertia_count_matches_eigvalsh(kind, n, rng):
    q, w, _, eps_norm = dense_fd(kind, n)
    inv_h2 = 1.0 / (TWO_PI / n) ** 2
    res_tol = FD_RESIDUAL_ULPS * eps_norm
    # random shifts over the low spectrum, and the midpoints of its gaps,
    # where the solve places its shift; a shift within rounding of an
    # eigenvalue (the middle of a double one) has no defined count
    shifts = np.concatenate((rng.uniform(w[0] - 1.0, w[min(n, 40) - 1], 20),
                             0.5 * (w[:12] + w[1:13])))
    shifts = shifts[np.min(np.abs(shifts[:, None] - w), axis=1) > res_tol]
    assert shifts.size >= 20
    # shifts 1 to 1024 residual stops from each of the 20 lowest eigenvalues,
    # kept at least half their offset from every eigenvalue, and the
    # midpoints of the gaps the solve would take (wider than 4 stops): next
    # to a (nearly) double eigenvalue an unpivoted elimination miscounts
    offsets = np.outer([-1.0, 1.0], [1.0, 4.0, 64.0, 1024.0]).ravel() * res_tol
    near = w[:20, None] + offsets
    near = near[np.min(np.abs(near[..., None] - w), axis=-1) >= np.abs(offsets) / 2.0]
    low = w[:20]
    gaps = (0.5 * (low[:-1] + low[1:]))[np.diff(low) > 4.0 * res_tol]
    for sigma in np.concatenate((shifts, near, gaps)):
        assert _fd_count_below(q, inv_h2, sigma) == np.sum(w < sigma)


@pytest.mark.parametrize("n", [101, 201])
def test_fd_richardson_on_an_odd_grid_uses_its_step_ratio(n):
    # the half grid of an odd N has the step ratio r = N / (N // 2), not 2;
    # extrapolated with r the odd grid is as accurate as the even grid N - 1
    # (with the ratio 2, 75 times less accurate at N = 201)
    lam_ref = scipy.special.mathieu_a(0, 1.0) / 4.0 - 1.0
    q_fn = lambda s: 1.0 + 0.5 * np.cos(s)
    even, odd = (abs(solve(problem(q_fn, n=size, K=size, conv_tol=math.inf), m=1,
                           backend="fd", richardson=True).lambda1 - lam_ref)
                 for size in (n - 1, n))
    assert odd <= 2.0 * even


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


def _trig_rows(n, m, rng, L=TWO_PI):
    """m random trigonometric polynomials of degree 8 on the n-point grid."""
    grid = np.arange(n) * (L / n)
    table = np.stack([np.cos(j * 2 * np.pi / L * grid) for j in range(9)]
                     + [np.sin(j * 2 * np.pi / L * grid) for j in range(1, 9)])
    return rng.standard_normal((m, 17)) @ table


@pytest.mark.parametrize("n", [8, 9, 500, 512])
def test_stacked_rayleigh_quotients_match_one_at_a_time(n, rng):
    p = problem(lambda s: 1.0 + 0.3 * np.cos(s) - 0.5 * np.sin(3 * s), n=n)
    rows = _trig_rows(n, 50, rng)
    one_at_a_time = [rayleigh_quotient(p, ScalarField1D.periodic(f, TWO_PI)) for f in rows]
    assert np.array_equal(spectral._rayleigh_quotients(p, rows), one_at_a_time)


@pytest.mark.parametrize("n", [8, 9, 500, 512])
def test_spectral_derivative_of_a_stack_matches_each_row(n, rng):
    rows = _trig_rows(n, 20, rng, L=3.7)
    stacked = _spectral_derivative(rows, 3.7)
    for row, d in zip(rows, stacked):
        assert np.array_equal(d, _spectral_derivative(row, 3.7))


def test_rayleigh_quotients_reject_a_zero_row(rng):
    rows = _trig_rows(512, 4, rng)
    rows[2] = 0.0
    with pytest.raises(ValueError):
        spectral._rayleigh_quotients(problem(np.cos), rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rayleigh_quotients_reject_a_non_finite_row(bad, rng):
    rows = _trig_rows(512, 4, rng)
    rows[1, 7] = bad
    with pytest.raises(FieldError):
        spectral._rayleigh_quotients(problem(np.cos), rows)


@pytest.mark.parametrize("shape", [(4, 511), (4, 513), (512,), (2, 4, 512)])
def test_rayleigh_quotients_reject_rows_off_the_grid(shape):
    with pytest.raises(FieldError):
        spectral._rayleigh_quotients(problem(np.cos), np.ones(shape))


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
    p = problem(lambda s: np.full_like(s, 2.0))
    assert alpha_invariant(solve(p).ground_state, p.area) < 1e-18


def test_constant_data_torus_off_a_power_of_two_grid_has_exact_zero_derivatives(rng):
    # the FFT derivative of equal samples once left rounding noise off
    # power-of-two grids: every one of these tori had a nonzero intrinsic
    # |grad tau| and alpha at n = 500
    for _ in range(20):
        kappa, tau, k_g = rng.uniform(-2.0, 2.0, 3)
        t = hopf_torus(homogeneous_model(kappa, tau, TWO_PI), rng.uniform(1.0, 10.0), k_g,
                       n=500)
        assert not np.any(t.grad_tau_intrinsic.samples)
        assert alpha_invariant(solve_surface(t).ground_state, t.area) == 0.0


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
    t = hopf_torus(product_model(kappa, TWO_PI), TWO_PI, 1.0)
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


# --- constant potentials: the diagonal Galerkin matrix ---------------------------

def _lapack_solve(p, m, spectra=None):
    """What solve computed for every Fourier problem before the diagonal
    shortcut: eigenvalues, ground state and K/2 estimate through LAPACK.
    ``spectra`` caches the eigensolves by the values of the assembled matrix,
    ignoring the signs of its zero entries."""
    L, q, K = p.circle_length, p.potential.samples, p.truncation
    H = assemble_fourier(L, q, K)
    key = (H + 0.0).tobytes()
    if spectra is None or key not in spectra:
        w, v = np.linalg.eigh(H)
        half = np.linalg.eigvalsh(assemble_fourier(L, q, max(4, K // 2)))[0]
        spectra = {} if spectra is None else spectra
        spectra[key] = (w[:m], v[:, 0], abs(w[0] - half))
    w, v0, estimate = spectra[key]
    rho = spectral._fourier_ground_state(L, v0, q.size)
    return w, spectral._normalize_ground_state(rho, L), estimate


@pytest.mark.parametrize("c0", [0.0, -0.0, -3.7, 1e3])
@pytest.mark.parametrize("K", [4, 5, 64, 1024])
def test_constant_potential_matches_lapack_bit_for_bit(K, c0):
    # the three grids assemble one matrix up to the signs of zero off-diagonal
    # entries, which do not change what eigh returns; one eigh of size 2049
    # per c0 keeps the K = 1024 cases at a few seconds
    spectra = {}
    for n in (8, 512, 65536):
        p = problem(lambda s: np.full_like(s, c0), n=n, K=K, conv_tol=math.inf)
        # on these grids the rfft of a constant has exact zeros and c_0 == q,
        # so LAPACK sees the diagonal matrix diag(0, k^2, k^2) - q itself
        assert not np.any(spectral._potential_coefficients(p.potential.samples, K)[1:])
        w, rho, estimate = _lapack_solve(p, 6, spectra)
        r = solve(p)
        assert np.array_equal(r.eigenvalues, w)
        assert np.array_equal(np.signbit(r.eigenvalues), np.signbit(w))
        assert np.array_equal(r.ground_state.samples, rho)
        assert r.convergence_estimate == estimate == 0.0


@pytest.mark.parametrize("c", [0.0, 1e-290])
def test_tiny_harmonic_takes_the_lapack_path(c, monkeypatch):
    # c_1 = 5e-301 passes any tolerance scaled by max(1, |c_0|); only a test
    # for exact zeros sees that the matrix is not diagonal
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    p = problem(lambda s: c + 1e-300 * np.cos(s))
    r = solve(p)
    assert shapes == [(129, 129)]
    w, rho, _ = _lapack_solve(p, 6)
    assert np.array_equal(r.eigenvalues, w)
    assert np.array_equal(r.ground_state.samples, rho)


def _refuse_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on a constant potential")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


def test_constant_data_hopf_torus_solves_without_lapack(monkeypatch):
    _refuse_lapack(monkeypatch)
    t = hopf_torus(homogeneous_model(4.0, 0.5, TWO_PI), TWO_PI, 1.0)
    r = solve_surface(t)
    # q = 4 H^2 + kappa = k_g^2 + kappa
    assert r.lambda1 == -5.0
    assert r.convergence_estimate == 0.0
    assert np.max(np.abs(r.ground_state.samples - 1.0)) <= ulp_tol(2, 1.0)


# --- lower truncations: principal submatrices of one Galerkin matrix -----------

LADDER_SAMPLES = {
    "constant": lambda s: np.full_like(s, 2.5),
    "one_harmonic": lambda s: 2.0 + 0.3 * np.cos(s),
    "three_harmonics": lambda s: (1.3 + 0.7 * np.cos(s + 0.4) + 0.2 * np.sin(2 * s)
                                  - 0.1 * np.cos(3 * s)),
    # exact zero coefficients below n/4, so low rungs of a non-diagonal matrix
    # meet LAPACK on a diagonal slice where they used to take the closed form
    "period_4_of_512": lambda s: np.tile([2.0, 1.5, 2.0, 2.5], s.size // 4),
    "period_4_of_256": lambda s: np.tile([3.0, 2.0, 1.0, 2.0], s.size // 4),
}
LADDER_GRIDS = {"period_4_of_256": 256}


def _ladder_by_rung_solves(p):
    """The convergence series as run_scenario computed it before the ladder
    sliced one matrix: a full solve per rung, convergence check disabled."""
    rows, t = [], 8
    while t <= p.truncation:
        rows.append([t, solve(replace(p, truncation=t, conv_tol=math.inf), m=1).lambda1])
        t *= 2
    return rows


def _bits(rows):
    return [(t, np.float64(v).tobytes()) for t, v in rows]


@pytest.mark.parametrize("K", [4, 5, 8, 12, 33, 64, 100, 256])
@pytest.mark.parametrize("kind", list(LADDER_SAMPLES))
def test_ladder_and_estimate_match_the_rung_solves_bit_for_bit(kind, K):
    p = problem(LADDER_SAMPLES[kind], n=LADDER_GRIDS.get(kind, 512), K=K, conv_tol=math.inf)
    r = solve(p)
    ladder = spectral._convergence_ladder(p, r.lambda1)
    assert [t for t, _ in ladder] == [t for t in (8, 16, 32, 64, 128, 256) if t <= K]
    assert _bits(ladder) == _bits(_ladder_by_rung_solves(p))
    # the K/2 estimate against a second assembly of the K/2 matrix
    assert np.float64(r.convergence_estimate).tobytes() == \
        np.float64(_lapack_solve(p, 1)[2]).tobytes()


@pytest.mark.parametrize("kind", ["period_4_of_512", "period_4_of_256"])
def test_period_4_samples_have_a_diagonal_low_rung(kind):
    p = problem(LADDER_SAMPLES[kind], n=LADDER_GRIDS.get(kind, 512))
    q = p.potential.samples
    assert not np.any(spectral._potential_coefficients(q, 8)[1:])
    assert np.any(spectral._potential_coefficients(q, 64)[1:])


@pytest.mark.parametrize("n", [8, 129, 500, 512])
def test_constant_samples_take_the_closed_form_on_every_grid(rng, monkeypatch, n):
    # the rfft of a constant leaves rounding noise in c_n, n >= 1, on grids
    # that are not a power of two; the test on the samples does not see it
    _refuse_lapack(monkeypatch)
    for q in [0.0, -0.0, 2.0, 3.7, 4.25, *1e3 * rng.standard_normal(4)]:
        L = 1.0 + rng.random()
        p = SpectralProblem(L, TWO_PI, ScalarField1D.constant(q, L, n), conv_tol=0.0)
        r = solve(p, m=7)
        assert np.float64(r.lambda1).tobytes() == (0.0 - np.float64(q)).tobytes()
        assert np.array_equal(r.eigenvalues,
                              np.sort(spectral._kinetic_diagonal(L, 64) + r.lambda1)[:7])
        assert r.convergence_estimate == 0.0
        assert np.all(r.ground_state.samples == r.ground_state.samples[0])
        assert abs(r.ground_state.samples[0] - 1.0) <= ulp_tol(2, 1.0)
        assert _bits(spectral._convergence_ladder(p, r.lambda1)) == \
            _bits([[8, r.lambda1], [16, r.lambda1], [32, r.lambda1], [64, r.lambda1]])


@pytest.mark.parametrize("kind", ["period_4_of_512", "period_4_of_256"])
def test_period_4_samples_at_k_8_reach_lapack_with_the_closed_form_bits(kind, monkeypatch):
    # every coefficient the K = 8 matrix reads is zero but c_0, so the
    # matrix is diagonal while the samples are not constant: eigh solves it
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    p = problem(LADDER_SAMPLES[kind], n=LADDER_GRIDS.get(kind, 512), K=8)
    q = p.potential.samples
    r = solve(p)
    assert calls == [(17, 17)] and not p.potential.is_constant()
    lambda1 = 0.0 - spectral._potential_coefficients(q, 8)[0].real
    assert np.float64(r.lambda1).tobytes() == lambda1.tobytes()
    assert np.array_equal(r.eigenvalues,
                          np.sort(spectral._kinetic_diagonal(p.circle_length, 8) + lambda1)[:6])
    assert r.convergence_estimate == 0.0
    e0 = np.zeros(17)
    e0[0] = 1.0
    rho = spectral._fourier_ground_state(p.circle_length, e0, q.size)
    assert np.array_equal(r.ground_state.samples,
                          spectral._normalize_ground_state(rho, p.circle_length))


def test_a_circle_too_short_for_its_kinetic_term_is_refused():
    # (2 pi K / L)^2 at K = 64 is about 1.6e307 at L = 1e-151 and beyond the
    # largest float at 1e-152
    assert solve(SpectralProblem(1e-151, TWO_PI, ScalarField1D.constant(1.0, 1e-151))).lambda1 == -1
    with pytest.raises(FieldError, match="lengths out of range: a circle of length 1e-152 "):
        SpectralProblem(1e-152, TWO_PI, ScalarField1D.constant(1.0, 1e-152))


def test_galerkin_slice_is_the_lower_truncation_matrix(rng):
    q = 1.0 + rng.standard_normal(64)
    H = assemble_fourier(3.0, q, 20)
    for t in (4, 7, 13, 20):
        assert np.array_equal(spectral._galerkin_slice(H, t), assemble_fourier(3.0, q, t))
