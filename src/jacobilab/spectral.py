"""Spectrum of the stability operator J = Laplacian + q on flat tori.

Eigenvalues follow the convention J f + lambda f = 0, i.e. they are the
eigenvalues of -Laplacian - q, so strong stability reads lambda_1 >= 0.

For potentials constant along the fibers the problem on the L x ell torus
reduces to the circle of length L: fiber modes only add (2 pi k / ell)^2 >= 0
and never lower the bottom of the spectrum.  Two independent discretizations
of the reduced problem are provided:

* ``fourier`` (primary): Galerkin in the orthonormal trigonometric basis
  [1, cos_k, sin_k] / norms, k = 1..K.  The kinetic part is diagonal with
  entries (2 pi k / L)^2 and the potential couples modes through the
  Fourier coefficients c_n of q, read from one Toeplitz (c_{|j-k|}) and one
  Hankel (c_{j+k}) index table; the assembled matrix is real symmetric of
  size 2K + 1.  Spectrally accurate for smooth potentials.

* ``fd`` (oracle): second-order central differences on a periodic grid of N
  points, optionally Richardson-extrapolated from the N/2 and N solves.  The
  periodic tridiagonal matrix is never formed: a preconditioned block
  Rayleigh-Ritz iteration applies the 3-point stencil in O(N) per vector,
  and an O(N) inertia count certifies that no low eigenvalue was missed.

The Fourier backend diagonalizes its (2K + 1)-square matrix with dense
LAPACK.  The torus spectrum with fiber modes (:func:`solve_torus_2d`) is the
exact merge of the circle spectrum with the fiber kinetic terms, so it needs
no eigensolve of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FieldError, JacobilabError
from .fields import ScalarField1D
from .surface import HopfTorus, SurfaceModel, potential_field

DEFAULT_TRUNCATION = 64
DEFAULT_FD_TRUNCATION = 2048
DEFAULT_CONV_TOL = 1e-6
MIN_FD_GRID = 16
# fd eigensolve: residual stop in units of eps ||A||, and the iterations
# allowed per block size before the block grows
FD_RESIDUAL_ULPS = 64
FD_MAX_ITERATIONS = 50


@dataclass(frozen=True)
class SpectralProblem:
    """Operator -Laplacian - q on the flat torus circle_length x fiber_length.

    ``potential`` must be periodic with period circle_length and is taken
    constant along the fibers.  ``truncation`` is the Fourier mode count K
    for the Galerkin backend and the grid size N for the finite-difference
    backend.
    """

    circle_length: float
    fiber_length: float
    potential: ScalarField1D
    truncation: int = DEFAULT_TRUNCATION
    conv_tol: float = DEFAULT_CONV_TOL

    def __post_init__(self):
        if not (math.isfinite(self.circle_length) and self.circle_length > 0):
            raise FieldError(f"circle_length must be positive, got {self.circle_length}")
        if not (math.isfinite(self.fiber_length) and self.fiber_length > 0):
            raise FieldError(f"fiber_length must be positive, got {self.fiber_length}")
        if not self.potential.is_periodic or \
                not math.isclose(self.potential.period, self.circle_length, rel_tol=1e-12):
            raise FieldError("potential period must equal circle_length")
        if self.truncation < 4:
            raise FieldError("truncation must be >= 4")

    @property
    def area(self) -> float:
        return self.circle_length * self.fiber_length


@dataclass(frozen=True)
class SpectralResult:
    """Lowest part of the spectrum plus the positive ground state.

    ``ground_state`` is sign-fixed to positive mean and normalized so that
    its squared surface integral equals the torus area.  ``eigenvalues`` are
    the lowest m values in ascending order (with multiplicity); :func:`solve`
    returns the circle spectrum (fiber mode 0), :func:`solve_torus_2d` the
    torus spectrum.
    """

    lambda1: float
    eigenvalues: np.ndarray
    ground_state: ScalarField1D
    backend: str
    convergence_estimate: float
    truncation: int
    area: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))


# --- Fourier-Galerkin backend ------------------------------------------------

def assemble_fourier(length: float, q_samples: np.ndarray, K: int) -> np.ndarray:
    """Real symmetric Galerkin matrix of -d^2/ds^2 - q, size 2K + 1.

    Basis order [const, cos_1..cos_K, sin_1..sin_K].  With c_n = rfft(q)/N
    (c_{-n} = conj(c_n)) and cos_0 = const, the potential blocks are one
    Toeplitz table c_{|j-k|} plus one Hankel table c_{j+k}:
    <cos_j|q|cos_k> = w_j w_k (Re c_{|j-k|} + Re c_{j+k}),
    <sin_j|q|sin_k> = Re c_{|j-k|} - Re c_{j+k},
    <cos_j|q|sin_k> = w_j (Im c_{j-k} - Im c_{j+k}), where w_0^2 = 1/2 and
    w_j = 1 otherwise.  Harmonics beyond the grid Nyquist are taken as zero
    (exact for band-limited potentials, spectrally accurate otherwise).
    """
    n = q_samples.size
    # stop below the Nyquist mode of even grids, where cos amplitudes alias
    avail = min(2 * K, (n - 1) // 2)
    c = np.zeros(2 * K + 1, dtype=complex)
    c[:avail + 1] = (np.fft.rfft(q_samples) / n)[:avail + 1]
    j = np.arange(K + 1)
    toeplitz = np.abs(j[:, None] - j)
    hankel = j[:, None] + j
    sign = np.sign(j[:, None] - j)
    # divide by sqrt(1/w^2) rather than multiply by w: sqrt(4) = 2 is exact,
    # so the constant-mode entry stays exactly Re c_0
    inv_w2 = np.ones(K + 1)
    inv_w2[0] = 2.0
    Vcc = (c.real[toeplitz] + c.real[hankel]) / np.sqrt(np.outer(inv_w2, inv_w2))
    Vss = c.real[toeplitz[1:, 1:]] - c.real[hankel[1:, 1:]]
    Vcs = (sign * c.imag[toeplitz] - c.imag[hankel])[:, 1:] / np.sqrt(inv_w2)[:, None]

    kinetic = (2.0 * np.pi / length) ** 2 * j[1:].astype(float) ** 2
    H = -np.block([[Vcc, Vcs], [Vcs.T, Vss]])
    H[np.diag_indices(2 * K + 1)] += np.concatenate(([0.0], kinetic, kinetic))
    return H


def _fourier_ground_state(length: float, vec: np.ndarray, n: int) -> np.ndarray:
    """Values of the basis expansion ``vec`` at the n periodic grid points.

    One inverse real FFT on P = r n > 2K points carries every mode without
    aliasing; keeping every r-th value samples the expansion on the n-grid.
    """
    K = (vec.size - 1) // 2
    r = 2 * K // n + 1
    X = np.zeros(r * n // 2 + 1, dtype=complex)
    X[0] = vec[0] / math.sqrt(length)
    X[1:K + 1] = math.sqrt(2.0 / length) * (vec[1:K + 1] - 1j * vec[K + 1:]) / 2.0
    return np.fft.irfft(X, r * n, norm="forward")[::r]


def _fourier_lambda1(length: float, q_samples: np.ndarray, K: int) -> float:
    return float(np.linalg.eigvalsh(assemble_fourier(length, q_samples, K))[0])


def _normalize_ground_state(values: np.ndarray, length: float) -> np.ndarray:
    """Sign-fix to positive mean and scale so the circle integral of rho^2 is
    the circle length (hence the surface integral is the torus area)."""
    if np.mean(values) < 0:
        values = -values
    if np.min(values) <= 0:
        raise JacobilabError("computed ground state is not strictly positive")
    norm2 = np.sum(values**2) * (length / values.size)
    return values * math.sqrt(length / norm2)


# --- finite-difference backend ------------------------------------------------

def assemble_fd(length: float, q_samples: np.ndarray) -> np.ndarray:
    """Periodic second-order central-difference matrix of -d^2/ds^2 - q."""
    n = q_samples.size
    h = length / n
    A = np.diag(2.0 / h**2 - q_samples)
    idx = np.arange(n)
    A[idx, (idx + 1) % n] -= 1.0 / h**2
    A[idx, (idx - 1) % n] -= 1.0 / h**2
    return A


def _fd_apply(q: np.ndarray, inv_h2: float, X: np.ndarray) -> np.ndarray:
    """A X for the periodic 3-point stencil, without forming A."""
    return (2.0 * X - np.roll(X, 1, axis=0) - np.roll(X, -1, axis=0)) * inv_h2 \
        - q[:, None] * X


def _trig_modes(n: int, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the grid basis [1, cos s, sin s, cos 2s, ...];
    the n columns of a full basis end at the grid Nyquist mode."""
    phase = 2.0 * np.pi * np.arange(n) / n
    cols = [np.sin(t // 2 * phase) if t % 2 == 0 and t > 0 else np.cos((t + 1) // 2 * phase)
            for t in range(start, stop)]
    return np.array(cols).T.reshape(n, stop - start)


def _fd_count_below(q: np.ndarray, inv_h2: float, sigma: float) -> int:
    """Number of eigenvalues of the periodic fd matrix below ``sigma``.

    Inertia of A - sigma (Sylvester) from the LDL^T pivots of its leading
    tridiagonal (n-1) x (n-1) block, plus the sign of the Schur complement of
    that block, which carries the two periodic corner entries (Haynsworth).
    A zero pivot is replaced by -eps |e|, a perturbation of A below its
    rounding.
    """
    e = -inv_h2
    a = (2.0 * inv_h2 - q - sigma).tolist()
    n = len(a)
    tiny = -np.finfo(float).eps * inv_h2
    d, g, schur, count = a[0], e, a[-1], 0
    for i in range(1, n - 1):
        d = d or tiny
        count += d < 0.0
        ratio = e / d
        schur -= g * g / d
        g = (e if i == n - 2 else 0.0) - ratio * g
        d = a[i] - e * ratio
    d = d or tiny
    schur -= g * g / d
    return count + (d < 0.0) + (schur < 0.0)


def _fd_eigs(problem: SpectralProblem, n_grid: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``min(m, n_grid)`` eigenvalues and the ground vector of the fd matrix.

    Block Rayleigh-Ritz on [X, P R, previous direction] (LOBPCG, Knyazev
    2001): X starts from the k = m + 2 lowest grid trig modes, R is the
    residual block and P = (L + c)^-1 the exact inverse of the shifted
    periodic difference Laplacian L, applied by FFT, with
    c = (2 pi / length)^2 - mean(q) - theta_1 for the lowest Ritz value
    theta_1 (q replaced by its mean).  The solve stops once every returned
    residual is at most FD_RESIDUAL_ULPS eps ||A|| and an inertia count of
    A - sigma, with sigma in the first clear Ritz gap at index j >= m, finds
    exactly j eigenvalues below sigma; otherwise the block grows by two trig
    modes.  A basis of n_grid or more columns spans the whole space, where
    Rayleigh-Ritz is exact.
    """
    L = problem.circle_length
    q = problem.potential.resampled(n_grid).samples
    inv_h2 = 1.0 / (L / n_grid) ** 2
    eps_norm = np.finfo(float).eps * (4.0 * inv_h2 + float(np.max(np.abs(q))))
    res_tol = FD_RESIDUAL_ULPS * eps_norm
    freq = np.arange(n_grid // 2 + 1)
    kinetic = 4.0 * inv_h2 * np.sin(np.pi * freq / n_grid) ** 2 + (2.0 * np.pi / L) ** 2
    q_mean = float(np.mean(q))

    k = min(m + 2, n_grid)
    basis = _trig_modes(n_grid, 0, k)
    stalled = 0
    while True:
        Q = np.linalg.qr(basis)[0]
        AQ = _fd_apply(q, inv_h2, Q)
        H = Q.T @ AQ
        theta, V = np.linalg.eigh((H + H.T) / 2.0)
        if Q.shape[1] == n_grid:
            return theta[:m], Q @ V[:, 0]
        X, AX = Q @ V[:, :k], AQ @ V[:, :k]
        R = AX - X * theta[:k]
        converged = np.linalg.norm(R, axis=0) <= res_tol
        j = next((j for j in range(m, k) if theta[j] - theta[j - 1] > 4.0 * res_tol), k)
        stalled += 1
        if converged[:j].all():
            if j < k and _fd_count_below(q, inv_h2, 0.5 * (theta[j - 1] + theta[j])) == j:
                return theta[:m], X[:, 0]
            stalled = FD_MAX_ITERATIONS  # a missed eigenvalue or no clear gap
        # theta_1 <= -mean(q) by min-max; the guard only absorbs rounding
        symbol = kinetic + max(0.0, -q_mean - theta[0])
        W = np.fft.irfft(np.fft.rfft(R, axis=0) / symbol[:, None], n_grid, axis=0)
        k_next = min(k + 2, n_grid) if stalled >= FD_MAX_ITERATIONS else k
        basis = np.hstack([X, _trig_modes(n_grid, k, k_next), W, Q[:, k:] @ V[k:, :k]])
        if k_next > k:
            k, stalled = k_next, 0


# --- public solves -------------------------------------------------------------

def solve(problem: SpectralProblem, m: int = 6, backend: str = "fourier",
          richardson: bool = False) -> SpectralResult:
    """Lowest ``m`` eigenvalues and the ground state of -Laplacian - q.

    The reported convergence_estimate is |lambda1(T) - lambda1(T/2)| over the
    problem truncation T; a value above the problem's conv_tol raises
    :class:`ConvergenceError`.  ``richardson`` applies h^2 extrapolation to
    the fd eigenvalues (the fourier backend ignores it).  The fd backend
    returns at most N eigenvalues on its N-point grid, N/2 with ``richardson``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    L = problem.circle_length
    q_field = problem.potential

    if backend == "fourier":
        K = problem.truncation
        H = assemble_fourier(L, q_field.samples, K)
        w, vecs = np.linalg.eigh(H)
        eigenvalues = w[:m]
        estimate = abs(w[0] - _fourier_lambda1(L, q_field.samples, max(4, K // 2)))
        rho = _fourier_ground_state(L, vecs[:, 0], q_field.n)
    elif backend == "fd":
        n_grid = problem.truncation
        if n_grid < MIN_FD_GRID:
            raise FieldError(f"fd backend needs truncation >= {MIN_FD_GRID}")
        w_full, v0 = _fd_eigs(problem, n_grid, m)
        w_half, _ = _fd_eigs(problem, n_grid // 2, m)
        estimate = abs(w_full[0] - w_half[0])
        if richardson:
            # the half grid has n_grid // 2 eigenvalues when m exceeds that
            eigenvalues = (4.0 * w_full[:w_half.size] - w_half) / 3.0
        else:
            eigenvalues = w_full.copy()
        rho = v0
    else:
        raise ValueError(f"unknown backend {backend!r}")

    if estimate > problem.conv_tol:
        raise ConvergenceError(
            f"convergence estimate {estimate:g} above tolerance {problem.conv_tol:g}; "
            f"increase the truncation")

    rho = _normalize_ground_state(rho, L)
    return SpectralResult(
        lambda1=float(eigenvalues[0]),
        eigenvalues=eigenvalues,
        ground_state=ScalarField1D(rho, period=L),
        backend=backend if not (backend == "fd" and richardson) else "fd_richardson",
        convergence_estimate=float(estimate),
        truncation=problem.truncation,
        area=problem.area,
    )


def solve_torus_2d(problem: SpectralProblem, m: int = 6) -> SpectralResult:
    """Lowest ``m`` eigenvalues on the L x ell torus, fiber modes included.

    For fiber-constant potentials fiber mode k only adds (2 pi k / ell)^2 to
    the circle spectrum mu_i, so the torus spectrum is the sorted merge of
    {mu_i + (2 pi k / ell)^2}, each k != 0 counted twice (cos and sin along
    the fiber).  Fiber modes |k| <= m // 2 suffice: the 1 + 2 (m // 2) >= m
    values mu_1 + (2 pi j / ell)^2, |j| <= m // 2, lie strictly below every
    value of a mode |k| > m // 2.  The circle solve, its ground state and its
    convergence check are those of :func:`solve`.
    """
    circle = solve(problem, m=m)
    k = np.concatenate(([0], np.repeat(np.arange(1, m // 2 + 1), 2)))
    fiber_kinetic = (2.0 * np.pi / problem.fiber_length) ** 2 * k.astype(float) ** 2
    eigenvalues = np.sort((fiber_kinetic[:, None] + circle.eigenvalues).ravel())[:m]
    return SpectralResult(
        lambda1=float(eigenvalues[0]),
        eigenvalues=eigenvalues,
        ground_state=circle.ground_state,
        backend="fourier_2d",
        convergence_estimate=circle.convergence_estimate,
        truncation=problem.truncation,
        area=problem.area,
    )


def surface_spectral_problem(s: HopfTorus, truncation: int = DEFAULT_TRUNCATION,
                             conv_tol: float = DEFAULT_CONV_TOL) -> SpectralProblem:
    """Stability-operator eigenvalue problem of a Hopf torus."""
    q = potential_field(s)
    return SpectralProblem(circle_length=s.curve_length, fiber_length=s.fiber_length,
                           potential=q, truncation=truncation, conv_tol=conv_tol)


def solve_surface(s: SurfaceModel, m: int = 6, backend: str = "fourier",
                  truncation: int | None = None, richardson: bool = False,
                  conv_tol: float = DEFAULT_CONV_TOL) -> SpectralResult:
    """Spectrum of the stability operator of a surface.

    Horizontal slices are totally geodesic with vanishing normal Ricci
    curvature, so their operator is the plain Laplacian: the bottom eigenpair
    (0, constant) is exact on any closed surface and is returned in closed
    form.  Hopf tori are solved numerically on their reduced circle.
    """
    if s.horizontal:
        rho = ScalarField1D.constant(1.0, period=1.0, n=8)
        return SpectralResult(lambda1=0.0, eigenvalues=np.array([0.0]),
                              ground_state=rho, backend="closed_form",
                              convergence_estimate=0.0, truncation=0, area=s.area)
    if truncation is None:
        truncation = DEFAULT_FD_TRUNCATION if backend == "fd" else DEFAULT_TRUNCATION
    problem = surface_spectral_problem(s, truncation=truncation, conv_tol=conv_tol)
    return solve(problem, m=m, backend=backend, richardson=richardson)


# --- variational quantities -----------------------------------------------------

def rayleigh_quotient(problem: SpectralProblem, f: ScalarField1D) -> float:
    """(integral |f'|^2 - integral q f^2) / integral f^2 on the circle.

    Uses spectral differentiation and trapezoid quadrature; by the min-max
    characterization the value is always >= lambda1.
    """
    if not f.same_grid(problem.potential):
        raise FieldError("test function must live on the potential grid")
    f2 = f.samples**2
    denom = float(np.sum(f2))
    if denom == 0.0:
        raise ValueError("test function must be nonzero")
    df = f.derivative().samples
    num = float(np.sum(df**2) - np.sum(problem.potential.samples * f2))
    return num / denom


def alpha_invariant(rho: ScalarField1D, area: float) -> float:
    """Surface integral of |grad log rho|^2 for a positive fiber-constant rho.

    Independent of the normalization of rho; zero exactly for constants.
    """
    if np.min(rho.samples) <= 0.0:
        raise ValueError("rho must be strictly positive")
    if not (math.isfinite(area) and area > 0):
        raise ValueError("area must be positive")
    L = rho.period
    if L is None:
        raise FieldError("rho must be periodic")
    ell = area / L
    dr = rho.derivative().samples
    integrand = (dr / rho.samples) ** 2
    return ell * float(np.sum(integrand)) * (L / rho.n)


def lambda1_identity_check(s: SurfaceModel, result: SpectralResult) -> float:
    """Residual of lambda1 = -(alpha + integral of q) / area.

    ``result`` must come from the surface's own spectral problem; alpha is
    evaluated on the computed ground state.
    """
    if s.horizontal:
        return abs(result.lambda1)
    q = potential_field(s)
    alpha = alpha_invariant(result.ground_state, s.area)
    total_q = s.mean(q.samples) * s.area
    return abs(result.lambda1 + (alpha + total_q) / s.area)
