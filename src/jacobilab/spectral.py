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
  points, optionally Richardson-extrapolated from the N // 2 and N solves
  over their step ratio N / (N // 2).  The start climbs the convergence
  ladder's rungs t = 8, 16, ... up to K0 = min(K, (N - 1) // 4), K =
  DEFAULT_TRUNCATION.  At each rung the (2t + 1)-square Galerkin matrix
  above, built from the grid samples with the fd symbol 4/h^2
  sin^2(pi j / N) as kinetic diagonal, is the fd matrix restricted to the
  grid trig modes |j| <= t; one Rayleigh-Ritz step applies the 3-point
  stencil to its lowest Ritz vectors in O(N) per vector.  The first rung
  whose step meets the residual stop, with an O(N) inertia count (odd-even
  cyclic reduction, then Bunch's pivoting) certifying that no low
  eigenvalue was missed, gives the answer; when none does, the dense
  periodic tridiagonal matrix's, in O(N^3) time and O(N^2) memory.  Smooth
  potentials certify at the lowest rungs; deep periodic wells, small grids
  and a wrong start go dense.  The start only picks the exit; the residual
  stop and the inertia count, or the dense solve, set the answer, so the
  oracle stays independent of the Galerkin assembly.

Scenarios and :func:`solve_surface` run the Fourier path; the fd path is
reached only through ``solve(problem, backend="fd")``.

The Fourier backend diagonalizes its (2K + 1)-square matrix with dense
LAPACK, unless the potential is constant, which as in every module means
every sample equal (:meth:`~jacobilab.fields.ScalarField1D.is_constant`;
the potential of a Hopf torus with constant data, on any grid): the matrix
is then diag(0, k^2, k^2) - q, its spectrum the sorted diagonal with
lambda_1 = 0.0 - q, the ground vector the constant mode, whose alpha is
exactly 0, and the K/2 estimate 0.  Any other potential goes to ``eigh``,
which returns the closed form's bits on a matrix that is diagonal only
because its read coefficients vanish (samples that repeat every 4 points,
at K = 8).  The
matrix of a lower truncation t is the principal submatrix of the
truncation-K matrix on rows 0..t and K+1..K+t, entry for entry, so the K/2
estimate and the convergence ladder slice one assembled matrix, and the
ladder's top rung is the solve's own lambda_1.  The torus
spectrum with fiber modes (:func:`solve_torus_2d`) is the exact merge of the
circle spectrum with the fiber kinetic terms, so it needs no eigensolve of
its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FieldError, JacobilabError
from .fields import ScalarField1D, _spectral_derivative
from .surface import HopfTorus, SurfaceModel, potential_field

DEFAULT_TRUNCATION = 64
# grid of the fd oracle cross-checks (the benchmark's oracle_crosscheck)
DEFAULT_FD_TRUNCATION = 2048
DEFAULT_CONV_TOL = 1e-6
MIN_FD_GRID = 16
# fd eigensolve: residual stop in units of eps ||A||
FD_RESIDUAL_ULPS = 64
# Bunch's pivot threshold for symmetric tridiagonal matrices
_BUNCH_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


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
        # numpy registers its integer types as Integral
        if not isinstance(self.truncation, numbers.Integral) or self.truncation < 4:
            raise FieldError(f"truncation must be an integer >= 4, got {self.truncation!r}")
        # the top kinetic entry of either backend: the Fourier (2 pi K / L)^2
        # exceeds the fd 4 / h^2 = (2 N / L)^2
        if not 2 * math.pi * self.truncation / self.circle_length < math.sqrt(np.finfo(float).max):
            raise FieldError(f"lengths out of range: a circle of length {self.circle_length:g} "
                             f"has no finite kinetic term (2 pi K / L)^2 at K = {self.truncation}")

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
    H = _potential_block(q_samples, K)
    H[np.diag_indices(2 * K + 1)] += _kinetic_diagonal(length, K)
    return H


def _potential_block(q_samples: np.ndarray, K: int) -> np.ndarray:
    """Matrix of the multiplication by -q in the basis of :func:`assemble_fourier`.

    On the grid of ``q_samples`` it is also exactly the matrix of -diag(q) in
    the orthonormal grid trig vectors |j| <= K, as long as 2K stays below the
    grid Nyquist mode: the discrete sums obey the same product formulas.
    """
    c = np.zeros(2 * K + 1, dtype=complex)
    read = _potential_coefficients(q_samples, K)
    c[:read.size] = read
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
    return -np.block([[Vcc, Vcs], [Vcs.T, Vss]])


def _potential_coefficients(q_samples: np.ndarray, K: int) -> np.ndarray:
    """The coefficients c_0..c_avail of q that the Galerkin matrix of
    truncation K reads; it takes the higher ones as zero."""
    n = q_samples.size
    # stop below the Nyquist mode of even grids, where cos amplitudes alias
    avail = min(2 * K, (n - 1) // 2)
    return (np.fft.rfft(q_samples) / n)[:avail + 1]


def _kinetic_diagonal(length: float, K: int) -> np.ndarray:
    """Diagonal of -d^2/ds^2 in the basis [const, cos_1..cos_K, sin_1..sin_K]."""
    kinetic = (2.0 * np.pi / length) ** 2 * np.arange(1, K + 1).astype(float) ** 2
    return np.concatenate(([0.0], kinetic, kinetic))


def _fourier_ground_state(length: float, vec: np.ndarray, n: int) -> np.ndarray:
    """Values of the basis expansion ``vec`` at the n periodic grid points.

    The expansion runs along the last axis, so a stack of rows is synthesized
    at once.  One inverse real FFT on P = r n > 2K points carries every mode
    without aliasing; keeping every r-th value samples the expansion on the
    n-grid.
    """
    K = (vec.shape[-1] - 1) // 2
    r = 2 * K // n + 1
    X = np.zeros(vec.shape[:-1] + (r * n // 2 + 1,), dtype=complex)
    X[..., 0] = vec[..., 0] / math.sqrt(length)
    X[..., 1:K + 1] = \
        math.sqrt(2.0 / length) * (vec[..., 1:K + 1] - 1j * vec[..., K + 1:]) / 2.0
    return np.fft.irfft(X, r * n, norm="forward")[..., ::r]


def _galerkin_slice(H: np.ndarray, t: int) -> np.ndarray:
    """The truncation-t matrix inside the truncation-K matrix ``H`` of
    :func:`assemble_fourier`: its principal submatrix on the modes |j| <= t,
    which reads the same c_n with the same weights."""
    K = H.shape[0] // 2
    keep = np.r_[0:t + 1, K + 1:K + t + 1]
    return H[np.ix_(keep, keep)]


def _ladder_rungs(K: int) -> list[int]:
    """The convergence ladder's truncations t = 8, 16, ... up to K."""
    return [8 << i for i in range((K // 8).bit_length())]


def _convergence_ladder(problem: SpectralProblem, lambda1: float) -> list[list]:
    """[t, lambda_1 at truncation t] for t = 8, 16, ... up to the problem's
    truncation K, whose solve gave ``lambda1``; empty for K < 8.

    The top rung t = K is ``lambda1`` itself.  A lower rung is the lowest
    eigenvalue of a slice of one truncation-K matrix, assembled only when
    such a rung exists; it is taken from ``eigh``, the routine a solve of
    that truncation runs, so each rung keeps that solve's bits (on a
    diagonal slice ``eigh`` returns the closed form's bits).  A constant
    potential (the closed form of :func:`solve`) gives every rung the same
    lambda_1 = 0.0 - q, so every rung is ``lambda1``.  No rung builds a
    ground state.
    """
    K, q = problem.truncation, problem.potential
    dense = K > 8 and not q.is_constant()
    H = assemble_fourier(problem.circle_length, q.samples, K) if dense else None
    return [[t, float(np.linalg.eigh(_galerkin_slice(H, t))[0][0]) if dense and t < K
             else lambda1] for t in _ladder_rungs(K)]


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
    """A x for each row x of ``X`` (the periodic 3-point stencil), without forming A."""
    AX = 2.0 * X
    AX[:, 1:] -= X[:, :-1]
    AX[:, 0] -= X[:, -1]
    AX[:, :-1] -= X[:, 1:]
    AX[:, -1] -= X[:, 0]
    AX *= inv_h2
    AX -= q * X
    return AX


def _fd_count_below(q: np.ndarray, inv_h2: float, sigma: float) -> int:
    """Number of eigenvalues of the periodic fd matrix below ``sigma``.

    Inertia of the periodic tridiagonal chain (A - sigma) / inv_h2, node i
    linked to node i + 1 mod n, by Sylvester's law and Haynsworth's
    additivity: the negative pivots of each elimination plus the inertia of
    what is left.  Odd-even cyclic reduction first: a level eliminates the
    odd nodes, which link only to even ones, at once, and leaves a periodic
    chain on the even nodes.  A level is taken only while every odd pivot a
    passes Bunch's 1x1 test |a| D >= alpha b^2, D the largest magnitude on
    the chain's diagonal, b the larger of the pivot's two links and alpha =
    (sqrt 5 - 1) / 2, which bounds each update b^2 / a by D / alpha.  The
    chain left, at most 64 nodes unless a level failed, is eliminated node by
    node with Bunch's pivoting for symmetric tridiagonal matrices (J. R.
    Bunch, SIAM J. Numer. Anal. 11 (1974); N. J. Higham, Linear Algebra Appl.
    287 (1999)): a 1x1 pivot d when |d| D >= alpha b^2 for its link b to the
    next node, otherwise the 2x2 pivot of the node and the next, whose
    determinant is then below -(1 - alpha) b^2, so it holds exactly one
    negative eigenvalue.  The periodic link is carried along as the border
    to the last node.  The last two nodes form a 2x2 block [[d, g], [g, s]]
    whose inertia is read from d s < g^2 and the sign of d, with no division
    by a pivot whose sign rounding can flip: next to a (nearly) double
    eigenvalue the leading chain has an eigenvalue there too, and an
    unpivoted elimination then miscounts.
    """
    a = (2.0 * inv_h2 - q - sigma) / inv_h2
    b = np.full(a.size, -1.0)
    count = 0
    # below about 64 nodes the sequential loop is cheaper than a level
    while a.size > 64:
        half = a.size // 2
        odd, left, right = a[1::2], b[0:2 * half:2], b[1::2]
        left2, right2 = left * left, right * right
        if not np.all(np.abs(odd) * np.max(np.abs(a))
                      >= _BUNCH_ALPHA * np.maximum(left2, right2)):
            break
        count += int(np.count_nonzero(odd < 0.0))
        even = a[0::2].copy()
        even[:half] -= left2 / odd
        up = right2 / odd
        even[1:] -= up[:even.size - 1]
        if a.size % 2 == 0:
            # the last odd node links back to node 0
            even[0] -= up[-1]
        b = np.concatenate((-left * right / odd, b[2 * half:]))
        a = even
    scale = float(np.max(np.abs(a)))
    a, b = a.tolist(), b.tolist()
    n = len(a)
    # as updated so far: d the diagonal of node i, g its link to the last
    # node, s the last node's diagonal
    d, g, s, i = a[0], b[-1], a[-1], 0
    while i < n - 2:
        beta = b[i]
        c = b[n - 2] if i + 1 == n - 2 else 0.0
        if abs(d) * scale >= _BUNCH_ALPHA * beta * beta:
            count += d < 0.0
            s -= g * g / d
            d, g = a[i + 1] - beta * beta / d, c - beta * g / d
            i += 1
            continue
        det = d * a[i + 1] - beta * beta
        count += 1
        s -= (a[i + 1] * g * g - 2.0 * beta * g * c + d * c * c) / det
        i += 2
        if i < n - 1:
            link = b[i - 1]
            d, g = (a[i] - link * link * d / det,
                    (b[n - 2] if i == n - 2 else 0.0) - link * (d * c - beta * g) / det)
    if i == n - 1:
        return count + (s < 0.0)
    return count + (1 if d * s < g * g else 2 * (d < 0.0))


def _fd_rayleigh_ritz(length: float, q: np.ndarray, inv_h2: float,
                      coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Rayleigh-Ritz step of the fd matrix on the trig expansions whose
    basis coefficients are the columns of ``coefficients``.

    Returns the Ritz values, the Ritz vectors on the grid and their residual
    norms |A x - theta x|.  The expansions are synthesized on the grid by one
    inverse FFT; trig vectors |j| < N / 2 are orthogonal on the N-point grid
    with squared norm N / L, so orthonormal columns scaled by sqrt(L / N) are
    orthonormal to rounding, and one k x k Cholesky factor of their Gram
    matrix makes them orthonormal in floating point.
    """
    n = q.size
    Y = _fourier_ground_state(length, coefficients.T, n) * math.sqrt(length / n)
    Q = np.linalg.inv(np.linalg.cholesky(Y @ Y.T)) @ Y
    AQ = _fd_apply(q, inv_h2, Q)
    H = Q @ AQ.T
    theta, V = np.linalg.eigh((H + H.T) / 2.0)
    X = V.T @ Q
    return theta, X, np.linalg.norm(V.T @ AQ - theta[:, None] * X, axis=1)


def _fd_eigs(problem: SpectralProblem, n_grid: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``min(m, n_grid)`` eigenvalues and the ground vector of the fd matrix.

    Climbs the convergence ladder's rungs t = 8, 16, ... that hold k = m + 2
    modes, up to K0 = min(DEFAULT_TRUNCATION, (N - 1) // 4), and makes one
    Rayleigh-Ritz step per rung.  The fd matrix restricted to the grid trig
    modes |j| <= t is the (2t + 1)-square Galerkin matrix of the grid samples
    of q with the fd symbol 4/h^2 sin^2(pi j / N) as kinetic diagonal (4t < N
    keeps its Toeplitz and Hankel tables unaliased); the step takes its k
    lowest Ritz vectors, synthesized on the grid, and costs O(N k^2).  The
    first rung whose step has every residual up to the first clear Ritz gap
    j >= m at most FD_RESIDUAL_ULPS eps ||A||, and an inertia count of
    A - sigma, sigma in that gap, of exactly j eigenvalues below sigma,
    returns its pairs.  When no rung does (no rung when 2 K0 + 1 < k, a deep
    periodic well, a wrong start) the answer is the lowest pairs of the dense
    matrix ``assemble_fd``, in O(N^3) time and O(N^2) memory.  The start only
    decides which exit is taken; the residual stop and the inertia count, or
    the dense solve, decide the answer.
    """
    L = problem.circle_length
    q = problem.potential.resampled(n_grid).samples
    inv_h2 = 1.0 / (L / n_grid) ** 2
    eps_norm = np.finfo(float).eps * (4.0 * inv_h2 + float(np.max(np.abs(q))))
    res_tol = FD_RESIDUAL_ULPS * eps_norm

    k = m + 2
    K0 = min(DEFAULT_TRUNCATION, (n_grid - 1) // 4)
    fd_symbol = 4.0 * inv_h2 * np.sin(np.pi * np.arange(1, K0 + 1) / n_grid) ** 2
    for t in [t for t in sorted({K0, *_ladder_rungs(K0)}) if 2 * t + 1 >= k]:
        H = _potential_block(q, t)
        H[np.diag_indices(2 * t + 1)] += np.concatenate(([0.0], fd_symbol[:t], fd_symbol[:t]))
        theta, X, residual = _fd_rayleigh_ritz(L, q, inv_h2, np.linalg.eigh(H)[1][:, :k])
        j = next((j for j in range(m, k) if theta[j] - theta[j - 1] > 4.0 * res_tol), k)
        if (j < k and np.all(residual[:j] <= res_tol)
                and _fd_count_below(q, inv_h2, 0.5 * (theta[j - 1] + theta[j])) == j):
            return theta[:m], X[0]
    w, v = np.linalg.eigh(assemble_fd(L, q))
    return w[:m], v[:, 0]


# --- public solves -------------------------------------------------------------

def solve(problem: SpectralProblem, m: int = 6, backend: str = "fourier",
          richardson: bool = False) -> SpectralResult:
    """Lowest ``m`` eigenvalues and the ground state of -Laplacian - q.

    The reported convergence_estimate is |lambda1(T) - lambda1(T/2)| over the
    problem truncation T (the fourier backend reads lambda1(max(4, T // 2))
    from a slice of its own matrix); a value above the problem's conv_tol raises
    :class:`ConvergenceError`.  If every sample of q is equal (a test with no
    tolerance), the matrix is diag(0, k^2, k^2) - q and the fourier backend
    returns its sorted diagonal, lambda_1 = 0.0 - q, the constant ground state
    and an estimate of 0 without calling LAPACK.
    ``richardson`` applies h^2 extrapolation to the fd eigenvalues (the
    fourier backend ignores it).  The fd backend returns at most N eigenvalues
    on its N-point grid, N/2 with ``richardson``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    L = problem.circle_length
    q_field = problem.potential

    if backend == "fourier":
        K = problem.truncation
        if not q_field.is_constant():
            w, vecs = np.linalg.eigh(H := assemble_fourier(L, q_field.samples, K))
            ground = vecs[:, 0]
            estimate = abs(w[0] - np.linalg.eigvalsh(_galerkin_slice(H, max(4, K // 2)))[0])
        else:
            # kinetic terms are positive, so the stable sort keeps the
            # constant mode first; the K/2 matrix is diagonal too
            w = np.sort(_kinetic_diagonal(L, K) + (0.0 - q_field.samples[0]), kind="stable")
            ground = np.zeros(2 * K + 1)
            ground[0] = 1.0
            estimate = 0.0
        eigenvalues = w[:m]
        rho = _fourier_ground_state(L, ground, q_field.n)
    elif backend == "fd":
        n_grid = problem.truncation
        if n_grid < MIN_FD_GRID:
            raise FieldError(f"fd backend needs truncation >= {MIN_FD_GRID}")
        w_full, v0 = _fd_eigs(problem, n_grid, m)
        w_half, _ = _fd_eigs(problem, n_grid // 2, m)
        estimate = abs(w_full[0] - w_half[0])
        if richardson:
            # h^2 extrapolation over the step ratio r = N / (N // 2), which is
            # 2 only on even grids; the half grid has n_grid // 2 eigenvalues
            # when m exceeds that
            r2 = (n_grid / (n_grid // 2)) ** 2
            eigenvalues = (r2 * w_full[:w_half.size] - w_half) / (r2 - 1.0)
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
    )


def surface_spectral_problem(s: HopfTorus, truncation: int = DEFAULT_TRUNCATION,
                             conv_tol: float = DEFAULT_CONV_TOL) -> SpectralProblem:
    """Stability-operator eigenvalue problem of a Hopf torus."""
    q = potential_field(s)
    return SpectralProblem(circle_length=s.curve_length, fiber_length=s.fiber_length,
                           potential=q, truncation=truncation, conv_tol=conv_tol)


def solve_surface(s: SurfaceModel, m: int = 6) -> SpectralResult:
    """Spectrum of the stability operator of a surface.

    Horizontal slices are totally geodesic with vanishing normal Ricci
    curvature, so their operator is the plain Laplacian: the bottom eigenpair
    (0, constant) is exact on any closed surface and is returned in closed
    form.  Hopf tori are solved on their reduced circle by the Fourier backend
    at the default truncation and tolerance; other settings go through
    :func:`surface_spectral_problem` and :func:`solve`.
    """
    if s.horizontal:
        rho = ScalarField1D.constant(1.0, period=1.0, n=8)
        return SpectralResult(lambda1=0.0, eigenvalues=np.array([0.0]),
                              ground_state=rho, backend="closed_form",
                              convergence_estimate=0.0, truncation=0)
    return solve(surface_spectral_problem(s), m=m)


# --- variational quantities -----------------------------------------------------

def rayleigh_quotient(problem: SpectralProblem, f: ScalarField1D) -> float:
    """(integral |f'|^2 - integral q f^2) / integral f^2 on the circle.

    Uses spectral differentiation and trapezoid quadrature; by the min-max
    characterization the value is always >= lambda1.
    """
    if not f.same_grid(problem.potential):
        raise FieldError("test function must live on the potential grid")
    return float(_rayleigh_quotients(problem, f.samples[None])[0])


def _rayleigh_quotients(problem: SpectralProblem, rows: np.ndarray) -> np.ndarray:
    """Rayleigh quotients of the rows of an (m, n) stack of test functions
    sampled on the n-point potential grid, one FFT pair for the whole stack.

    Row sums run along the last axis, so each value equals, bit for bit, that
    of the row alone.
    """
    q = problem.potential
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != q.n:
        raise FieldError(f"test functions must be rows of {q.n} samples on the potential "
                         f"grid, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise FieldError("test function samples must be finite")
    f2 = rows**2
    denom = np.sum(f2, axis=-1)
    if not np.all(denom):
        raise ValueError("test function must be nonzero")
    df = _spectral_derivative(rows, q.period)
    return (np.sum(df**2, axis=-1) - np.sum(q.samples * f2, axis=-1)) / denom


def alpha_invariant(rho: ScalarField1D, area: float) -> float:
    """Surface integral of |grad log rho|^2 for a positive fiber-constant rho.

    Independent of the normalization of rho; exactly zero for a rho whose
    samples are all equal, on any grid.
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
    return _identity_residual(s, result.lambda1,
                              alpha_invariant(result.ground_state, s.area), potential_field(s))


def _identity_residual(s: SurfaceModel, lambda1: float, alpha: float,
                       q: ScalarField1D | float) -> float:
    """|lambda1 + (alpha + integral of q) / area| for a Hopf torus; |lambda1|
    on a horizontal slice, whose q and alpha vanish."""
    if s.horizontal:
        return abs(lambda1)
    total_q = s.mean(q.samples) * s.area
    return abs(lambda1 + (alpha + total_q) / s.area)
