"""Distinguished surfaces in a Killing submersion and their derived data.

Two classes of surfaces carry the whole verification programme:

* ``HopfTorus`` -- the total lift of a closed base curve through a submersion
  with compact fibers.  Flat, genus one, angle function nu == 0, mean
  curvature H = k_g / 2 where k_g is the (constant) geodesic curvature of the
  curve, and |A|^2 = 4 H^2 + 2 tau^2 pointwise.  Its intrinsic metric is
  modelled as the rectangular lattice L x fiber_length (zero holonomy shear);
  for potentials constant along fibers the lowest eigenvalue does not depend
  on the lattice shear, so none of the verified quantities are affected.
  This assumption is recorded in every report.

* ``HorizontalSlice`` -- a surface whose tangent planes are horizontal
  (nu^2 == 1).  Totally geodesic, tau == 0 along it, Gaussian curvature equal
  to the base curvature kappa.

The stability potential q = |A|^2 + Ric(N, N) reduces to 4 H^2 + kappa(s) on
a Hopf torus (the tau^2 contributions cancel) and to 0 on a slice.

Both implement the :class:`SurfaceModel` protocol, the only view of a surface
that the other modules take, so only this module dispatches on the class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ModelError, SurfaceError
from .fields import ScalarField1D
from .geometry import Regime, classify_regime
from .submersion import GradientMode, SubmersionModel

GAUSS_BONNET_RTOL = 1e-9


class SurfaceModel(Protocol):
    """A compact orientable CMC surface as the bounds on lambda1 read it.

    ``horizontal`` is nu^2 == 1 (a surface that is not horizontal is a Hopf
    torus); ``samples(mode)`` gives (kappa, tau, |grad tau|) at the surface's
    quadrature nodes and ``mean`` the area mean of values at those nodes.
    """

    name: str
    area: float
    genus: int
    mean_curvature: float
    horizontal: bool

    def samples(self, mode: GradientMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def mean(self, values: np.ndarray) -> float: ...


@dataclass(frozen=True)
class HopfTorus:
    """Lift of a closed curve of length ``curve_length``; see module docs."""

    curve_length: float
    fiber_length: float
    mean_curvature: float
    kappa_on_curve: ScalarField1D
    tau_on_curve: ScalarField1D
    grad_tau_intrinsic: ScalarField1D
    grad_tau_ambient: ScalarField1D
    base_point: float | None = None
    name: str = ""

    horizontal = False

    def __post_init__(self):
        fields = (self.kappa_on_curve, self.tau_on_curve,
                  self.grad_tau_intrinsic, self.grad_tau_ambient)
        for f in fields:
            if not f.is_periodic or not math.isclose(f.period, self.curve_length, rel_tol=1e-12):
                raise SurfaceError("curve fields must be periodic with period == curve_length")
            if not f.same_grid(self.kappa_on_curve):
                raise SurfaceError("curve fields must share one grid")

    @property
    def area(self) -> float:
        return self.curve_length * self.fiber_length

    @property
    def genus(self) -> int:
        return 1

    def grad_tau(self, mode: GradientMode) -> ScalarField1D:
        if mode is GradientMode.AMBIENT:
            return self.grad_tau_ambient
        return self.grad_tau_intrinsic

    def samples(self, mode: GradientMode):
        return (self.kappa_on_curve.samples, self.tau_on_curve.samples,
                self.grad_tau(mode).samples)

    def mean(self, values) -> float:
        """Area mean of a fiber-constant quantity sampled along the curve."""
        return float(np.mean(np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class SampledKappa:
    """Base curvature samples with matching surface-quadrature weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.shape != weights.shape or values.ndim != 1 or values.size == 0:
            raise SurfaceError("kappa values/weights must be matching 1D arrays")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(weights))):
            raise SurfaceError("kappa values/weights must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def integral(self) -> float:
        return float(self.values @ self.weights)


@dataclass(frozen=True)
class HorizontalSlice:
    """Horizontal surface (slice); see module docs."""

    base_area: float
    genus: int
    kappa: float | SampledKappa
    name: str = ""

    horizontal = True

    def __post_init__(self):
        if not (math.isfinite(self.base_area) and self.base_area > 0):
            raise SurfaceError(f"base_area must be positive, got {self.base_area}")
        if self.genus < 0:
            raise SurfaceError("genus must be nonnegative")

    @property
    def area(self) -> float:
        return self.base_area

    @property
    def mean_curvature(self) -> float:
        return 0.0

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus

    def samples(self, mode: GradientMode):
        """kappa at the quadrature nodes (one value when constant); tau and
        |grad tau| vanish on a slice under either reading."""
        kappa = (self.kappa.values if isinstance(self.kappa, SampledKappa)
                 else np.array([self.kappa]))
        zero = np.zeros_like(kappa)
        return kappa, zero, zero

    def mean(self, values) -> float:
        """Weighted area mean; a single value is returned as is, because
        (x * area) / area need not round back to x."""
        if values.size == 1:
            return float(values[0])
        return float(values @ self.kappa.weights) / self.area

    def kappa_integral(self) -> float:
        if isinstance(self.kappa, SampledKappa):
            return self.kappa.integral()
        return self.kappa * self.base_area


# --- constructors ----------------------------------------------------------

def hopf_torus(model: SubmersionModel, curve_length: float, k_g: float,
               kappa_on_curve: ScalarField1D | None = None,
               tau_on_curve: ScalarField1D | None = None,
               grad_tau_ambient: ScalarField1D | None = None,
               n: int = 512, name: str = "") -> HopfTorus:
    """Build the lift of a closed curve of length ``curve_length`` and
    constant geodesic curvature ``k_g``.

    For models with constant curvature data the curve fields default to those
    constants; otherwise kappa_on_curve / tau_on_curve must be supplied on a
    grid of period ``curve_length``.  ``grad_tau_ambient`` defaults to the
    intrinsic derivative |d tau/ds| along the curve, which is exact whenever
    tau does not vary transversally (all catalog models except the warped
    family, whose parallels supply the transversal value themselves).
    """
    if not model.has_compact_fibers:
        raise ModelError("a Hopf torus needs compact fibers")
    if not (math.isfinite(curve_length) and curve_length > 0):
        raise SurfaceError(f"curve_length must be positive, got {curve_length}")

    if kappa_on_curve is None:
        if not model.kappa_field.is_constant(1e-12):
            raise SurfaceError("kappa_on_curve is required when the model kappa varies")
        kappa_on_curve = ScalarField1D.constant(float(model.kappa_field.samples[0]),
                                                curve_length, n)
    if tau_on_curve is None:
        if not model.tau_field.is_constant(1e-12):
            raise SurfaceError("tau_on_curve is required when the model tau varies")
        tau_on_curve = ScalarField1D.constant(float(model.tau_field.samples[0]),
                                              curve_length, n)
    for label, f in (("kappa_on_curve", kappa_on_curve), ("tau_on_curve", tau_on_curve)):
        if not f.is_periodic or not math.isclose(f.period, curve_length, rel_tol=1e-12):
            raise SurfaceError(f"{label} period must equal curve_length")
    if not kappa_on_curve.same_grid(tau_on_curve):
        raise SurfaceError("kappa_on_curve and tau_on_curve must share one grid")

    grad_intrinsic = tau_on_curve.derivative().map(np.abs)
    if grad_tau_ambient is None:
        grad_tau_ambient = grad_intrinsic
    elif not grad_tau_ambient.same_grid(tau_on_curve):
        raise SurfaceError("grad_tau_ambient must share the curve grid")

    return HopfTorus(
        curve_length=float(curve_length),
        fiber_length=float(model.fiber_length),
        mean_curvature=k_g / 2.0,
        kappa_on_curve=kappa_on_curve,
        tau_on_curve=tau_on_curve,
        grad_tau_intrinsic=grad_intrinsic,
        grad_tau_ambient=grad_tau_ambient,
        name=name or f"hopf_torus(L={curve_length:g}, k_g={k_g:g})",
    )


def horizontal_slice(model: SubmersionModel, base_area: float, genus: int,
                     kappa: float | SampledKappa | None = None) -> HorizontalSlice:
    """Build a horizontal slice of a model whose tau vanishes on the surface.

    Constant-curvature slices must satisfy the total-curvature constraint
    kappa * area = 2 pi chi (validated to 1e-9 relative); sampled-curvature
    slices carry their own quadrature weights, whose sum must reproduce the
    area, and their residual is reported by :func:`gauss_bonnet_check`.
    """
    if np.max(np.abs(model.tau_field.samples)) > 1e-12:
        raise SurfaceError("horizontal slices require tau == 0 along the surface")
    if kappa is None:
        if not model.kappa_field.is_constant(1e-12):
            raise SurfaceError("kappa descriptor is required when the model kappa varies")
        kappa = float(model.kappa_field.samples[0])

    if isinstance(kappa, SampledKappa):
        wsum = float(np.sum(kappa.weights))
        if not math.isclose(wsum, base_area, rel_tol=1e-9):
            raise SurfaceError(
                f"quadrature weights integrate to {wsum:g}, expected area {base_area:g}")
    else:
        chi_term = 2.0 * math.pi * (2 - 2 * genus)
        total = kappa * base_area
        if abs(total - chi_term) > GAUSS_BONNET_RTOL * max(1.0, abs(total), abs(chi_term)):
            raise SurfaceError(
                f"total curvature kappa*area = {total:g} incompatible with genus {genus} "
                f"(needs 2*pi*chi = {chi_term:g})")

    return HorizontalSlice(base_area=float(base_area), genus=int(genus), kappa=kappa,
                           name=f"slice(genus={genus})")


# --- derived quantities -----------------------------------------------------

def potential_field(s: SurfaceModel) -> ScalarField1D | float:
    """Stability potential q = |A|^2 + Ric(N, N).

    On a Hopf torus this is 4 H^2 + kappa(s) along the curve (independent of
    tau); on a horizontal slice it vanishes identically.
    """
    if isinstance(s, HorizontalSlice):
        return 0.0
    h2 = 4.0 * s.mean_curvature**2
    return s.kappa_on_curve.map(lambda k: h2 + k)


def gauss_bonnet_check(s: SurfaceModel) -> float:
    """Residual |integral of K dA - 2 pi chi| of the total-curvature identity."""
    if isinstance(s, HopfTorus):
        return 0.0  # flat, chi = 0, exactly
    return abs(s.kappa_integral() - 2.0 * math.pi * s.euler_characteristic)


def surface_regime(s: SurfaceModel) -> Regime:
    """Regime of kappa - 4 tau^2 sampled over the surface itself."""
    kappa, tau, _ = s.samples(GradientMode.INTRINSIC_ON_SURFACE)
    return classify_regime(kappa, tau)
