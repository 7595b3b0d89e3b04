"""Distinguished surfaces in a Killing submersion and their derived data.

Two classes of surfaces carry the whole verification programme:

* ``HopfTorus`` -- the total lift of a closed base curve through a submersion
  with compact fibers.  Flat, genus one, angle function nu == 0, mean
  curvature H = k_g / 2 where k_g is the (constant) geodesic curvature of the
  curve, and |A|^2 = 4 H^2 + 2 tau^2 pointwise.  Its kappa and tau are the
  model's values along the curve, read by ``hopf_torus`` and not given by
  the caller, and its intrinsic |grad tau| is derived from that tau, so a
  torus cannot restate a fact its model owns.  Its intrinsic metric is
  modelled as the rectangular lattice L x fiber_length (zero holonomy shear);
  for potentials constant along fibers the lowest eigenvalue does not depend
  on the lattice shear, so none of the verified quantities are affected.
  This assumption is recorded in every report.

* ``HorizontalSlice`` -- a surface whose tangent planes are horizontal
  (nu^2 == 1).  Totally geodesic, tau == 0 along it, Gaussian curvature equal
  to the base curvature kappa.  Its curvature is always a ``SampledKappa``:
  a constant kappa is stored as one node weighted by the area.

The stability potential q = |A|^2 + Ric(N, N) reduces to 4 H^2 + kappa(s) on
a Hopf torus (the tau^2 contributions cancel) and to 0 on a slice.

Range rule (:func:`out_of_range`): a surface of area A sampled at n nodes (a
torus's curve samples, a slice's kappa nodes) is refused, with a
:class:`SurfaceError` when it is built, unless its curvature c = H^2 + 2 pi
|chi| / A + max(|kappa| + tau^2 + |grad tau|), in units of 1/length^2, is at
most the largest float over 4 max(n, W), where W is A on a torus and the
larger of A and the sum of |w| over the quadrature weights w on a slice; chi
= 2 - 2 g vanishes on a torus, and H, tau and |grad tau| vanish on a slice.
A genus whose chi lies beyond the float range breaks the rule.  Per sample,
every quantity the package forms from a surface -- the potential 4 H^2 +
kappa, the regime's kappa - 4 tau^2, a bound's integrand c_k kappa + c_t
tau^2 - |grad tau| with |c| <= 4, its genus term 8 pi (g - 1) / A = -2 (2 pi
chi) / A -- is at most 4 c, and a gap lambda1 - bound at most 8 c; a grid
sum (an area mean, a Fourier coefficient) adds n samples, a slice's
quadrature adds each sample times |w| and so at most W of them, and an
integral multiplies a mean by A.  ``eigh`` scales the Galerkin matrix, whose
entries add two Fourier coefficients, into its own range.  Before the rule,
a Hopf torus whose area is not a positive float is refused by its lengths;
:class:`~jacobilab.spectral.SpectralProblem` refuses a curve too short for
its kinetic term.

A model field is constant when every sample is equal
(:meth:`~jacobilab.fields.ScalarField1D.is_constant`), with no tolerance: a
torus reads a constant kappa or tau at any curve length, a slice needs tau
== 0 at every sample and, without its own kappa, a constant model kappa.
A field that varies by one ulp is varying, at every unit of length.

Both implement the :class:`SurfaceModel` protocol, the only view of a surface
that the other modules take.  Only the constructors here pick a class;
everything else, the derived quantities below included, tells the two apart
by the protocol's ``horizontal``.  Each class classifies its regime once, when
it is built, by :func:`surface_regime`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
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
    torus); ``regime`` is the sign of kappa - 4 tau^2 over the surface, which
    picks the theorem that bounds lambda1; ``samples(mode)`` gives (kappa,
    tau, |grad tau|) at the surface's quadrature nodes and ``mean`` the area
    mean of values at those nodes.
    """

    name: str
    area: float
    genus: int
    mean_curvature: float
    horizontal: bool
    regime: Regime

    def samples(self, mode: GradientMode) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def mean(self, values: np.ndarray) -> float: ...


@dataclass(frozen=True)
class HopfTorus:
    """Lift of a closed curve of length ``curve_length``; see module docs.

    ``grad_tau_intrinsic`` is derived, |d tau/ds| along the curve;
    ``grad_tau_ambient`` defaults to it.  ``regime`` is derived from the
    curve fields.
    """

    curve_length: float
    fiber_length: float
    mean_curvature: float
    kappa_on_curve: ScalarField1D
    tau_on_curve: ScalarField1D
    grad_tau_ambient: ScalarField1D | None = None
    base_point: float | None = None
    name: str = ""
    grad_tau_intrinsic: ScalarField1D = field(init=False)
    regime: Regime = field(init=False)

    horizontal = False

    def __post_init__(self):
        object.__setattr__(self, "grad_tau_intrinsic",
                           self.tau_on_curve.derivative().map(np.abs))
        if self.grad_tau_ambient is None:
            object.__setattr__(self, "grad_tau_ambient", self.grad_tau_intrinsic)
        # grad_tau_intrinsic shares tau_on_curve's grid by construction
        for f in (self.kappa_on_curve, self.tau_on_curve, self.grad_tau_ambient):
            if not f.is_periodic or not math.isclose(f.period, self.curve_length, rel_tol=1e-12):
                raise SurfaceError("curve fields must be periodic with period == curve_length")
            if not f.same_grid(self.kappa_on_curve):
                raise SurfaceError("curve fields must share one grid")
        if not 0.0 < self.area < math.inf:
            raise SurfaceError(f"lengths out of range: curve length {self.curve_length:g} and "
                               f"fiber length {self.fiber_length:g} give area {self.area:g}")
        if outside := out_of_range(self):
            raise outside[1]
        object.__setattr__(self, "regime", surface_regime(self))

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
    kappa: SampledKappa
    name: str = ""
    regime: Regime = field(init=False)

    horizontal = True

    def __post_init__(self):
        if not (math.isfinite(self.base_area) and self.base_area > 0):
            raise SurfaceError(f"base_area must be positive, got {self.base_area}")
        if not isinstance(self.genus, numbers.Integral) or self.genus < 0:
            raise SurfaceError(f"genus must be a nonnegative integer, got {self.genus!r}")
        if outside := out_of_range(self):
            raise outside[1]
        object.__setattr__(self, "regime", surface_regime(self))

    @property
    def area(self) -> float:
        return self.base_area

    @property
    def mean_curvature(self) -> float:
        return 0.0

    def samples(self, mode: GradientMode):
        """kappa at the quadrature nodes (one node when constant); tau and
        |grad tau| vanish on a slice under either reading."""
        zero = np.zeros_like(self.kappa.values)
        return self.kappa.values, zero, zero

    def mean(self, values) -> float:
        """Weighted area mean; a single value is returned as is, because
        (x * area) / area need not round back to x."""
        if values.size == 1:
            return float(values[0])
        return float(values @ self.kappa.weights) / self.area


def out_of_range(s: SurfaceModel) -> tuple[int, SurfaceError] | None:
    """The range rule of the module docstring, for one surface or for a
    stack of Hopf tori whose values and samples hold one row per torus (a
    view such as the scenario sweep's).  None when every surface keeps the
    rule (a non-finite value breaks it), else the index of the first that
    breaks it and the SurfaceError that refuses it."""
    kappa, tau, grad_intrinsic = s.samples(GradientMode.INTRINSIC_ON_SURFACE)
    with np.errstate(over="ignore"):  # a square or a weight sum out of range is inf
        # a slice's quadrature adds |w| kappa at each node, and its weights may cancel
        mass = max(s.area, np.sum(np.abs(s.kappa.weights))) if s.horizontal else s.area
        limit = np.finfo(float).max / (4 * np.maximum(kappa.shape[-1], mass))
        curvature = (np.square(np.asarray(s.mean_curvature, dtype=float))
                     + abs(_two_pi_chi(s.genus)) / s.area
                     + (np.abs(kappa) + np.square(tau) + grad_intrinsic
                        + s.samples(GradientMode.AMBIENT)[2]).max(axis=-1))
    outside = ~(curvature <= limit)
    if outside.any():
        i = int(np.argmax(outside))
        a, lim, c = (np.broadcast_to(x, outside.shape).flat[i] for x in (s.area, limit, curvature))
        return i, SurfaceError(
            f"curvature out of range: a {'horizontal slice' if s.horizontal else 'Hopf torus'} "
            f"of area {a:g} on {kappa.shape[-1]} samples needs a finite H^2 + 2 pi |chi| / area "
            f"+ max(|kappa| + tau^2 + |grad tau|) <= {lim:g}, got {c:g}")


def _two_pi_chi(genus: int) -> float:
    """2 pi chi = 2 pi (2 - 2 genus) as a float, -inf for a genus whose chi
    lies beyond the float range."""
    chi = 2 - 2 * genus
    return 2.0 * math.pi * chi if chi >= -sys.float_info.max else -math.inf


# --- constructors ----------------------------------------------------------

def _on_curve(model_field: ScalarField1D, key: str, curve_length: float,
              n: int) -> ScalarField1D:
    """The model's ``key`` field along a closed curve of length ``curve_length``
    on ``n`` samples: a constant field (every sample equal) at any length, a
    varying one only along the base circle it is periodic on, and only on
    ``n`` samples that carry every harmonic of it, to 1e-12 of its largest
    sample.  Either lies on the curve's own grid, period ``curve_length``,
    which a varying field's period matches to 1e-12."""
    if model_field.is_constant():
        return ScalarField1D.constant(float(model_field.samples[0]), curve_length, n)
    if model_field.is_periodic and math.isclose(curve_length, model_field.period,
                                                rel_tol=1e-12):
        on_curve = model_field.resampled(n)
        # resampling down drops every harmonic at or above n/2: refuse that
        # unless resampling back returns the model's samples
        lost = on_curve.resampled(model_field.n).samples - model_field.samples
        if np.max(np.abs(lost)) > 1e-12 * np.max(np.abs(model_field.samples)):
            raise SurfaceError(f"{n} samples cannot carry every harmonic of the model "
                               f"{key}, which has {model_field.n} samples: raise n")
        # the samples stay; only a period off by rounding is relabelled
        if on_curve.period == curve_length:
            return on_curve
        return ScalarField1D.periodic(on_curve.samples, curve_length)
    raise SurfaceError(f"the model {key} varies, so curve_length must equal its period: "
                       f"got curve_length {curve_length}, period {model_field.period}")


def hopf_torus(model: SubmersionModel, curve_length: float, k_g: float,
               n: int = 512) -> HopfTorus:
    """Build the lift of a closed curve of length ``curve_length`` and
    constant geodesic curvature ``k_g``, sampled at ``n`` points.

    The torus reads kappa and tau from the model: a constant model field at
    any curve length, a varying one along the base circle it is periodic on,
    so ``curve_length`` must then equal that period.  Its ambient
    |grad tau| is the intrinsic derivative |d tau/ds| along the curve, exact
    whenever tau does not vary transversally (all models except the warped
    family, whose parallels supply the transversal value themselves).
    """
    if not model.has_compact_fibers:
        raise ModelError("a Hopf torus needs compact fibers")
    if not (math.isfinite(curve_length) and curve_length > 0):
        raise SurfaceError(f"curve_length must be positive, got {curve_length}")
    return HopfTorus(
        curve_length=float(curve_length),
        fiber_length=float(model.fiber_length),
        mean_curvature=k_g / 2.0,
        kappa_on_curve=_on_curve(model.kappa_field, "kappa", curve_length, n),
        tau_on_curve=_on_curve(model.tau_field, "tau", curve_length, n),
        name=f"hopf_torus(L={curve_length:g}, k_g={k_g:g})",
    )


def horizontal_slice(model: SubmersionModel, base_area: float, genus: int,
                     kappa: float | SampledKappa | None = None) -> HorizontalSlice:
    """Build a horizontal slice of a model whose tau is 0 at every sample; a
    ``kappa`` of None reads the model's kappa, which must then be constant.

    Constant-curvature slices must satisfy the total-curvature constraint
    kappa * area = 2 pi chi (validated to 1e-9 relative) and are stored as
    one node of weight ``base_area``; sampled-curvature slices carry their
    own quadrature weights, whose sum must reproduce the area, and their
    residual is reported by :func:`gauss_bonnet_check`.
    """
    if np.any(model.tau_field.samples):
        raise SurfaceError("horizontal slices require tau == 0 along the surface")
    if kappa is None:
        if not model.kappa_field.is_constant():
            raise SurfaceError("kappa descriptor is required when the model kappa varies")
        kappa = float(model.kappa_field.samples[0])

    if isinstance(kappa, SampledKappa):
        wsum = float(np.sum(kappa.weights))
        if not math.isclose(wsum, base_area, rel_tol=1e-9):
            raise SurfaceError(
                f"quadrature weights integrate to {wsum:g}, expected area {base_area:g}")
    else:
        # an infinite 2 pi chi passes this check and is refused by the range rule
        chi_term = _two_pi_chi(genus)
        total = kappa * base_area
        if abs(total - chi_term) > GAUSS_BONNET_RTOL * max(1.0, abs(total), abs(chi_term)):
            raise SurfaceError(
                f"total curvature kappa*area = {total:g} incompatible with genus {genus} "
                f"(needs 2*pi*chi = {chi_term:g})")
        kappa = SampledKappa(np.array([kappa]), np.array([base_area]))

    return HorizontalSlice(base_area=float(base_area), genus=genus, kappa=kappa,
                           name=f"slice(genus={genus})")


# --- derived quantities -----------------------------------------------------

def potential_field(s: SurfaceModel) -> ScalarField1D | float:
    """Stability potential q = |A|^2 + Ric(N, N).

    On a Hopf torus this is 4 H^2 + kappa(s) along the curve (independent of
    tau); on a horizontal slice it vanishes identically.
    """
    if s.horizontal:
        return 0.0
    h2 = 4.0 * s.mean_curvature**2
    return s.kappa_on_curve.map(lambda k: h2 + k)


def gauss_bonnet_check(s: SurfaceModel) -> float:
    """Residual |integral of K dA - 2 pi chi| of the total-curvature identity."""
    if not s.horizontal:
        return 0.0  # a Hopf torus: flat, chi = 0, exactly
    return abs(s.kappa.integral() - _two_pi_chi(s.genus))


def surface_regime(s: SurfaceModel) -> Regime:
    """Regime of kappa - 4 tau^2 sampled over the surface itself."""
    kappa, tau, _ = s.samples(GradientMode.INTRINSIC_ON_SURFACE)
    return classify_regime(kappa, tau)
