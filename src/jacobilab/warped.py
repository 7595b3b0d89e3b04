"""Doubly warped products I x S^1 x S^1 fibering over a warped base.

With a profile theta: I -> (0, pi/2), the metric
``dx^2 + sin^2 theta(x) dy^2 + cos^2 theta(x) dz^2`` submerges over the
warped base I x_f S^1, f(u) = sin(2 theta(u)) / 2, along (x, y, z) ->
(x, y - z).  The vertical Killing field d_y + d_z has unit length, the fibers
close at parameter 2 pi, and the curvature data of the submersion is

    tau(x)   = -theta'(x)
    kappa(x) = 4 theta'(x)^2 - 2 cot(2 theta(x)) theta''(x)

so that kappa - 4 tau^2 = -2 cot(2 theta) theta''.  Every parallel
{u} x S^1 of the base lifts to a Hopf torus with

    curve length        L(u)   = 2 pi f(u) = pi sin(2 theta(u))
    geodesic curvature  k_g(u) = f'(u)/f(u) = 2 theta'(u) cot(2 theta(u))

and kappa, tau constant along it.  The ambient |grad tau| on that torus is
|theta''(u)| while the intrinsic derivative along the torus vanishes; the
bound reports keep both readings side by side because the equality cases of
the positive-regime bounds are sensitive to the choice.

All closed forms carry independent finite-difference oracles.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FieldError, ModelError, RegimeMismatchError, SurfaceError
from .fields import ScalarField1D
from .submersion import ModelKind, SubmersionModel
from .surface import HopfTorus

MIN_PARALLEL_SIN = 1e-6


@dataclass(frozen=True)
class ThetaProfile:
    """Warping angle theta with its first two derivatives on an interval.

    The profile must stay strictly inside (0, pi/2); this is checked where it
    is sampled or evaluated, not globally.
    """

    theta: Callable
    theta_prime: Callable
    theta_second: Callable
    interval: tuple[float, float]

    def f(self, u):
        """Warping function of the base, f = sin(2 theta) / 2."""
        return 0.5 * np.sin(2.0 * np.asarray(self.theta(u)))

    def kappa(self, u):
        """Base Gaussian curvature 4 theta'^2 - 2 cot(2 theta) theta''."""
        return _base_curvature(*_read_profile(self, u))

    def tau(self, u):
        return -np.asarray(self.theta_prime(u))


def _check_range(theta_values) -> None:
    th = np.asarray(theta_values)
    if np.any(th <= 0.0) or np.any(th >= math.pi / 2):
        raise ModelError("theta must stay strictly inside (0, pi/2)")


def _read_profile(profile: ThetaProfile, u) -> tuple:
    """theta, theta' and theta'' at ``u``, a float or an array, as the
    profile's functions return them; theta is checked to lie in (0, pi/2)
    before its derivatives are read."""
    u = np.asarray(u, dtype=float)
    theta = profile.theta(u)
    _check_range(theta)
    return theta, profile.theta_prime(u), profile.theta_second(u)


def _base_curvature(theta, dth, ddth):
    """:meth:`ThetaProfile.kappa` from the values of :func:`_read_profile`."""
    return 4.0 * np.square(dth) - 2.0 * (np.cos(2 * theta) / np.sin(2 * theta)) * ddth


@contextlib.contextmanager
def _overflow_is_an_error(where: str):
    """Evaluate a profile with floating-point overflow raised, as a
    ModelError that names ``where``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ModelError(f"the profile overflows at {where}: {exc}") from exc


def half_arctan_profile(offset: float = 0.0) -> ThetaProfile:
    """theta(x) = arctan(x)/2 + offset on (0, inf).

    offset = 0 keeps theta below pi/4 (positive regime where theta'' < 0);
    offset = pi/4 pushes it above (negative regime).
    """
    return ThetaProfile(
        theta=lambda x: 0.5 * np.arctan(np.asarray(x, dtype=float)) + offset,
        theta_prime=lambda x: 0.5 / (1.0 + np.asarray(x, dtype=float) ** 2),
        theta_second=lambda x: -np.asarray(x, dtype=float)
        / (1.0 + np.asarray(x, dtype=float) ** 2) ** 2,
        interval=(0.0, math.inf),
    )


def constant_profile(value: float) -> ThetaProfile:
    """Constant theta: tau == 0 and kappa == 0 (flat product, NULL regime)."""
    if not 0.0 < value < math.pi / 2:
        raise ModelError("constant theta must lie in (0, pi/2)")
    return ThetaProfile(
        theta=lambda x: np.full_like(np.asarray(x, dtype=float), value),
        theta_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        theta_second=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        interval=(-math.inf, math.inf),
    )


def sampled_profile(theta_field: ScalarField1D) -> ThetaProfile:
    """Profile from theta samples on an interval grid.

    Derivatives come from Richardson-extrapolated central differences on the
    grid; off-grid evaluation interpolates linearly (no splines involved).
    """
    if theta_field.is_periodic:
        raise ModelError("sampled profiles are defined on an interval")
    _check_range(theta_field.samples)
    grid = theta_field.grid
    d1 = theta_field.derivative().samples
    d2 = theta_field.derivative().derivative().samples

    def interp(values):
        return lambda u: np.interp(np.asarray(u, dtype=float), grid, values)

    return ThetaProfile(
        theta=interp(theta_field.samples),
        theta_prime=interp(d1),
        theta_second=interp(d2),
        interval=theta_field.interval,
    )


def submersion_from_theta(profile: ThetaProfile, window: tuple[float, float],
                          n: int = 257) -> SubmersionModel:
    """Killing submersion of the doubly warped product built on ``profile``.

    ``window`` selects the sampled subinterval of the profile interval for
    the model's fields; the profile itself is kept as ``model.profile``.
    The fiber has unit speed and closes at 2 pi.
    """
    a, b = window
    lo, hi = profile.interval
    if not (lo <= a < b <= hi):
        raise ModelError(f"window {window} must lie inside the profile interval {profile.interval}")
    with _overflow_is_an_error(f"the window {window}"):
        theta, dth, ddth = _read_profile(profile, np.linspace(a, b, n))
        if np.any(np.sin(2.0 * np.asarray(theta, dtype=float)) < MIN_PARALLEL_SIN):
            raise ModelError("window touches a degenerate parallel (sin(2 theta) ~ 0)")
        kappa = ScalarField1D(np.asarray(_base_curvature(theta, dth, ddth), dtype=float),
                              interval=window)
        tau = ScalarField1D(-np.asarray(dth, dtype=float), interval=window)
    return SubmersionModel(
        kind=ModelKind.WARPED,
        kappa_field=kappa,
        tau_field=tau,
        fiber_length=2.0 * math.pi,
        profile=profile,
    )


def base_curvature_oracle(profile: ThetaProfile, x: float) -> float:
    """Finite-difference estimate -f''(x)/f(x) of the base curvature.

    Independent of the closed form: only theta itself is evaluated, at the
    three-point central stencil of step h = 1e-4.  ``x`` must sit inside
    the interval with a margin of at least 2 h.
    """
    h = 1e-4
    lo, hi = profile.interval
    if not (lo + 2 * h <= x <= hi - 2 * h):
        raise ModelError(f"x = {x} leaves the profile interval with margin 2h")
    f = profile.f
    second = (float(f(x + h)) - 2.0 * float(f(x)) + float(f(x - h))) / h**2
    return -second / float(f(x))


def parallel_closed_forms(model: SubmersionModel,
                          u: float) -> tuple[float, float, float, float, float]:
    """Closed forms of the Hopf torus over the base parallel ``u``, as Python
    floats: its curve length L = pi sin(2 theta), its mean curvature
    H = theta' cot(2 theta), and the constants kappa, tau = -theta' and
    ambient |grad tau| = |theta''| along it.  Every check that a torus over
    ``u`` needs comes first: ``u`` inside the profile interval, no overflow in
    the profile, theta in (0, pi/2) and a nondegenerate parallel, each a
    ModelError, and finite constants, a FieldError as the torus's fields
    would raise."""
    profile = _warped_profile(model)
    lo, hi = profile.interval
    if not (lo < u < hi):
        raise ModelError(f"u = {u} is outside the profile interval")
    with _overflow_is_an_error(f"the parallel u = {u}"):
        theta_u, dth, ddth = map(float, _read_profile(profile, u))
        sin2 = math.sin(2.0 * theta_u)
        if sin2 < MIN_PARALLEL_SIN:
            raise ModelError(f"degenerate parallel at u = {u}: sin(2 theta) = {sin2:g}")
        kappa_u = float(_base_curvature(theta_u, dth, ddth))
    if not all(map(math.isfinite, (kappa_u, dth, ddth))):  # the torus's constant fields
        raise FieldError("field samples must be finite")
    return math.pi * sin2, dth * (math.cos(2.0 * theta_u) / sin2), kappa_u, -dth, abs(ddth)


def parallel_hopf_torus(model: SubmersionModel, u: float, n: int = 512) -> HopfTorus:
    """Hopf torus over the base parallel at ``u``; curvature data constant.

    The torus is built from :func:`parallel_closed_forms` at ``u``: the
    model's fields vary across the parallels, and along this one they are
    the constants kappa(u) and tau(u).  It stores the ambient
    |grad tau| = |theta''(u)| alongside the (vanishing) intrinsic
    derivative, and keeps ``u`` as its base point.
    """
    L, H, *constants = parallel_closed_forms(model, u)
    kappa, tau, grad_ambient = (ScalarField1D.constant(v, L, n) for v in constants)
    return HopfTorus(curve_length=L, fiber_length=float(model.fiber_length), mean_curvature=H,
                     kappa_on_curve=kappa, tau_on_curve=tau, grad_tau_ambient=grad_ambient,
                     base_point=float(u), name=f"parallel_torus(u={u:g})")


def _warped_profile(model: SubmersionModel) -> ThetaProfile:
    if model.kind is not ModelKind.WARPED or model.profile is None:
        raise ModelError("model does not carry a warping profile")
    return model.profile


def bounds_in_theta_form(model: SubmersionModel, torus: HopfTorus) -> tuple[float, float]:
    """Positive-regime bounds written directly in theta derivatives.

    On a parallel torus the two integrands reduce to the pointwise values
    2 theta'^2 + theta'' and 4 theta'^2 + (1 - 2 cot(2 theta)) theta''; these
    equal the generic bounds evaluated in AMBIENT mode (where
    2 tau^2 - |grad tau| = 2 theta'^2 + theta'' for theta'' < 0).  Requires
    theta < pi/4 and theta'' < 0 at the parallel.
    """
    profile = _warped_profile(model)
    if torus.base_point is None:
        raise SurfaceError("torus does not record its base parallel")
    u = torus.base_point
    theta_u, dth, ddth = map(float, _read_profile(profile, u))
    if theta_u >= math.pi / 4 or ddth >= 0.0:
        raise RegimeMismatchError(
            f"theta-form bounds need theta < pi/4 and theta'' < 0 at u = {u} "
            f"(got theta = {theta_u:g}, theta'' = {ddth:g})")
    h2 = torus.mean_curvature**2
    cot = math.cos(2.0 * theta_u) / math.sin(2.0 * theta_u)
    bound_i = -2.0 * h2 - (2.0 * dth**2 + ddth)
    genus_term = 8.0 * math.pi * (torus.genus - 1) / torus.area
    bound_ii = -4.0 * h2 - genus_term - (4.0 * dth**2 + (1.0 - 2.0 * cot) * ddth)
    return bound_i, bound_ii
