"""Pointwise curvature algebra of a Killing submersion M(kappa, tau).

Conventions: ``kappa`` is the Gaussian curvature of the base surface, ``tau``
the bundle curvature, ``nu = <N, xi>`` the vertical component of the surface
unit normal ("angle function"), and ``x_tau`` the derivative of tau in the
horizontal tangent direction X of the surface.  The square root sqrt(1 - nu^2)
is always taken nonnegative; signed behaviour enters only through nu and
x_tau.

With w = kappa - 4 tau^2 the three pointwise quantities are

    sectional:  tau^2 + nu^2 w - 2 nu sqrt(1 - nu^2) x_tau
    ricci:      kappa - 2 tau^2 - nu^2 w + 2 nu sqrt(1 - nu^2) x_tau
    combined:   kappa + nu^2 w - 2 nu sqrt(1 - nu^2) x_tau

where "sectional" is the ambient sectional curvature of the surface tangent
plane, "ricci" the ambient Ricci curvature in the normal direction, and
"combined" equals 2*sectional + ricci.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Regime(Enum):
    """Sign of kappa - 4 tau^2 over a sampled domain."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    NULL = "null"
    MIXED = "mixed"


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise curvature inputs; scalars or broadcastable arrays.

    Requires finite entries and |nu| <= 1.
    """

    kappa: float | np.ndarray
    tau: float | np.ndarray
    nu: float | np.ndarray
    x_tau: float | np.ndarray

    def __post_init__(self):
        for name in ("kappa", "tau", "nu", "x_tau"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value if value.ndim else float(value))
        nu = np.asarray(self.nu)
        if np.any(np.abs(nu) > 1.0):
            raise ValueError("|nu| must not exceed 1")


def _vertical_root(nu):
    """Nonnegative sqrt(1 - nu^2), exact 0 at nu = +-1."""
    return np.sqrt(np.maximum(0.0, 1.0 - np.asarray(nu) ** 2))


def _as_input(result):
    arr = np.asarray(result)
    return float(arr) if arr.ndim == 0 else arr


def sectional_curvature(d: CurvatureData):
    """Sectional curvature of the surface tangent plane in the ambient space."""
    w = d.kappa - 4.0 * np.square(d.tau)
    return _as_input(np.square(d.tau) + np.square(d.nu) * w
                     - 2.0 * d.nu * _vertical_root(d.nu) * d.x_tau)


def ricci_normal(d: CurvatureData):
    """Ambient Ricci curvature in the direction of the surface unit normal."""
    w = d.kappa - 4.0 * np.square(d.tau)
    return _as_input(d.kappa - 2.0 * np.square(d.tau) - np.square(d.nu) * w
                     + 2.0 * d.nu * _vertical_root(d.nu) * d.x_tau)


def combined_integrand(d: CurvatureData):
    """Value of 2 * sectional_curvature + ricci_normal, in simplified form."""
    w = d.kappa - 4.0 * np.square(d.tau)
    return _as_input(d.kappa + np.square(d.nu) * w
                     - 2.0 * d.nu * _vertical_root(d.nu) * d.x_tau)


def classify_regime(kappa_samples, tau_samples) -> Regime:
    """Classify the sign of kappa - 4 tau^2 over paired samples.

    With tol = 1e-12 max(1, max |kappa|), NULL means |kappa - 4 tau^2| <= tol
    everywhere (the space-form quotient case, excluded from the eigenvalue
    bounds); POSITIVE/NEGATIVE require the strict sign beyond tol at every
    sample, anything else is MIXED.
    """
    kappa = np.asarray(kappa_samples, dtype=float)
    tau = np.asarray(tau_samples, dtype=float)
    if kappa.size == 0 or tau.size == 0:
        raise ValueError("regime classification needs nonempty samples")
    if kappa.shape != tau.shape:
        raise ValueError(f"sample length mismatch: {kappa.shape} vs {tau.shape}")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(kappa))))
    w = kappa - 4.0 * tau**2
    if np.all(np.abs(w) <= tol):
        return Regime.NULL
    if np.all(w > tol):
        return Regime.POSITIVE
    if np.all(w < -tol):
        return Regime.NEGATIVE
    return Regime.MIXED
