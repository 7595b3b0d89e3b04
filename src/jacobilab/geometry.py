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
"combined" equals 2*sectional + ricci.  The three are rows of one table of
coefficients on the columns (kappa, tau^2, nu^2 w, 2 nu sqrt(1 - nu^2) x_tau),
evaluated by one function.
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


# Rows of the coefficient table of the module docstring.  Summing left to
# right from the kappa term keeps sectional and ricci bit for bit the
# written-out formulas.
_CURVATURE_ROWS = {"sectional": (0, 1, 1, -1), "ricci": (1, -2, -1, 1),
                  "combined": (1, 0, 1, -1)}


def _curvature_row(d: CurvatureData, row):
    """sum of row[i] * column i, scalar for scalar inputs."""
    tau2 = np.square(d.tau)
    columns = (d.kappa, tau2, np.square(d.nu) * (d.kappa - 4.0 * tau2),
               2.0 * d.nu * _vertical_root(d.nu) * d.x_tau)
    terms = [c * x for c, x in zip(row, columns)]
    total = np.asarray(sum(terms[1:], terms[0]))
    return float(total) if total.ndim == 0 else total


def sectional_curvature(d: CurvatureData):
    """Sectional curvature of the surface tangent plane in the ambient space."""
    return _curvature_row(d, _CURVATURE_ROWS["sectional"])


def ricci_normal(d: CurvatureData):
    """Ambient Ricci curvature in the direction of the surface unit normal."""
    return _curvature_row(d, _CURVATURE_ROWS["ricci"])


def combined_integrand(d: CurvatureData):
    """Value of 2 * sectional_curvature + ricci_normal, in simplified form."""
    return _curvature_row(d, _CURVATURE_ROWS["combined"])


def classify_regime(kappa_samples, tau_samples):
    """Classify the sign of kappa - 4 tau^2 over paired samples.

    With tol = 1e-12 max(1, max |kappa|), NULL means |kappa - 4 tau^2| <= tol
    everywhere (the space-form quotient case, excluded from the eigenvalue
    bounds); POSITIVE/NEGATIVE require the strict sign beyond tol at every
    sample, anything else is MIXED.  The samples run along the last axis: a
    stack of rows gives a list of one regime per row, each the regime of
    that row alone.
    """
    kappa, tau = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (kappa_samples, tau_samples))
    if kappa.size == 0 or tau.size == 0:
        raise ValueError("regime classification needs nonempty samples")
    if kappa.shape != tau.shape:
        raise ValueError(f"sample length mismatch: {kappa.shape} vs {tau.shape}")
    w = kappa - 4.0 * tau**2
    # per row: tol and the extremes of w, which decide each "everywhere"
    extremes = (1e-12 * np.maximum(1.0, np.abs(kappa).max(-1)), w.min(-1), w.max(-1))
    regimes = [Regime.NULL if -tol <= lo and hi <= tol else Regime.POSITIVE if lo > tol
               else Regime.NEGATIVE if hi < -tol else Regime.MIXED
               for tol, lo, hi in zip(*(np.atleast_1d(x).tolist() for x in extremes))]
    return regimes if kappa.ndim > 1 else regimes[0]
