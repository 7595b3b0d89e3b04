"""Catalog of Killing submersion models M(kappa, tau).

A model stores kappa and tau as sampled fields over a 1D base parameter.
Three kinds are supported: homogeneous (both constant), product (tau
identically zero over an arbitrary base), and the doubly warped family built
in :mod:`jacobilab.warped`.  Constant means every sample equal and zero
means every sample 0.0, with no tolerance
(:meth:`~jacobilab.fields.ScalarField1D.is_constant`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

import numpy as np

from .errors import ModelError
from .fields import ScalarField1D


class ModelKind(Enum):
    HOMOGENEOUS = "homogeneous"
    PRODUCT = "product"
    WARPED = "warped"


class GradientMode(Enum):
    """Interpretation of |grad tau| used in the eigenvalue bounds.

    INTRINSIC_ON_SURFACE differentiates tau along the surface itself (exactly
    zero on any grid whenever tau is constant there); AMBIENT is the
    magnitude of the full base-parameter derivative.  The two coincide except on the warped family,
    where tau varies transversally to the fiber tori.
    """

    INTRINSIC_ON_SURFACE = "intrinsic_on_surface"
    AMBIENT = "ambient"


@dataclass(frozen=True)
class SubmersionModel:
    """Killing submersion described by sampled kappa/tau fields.

    ``fiber_length`` is None for noncompact fibers (product with a line).
    ``profile`` keeps the generating curvature profile of warped models.
    """

    kind: ModelKind
    kappa_field: ScalarField1D
    tau_field: ScalarField1D
    fiber_length: float | None
    profile: Any = None

    def __post_init__(self):
        if not self.kappa_field.same_grid(self.tau_field):
            raise ModelError("kappa and tau fields must share one grid")
        if self.fiber_length is not None:
            if not (math.isfinite(self.fiber_length) and self.fiber_length > 0):
                raise ModelError(f"fiber_length must be positive, got {self.fiber_length}")
        if self.kind is ModelKind.PRODUCT and np.any(self.tau_field.samples):
            raise ModelError("product models require tau == 0")
        if self.kind is ModelKind.HOMOGENEOUS:
            if not (self.kappa_field.is_constant() and self.tau_field.is_constant()):
                raise ModelError("homogeneous models require constant kappa and tau")

    @property
    def has_compact_fibers(self) -> bool:
        return self.fiber_length is not None


def homogeneous_model(kappa: float, tau: float, fiber_length: float) -> SubmersionModel:
    """Model with constant curvature data (a homogeneous 3-manifold)."""
    period = 2.0 * math.pi
    return SubmersionModel(
        kind=ModelKind.HOMOGENEOUS,
        kappa_field=ScalarField1D.constant(kappa, period),
        tau_field=ScalarField1D.constant(tau, period),
        fiber_length=float(fiber_length),
    )


def product_model(kappa_field: ScalarField1D, fiber_length: float | None) -> SubmersionModel:
    """Product of a base surface with a circle (finite fiber) or a line."""
    tau0 = ScalarField1D(np.zeros(kappa_field.n),
                         period=kappa_field.period, interval=kappa_field.interval)
    return SubmersionModel(
        kind=ModelKind.PRODUCT,
        kappa_field=kappa_field,
        tau_field=tau0,
        fiber_length=None if fiber_length is None else float(fiber_length),
    )
