"""Upper bounds for the first stability eigenvalue and their equality cases.

Under the sign hypothesis on w = kappa - 4 tau^2 the first eigenvalue lambda1
of the stability operator of a compact orientable CMC surface satisfies two
upper bounds per regime (area means are written E[.]):

positive regime (w > 0 on the surface):
    (i)   lambda1 <= -2 H^2 - E[2 tau^2 - |grad tau|]
          equality exactly for horizontal surfaces
    (ii)  lambda1 <= -4 H^2 - 8 pi (g - 1)/Area - E[kappa - |grad tau|]
          equality exactly for Hopf tori with kappa, tau constant on them

negative regime (w < 0):
    (i)   lambda1 <= -2 H^2 - E[kappa - 2 tau^2 - |grad tau|]
          equality exactly for Hopf tori over closed geodesics with tau == 0
          on the surface and kappa constant
    (ii)  lambda1 <= -4 H^2 - 8 pi (g - 1)/Area - E[2 kappa - 4 tau^2 - |grad tau|]
          equality exactly for horizontal surfaces with K = kappa

Every bound evaluator refuses NULL/MIXED regimes with a typed error, and a
report records which |grad tau| interpretation was used (both are evaluated
side by side since they can disagree on warped models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import RegimeMismatchError
from .fields import is_constant
from .geometry import Regime
from .submersion import GradientMode
from .surface import SurfaceModel, surface_regime

STABILITY_TOL = 1e-8
PREDICATE_TOL = 1e-9


class Verdict(Enum):
    STRONGLY_STABLE = "strongly_stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


class TheoremPart(Enum):
    PLUS_I = "thm_plus_i"
    PLUS_II = "thm_plus_ii"
    MINUS_I = "thm_minus_i"
    MINUS_II = "thm_minus_ii"


class EqualityStatus(Enum):
    EQUALITY = "equality"
    NO_EQUALITY = "no_equality"
    ANOMALY = "anomaly"


# --- theorem bounds -------------------------------------------------------------

# part -> (regime, H^2 coefficient c_H, genus term, kappa coefficient c_k,
# tau^2 coefficient c_t) of
#   bound = -c_H H^2 [- 8 pi (g - 1)/Area] - E[c_k kappa + c_t tau^2 - |grad tau|]
_BOUND_TABLE = {
    TheoremPart.PLUS_I: (Regime.POSITIVE, 2.0, False, 0.0, 2.0),
    TheoremPart.PLUS_II: (Regime.POSITIVE, 4.0, True, 1.0, 0.0),
    TheoremPart.MINUS_I: (Regime.NEGATIVE, 2.0, False, 1.0, -2.0),
    TheoremPart.MINUS_II: (Regime.NEGATIVE, 4.0, True, 2.0, -4.0),
}

# regime -> (bound (i), bound (ii)) of that regime's theorem
REGIME_PARTS = {
    Regime.POSITIVE: (TheoremPart.PLUS_I, TheoremPart.PLUS_II),
    Regime.NEGATIVE: (TheoremPart.MINUS_I, TheoremPart.MINUS_II),
}


def theorem_bound(s: SurfaceModel, part: TheoremPart,
                  gradient_mode: GradientMode = GradientMode.INTRINSIC_ON_SURFACE) -> float:
    """Upper bound ``part`` on lambda1; see module docstring."""
    regime, h2_coef, genus_term, kappa_coef, tau2_coef = _BOUND_TABLE[part]
    actual = surface_regime(s)
    if actual is not regime:
        raise RegimeMismatchError(
            f"bound requires regime {regime.value}, surface has {actual.value}")
    kappa, tau, grad = s.samples(gradient_mode)
    mean = s.mean(kappa_coef * kappa + tau2_coef * tau**2 - grad)
    bound = -h2_coef * s.mean_curvature**2
    if genus_term:
        bound -= 8.0 * math.pi * (s.genus - 1) / s.area
    return bound - mean


# --- verdicts and equality ---------------------------------------------------------

def stability_verdict(lambda1: float) -> Verdict:
    """Strong stability means lambda1 >= 0; MARGINAL flags |lambda1| <= STABILITY_TOL."""
    if lambda1 > STABILITY_TOL:
        return Verdict.STRONGLY_STABLE
    if lambda1 < -STABILITY_TOL:
        return Verdict.UNSTABLE
    return Verdict.MARGINAL


def default_equality_tol(lambda1: float) -> float:
    return 1e-6 * max(1.0, abs(lambda1))


@dataclass(frozen=True)
class EqualityClassification:
    part: TheoremPart
    status: EqualityStatus
    numeric_equality: bool
    characterization_holds: bool
    predicates: dict
    gap: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "part": self.part.value,
            "status": self.status.value,
            "numeric_equality": self.numeric_equality,
            "characterization_holds": self.characterization_holds,
            "predicates": dict(self.predicates),
            "gap": self.gap,
            "tolerance": self.tolerance,
        }


def _is_zero(samples: np.ndarray) -> bool:
    return float(np.max(np.abs(samples))) <= PREDICATE_TOL


def equality_predicates(s: SurfaceModel, part: TheoremPart) -> dict:
    """Predicates of the equality characterization for one bound."""
    torus = not s.horizontal
    kappa, tau, _ = s.samples(GradientMode.INTRINSIC_ON_SURFACE)
    if part is TheoremPart.PLUS_I:
        return {"horizontal": s.horizontal}
    if part is TheoremPart.PLUS_II:
        return {
            "hopf_torus": torus,
            "kappa_constant": torus and is_constant(kappa, PREDICATE_TOL),
            "tau_constant": torus and is_constant(tau, PREDICATE_TOL),
        }
    if part is TheoremPart.MINUS_I:
        return {
            "hopf_torus": torus,
            "geodesic_curve": torus and abs(s.mean_curvature) <= PREDICATE_TOL,
            "tau_zero": torus and _is_zero(tau),
            "kappa_constant": torus and is_constant(kappa, PREDICATE_TOL),
        }
    if part is TheoremPart.MINUS_II:
        # our slices carry the base metric, so K = kappa holds by construction
        return {"horizontal": s.horizontal,
                "gaussian_curvature_is_kappa": s.horizontal}
    raise ValueError(f"unknown part {part}")


def equality_classify(s: SurfaceModel, lambda1: float, bound: float,
                      part: TheoremPart) -> EqualityClassification:
    """Compare numeric equality in a bound with its characterization.

    Agreement yields EQUALITY / NO_EQUALITY; any mismatch between the numbers
    and the predicates is flagged ANOMALY rather than silently accepted.
    """
    tol = default_equality_tol(lambda1)
    gap = lambda1 - bound
    numeric = abs(gap) <= tol
    predicates = equality_predicates(s, part)
    characterized = all(predicates.values())
    if numeric and characterized:
        status = EqualityStatus.EQUALITY
    elif not numeric and not characterized:
        status = EqualityStatus.NO_EQUALITY
    else:
        status = EqualityStatus.ANOMALY
    return EqualityClassification(part=part, status=status, numeric_equality=numeric,
                                  characterization_holds=characterized,
                                  predicates=predicates, gap=float(gap), tolerance=float(tol))


# --- corollary checks -----------------------------------------------------------

@dataclass(frozen=True)
class CorollaryRecord:
    name: str
    applicable: bool
    satisfied: bool | None
    lhs: float | None = None
    rhs: float | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "applicable": self.applicable,
                "satisfied": self.satisfied, "lhs": self.lhs, "rhs": self.rhs,
                "detail": self.detail}


def corollary_checks(s: SurfaceModel, lambda1: float,
                     gradient_mode: GradientMode = GradientMode.INTRINSIC_ON_SURFACE
                     ) -> list[CorollaryRecord]:
    """Evaluate every consequence whose hypothesis the surface can meet.

    Strict inequalities are verified up to the numerical tolerance; exact
    strictness is not decidable in floating point and the records say so.
    """
    records: list[CorollaryRecord] = []
    regime = surface_regime(s)
    kappa, tau, grad = s.samples(gradient_mode)
    area = s.area
    genus = s.genus
    h2 = s.mean_curvature**2
    stable = lambda1 >= -STABILITY_TOL
    tau_const = is_constant(tau, PREDICATE_TOL)
    kappa_const = is_constant(kappa, PREDICATE_TOL)
    tol = default_equality_tol(lambda1)

    if regime is Regime.POSITIVE:
        rhs = s.mean(grad / 2.0 - tau**2)
        records.append(CorollaryRecord(
            "thm_plus_cor_i", applicable=stable,
            satisfied=(h2 <= rhs + tol) if stable else None,
            lhs=h2, rhs=rhs,
            detail="strong stability forces H^2 <= E[|grad tau|/2 - tau^2]; "
                   "equality exactly for horizontal surfaces"))
        rhs = 2.0 * math.pi * (1 - genus) / area + s.mean(grad - kappa) / 4.0
        records.append(CorollaryRecord(
            "thm_plus_cor_ii", applicable=stable,
            satisfied=(h2 <= rhs + tol) if stable else None,
            lhs=h2, rhs=rhs,
            detail="strict inequality, verified within tolerance"))
        if tau_const:
            records.append(CorollaryRecord(
                "thm_plus_cor_const_tau", applicable=stable,
                satisfied=s.horizontal if stable else None,
                detail="with constant tau the only strongly stable surfaces "
                       "are the horizontal ones"))
    elif regime is Regime.NEGATIVE:
        rhs = s.mean(tau**2 + grad / 2.0 - kappa / 2.0)
        records.append(CorollaryRecord(
            "thm_minus_cor_i", applicable=stable,
            satisfied=(h2 <= rhs + tol) if stable else None,
            lhs=h2, rhs=rhs,
            detail="strict inequality, verified within tolerance"))
        rhs = 2.0 * math.pi * (1 - genus) / area + s.mean(tau**2 + grad / 4.0 - kappa / 2.0)
        records.append(CorollaryRecord(
            "thm_minus_cor_ii", applicable=stable,
            satisfied=(h2 <= rhs + tol) if stable else None,
            lhs=h2, rhs=rhs,
            detail="equality exactly for horizontal surfaces with K = kappa"))
        if tau_const:
            rhs = -2.0 * (h2 - float(tau[0]) ** 2) - s.mean(kappa)
            records.append(CorollaryRecord(
                "thm_minus_cor_const_tau_i", applicable=True,
                satisfied=lambda1 <= rhs + tol, lhs=lambda1, rhs=rhs,
                detail="constant-tau specialization of the negative-regime bound (i)"))
            rhs = (-4.0 * (h2 - float(tau[0]) ** 2)
                   - 8.0 * math.pi * (genus - 1) / area - 2.0 * s.mean(kappa))
            records.append(CorollaryRecord(
                "thm_minus_cor_const_tau_ii", applicable=True,
                satisfied=lambda1 <= rhs + tol, lhs=lambda1, rhs=rhs,
                detail="constant-tau specialization of the negative-regime bound (ii)"))

    if tau_const and kappa_const:
        tau0, kappa0 = float(tau[0]), float(kappa[0])
        if 0.0 <= kappa0 < 4.0 * tau0**2:
            if abs(s.mean_curvature) > abs(tau0):
                records.append(CorollaryRecord(
                    "area_genus_consequence", applicable=True,
                    satisfied=lambda1 < STABILITY_TOL, lhs=lambda1, rhs=0.0,
                    detail="|H| > tau forbids strong stability"))
            else:
                lhs = area * (tau0**2 - h2)
                rhs = 2.0 * math.pi * (genus - 1)
                records.append(CorollaryRecord(
                    "area_genus_consequence", applicable=stable,
                    satisfied=(lhs >= rhs - STABILITY_TOL) if stable else None,
                    lhs=lhs, rhs=rhs,
                    detail="strong stability with |H| <= tau forces "
                           "Area (tau^2 - H^2) >= 2 pi (g - 1)"))

    return records


# --- consolidated report ------------------------------------------------------------

@dataclass(frozen=True)
class ModeBounds:
    bound_i: float
    bound_ii: float
    equality_i: EqualityClassification
    equality_ii: EqualityClassification

    def to_dict(self) -> dict:
        return {"bound_i": self.bound_i, "bound_ii": self.bound_ii,
                "equality_i": self.equality_i.to_dict(),
                "equality_ii": self.equality_ii.to_dict()}


@dataclass(frozen=True)
class BoundReport:
    regime: Regime
    theorem: str
    lambda1: float
    gradient_mode: GradientMode
    per_mode: dict
    stability: Verdict
    corollaries: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "regime": self.regime.value,
            "theorem": self.theorem,
            "lambda1": self.lambda1,
            "gradient_mode": self.gradient_mode.value,
            "bounds": {mode.value: mb.to_dict() for mode, mb in self.per_mode.items()},
            "stability_verdict": self.stability.value,
            "corollaries": [c.to_dict() for c in self.corollaries],
            "violations": list(self.violations),
        }


def build_bound_report(s: SurfaceModel, lambda1: float,
                       gradient_mode: GradientMode = GradientMode.INTRINSIC_ON_SURFACE
                       ) -> BoundReport:
    """Evaluate both bounds of the applicable regime under both gradient modes.

    A bound violated beyond STABILITY_TOL lands in ``violations``; an
    equality-characterization mismatch in the intrinsic mode does too, while
    ambient-mode mismatches are kept visible in the per-mode records (the two
    modes legitimately disagree on warped models).
    """
    regime = surface_regime(s)
    if regime not in REGIME_PARTS:
        raise RegimeMismatchError(f"no bounds apply in regime {regime.value}")
    parts = REGIME_PARTS[regime]
    theorem = f"{regime.value}_regime"

    per_mode = {}
    violations = []
    for mode in (GradientMode.INTRINSIC_ON_SURFACE, GradientMode.AMBIENT):
        b_i = theorem_bound(s, parts[0], mode)
        b_ii = theorem_bound(s, parts[1], mode)
        eq_i = equality_classify(s, lambda1, b_i, parts[0])
        eq_ii = equality_classify(s, lambda1, b_ii, parts[1])
        per_mode[mode] = ModeBounds(b_i, b_ii, eq_i, eq_ii)
        for label, bound in (("bound_i", b_i), ("bound_ii", b_ii)):
            if lambda1 > bound + STABILITY_TOL:
                violations.append(
                    f"{label} violated under {mode.value}: lambda1 {lambda1:.12g} "
                    f"> bound {bound:.12g}")
        if mode is GradientMode.INTRINSIC_ON_SURFACE:
            for eq in (eq_i, eq_ii):
                if eq.status is EqualityStatus.ANOMALY:
                    violations.append(
                        f"equality anomaly in {eq.part.value} under {mode.value}")

    return BoundReport(
        regime=regime, theorem=theorem, lambda1=float(lambda1),
        gradient_mode=gradient_mode, per_mode=per_mode,
        stability=stability_verdict(lambda1),
        corollaries=corollary_checks(s, lambda1, gradient_mode),
        violations=violations,
    )
