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

Each strong-stability corollary is its bound at lambda1 >= 0, solved for
H^2.  ``_BOUND_TABLE`` holds the coefficients, the equality predicates and the
corollary text of all four bounds.

Each fact has one public function: ``theorem_bound`` a bound,
``equality_classify`` its equality verdict and ``corollary_checks`` the
corollaries; ``build_bound_report`` calls these three per gradient mode.
They read the regime from the surface (``SurfaceModel.regime``, classified
once when the surface is built); a bound refuses NULL/MIXED regimes with a
typed error.  A report records which |grad tau| interpretation was used
(both are evaluated side by side since they can disagree on warped models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import RegimeMismatchError
from .fields import is_constant
from .geometry import Regime
from .submersion import GradientMode
from .surface import SurfaceModel

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

class _Bound(NamedTuple):
    """bound = -c_h H^2 [- 8 pi (g - 1)/Area] - E[c_k kappa + c_t tau^2 - |grad tau|],
    the ``_PREDICATES`` whose conjunction is its equality case, and the detail
    line of its strong-stability corollary."""

    regime: Regime
    c_h: float
    genus_term: bool
    c_k: float
    c_t: float
    predicates: tuple[str, ...]
    corollary: str


_STRICT = "strict inequality, verified within tolerance"

_BOUND_TABLE = {
    TheoremPart.PLUS_I: _Bound(
        Regime.POSITIVE, 2.0, False, 0.0, 2.0, ("horizontal",),
        "strong stability forces H^2 <= E[|grad tau|/2 - tau^2]; "
        "equality exactly for horizontal surfaces"),
    TheoremPart.PLUS_II: _Bound(
        Regime.POSITIVE, 4.0, True, 1.0, 0.0,
        ("hopf_torus", "kappa_constant", "tau_constant"), _STRICT),
    TheoremPart.MINUS_I: _Bound(
        Regime.NEGATIVE, 2.0, False, 1.0, -2.0,
        ("hopf_torus", "geodesic_curve", "tau_zero", "kappa_constant"), _STRICT),
    TheoremPart.MINUS_II: _Bound(
        Regime.NEGATIVE, 4.0, True, 2.0, -4.0,
        ("horizontal", "gaussian_curvature_is_kappa"),
        "equality exactly for horizontal surfaces with K = kappa"),
}

# regime -> (bound (i), bound (ii)) of that regime's theorem, in table order
REGIME_PARTS = {regime: tuple(part for part, row in _BOUND_TABLE.items() if row.regime is regime)
                for regime in dict.fromkeys(row.regime for row in _BOUND_TABLE.values())}


def theorem_bound(s: SurfaceModel, part: TheoremPart,
                  gradient_mode: GradientMode = GradientMode.INTRINSIC_ON_SURFACE) -> float:
    """Upper bound ``part`` on lambda1; see module docstring."""
    row = _BOUND_TABLE[part]
    if s.regime is not row.regime:
        raise RegimeMismatchError(
            f"bound requires regime {row.regime.value}, surface has {s.regime.value}")
    kappa, tau, grad = s.samples(gradient_mode)
    mean = s.mean(row.c_k * kappa + row.c_t * tau**2 - grad)
    bound = -row.c_h * s.mean_curvature**2
    if row.genus_term:
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


def _as_dict(record) -> dict:
    """A report record as plain data, enums by their value.  Only dicts are
    copied; ``dataclasses.asdict`` deep-copies every leaf at 3x the cost."""
    return {key: value.value if isinstance(value, Enum)
            else _as_dict(value) if is_dataclass(value)
            else dict(value) if isinstance(value, dict) else value
            for key, value in vars(record).items()}


@dataclass(frozen=True)
class EqualityClassification:
    part: TheoremPart
    status: EqualityStatus
    numeric_equality: bool
    characterization_holds: bool
    predicates: dict
    gap: float
    tolerance: float


# name -> predicate of the equality characterizations, given the surface and
# its kappa and tau samples; a surface that is not horizontal is a Hopf torus
_PREDICATES = {
    "horizontal": lambda s, k, t: s.horizontal,
    "hopf_torus": lambda s, k, t: not s.horizontal,
    "kappa_constant": lambda s, k, t: not s.horizontal and is_constant(k, PREDICATE_TOL),
    "tau_constant": lambda s, k, t: not s.horizontal and is_constant(t, PREDICATE_TOL),
    "geodesic_curve": lambda s, k, t: not s.horizontal and abs(s.mean_curvature) <= PREDICATE_TOL,
    "tau_zero": lambda s, k, t: not s.horizontal and float(np.max(np.abs(t))) <= PREDICATE_TOL,
    # our slices carry the base metric, so K = kappa holds by construction
    "gaussian_curvature_is_kappa": lambda s, k, t: s.horizontal,
}


def equality_classify(s: SurfaceModel, lambda1: float, bound: float,
                      part: TheoremPart) -> EqualityClassification:
    """Compare numeric equality in a bound with its characterization.

    Agreement yields EQUALITY / NO_EQUALITY; any mismatch between the numbers
    and the predicates is flagged ANOMALY rather than silently accepted.
    """
    kappa, tau, _ = s.samples(GradientMode.INTRINSIC_ON_SURFACE)
    predicates = {name: _PREDICATES[name](s, kappa, tau) for name in _BOUND_TABLE[part].predicates}
    tol = default_equality_tol(lambda1)
    gap = lambda1 - bound
    numeric = abs(gap) <= tol
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


def corollary_checks(s: SurfaceModel, lambda1: float,
                     gradient_mode: GradientMode = GradientMode.INTRINSIC_ON_SURFACE
                     ) -> list[CorollaryRecord]:
    """Evaluate every consequence whose hypothesis the surface can meet.

    Strict inequalities are verified up to the numerical tolerance; exact
    strictness is not decidable in floating point and the records say so.
    """
    records: list[CorollaryRecord] = []
    parts = REGIME_PARTS.get(s.regime, ())
    kappa, tau, grad = s.samples(gradient_mode)
    area = s.area
    genus = s.genus
    h2 = s.mean_curvature**2
    stable = lambda1 >= -STABILITY_TOL
    tau_const = is_constant(tau, PREDICATE_TOL)
    tol = default_equality_tol(lambda1)

    specialized = []
    for part in parts:
        row = _BOUND_TABLE[part]
        theorem, numeral = part.value.rsplit("_", 1)
        # the bound at lambda1 >= 0 solved for H^2; c_h is 2 or 4, so the
        # divisions are exact
        rhs = s.mean(-row.c_t * tau**2 + grad - row.c_k * kappa) / row.c_h
        if row.genus_term:
            rhs += 8.0 * math.pi * (1 - genus) / area / row.c_h
        records.append(CorollaryRecord(
            f"{theorem}_cor_{numeral}", applicable=stable,
            satisfied=(h2 <= rhs + tol) if stable else None,
            lhs=h2, rhs=rhs, detail=row.corollary))
        if tau_const and s.regime is Regime.NEGATIVE:
            # the bound with tau == tau0 on the surface, grouped so that
            # H^2 = tau0^2 still gives -c_h * 0.0 = -0.0
            rhs = -row.c_h * (h2 + row.c_t / row.c_h * float(tau[0]) ** 2)
            if row.genus_term:
                rhs -= 8.0 * math.pi * (genus - 1) / area
            rhs -= row.c_k * s.mean(kappa)
            specialized.append(CorollaryRecord(
                f"{theorem}_cor_const_tau_{numeral}", applicable=True,
                satisfied=lambda1 <= rhs + tol, lhs=lambda1, rhs=rhs,
                detail=f"constant-tau specialization of the negative-regime bound ({numeral})"))
    if tau_const and s.regime is Regime.POSITIVE:
        specialized.append(CorollaryRecord(
            "thm_plus_cor_const_tau", applicable=stable,
            satisfied=s.horizontal if stable else None,
            detail="with constant tau the only strongly stable surfaces "
                   "are the horizontal ones"))
    records += specialized

    if tau_const and is_constant(kappa, PREDICATE_TOL):
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
            "bounds": {mode.value: _as_dict(mb) for mode, mb in self.per_mode.items()},
            "stability_verdict": self.stability.value,
            "corollaries": [_as_dict(c) for c in self.corollaries],
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
    regime = s.regime
    if regime not in REGIME_PARTS:
        raise RegimeMismatchError(f"no bounds apply in regime {regime.value}")
    parts = REGIME_PARTS[regime]
    theorem = f"{regime.value}_regime"

    per_mode = {}
    violations = []
    for mode in (GradientMode.INTRINSIC_ON_SURFACE, GradientMode.AMBIENT):
        b_i, b_ii = (theorem_bound(s, part, mode) for part in parts)
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
