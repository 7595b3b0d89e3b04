"""Numerical laboratory for the stability of CMC surfaces in Riemannian
Killing submersions: curvature algebra, stability-operator spectra on flat
tori, and first-eigenvalue upper bounds with their equality cases."""

from .errors import (ConvergenceError, FieldError, JacobilabError, ModelError,
                     RegimeMismatchError, ScenarioError, SurfaceError)
from .fields import ScalarField1D
from .geometry import (CurvatureData, Regime, classify_regime,
                       combined_integrand, ricci_normal, sectional_curvature)
from .submersion import (GradientMode, ModelKind, SubmersionModel,
                         homogeneous_model, product_model)
from .surface import (HopfTorus, HorizontalSlice, SampledKappa, SurfaceModel,
                      gauss_bonnet_check, hopf_torus, horizontal_slice,
                      potential_field, surface_regime)
from .spectral import (SpectralProblem, SpectralResult, alpha_invariant,
                       lambda1_identity_check, rayleigh_quotient, solve,
                       solve_surface, solve_torus_2d, surface_spectral_problem)
from .bounds import (BoundReport, CorollaryRecord, EqualityClassification,
                     EqualityStatus, TheoremPart, Verdict, build_bound_report,
                     corollary_checks, equality_classify, stability_verdict,
                     theorem_bound)
from .warped import (ThetaProfile, base_curvature_oracle, bounds_in_theta_form,
                     constant_profile, half_arctan_profile, parallel_hopf_torus,
                     sampled_profile, submersion_from_theta)

__version__ = "0.4.14"

__all__ = [
    "BoundReport", "ConvergenceError", "CorollaryRecord", "CurvatureData",
    "EqualityClassification", "EqualityStatus", "FieldError", "GradientMode",
    "HopfTorus", "HorizontalSlice", "JacobilabError", "ModelError",
    "ModelKind", "Regime", "RegimeMismatchError", "SampledKappa",
    "ScalarField1D", "ScenarioError", "SpectralProblem", "SpectralResult",
    "SubmersionModel", "SurfaceError", "SurfaceModel", "TheoremPart",
    "ThetaProfile", "Verdict", "alpha_invariant", "base_curvature_oracle",
    "bounds_in_theta_form", "build_bound_report", "classify_regime",
    "combined_integrand", "constant_profile", "corollary_checks",
    "equality_classify", "gauss_bonnet_check", "half_arctan_profile",
    "homogeneous_model", "hopf_torus", "horizontal_slice",
    "lambda1_identity_check", "parallel_hopf_torus", "potential_field",
    "product_model", "rayleigh_quotient", "ricci_normal", "sampled_profile",
    "sectional_curvature", "solve", "solve_surface", "solve_torus_2d",
    "stability_verdict", "submersion_from_theta", "surface_regime",
    "surface_spectral_problem",
]
