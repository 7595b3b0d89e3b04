"""Mutant table of the verification catalog.

Each row changes one thing in the program in-process (``monkeypatch``, no
file writes) and names the catalog check that must then fail in
``run_checks()``.  A row that passes its check shows a blind spot of the
catalog, not of the program.
"""

import dataclasses
import math

import numpy as np
import pytest

from jacobilab import bounds, geometry, spectral, verification
from jacobilab.bounds import TheoremPart
from jacobilab.surface import SampledKappa
from jacobilab.verification import run_checks
from jacobilab.warped import ThetaProfile


def _bound_row(monkeypatch, part, **change):
    monkeypatch.setitem(bounds._BOUND_TABLE, part,
                        bounds._BOUND_TABLE[part]._replace(**change))


def _scale_result(monkeypatch, owner, name, factor):
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: real(*args, **kwargs) * factor)


def _shift_potential(monkeypatch):
    real = spectral.potential_field
    monkeypatch.setattr(spectral, "potential_field",
                        lambda s: real(s).map(lambda q: q + 1e-6))


def _tilt_ground_state(monkeypatch):
    real = spectral._fourier_ground_state

    def tilted(length, vec, n):
        return real(length, vec, n) * (1.0 + 1e-2 * np.cos(2.0 * math.pi * np.arange(n) / n))

    monkeypatch.setattr(spectral, "_fourier_ground_state", tilted)


def _area_genus_rhs_2_pi_g(monkeypatch):
    real = bounds.corollary_checks

    def shifted(s, *args):
        return [dataclasses.replace(r, rhs=2.0 * math.pi * s.genus)
                if r.name == "area_genus_consequence" else r for r in real(s, *args)]

    # the report reads it from bounds, the check imported it by name
    monkeypatch.setattr(bounds, "corollary_checks", shifted)
    monkeypatch.setattr(verification, "corollary_checks", shifted)


MUTANTS = {
    "plus_ii_c_k_1.001": (
        lambda mp: _bound_row(mp, TheoremPart.PLUS_II, c_k=1.001), "thm_plus_soundness"),
    "minus_ii_genus_term_off": (
        lambda mp: _bound_row(mp, TheoremPart.MINUS_II, genus_term=False),
        "thm_minus_soundness"),
    "fd_apply_scaled_1e-6": (
        lambda mp: _scale_result(mp, spectral, "_fd_apply", 1.0 + 1e-6),
        "backend_equivalence"),
    "potential_field_shifted_1e-6": (_shift_potential, "hopf_spectrum_closed_form"),
    "alpha_invariant_scaled_1.001": (
        lambda mp: _scale_result(mp, spectral, "alpha_invariant", 1.001), "alpha_identity"),
    "stability_tol_negative": (
        lambda mp: mp.setattr(bounds, "STABILITY_TOL", -1.0), "slice_spectrum"),
    "sectional_tau2_coefficient_2": (
        lambda mp: mp.setitem(geometry._CURVATURE_ROWS, "sectional", (0, 2, 1, -1)),
        "curvature_identities"),
    "sampled_kappa_integral_scaled_1e-6": (
        lambda mp: _scale_result(mp, SampledKappa, "integral", 1.0 + 1e-6), "gauss_bonnet"),
    "theta_profile_kappa_scaled_1e-4": (
        lambda mp: _scale_result(mp, ThetaProfile, "kappa", 1.0 + 1e-4), "warped_example"),
    "ground_state_tilted_1e-2_cos": (_tilt_ground_state, "minmax_property"),
    "area_genus_rhs_2_pi_g": (_area_genus_rhs_2_pi_g, "area_genus_consequence"),
}


@pytest.mark.parametrize("install, check", list(MUTANTS.values()), ids=list(MUTANTS))
def test_mutant_is_killed_by_its_check(install, check, monkeypatch):
    install(monkeypatch)
    results = run_checks(name_filter=check)
    assert [r.name for r in results] == [check]
    assert not results[0].passed, results[0].detail
