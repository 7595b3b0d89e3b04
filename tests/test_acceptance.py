"""Acceptance suite: every end-to-end claim at its stated tolerance.

Each test wraps one catalog check from :mod:`jacobilab.verification`, asserts
it within its runtime budget and prints one pass/fail line (visible with
``pytest -s`` or through ``jacobilab verify``).  The registry tests pin the
names, order and functions of ``CATALOG``; the runner tests at the end judge
hand-made criteria through a throwaway catalog and check that every
criterion of every check shows its tolerance.
"""

import dataclasses
import math
import time

import pytest

from jacobilab import verification
from jacobilab.verification import (CATALOG, DEFAULT_SEED, CheckResult,
                                    check_alpha_identity,
                                    check_area_genus_consequence,
                                    check_backend_equivalence,
                                    check_curvature_identities,
                                    check_gauss_bonnet,
                                    check_hopf_spectrum_closed_form,
                                    check_minmax_property,
                                    check_slice_spectrum,
                                    check_thm_minus_soundness,
                                    check_thm_plus_soundness,
                                    check_warped_example)


def check_theorem_soundness_both(seed=None):
    plus = check_thm_plus_soundness()
    minus = check_thm_minus_soundness()
    return CheckResult(name="theorem_soundness",
                       passed=plus.passed and minus.passed,
                       detail=f"positive: {plus.detail}; negative: {minus.detail}",
                       elapsed=plus.elapsed + minus.elapsed)


CRITERIA = [
    (1, check_hopf_spectrum_closed_form, 10.0),
    (2, check_slice_spectrum, 1.0),
    (3, check_curvature_identities, 1.0),
    (4, check_theorem_soundness_both, 30.0),
    (5, check_alpha_identity, 5.0),
    (6, check_minmax_property, 10.0),
    (7, check_backend_equivalence, None),
    (8, check_warped_example, None),
    (9, check_gauss_bonnet, None),
    (10, check_area_genus_consequence, None),
]


def _run(number, check, budget):
    started = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - started
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {number:2d} [{result.name}] {elapsed:6.2f}s: {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"
    if budget is not None:
        assert elapsed < budget, \
            f"criterion {number} took {elapsed:.1f}s, budget {budget:.0f}s"


@pytest.mark.parametrize("number,check,budget", CRITERIA,
                         ids=[f"criterion_{n:02d}_{c.__name__[6:]}" for n, c, _ in CRITERIA])
def test_acceptance(number, check, budget):
    _run(number, check, budget)


# detail lines of the minmax check; their numbers are those of the
# one-function-at-a-time check, before the test functions were drawn in
# blocks, so they pin the order in which the generator is consumed
MINMAX_DETAIL = {
    DEFAULT_SEED: "3000 test functions; lambda1 - min RQ -3.970e+00 (tol 1e-09); "
                  "ground-state gap 2.220e-16 (tol 1e-09)",
    1: "3000 test functions; lambda1 - min RQ -4.731e+00 (tol 1e-09); "
       "ground-state gap 2.220e-16 (tol 1e-09)",
    2: "3000 test functions; lambda1 - min RQ -5.206e+00 (tol 1e-09); "
       "ground-state gap 2.220e-16 (tol 1e-09)",
}


@pytest.mark.parametrize("seed", list(MINMAX_DETAIL))
def test_minmax_detail_is_pinned(seed):
    assert check_minmax_property(seed).detail == MINMAX_DETAIL[seed]


CATALOG_NAMES = ["hopf_spectrum_closed_form", "slice_spectrum", "curvature_identities",
                 "thm_plus_soundness", "thm_minus_soundness", "alpha_identity",
                 "minmax_property", "backend_equivalence", "warped_example",
                 "gauss_bonnet", "area_genus_consequence"]


def test_catalog_registers_each_check_function_in_order():
    assert [name for name, _ in CATALOG] == CATALOG_NAMES
    for name, fn in CATALOG:
        assert fn is getattr(verification, f"check_{name}")


@pytest.mark.parametrize("name, check", CATALOG, ids=[name for name, _ in CATALOG])
def test_a_check_called_alone_returns_its_named_timed_result(name, check):
    result = check()
    assert isinstance(result, CheckResult)
    assert result.name == name and result.elapsed > 0.0


def test_run_checks_filter_matches_substrings():
    results = verification.run_checks(name_filter="spectrum")
    assert [r.name for r in results] == ["hopf_spectrum_closed_form", "slice_spectrum"]
    assert verification.run_checks(name_filter="no_such_check") == []


def _judged(monkeypatch, criteria):
    """The result of the ``@_check`` runner on a body that returns
    ``criteria``; the catalog the runner registers into is a throwaway."""
    monkeypatch.setattr(verification, "CATALOG", [])

    def check_probe(seed):
        return "2 samples", criteria

    result = verification._check(check_probe)()
    assert [name for name, _ in verification.CATALOG] == ["probe"]
    return result


def test_a_criterion_at_its_tolerance_holds(monkeypatch):
    result = _judged(monkeypatch, [("worst gap", 1e-8, 1e-8), ("misses", 0, 0),
                                   ("lambda1 - bound", -1e-9, -1e-9)])
    assert result.passed
    assert result.detail == ("2 samples; worst gap 1.000e-08 (tol 1e-08); misses 0 (tol 0); "
                             "lambda1 - bound -1.000e-09 (tol -1e-09)")


@pytest.mark.parametrize("value, tol, shown", [
    (1.0000000000000002e-8, 1e-8, "second 1.000e-08 (tol 1e-08)"),  # one ulp above
    (1, 0, "second 1 (tol 0)"),
    (float("nan"), 1e-8, "second nan (tol 1e-08)"),
])
def test_one_criterion_above_its_tolerance_fails_and_every_criterion_is_shown(
        monkeypatch, value, tol, shown):
    result = _judged(monkeypatch, [("first", 0.5e-8, 1e-8), ("second", value, tol),
                                   ("third", 0.0, 1e-8)])
    assert not result.passed
    assert result.detail.split("; ") == ["2 samples", "first 5.000e-09 (tol 1e-08)", shown,
                                         "third 0.000e+00 (tol 1e-08)"]


@pytest.mark.parametrize("name, check", CATALOG, ids=[name for name, _ in CATALOG])
def test_each_criterion_of_a_check_names_its_tolerance(name, check, monkeypatch):
    described = []
    describe = verification._describe
    monkeypatch.setattr(verification, "_describe",
                        lambda criterion: described.append(criterion) or describe(criterion))
    parts = check().detail.split("; ")
    assert described and len(parts) == 1 + len(described)
    for part, (label, _, tol) in zip(parts[1:], described):
        assert part.startswith(f"{label} ") and part.endswith(f" (tol {tol:g})")


# every check that reads a solved surface's lambda1; a NaN there once passed
# hopf_spectrum_closed_form, slice_spectrum and alpha_identity, whose max()
# dropped it
@pytest.mark.parametrize("name", ["hopf_spectrum_closed_form", "slice_spectrum",
                                  "thm_plus_soundness", "thm_minus_soundness",
                                  "alpha_identity", "warped_example",
                                  "area_genus_consequence"])
def test_a_nan_lambda1_fails_the_check(name, monkeypatch):
    real = verification.solve_surface

    def nan_lambda1(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), lambda1=math.nan)

    monkeypatch.setattr(verification, "solve_surface", nan_lambda1)
    result = dict(CATALOG)[name]()
    assert not result.passed, result.detail
