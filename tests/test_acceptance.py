"""Acceptance suite: every end-to-end claim at its stated tolerance.

Each test wraps one catalog check from :mod:`jacobilab.verification`, asserts
it within its runtime budget and prints one pass/fail line (visible with
``pytest -s`` or through ``jacobilab verify``).  The registry tests at the
end pin the names, order and functions of ``CATALOG``.
"""

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


# detail lines of the one-function-at-a-time check, before the test functions
# were drawn in blocks; they pin the order in which the generator is consumed
MINMAX_DETAIL = {
    DEFAULT_SEED: "3000 test functions, min RQ - lambda1 = 3.970e+00 (>= -1e-9), "
                  "ground-state gap 2.220e-16 (tol 1e-9)",
    1: "3000 test functions, min RQ - lambda1 = 4.731e+00 (>= -1e-9), "
       "ground-state gap 2.220e-16 (tol 1e-9)",
    2: "3000 test functions, min RQ - lambda1 = 5.206e+00 (>= -1e-9), "
       "ground-state gap 2.220e-16 (tol 1e-9)",
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
