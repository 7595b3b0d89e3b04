import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jacobilab import (GradientMode, ScenarioError, parallel_hopf_torus, solve,
                       surface_spectral_problem, theorem_bound)
from jacobilab.bounds import REGIME_PARTS
from jacobilab.cli import main
from jacobilab.scenario import (_sweep_grid, build_model, dumps_deterministic, format_column,
                                format_csv, load_scenario, run_scenario, validate_scenario,
                                write_outputs)

TWO_PI = 2 * math.pi
SHIPPED_BERGER = Path(__file__).parent.parent / "scenarios" / "berger_minimal_hopf.json"


def berger_doc(**extra):
    doc = {
        "version": 1,
        "name": "berger_minimal_hopf",
        "model": {"kind": "homogeneous", "kappa": 4.0, "tau": 0.5,
                  "fiber_length": TWO_PI},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.0},
    }
    doc.update(extra)
    return doc


def warped_doc(**extra):
    doc = {
        "version": 1,
        "name": "warped_parallel",
        "model": {"kind": "warped", "profile": "half_arctan", "window": [0.25, 4.0]},
        "surface": {"type": "hopf_torus", "parallel": 1.0},
    }
    doc.update(extra)
    return doc


# --- validation ---------------------------------------------------------------

def test_valid_documents_pass():
    assert validate_scenario(berger_doc()) == []
    assert validate_scenario(warped_doc()) == []


def test_unknown_keys_rejected_with_paths():
    doc = berger_doc()
    doc["model"]["bogus"] = 1
    doc["surprise"] = True
    errors = validate_scenario(doc)
    assert any(e.startswith("model.bogus") for e in errors)
    assert any(e.startswith("<root>.surprise") for e in errors)


def test_version_and_negative_fiber():
    doc = berger_doc()
    doc["version"] = 99
    doc["model"]["fiber_length"] = -2.0
    errors = validate_scenario(doc)
    assert any(e.startswith("version") for e in errors)
    assert any("fiber_length" in e for e in errors)


def test_parallel_requires_warped_model():
    doc = berger_doc()
    doc["surface"] = {"type": "hopf_torus", "parallel": 1.0}
    assert any("parallel" in e for e in validate_scenario(doc))
    doc2 = warped_doc()
    doc2["surface"] = {"type": "hopf_torus", "curve_length": TWO_PI,
                       "geodesic_curvature": 0.0}
    assert validate_scenario(doc2) != []


def test_sweep_only_for_warped():
    doc = berger_doc(outputs={"sweep": {"start": 0.5, "stop": 1.0, "step": 0.1}})
    assert any(e.startswith("outputs.sweep") for e in validate_scenario(doc))


def test_run_scenario_raises_on_invalid():
    with pytest.raises(ScenarioError):
        run_scenario({"version": 1})


# --- execution ----------------------------------------------------------------

def test_berger_pipeline_values():
    outcome = run_scenario(berger_doc())
    rep = outcome.report
    assert outcome.exit_code == 0
    assert rep["spectrum"]["lambda1"] == pytest.approx(-4.0, abs=1e-10)
    eq_ii = rep["bounds"]["bounds"]["intrinsic_on_surface"]["equality_ii"]
    assert eq_ii["status"] == "equality"
    assert rep["surface"]["regime"] == "positive"
    assert rep["anomalies"] == []


def test_null_regime_scenario_is_excluded_not_error():
    doc = berger_doc()
    doc["model"]["tau"] = 1.0  # kappa - 4 tau^2 = 0
    outcome = run_scenario(doc)
    assert outcome.exit_code == 0
    assert outcome.report["bounds"] is None
    assert "null" in outcome.report["excluded_from_bounds"]


def test_slice_scenario():
    doc = {
        "version": 1,
        "name": "sphere_slice",
        "model": {"kind": "product", "fiber_length": TWO_PI,
                  "kappa": {"constant": 1.0}},
        "surface": {"type": "horizontal_slice", "base_area": 4 * math.pi, "genus": 0},
    }
    outcome = run_scenario(doc)
    rep = outcome.report
    assert rep["spectrum"]["lambda1"] == 0.0
    assert rep["bounds"]["stability_verdict"] == "marginal"
    assert rep["bounds"]["bounds"]["intrinsic_on_surface"]["equality_i"]["status"] == "equality"


def test_slice_reads_its_own_constant_kappa(tmp_path):
    # kappa = -1/2 on area 8 pi closes genus 2; the model's kappa -1 would
    # give bound_i = 1, so the bounds show which curvature the slice carries
    doc = {"version": 1, "name": "slice_constant_kappa",
           "model": {"kind": "homogeneous", "kappa": -1.0, "tau": 0.0, "fiber_length": TWO_PI},
           "surface": {"type": "horizontal_slice", "base_area": 8 * math.pi, "genus": 2,
                       "kappa": {"constant": -0.5}},
           "outputs": {"series": ["ground_state"]}}
    assert _run_file(tmp_path, doc) == 0
    report = json.loads((tmp_path / "out" / "slice_constant_kappa.report.json").read_text())
    assert report["spectrum"]["lambda1"] == 0.0
    assert report["identities"]["gauss_bonnet_residual"] == 0.0
    bounds = report["bounds"]["bounds"]["intrinsic_on_surface"]
    assert (bounds["bound_i"], bounds["bound_ii"]) == (0.5, 0.0)
    assert bounds["equality_ii"]["status"] == "equality"


def test_positive_parallel_above_quarter_pi_has_no_theta_form(tmp_path):
    # theta > pi/4 with theta'' > 0 is the positive regime, but the theta
    # form of its bounds needs theta < pi/4 and theta'' < 0
    theta = [math.pi / 4 + 0.1 + 0.05 * (i / 20) ** 2 for i in range(41)]
    doc = {"version": 1, "name": "convex_profile_above_quarter_pi",
           "model": {"kind": "warped", "window": [0.25, 1.75],
                     "profile": {"kind": "sampled", "interval": [0.0, 2.0], "theta": theta}},
           "surface": {"type": "hopf_torus", "parallel": 1.0}}
    assert _run_file(tmp_path, doc) == 0
    report = json.loads(
        (tmp_path / "out" / "convex_profile_above_quarter_pi.report.json").read_text())
    assert report["surface"]["regime"] == "positive"
    assert report["bounds"]["theorem"] == "positive_regime"
    assert report["bounds_theta_form"] is None


def test_gauss_bonnet_inconsistent_slice_is_input_error(tmp_path):
    doc = {
        "version": 1,
        "model": {"kind": "product", "fiber_length": TWO_PI,
                  "kappa": {"constant": -1.0}},
        "surface": {"type": "horizontal_slice", "base_area": 2 * math.pi, "genus": 2},
    }
    path = tmp_path / "bad_slice.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1


def test_gradient_mode_override():
    outcome = run_scenario(warped_doc(), gradient_mode="ambient")
    assert outcome.report["assumptions"]["gradient_mode"] == "ambient"
    bounds = outcome.report["bounds"]["bounds"]
    # both modes are always present, side by side
    assert set(bounds) == {"intrinsic_on_surface", "ambient"}
    intr = bounds["intrinsic_on_surface"]["bound_ii"]
    amb = bounds["ambient"]["bound_ii"]
    assert amb - intr == pytest.approx(0.25, abs=1e-12)
    assert outcome.report["bounds_theta_form"]["bound_ii"] == pytest.approx(amb, abs=1e-14)


def test_invalid_gradient_mode_override_is_a_scenario_error():
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(berger_doc(), gradient_mode="sideways")
    assert excinfo.value.paths == [
        "gradient_mode: expected 'intrinsic_on_surface' or 'ambient'"]


def test_gradient_mode_override_rescues_an_invalid_file_value():
    # the override is merged before validation, as --truncation is
    outcome = run_scenario(berger_doc(gradient_mode="sideways"), gradient_mode="ambient")
    assert outcome.exit_code == 0
    assert outcome.report["assumptions"]["gradient_mode"] == "ambient"
    assert outcome.report["scenario"]["gradient_mode"] == "sideways"  # echoed as given


def test_sweep_rows_use_the_surface_samples():
    scenarios = Path(__file__).parent.parent / "scenarios"
    doc = load_scenario(scenarios / "warped_parallel_sweep.json")
    doc["surface"]["samples"] = 500
    outcome = run_scenario(doc)
    rows = [row.split(",") for row in outcome.series["sweep"].split()[1:]]
    # u = 0.5 + 5 * 0.1 is the report's own parallel, 1.0
    at_parallel = [float(lam) for u, _, _, _, lam, *_ in rows if float(u) == 1.0]
    assert at_parallel == [outcome.report["spectrum"]["lambda1"]]


def test_sweep_rows_read_theorem_bound(monkeypatch):
    # every bound cell is theorem_bound's value: a bound moved by 1.0 moves
    # each of the four cells of every row by exactly 1.0
    import jacobilab.scenario as scenario_mod
    doc = load_scenario(Path(__file__).parent.parent / "scenarios" / "warped_parallel_sweep.json")
    before = run_scenario(doc).series["sweep"].split()[1:]
    real = scenario_mod.theorem_bound
    monkeypatch.setattr(scenario_mod, "theorem_bound", lambda *args: real(*args) + 1.0)
    after = run_scenario(doc).series["sweep"].split()[1:]
    assert before and len(after) == len(before)
    for old, new in zip(before, after):
        old, new = [float(v) for v in old.split(",")], [float(v) for v in new.split(",")]
        assert new[:5] == old[:5]
        assert new[5:] == [v + 1.0 for v in old[5:]]


_ARCTAN_GRID = [0.25 + 3.75 * i / 64 for i in range(65)]
_PROFILES = {
    "half_arctan": "half_arctan",
    # theta crosses pi/4 near u = 1.47: positive rows, then negative ones
    "half_arctan_offset": {"kind": "half_arctan", "offset": 0.3},
    "sampled": {"kind": "sampled", "interval": [0.25, 4.0],
                "theta": [0.5 * math.atan(x) for x in _ARCTAN_GRID]},
    "constant": {"kind": "constant", "value": 0.5},
}


def _one_torus_rows(doc):
    """Sweep rows as one torus at a time gives them: parallel_hopf_torus,
    then solve, then theorem_bound at each u, as CSV text."""
    model = build_model(doc["model"])
    rows = []
    for u in _sweep_grid(doc["outputs"]["sweep"]):
        torus = parallel_hopf_torus(model, u, n=doc["surface"]["samples"])
        lam = solve(surface_spectral_problem(torus)).lambda1
        if torus.regime in REGIME_PARTS:
            bounds = [theorem_bound(torus, part, mode)
                      for mode in (GradientMode.AMBIENT, GradientMode.INTRINSIC_ON_SURFACE)
                      for part in REGIME_PARTS[torus.regime]]
            rows.append(",".join(str(float(v)) for v in [
                u, torus.kappa_on_curve.samples[0], torus.tau_on_curve.samples[0],
                torus.mean_curvature, lam, *bounds]))
    return rows


@pytest.mark.parametrize("samples", [512, 500, 129])
@pytest.mark.parametrize("profile", _PROFILES.values(), ids=_PROFILES.keys())
def test_sweep_rows_repeat_the_one_torus_path_bit_for_bit(profile, samples):
    doc = {"version": 1, "name": "sweep",
           "model": {"kind": "warped", "profile": profile, "window": [0.5, 3.0]},
           "surface": {"type": "hopf_torus", "parallel": 1.0, "samples": samples},
           "outputs": {"sweep": {"start": 0.3, "stop": 3.9, "step": 0.15}}}
    rows = run_scenario(doc).series["sweep"].split()[1:]
    assert rows == _one_torus_rows(doc)
    assert rows or profile == _PROFILES["constant"]


@pytest.mark.parametrize("profile", _PROFILES.values(), ids=_PROFILES.keys())
def test_sweep_rows_take_the_closed_form_without_a_torus_or_lapack(profile, monkeypatch):
    # on 500 samples the rfft of a constant potential has rounding noise in
    # its higher coefficients; each row's lambda1 is still 0.0 - q
    import jacobilab.scenario as scenario_mod

    doc = {"version": 1, "name": "sweep",
           "model": {"kind": "warped", "profile": profile, "window": [0.5, 3.0]},
           "surface": {"type": "hopf_torus", "parallel": 1.0, "samples": 500},
           "outputs": {"sweep": {"start": 0.3, "stop": 3.9, "step": 0.15}}}
    expected = _one_torus_rows(doc)
    model = build_model(doc["model"])

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep row built a torus or called LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(scenario_mod, "parallel_hopf_torus", refuse)
    columns = scenario_mod._sweep_series(doc, model)
    assert [",".join(row) for row in zip(*map(format_column, columns))] == expected


def test_sweep_in_blocks_repeats_the_one_torus_path_bit_for_bit():
    # 65536 samples make blocks of 16 rows: 40 rows run in three blocks
    doc = {"version": 1, "name": "sweep",
           "model": {"kind": "warped", "profile": _PROFILES["sampled"], "window": [0.5, 3.0]},
           "surface": {"type": "hopf_torus", "parallel": 1.0, "samples": 65536},
           "outputs": {"sweep": {"start": 0.3, "stop": 3.2, "step": 0.075}}}
    rows = run_scenario(doc).series["sweep"].split()[1:]
    assert len(rows) == 39 and rows == _one_torus_rows(doc)


@pytest.mark.parametrize("samples, step", [(512, 0.5), (65536, 0.0625)],
                         ids=["one_block", "fourth_block"])
def test_sweep_that_leaves_the_profile_interval_is_an_input_error(tmp_path, capsys, samples,
                                                                 step):
    # the rows before u = 4.0 are valid; the first row outside refuses the run,
    # in the first block of rows or, at 65536 samples (blocks of 16), the fourth
    doc = warped_doc(outputs={"sweep": {"start": 0.5, "stop": 5.0, "step": step}})
    doc["model"]["profile"] = _PROFILES["sampled"]
    doc["surface"]["samples"] = samples
    assert _run_file(tmp_path, doc) == 1
    assert capsys.readouterr().err == "error: u = 4.0 is outside the profile interval\n"
    assert not (tmp_path / "out").exists()


def test_sweep_through_an_overflowing_profile_is_an_input_error(tmp_path, capsys):
    # theta bends only past 3/4 of an interval 1e-110 wide: the window is flat,
    # but the interpolated derivatives overflow to inf on later parallels
    doc = {"version": 1, "name": "overflowing_sweep",
           "model": {"kind": "warped", "window": [0.0, 0.5e-110],
                     "profile": {"kind": "sampled", "interval": [0.0, 1e-110],
                                 "theta": [0.5 + 0.3 * (max(0, i - 30) / 10) ** 4
                                           for i in range(41)]}},
           "surface": {"type": "hopf_torus", "parallel": 0.25e-110},
           "outputs": {"sweep": {"start": 0.05e-110, "stop": 0.97e-110, "step": 0.0123e-110}}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the profile's own inf and nan
        assert _run_file(tmp_path, doc) == 1
    assert capsys.readouterr().err == "error: field samples must be finite\n"


def test_warped_sweep_series():
    doc = warped_doc(outputs={"sweep": {"start": 0.5, "stop": 1.0, "step": 0.25}})
    outcome = run_scenario(doc)
    text = outcome.series["sweep"]
    lines = text.strip().split("\n")
    assert lines[0] == ("u,kappa,tau,H,lambda1,bound_i_ambient,bound_ii_ambient,"
                        "bound_i_intrinsic,bound_ii_intrinsic")
    assert len(lines) == 4  # u = 0.5, 0.75, 1.0
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.5
    assert first[4] == pytest.approx(-4.48, abs=1e-10)  # lambda1 = -4H^2 - kappa
    assert first[8] == pytest.approx(-4.48, abs=1e-10)  # intrinsic bound_ii equality


def test_series_files_and_determinism(tmp_path):
    doc = berger_doc(outputs={"series": ["potential", "ground_state", "convergence"]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(path), "--out", str(out1)]) == 0
    assert main(["run", str(path), "--out", str(out2)]) == 0
    name = "berger_minimal_hopf"
    for suffix in ("report.json", "potential.csv", "ground_state.csv", "convergence.csv"):
        a = (out1 / f"{name}.{suffix}").read_bytes()
        b = (out2 / f"{name}.{suffix}").read_bytes()
        assert a == b, suffix
    report = json.loads((out1 / f"{name}.report.json").read_text())
    assert report["spectrum"]["lambda1"] == pytest.approx(-4.0)
    pot_lines = (out1 / f"{name}.potential.csv").read_text().strip().split("\n")
    assert pot_lines[0] == "s,q"
    assert float(pot_lines[1].split(",")[1]) == pytest.approx(4.0)


def test_null_series_writes_only_the_report(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(berger_doc(outputs={"series": None})))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["berger_minimal_hopf.report.json"]


def _count_calls(monkeypatch, module, name) -> list:
    """Rebind every jacobilab reference to ``module.name`` to a spy (modules
    import functions by name) and return the list it appends a call to."""
    real = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("jacobilab") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_one_potential_field_per_torus_report(monkeypatch):
    import jacobilab.surface as surface_mod
    calls = _count_calls(monkeypatch, surface_mod, "potential_field")
    doc = berger_doc(solver={"truncation": 32},
                     outputs={"series": ["potential", "ground_state", "convergence"]})
    doc["model"] = {"kind": "product", "fiber_length": TWO_PI,
                    "kappa": {"mean": 4.0, "cos": [0.3]}}
    outcome = run_scenario(doc)
    assert set(outcome.series) == {"potential", "ground_state", "convergence"}
    rungs = outcome.series["convergence"].split()[1:]
    assert [int(row.split(",")[0]) for row in rungs] == [8, 16, 32]
    assert len(calls) == 1


# SHA-256 of every output of the shipped scenarios; report bytes change only
# on purpose, together with this table
SHIPPED_OUTPUT_SHA256 = {
    "berger_minimal_hopf.convergence.csv":
        "a7a720d83e69be24c22375ef9a68c880926986fd12d6c25a6839dee69d348759",
    "berger_minimal_hopf.ground_state.csv":
        "5b7fa697f1fbf5fceb504eed31ff366149507ec7f581702d276bfbc2ae9abbd3",
    "berger_minimal_hopf.potential.csv":
        "a5eaef83eef3064307b2544f389c6ada88abc2ae1e95ab07937af04c746607c5",
    "berger_minimal_hopf.report.json":
        "37b0afb3da084fd0bc993bbe0632610c6da12c864c7422446467434c51230322",
    "sphere_slice.report.json":
        "b77a10e3bda10ae596dcecb8bf195b23d7f76fcf92bb6509b5b49ce5b29932e0",
    "warped_parallel_sweep.ground_state.csv":
        "5ef01ff2e089b54977247563d1acf62587eee7f8b89a770d297421b2362cdfcb",
    "warped_parallel_sweep.report.json":
        "1e134310d8651caa8b1267d71b7e9f8e9b9f0ed7ca6709fe5d0f03a57660ad06",
    "warped_parallel_sweep.sweep.csv":
        "cd3e750880c0bbeec32e9a911c8b05994e67a01890a5668f53fb0e938d637611",
}


def test_shipped_scenario_outputs_are_pinned(tmp_path):
    scenarios = sorted((Path(__file__).parent.parent / "scenarios").glob("*.json"))
    assert len(scenarios) == 3
    for path in scenarios:
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == SHIPPED_OUTPUT_SHA256


LADDER_KAPPA = {"mean": 2.0, "cos": [0.2, 0.0, 0.05]}
SIN_KAPPA = {"mean": 1.0, "cos": [0.2], "sin": [0.1, 0.05]}

# Inline documents that together emit every corollary record in both regimes
# that a document can reach: constant tau, the area-genus consequence and a
# Gauss-weighted genus-2 slice.  A document's torus reads its tau from the
# model, and no model a document builds has a varying tau on a closed curve,
# so the varying-tau records are covered by
# tests/test_bounds.py::test_corollaries_with_varying_tau.  The last five
# documents pin the CSV shapes that the shipped scenarios leave out: a series
# of the header alone, a grid that is not a power of two, a slice's 8-point
# ground state and a curve whose length is not the model's period bit for
# bit.  Same contract as the table above.
PINNED_DOCS = {
    "homogeneous_negative": {
        "model": {"kind": "homogeneous", "kappa": 0.5, "tau": 0.5, "fiber_length": TWO_PI},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.4}},
    "homogeneous_marginal": {
        "model": {"kind": "homogeneous", "kappa": 0.0, "tau": 1.0, "fiber_length": TWO_PI},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.0}},
    # |H| = tau with kappa 0: the constant-tau right-hand sides are -0.0
    "homogeneous_h_equals_tau": {
        "model": {"kind": "homogeneous", "kappa": 0.0, "tau": 0.5, "fiber_length": TWO_PI},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 1.0}},
    "weighted_genus2_slice": {
        "model": {"kind": "product", "fiber_length": TWO_PI,
                  "kappa": {"constant": -1.0}},
        "surface": {"type": "horizontal_slice", "base_area": 4 * math.pi, "genus": 2,
                    "kappa": {"values": [-1.5, -0.5, -1.25, -0.75],
                              "weights": [math.pi] * 4}}},
    # a non-constant potential, so every rung of the convergence ladder is a
    # LAPACK eigenvalue and not the diagonal closed form
    "product_ladder": {
        "model": {"kind": "product", "fiber_length": TWO_PI, "kappa": LADDER_KAPPA},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.5, "kappa": LADDER_KAPPA},
        "solver": {"truncation": 64},
        "outputs": {"series": ["potential", "ground_state", "convergence"]}},
    # no rung below K = 4: the convergence series is the header alone
    "product_truncation4": {
        "model": {"kind": "product", "fiber_length": TWO_PI,
                  "kappa": {"mean": 2.0, "cos": [0.01]}},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.5},
        "solver": {"truncation": 4},
        "outputs": {"series": ["potential", "ground_state", "convergence"]}},
    # 500 samples, and both q and rho vary
    "product_sin_500": {
        "model": {"kind": "product", "fiber_length": TWO_PI, "samples": 500,
                  "kappa": SIN_KAPPA},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.3, "samples": 500},
        "outputs": {"series": ["potential", "ground_state", "convergence"]}},
    # the closed-form ground state: 8 points on a circle of period 1
    "slice_ground_state": {
        "model": {"kind": "homogeneous", "kappa": -1.0, "tau": 0.0, "fiber_length": TWO_PI},
        "surface": {"type": "horizontal_slice", "base_area": 4 * math.pi, "genus": 2},
        "outputs": {"series": ["ground_state"]}},
    # a curve one ulp longer than the model's period: q and the ground state
    # both lie on the curve's grid, so the two s columns are one column
    "product_curve_ulp_long": {
        "model": {"kind": "product", "fiber_length": TWO_PI,
                  "kappa": {"mean": 2.0, "cos": [0.2]}},
        "surface": {"type": "hopf_torus", "curve_length": 6.283185307179587,
                    "geodesic_curvature": 0.5},
        "outputs": {"series": ["potential", "ground_state"]}},
    # every sweep point is outside both bound regimes: the header alone
    "constant_profile_null_sweep": {
        "model": {"kind": "warped", "window": [0.25, 4.0],
                  "profile": {"kind": "constant", "value": 0.5}},
        "surface": {"type": "hopf_torus", "parallel": 1.0},
        "outputs": {"sweep": {"start": 0.5, "stop": 1.5, "step": 0.5}}},
}
PINNED_DOC_SHA256 = {
    "constant_profile_null_sweep.report.json":
        "af4563b0b803e01a4cec02fcd7132b1474684beebf2d882c465ab7f1d257d1b7",
    "constant_profile_null_sweep.sweep.csv":
        "19e680887d1d65217d9821e911c5cc179b97c4053d519509dd2293a1010a2aea",
    "homogeneous_h_equals_tau.report.json":
        "13c0fd5de7e33126fd19591f7c0c54e5790d51b29a8e4e81d2d62dd7a30952b8",
    "homogeneous_negative.report.json":
        "8e6d9c35765b57e2be16ebee55cf076cdc9e9ae9b654a3c1dba8b70f1cab249b",
    "homogeneous_marginal.report.json":
        "2ee5d842b4e22d740d0847417ce752e64778b2a1230c5572ba8fa34f7f7dd9dc",
    "product_ladder.convergence.csv":
        "fdf5829ba05b21a135d1097f529e6e062c398fb0516b914fd711b8dc24efbb69",
    "product_ladder.ground_state.csv":
        "d6c7a509ff1c88a31dce330535cbb38a9deaa75d5e3b9bcc0993e6491cf4b455",
    "product_ladder.potential.csv":
        "dbfc181cfa70a742df8e59ebf3b966002904230b80c3d55241dee3d2d17b62a4",
    "product_ladder.report.json":
        "a644017715f37ff309f65e66d723579cc3d7fd9f93331c72840fc8efcc1bf5d7",
    "weighted_genus2_slice.report.json":
        "885aa0119f3f152d9f25ccff41302d6c4f9cad6b3f24bbfefdaa68e5df756d92",
    "product_curve_ulp_long.ground_state.csv":
        "335991ec54e0b243588d339f7b33fc90ffba04c183580b9e12f8e75d3df26fd3",
    "product_curve_ulp_long.potential.csv":
        "2a6825c498e38fe95a8ef6ae38d3ace615780616f46b2c8d6c3618d38630a86d",
    "product_curve_ulp_long.report.json":
        "8aa07be9d963966b3fd97f364802684a3ce830b07d9b8a1ecf48ec65aa3a789d",
    "product_sin_500.convergence.csv":
        "614e30e80b74576f89ef5e4de0f3712f273a531aef5b70ad18ba813cb68b619d",
    "product_sin_500.ground_state.csv":
        "cfd41280532e610d1ec1695f30d149722a40c794aabdcca3ddf8876e996c526d",
    "product_sin_500.potential.csv":
        "44e8dbd3b124d8ee49b5c65d3a22eebb86d01b29a27ab9f8b40234b3810ce2a8",
    "product_sin_500.report.json":
        "79948082df875fe138dfa605a9118398aa062c570363bcb9bb3ef3d22c68689b",
    "product_truncation4.convergence.csv":
        "6e36006f36e38c2cfd697f79788f3b66c4eddffa28c4a3567c16c8e813cf9f54",
    "product_truncation4.ground_state.csv":
        "db9f13fbd54c97c64bc98158281cee9c534a1e4bbe61b366451feb9b1c99f08b",
    "product_truncation4.potential.csv":
        "5a1e3a2bb045380b46049f8fd64b12cc7204833010582247ccfb48e3e02a46a1",
    "product_truncation4.report.json":
        "0f3cd931967e26f5ee051ed9bc9470dbea6313cf157d77008e5e60aff1bee020",
    "slice_ground_state.ground_state.csv":
        "524538a2b357edc2e922503e212d5cd2f6c560cd07abc344033de1ecc7c991e1",
    "slice_ground_state.report.json":
        "ef82d2e808ef8407348f60ffc643e1643910fa38d0e84f8af9e314e20784df80",
}


def test_bound_and_corollary_reports_are_pinned(tmp_path):
    for name, body in PINNED_DOCS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"version": 1, "name": name, **body}))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0, name
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert digests == PINNED_DOC_SHA256


def test_pinned_series_share_one_s_column():
    both = {"potential", "ground_state"}
    for name, body in PINNED_DOCS.items():
        if both <= set(body.get("outputs", {}).get("series", [])):
            series = run_scenario({"version": 1, "name": name, **body}).series
            potential, ground = ([row.split(",")[0] for row in series[kind].splitlines()]
                                 for kind in ("potential", "ground_state"))
            assert potential == ground, name


def test_one_galerkin_matrix_per_ladder(monkeypatch):
    import jacobilab.spectral as spectral_mod
    assemblies = _count_calls(monkeypatch, spectral_mod, "assemble_fourier")
    solves = _count_calls(monkeypatch, spectral_mod, "solve")
    outcome = run_scenario({"version": 1, "name": "product_ladder",
                            **PINNED_DOCS["product_ladder"]})
    assert outcome.series["convergence"].count("\n") == 5
    # one matrix for the main solve and its K/2 estimate, one for the rungs
    # below K; the top rung is the main solve's lambda_1
    assert len(assemblies) <= 2
    assert len(solves) == 1


def test_ladder_does_not_need_a_positive_ground_state_at_each_rung():
    # 40 cos s at truncation 8 has a ground vector that dips below zero; the
    # ladder reads only lambda_1 there, so the report runs
    kappa = {"mean": 1.0, "cos": [40.0]}
    doc = {"version": 1, "name": "deep_well",
           "model": {"kind": "product", "fiber_length": TWO_PI, "kappa": kappa},
           "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                       "geodesic_curvature": 0.5, "kappa": kappa},
           "solver": {"truncation": 128},
           "outputs": {"series": ["convergence"]}}
    outcome = run_scenario(doc)
    rows = [row.split(",") for row in outcome.series["convergence"].split()[1:]]
    assert [int(t) for t, _ in rows] == [8, 16, 32, 64, 128]
    assert float(rows[-1][1]) == outcome.report["spectrum"]["lambda1"]


def test_bound_violation_maps_to_exit_2(tmp_path, monkeypatch):
    # force a falsified bound to verify that the anomaly exit code is wired up
    import jacobilab.scenario as scenario_mod
    real_builder = scenario_mod.build_bound_report

    def sabotaged(surface, lambda1, gradient_mode):
        return real_builder(surface, lambda1 + 100.0, gradient_mode=gradient_mode)

    monkeypatch.setattr(scenario_mod, "build_bound_report", sabotaged)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(berger_doc()))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2


def harmonic_doc(k, truncation, samples=512):
    """Product torus with kappa = 1 + 0.5 cos(k s) on L = 2 pi, H = 0."""
    return {"version": 1, "name": f"harmonic_{k}",
            "model": {"kind": "product", "fiber_length": TWO_PI, "samples": samples,
                      "kappa": {"mean": 1.0, "cos": [0.0] * (k - 1) + [0.5]}},
            "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                        "geodesic_curvature": 0.0, "samples": samples},
            "solver": {"truncation": truncation}}


def _run_file(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return main(["run", str(path), "--out", str(tmp_path / "out")])


# each of these once printed lambda1 = -1 to rounding with a zero K/2 estimate
@pytest.mark.parametrize("k, samples, message", [
    (100, 512, "surface kappa has harmonic 100 above the truncation K = 64"),
    (200, 512, "surface kappa has harmonic 200 above the truncation K = 64"),
    (300, 1024, "surface kappa has harmonic 300 above the truncation K = 64"),
    (300, 512, "512 samples alias harmonic 300 of a field: need more than 600")],
    ids=["k100", "k200", "k300", "k300_aliased"])
def test_harmonic_the_solve_cannot_see_is_an_input_error(tmp_path, capsys, k, samples,
                                                         message):
    assert _run_file(tmp_path, harmonic_doc(k, 64, samples)) == 1
    assert message in capsys.readouterr().err


def test_surface_samples_that_drop_a_model_harmonic_are_an_input_error(tmp_path, capsys):
    # kappa = 1 + 0.5 cos 300s is valid on the model's 2048 samples; carried
    # onto 512 it once lost the harmonic and ran as kappa = 1 with exit 0.
    # Scaled by 1e-13 on 1024 samples, an absolute floor once took it for a
    # constant and ran it with exit 0 too
    for scale, model_samples in ((1.0, 2048), (1e-13, 1024)):
        doc = harmonic_doc(300, 512, samples=model_samples)
        doc["model"]["kappa"] = {"mean": scale, "cos": [0.0] * 299 + [0.5 * scale]}
        doc["surface"]["samples"] = 512
        assert _run_file(tmp_path, doc) == 1
        assert ("error: 512 samples cannot carry every harmonic of the model kappa, "
                f"which has {model_samples} samples" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


def scaled_product_doc(c):
    """Product torus with kappa = m (1 + 0.004 cos s), m = c^-2, on a curve,
    base period and fiber of length 2 pi c: the c = 1 torus scaled by c."""
    m = c**-2
    return {"version": 1, "name": "scaled_product",
            "model": {"kind": "product", "fiber_length": TWO_PI * c, "period": TWO_PI * c,
                      "kappa": {"mean": m, "cos": [0.004 * m]}},
            "surface": {"type": "hopf_torus", "curve_length": TWO_PI * c,
                        "geodesic_curvature": 0.0}}


@pytest.mark.parametrize("c", [2.0, 10.0, 1e5, 1e-3])
def test_scaled_torus_keeps_lambda1_times_c_squared(c):
    # at c = 1e5 the varying kappa was once snapped to its first sample,
    # and lambda1 c^2 read -1.004 instead of -1.000008
    unit = run_scenario(scaled_product_doc(1.0)).report["spectrum"]["lambda1"]
    scaled = run_scenario(scaled_product_doc(c)).report["spectrum"]["lambda1"]
    assert abs(scaled * c**2 - unit) <= 4 * np.spacing(abs(unit))


def test_slice_in_a_model_with_tiny_nonzero_tau_is_an_input_error(tmp_path, capsys):
    # a slice needs tau == 0; tau = 5e-13 once passed an absolute 1e-12 floor
    doc = {"version": 1, "name": "tiny_tau_slice",
           "model": {"kind": "homogeneous", "kappa": 1.0, "tau": 5e-13, "fiber_length": TWO_PI},
           "surface": {"type": "horizontal_slice", "base_area": 4 * math.pi, "genus": 0}}
    assert _run_file(tmp_path, doc) == 1
    assert ("error: horizontal slices require tau == 0 along the surface"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_undecodable_scenario_file_is_an_input_error(tmp_path, capsys):
    # invalid UTF-8 once escaped as a UnicodeDecodeError traceback
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"name": "' + bytes([0xFF]) + b'"}')
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: <file>: not valid JSON: ")


def test_harmonic_below_the_truncation_matches_mathieu(tmp_path):
    scipy_special = pytest.importorskip("scipy.special")
    k = 100
    assert _run_file(tmp_path, harmonic_doc(k, 256)) == 0
    report = json.loads((tmp_path / "out" / f"harmonic_{k}.report.json").read_text())
    # -f'' - (1 + 0.5 cos ks) f = lambda f is Mathieu's equation in x = ks/2
    expected = k**2 * scipy_special.mathieu_a(0, 2 * 0.5 / k**2) / 4 - 1.0
    assert abs(report["spectrum"]["lambda1"] - expected) <= 1e-10


# --- a Hopf torus reads its curvature from its model ----------------------------

ALL_SERIES = {"series": ["potential", "ground_state", "convergence"]}
VARYING_KAPPA = {"mean": 1.5, "cos": [0.2], "sin": [0.1]}


def product_kappa_doc(**surface):
    """Product torus whose kappa varies along the base circle; ``surface``
    keys are added to its surface."""
    return {"version": 1, "name": "product_kappa",
            "model": {"kind": "product", "fiber_length": TWO_PI, "kappa": VARYING_KAPPA},
            "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                        "geodesic_curvature": 0.5, **surface},
            "outputs": ALL_SERIES}


def test_surface_kappa_that_contradicts_the_model_is_an_input_error(tmp_path, capsys):
    # the Berger torus has lambda1 = -4; this document once ran with exit 0
    # and lambda1 = -1.0434 from the surface's own kappa
    doc = berger_doc()
    doc["surface"].update(kappa={"mean": 1.0, "cos": [0.3]}, tau={"constant": 0.0})
    assert _run_file(tmp_path, doc) == 1
    assert "error: surface.kappa is not the model's kappa" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integers_beyond_the_float_range_are_input_errors(tmp_path, capsys):
    # each once raised OverflowError inside validation, a traceback on stderr
    doc = warped_doc(outputs={"sweep": {"start": 0.5, "stop": 10**400, "step": 0.1}})
    doc["surface"]["parallel"] = -10**400
    assert _run_file(tmp_path, doc) == 1
    assert capsys.readouterr().err == ("error: surface.parallel: expected a finite number\n"
                                       "error: outputs.sweep.stop: expected a finite number\n")
    assert not (tmp_path / "out").exists()


def test_integer_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # ValueError that is not a JSONDecodeError (unless the limit is lifted,
    # and then the value is beyond the float range)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(berger_doc()).replace('"kappa": 4.0', '"kappa": 1' + "0" * 5000))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not (tmp_path / "out").exists()


def _outputs_without_echo(tmp_path, doc, name):
    """Every file a run writes, with the report's echo of its document left out."""
    out = tmp_path / name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(out)]) == 0
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    report = json.loads(files.pop(f"{doc['name']}.report.json"))
    del report["scenario"]
    return report, files


def test_restated_model_tau_writes_the_same_bytes(tmp_path):
    plain = berger_doc(outputs=ALL_SERIES)
    restated = berger_doc(outputs=ALL_SERIES)
    restated["surface"]["tau"] = {"constant": 0.5}
    assert (_outputs_without_echo(tmp_path, restated, "restated")
            == _outputs_without_echo(tmp_path, plain, "plain"))


def test_varying_kappa_needs_stating_once():
    once = run_scenario(product_kappa_doc())
    twice = run_scenario(product_kappa_doc(kappa=VARYING_KAPPA))
    assert once.report["spectrum"]["lambda1"] == twice.report["spectrum"]["lambda1"]
    assert once.report["bounds"] == twice.report["bounds"]
    assert once.series == twice.series and set(once.series) == set(ALL_SERIES["series"])


def test_varying_kappa_off_its_period_is_an_input_error(tmp_path, capsys):
    doc = product_kappa_doc()
    doc["surface"]["curve_length"] = 3.0
    assert _run_file(tmp_path, doc) == 1
    assert ("error: the model kappa varies, so curve_length must equal its period: "
            "got curve_length 3.0" in capsys.readouterr().err)


@pytest.mark.parametrize("model, surface, where", [
    ({"window": [0.25, 1e300]}, {}, "the window (0.25, 1e+300)"),
    ({"window": [0.25, 1e200]}, {}, "the window (0.25, 1e+200)"),
    ({}, {"parallel": 1e300}, "the parallel u = 1e+300"),
    ({}, {"parallel": 1e160}, "the parallel u = 1e+160")],
    ids=["window_1e300", "window_1e200", "parallel_1e300", "parallel_1e160"])
def test_profile_overflow_is_a_model_error(tmp_path, capsys, model, surface, where):
    doc = warped_doc()
    doc["model"].update(model)
    doc["surface"].update(surface)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_file(tmp_path, doc) == 1
    assert f"the profile overflows at {where}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, got", [
    ("model", "tau", 1e300, "got inf"),
    ("surface", "geodesic_curvature", 1e200, "got inf"),
    ("model", "kappa", 1.7e308, "got 1.7e+308")],
    ids=["tau_1e300", "geodesic_curvature_1e200", "kappa_1.7e308"])
def test_curvature_out_of_range_is_an_input_error(tmp_path, capsys, section, key, value, got):
    # these once ended in a traceback: an OverflowError from tau^2 in the
    # corollaries or from H^2 in the potential, a LinAlgError from eigh
    doc = json.loads(SHIPPED_BERGER.read_text())
    doc[section][key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_file(tmp_path, doc) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: curvature out of range: a Hopf torus of area ")
    assert err.endswith(f"{got}\n") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


_FOUR_PI = 4 * math.pi
_SLICE = {"type": "horizontal_slice", "base_area": _FOUR_PI, "genus": 0}


@pytest.mark.parametrize("model, surface, err", [
    ({"kind": "homogeneous", "kappa": 1e308, "tau": 0.0, "fiber_length": 1.0},
     {**_SLICE, "base_area": _FOUR_PI / 1e308},
     "error: curvature out of range: a horizontal slice of area 1.25664e-307 on 1 samples "),
    ({"kind": "homogeneous", "kappa": 1.0, "tau": 0.0, "fiber_length": 1.0},
     {**_SLICE, "kappa": {"values": [1e308, 1e308], "weights": [TWO_PI, TWO_PI]}},
     "error: curvature out of range: a horizontal slice of area 12.5664 on 2 samples "),
    # weights that cancel: they sum to the area, but their |w| sum to 2e7
    ({"kind": "homogeneous", "kappa": 1.0, "tau": 0.0, "fiber_length": 1.0},
     {**_SLICE, "kappa": {"values": [3e306, 1e306], "weights": [1e7, -1e7 + _FOUR_PI]}},
     "error: curvature out of range: a horizontal slice of area 12.5664 on 2 samples "),
    # a chi beyond the float range, with a constant and with a sampled kappa
    ({"kind": "homogeneous", "kappa": 1.0, "tau": 0.0, "fiber_length": 1.0},
     {**_SLICE, "genus": 10**400},
     "error: curvature out of range: a horizontal slice of area 12.5664 on 1 samples "),
    ({"kind": "homogeneous", "kappa": 1.0, "tau": 0.0, "fiber_length": 1.0},
     {**_SLICE, "genus": 10**400, "kappa": {"values": [1.0, 1.0], "weights": [TWO_PI, TWO_PI]}},
     "error: curvature out of range: a horizontal slice of area 12.5664 on 2 samples "),
    ({}, {"curve_length": 1e-200},
     "error: lengths out of range: a circle of length 1e-200 has no finite kinetic term "),
    ({"fiber_length": 1e300}, {"curve_length": 1e300},
     "error: lengths out of range: curve length 1e+300 and fiber length 1e+300 give area inf")],
    ids=["slice_kappa_1e308", "slice_values_1e308", "slice_cancelling_weights",
         "slice_genus_1e400", "slice_values_genus_1e400", "curve_length_1e-200",
         "lengths_1e300"])
def test_out_of_range_slices_and_lengths_are_input_errors(tmp_path, capsys, model, surface,
                                                          err):
    # these once ended in a traceback (a ValueError from the JSON writer on an
    # inf bound, an OverflowError from the kinetic diagonal) or, for the
    # lengths 1e300, blamed the curvature for an infinite area
    doc = json.loads(SHIPPED_BERGER.read_text())
    doc["model"] = model if "kind" in model else {**doc["model"], **model}
    doc["surface"] = surface if "type" in surface else {**doc["surface"], **surface}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run_file(tmp_path, doc) == 1
    out = capsys.readouterr().err
    assert out.startswith(err) and out.count("\n") == 1
    assert not (tmp_path / "out").exists()


# argparse's own usage-error code 2 is EXIT_ANOMALY here
@pytest.mark.parametrize("argv", [["run", "x.json", "--backend", "fd"],
                                  ["run", "x.json", "--bogus"], ["run"]],
                         ids=["backend_fd", "unknown_flag", "missing_scenario"])
def test_cli_usage_error_is_input_error(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_out_that_is_not_a_directory_is_input_error(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(berger_doc()))
    assert main(["run", str(path), "--out", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_verify_negative_seed_is_input_error(capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    assert ("error: argument --seed: expected a non-negative integer, got '-1'"
            in capsys.readouterr().err)


def test_cli_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "--truncation" in capsys.readouterr().out


def test_cli_missing_file_is_input_error(tmp_path):
    assert main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 1


def test_cli_invalid_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1


def test_cli_verify_filter(capsys):
    assert main(["verify", "--filter", "gauss"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "gauss_bonnet" in out


def test_cli_verify_unknown_filter():
    assert main(["verify", "--filter", "no_such_check"]) == 1


def test_cli_verify_reports_failures(monkeypatch, capsys):
    import jacobilab.cli as cli_mod
    from jacobilab.verification import CheckResult

    def fake_run_checks(name_filter=None, seed=0):
        return [CheckResult("broken_check", False, "observed 1 expected 0", 0.0)]

    monkeypatch.setattr(cli_mod, "run_checks", fake_run_checks)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "broken_check" in out and "0/1" in out


def test_sampled_theta_profile_scenario():
    import numpy as np
    grid = np.linspace(0.25, 4.0, 401)
    doc = {
        "version": 1,
        "name": "sampled_theta",
        "model": {"kind": "warped",
                  "profile": {"kind": "sampled",
                              "theta": [float(v) for v in 0.5 * np.arctan(grid)],
                              "interval": [0.25, 4.0]},
                  "window": [0.5, 3.0]},
        "surface": {"type": "hopf_torus", "parallel": 1.0},
    }
    assert validate_scenario(doc) == []
    outcome = run_scenario(doc)
    # closed form for the underlying profile gives lambda1 = -1 at u = 1
    assert outcome.report["spectrum"]["lambda1"] == pytest.approx(-1.0, abs=1e-3)
    assert outcome.report["surface"]["mean_curvature_abs"] == pytest.approx(0.25, abs=1e-3)


def test_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("JACOBILAB_OUT", str(tmp_path / "envdir"))
    outcome = run_scenario(berger_doc())
    paths = write_outputs(outcome)
    assert all(str(p).startswith(str(tmp_path / "envdir")) for p in paths)


# --- serialization ---------------------------------------------------------------

def _typed(obj):
    """``obj`` with every leaf tagged by its type and every float spelled by
    ``float.hex``, so that ``==`` tells 4 from 4.0, 0.0 from -0.0 and one key
    order from another; a tuple reads back from JSON as a list."""
    if isinstance(obj, dict):
        return "dict", [(key, _typed(value)) for key, value in obj.items()]
    if isinstance(obj, (list, tuple)):
        return "list", [_typed(value) for value in obj]
    return type(obj).__name__, obj.hex() if isinstance(obj, float) else obj


_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_FLOATS | st.text(),
    lambda tree: st.lists(tree, max_size=4) | st.dictionaries(st.text(), tree, max_size=4),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
@example({"lambda1": -4.0, "bound_i": -0.0, "tiny": 5e-324, "big": 1e16,
          "eigenvalues": [-4.0, 0.0, 5.0], "genus": 1, "bounds": None,
          "anomalies": [], "assumptions": {}, "ok": True, "name": "x\u00e9"})
def test_dumps_deterministic_round_trips_every_value(obj):
    assert _typed(json.loads(dumps_deterministic(obj))) == _typed(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_deterministic_refuses_non_finite_floats(bad):
    with pytest.raises(ValueError):
        dumps_deterministic({"lambda1": [bad]})


_SWEEP = {"start": 0.5, "stop": 1.5, "step": 0.5}
_WRITER_DOCS = {
    "homogeneous": berger_doc(),
    "product_sin": {
        "version": 1, "name": "product_sin",
        "model": {"kind": "product", "fiber_length": TWO_PI,
                  "kappa": {"mean": 1.0, "cos": [0.2], "sin": [0.1]}},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.3,
                    "kappa": {"mean": 1.0, "cos": [0.2], "sin": [0.1]}}},
    "weighted_slice": {
        "version": 1, "name": "weighted_slice",
        "model": {"kind": "homogeneous", "kappa": 1.0, "tau": 0.0, "fiber_length": TWO_PI},
        "surface": {"type": "horizontal_slice", "base_area": 4 * math.pi, "genus": 0,
                    "kappa": {"values": [0.5, 1.5, 1.0], "weights": [4 * math.pi / 3] * 3}}},
    "warped_sweep": warped_doc(outputs={"sweep": _SWEEP}),
    "constant_profile_sweep": {
        "version": 1, "name": "constant_profile_sweep",
        "model": {"kind": "warped", "window": [0.25, 4.0],
                  "profile": {"kind": "constant", "value": 0.5}},
        "surface": {"type": "hopf_torus", "parallel": 1.0},
        "outputs": {"sweep": _SWEEP}},
}


@pytest.mark.parametrize("doc", _WRITER_DOCS.values(), ids=_WRITER_DOCS.keys())
def test_written_report_reads_back_bit_for_bit(doc, tmp_path):
    outcome = run_scenario(doc)
    write_outputs(outcome, tmp_path)
    report = json.loads((tmp_path / f"{outcome.name}.report.json").read_text())
    assert _typed(report) == _typed(outcome.report)
    assert _typed(report["scenario"]) == _typed(doc)


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


@pytest.mark.parametrize("doc", _WRITER_DOCS.values(), ids=_WRITER_DOCS.keys())
def test_report_leaves_are_python_values(doc):
    """The writer serializes only Python leaves; a numpy scalar in a report
    is a builder's bug, not a case the writer covers."""
    outcome = run_scenario(doc)
    kinds = {type(leaf) for leaf in _leaves(outcome.report)}
    assert kinds <= {type(None), bool, int, float, str}


def _csv_with_repr_floats(header, rows):
    """The writer's earlier formula, kept as the oracle: repr for floats,
    str for every other cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([repr(v) if isinstance(v, float) else str(v) for v in row]))
    return "\n".join(lines) + "\n"


# a report's column holds one kind of 64-bit number
_COLUMN_CELLS = (st.integers(min_value=-2**63, max_value=2**63 - 1),
                 st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _tables(draw):
    """Rows of one length, each column all ints or all floats."""
    cells = draw(st.lists(st.sampled_from(_COLUMN_CELLS), min_size=1, max_size=6))
    n = draw(st.integers(min_value=0, max_value=5))
    columns = [draw(st.lists(kind, min_size=n, max_size=n)) for kind in cells]
    return [list(row) for row in zip(*columns)]


@settings(max_examples=200, deadline=None)
@given(_tables())
@example([[-0.0, 5e-324, 1e16, 0, -7]])
# a column that mixes 0.0 and -0.0 is not bit-constant; an all-equal one is
@example([[0.0, 2.5, -0.0], [-0.0, 2.5, -0.0], [0.0, 2.5, -0.0]])
@example([[-0.0, 7], [0.0, 7]])
def test_format_csv_prints_floats_in_shortest_round_trip_form(rows):
    header = ["a", "b"]
    columns = [format_column(column) for column in zip(*rows)]
    assert format_csv(header, columns) == _csv_with_repr_floats(header, rows)


def test_load_scenario_reports_paths(tmp_path):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(tmp_path / "nope.json")
    assert exc.value.paths[0].startswith("<file>")
