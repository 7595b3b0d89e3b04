import hashlib
import json
import math
from pathlib import Path

import pytest

from jacobilab import ScenarioError
from jacobilab.cli import main
from jacobilab.scenario import (dumps_deterministic, format_float,
                                load_scenario, run_scenario, validate_scenario,
                                write_outputs)

TWO_PI = 2 * math.pi


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


def test_fd_convergence_series_starts_at_fd_minimum(tmp_path):
    doc = berger_doc(solver={"backend": "fd", "truncation": 256},
                     outputs={"series": ["convergence"]})
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "berger_minimal_hopf.convergence.csv").read_text().split()
    assert [int(line.split(",")[0]) for line in lines[1:]] == [16, 32, 64, 128, 256]


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
        "fd0944a1740beed7d641ea7032a1541c1848124d3dd4af7736ff9effabf8217f",
    "sphere_slice.report.json":
        "99b4db40b1d4ef21943f5df273e72936fe28169f66a5c24c7269862142aabb13",
    "warped_parallel_sweep.ground_state.csv":
        "5ef01ff2e089b54977247563d1acf62587eee7f8b89a770d297421b2362cdfcb",
    "warped_parallel_sweep.report.json":
        "ae550a4ce208b6c1828128cded8400fd6eaa653203bd455948be8dde146bc797",
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

def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert format_float(-4.0) == "-4"
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_dumps_deterministic_is_valid_json():
    obj = {"a": 1, "b": [0.5, None, True, "x"], "c": {"nested": 2.5e-300}}
    text = dumps_deterministic(obj)
    assert json.loads(text) == obj


def test_load_scenario_reports_paths(tmp_path):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(tmp_path / "nope.json")
    assert exc.value.paths[0].startswith("<file>")
