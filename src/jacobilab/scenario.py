"""Scenario files: schema validation, pipeline execution, deterministic output.

A scenario is a JSON document with a ``version`` field describing one model,
one surface on it, solver options and requested outputs.  Unknown keys are
rejected everywhere (schema drift protection) and every offending path is
reported.  Reports are emitted with a fixed field order and floats printed
with 17 significant digits, so identical scenarios produce byte-identical
files; CSV series use '.' decimals, comma separators and shortest
round-trip floats.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import REGIME_PARTS, build_bound_report, theorem_bound
from .errors import JacobilabError, ScenarioError
from .fields import ScalarField1D
from .geometry import Regime
from .spectral import (DEFAULT_CONV_TOL, MIN_FD_GRID, alpha_invariant,
                       lambda1_identity_check, solve, solve_surface,
                       surface_spectral_problem)
from .submersion import GradientMode, SubmersionModel, \
    homogeneous_model, product_model
from .surface import (HopfTorus, SampledKappa, gauss_bonnet_check,
                      hopf_torus, horizontal_slice, potential_field,
                      surface_regime)
from .warped import (bounds_in_theta_form, constant_profile,
                     half_arctan_profile, parallel_hopf_torus, sampled_profile,
                     submersion_from_theta)

SCHEMA_VERSION = 1
TWO_PI = 2.0 * math.pi
OUTPUT_DIR_ENV = "JACOBILAB_OUT"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ANOMALY = 2

SERIES_NAMES = ("potential", "ground_state", "convergence")


# --- deterministic serialization --------------------------------------------------

def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form, valid as a JSON number."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    text = f"{x:.17g}"
    return text


def dumps_deterministic(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_deterministic(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {dumps_deterministic(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def format_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- schema validation ----------------------------------------------------------------

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_keys(doc: dict, path: str, required: set, optional: set, errors: list):
    for key in doc:
        if key not in required and key not in optional:
            errors.append(f"{path}.{key}: unknown key")
    for key in required:
        if key not in doc:
            errors.append(f"{path}.{key}: missing")


def _validate_field_spec(spec, path: str, errors: list):
    if not isinstance(spec, dict):
        errors.append(f"{path}: expected an object")
        return
    if "constant" in spec:
        _check_keys(spec, path, {"constant"}, set(), errors)
        if not _is_num(spec["constant"]):
            errors.append(f"{path}.constant: expected a finite number")
        return
    _check_keys(spec, path, {"mean"}, {"cos", "sin"}, errors)
    if "mean" in spec and not _is_num(spec["mean"]):
        errors.append(f"{path}.mean: expected a finite number")
    for key in ("cos", "sin"):
        if key in spec:
            if not (isinstance(spec[key], list) and all(_is_num(v) for v in spec[key])):
                errors.append(f"{path}.{key}: expected a list of finite numbers")


def _validate_model(doc, errors: list):
    if not isinstance(doc, dict):
        errors.append("model: expected an object")
        return
    kind = doc.get("kind")
    if kind == "homogeneous":
        _check_keys(doc, "model", {"kind", "kappa", "tau", "fiber_length"}, set(), errors)
        for key in ("kappa", "tau"):
            if key in doc and not _is_num(doc[key]):
                errors.append(f"model.{key}: expected a finite number")
        if "fiber_length" in doc and not (_is_num(doc["fiber_length"]) and doc["fiber_length"] > 0):
            errors.append("model.fiber_length: expected a positive number")
    elif kind == "product":
        _check_keys(doc, "model", {"kind", "kappa", "fiber_length"},
                    {"period", "samples"}, errors)
        if "kappa" in doc:
            _validate_field_spec(doc["kappa"], "model.kappa", errors)
        fl = doc.get("fiber_length", 0)
        if "fiber_length" in doc and fl is not None and not (_is_num(fl) and fl > 0):
            errors.append("model.fiber_length: expected a positive number or null")
        if "period" in doc and not (_is_num(doc["period"]) and doc["period"] > 0):
            errors.append("model.period: expected a positive number")
        if "samples" in doc and not (isinstance(doc["samples"], int) and doc["samples"] >= 8):
            errors.append("model.samples: expected an integer >= 8")
    elif kind == "warped":
        _check_keys(doc, "model", {"kind", "profile", "window"}, {"samples"}, errors)
        profile = doc.get("profile")
        if isinstance(profile, str):
            if profile not in ("half_arctan",):
                errors.append("model.profile: unknown profile name")
        elif isinstance(profile, dict):
            pkind = profile.get("kind")
            if pkind == "half_arctan":
                _check_keys(profile, "model.profile", {"kind"}, {"offset"}, errors)
                if "offset" in profile and not _is_num(profile["offset"]):
                    errors.append("model.profile.offset: expected a finite number")
            elif pkind == "constant":
                _check_keys(profile, "model.profile", {"kind", "value"}, set(), errors)
                if "value" in profile and not _is_num(profile["value"]):
                    errors.append("model.profile.value: expected a finite number")
            elif pkind == "sampled":
                _check_keys(profile, "model.profile", {"kind", "theta", "interval"},
                            set(), errors)
                theta = profile.get("theta")
                if not (isinstance(theta, list) and len(theta) >= 8
                        and all(_is_num(v) for v in theta)):
                    errors.append("model.profile.theta: expected >= 8 finite numbers")
                interval = profile.get("interval")
                if not (isinstance(interval, list) and len(interval) == 2
                        and all(_is_num(v) for v in interval)
                        and interval[0] < interval[1]):
                    errors.append("model.profile.interval: expected [a, b] with a < b")
            else:
                errors.append("model.profile.kind: expected 'half_arctan', 'constant' "
                              "or 'sampled'")
        elif profile is not None:
            errors.append("model.profile: expected a name or an object")
        window = doc.get("window")
        if window is not None:
            if not (isinstance(window, list) and len(window) == 2
                    and all(_is_num(v) for v in window) and window[0] < window[1]):
                errors.append("model.window: expected [a, b] with a < b")
        if "samples" in doc and not (isinstance(doc["samples"], int) and doc["samples"] >= 8):
            errors.append("model.samples: expected an integer >= 8")
    else:
        errors.append("model.kind: expected 'homogeneous', 'product' or 'warped'")


def _validate_surface(doc, errors: list):
    if not isinstance(doc, dict):
        errors.append("surface: expected an object")
        return
    stype = doc.get("type")
    if stype == "hopf_torus":
        if "parallel" in doc:
            _check_keys(doc, "surface", {"type", "parallel"}, {"samples"}, errors)
            if not _is_num(doc["parallel"]):
                errors.append("surface.parallel: expected a finite number")
        else:
            _check_keys(doc, "surface", {"type", "curve_length", "geodesic_curvature"},
                        {"kappa", "tau", "samples"}, errors)
            if "curve_length" in doc and not (_is_num(doc["curve_length"]) and doc["curve_length"] > 0):
                errors.append("surface.curve_length: expected a positive number")
            if "geodesic_curvature" in doc and not _is_num(doc["geodesic_curvature"]):
                errors.append("surface.geodesic_curvature: expected a finite number")
            for key in ("kappa", "tau"):
                if key in doc:
                    _validate_field_spec(doc[key], f"surface.{key}", errors)
        if "samples" in doc and not (isinstance(doc["samples"], int) and doc["samples"] >= 8):
            errors.append("surface.samples: expected an integer >= 8")
    elif stype == "horizontal_slice":
        _check_keys(doc, "surface", {"type", "base_area", "genus"}, {"kappa"}, errors)
        if "base_area" in doc and not (_is_num(doc["base_area"]) and doc["base_area"] > 0):
            errors.append("surface.base_area: expected a positive number")
        if "genus" in doc and not (isinstance(doc["genus"], int) and doc["genus"] >= 0):
            errors.append("surface.genus: expected a nonnegative integer")
        kappa = doc.get("kappa")
        if kappa is not None:
            if not isinstance(kappa, dict):
                errors.append("surface.kappa: expected an object")
            elif "constant" in kappa:
                _check_keys(kappa, "surface.kappa", {"constant"}, set(), errors)
                if not _is_num(kappa["constant"]):
                    errors.append("surface.kappa.constant: expected a finite number")
            else:
                _check_keys(kappa, "surface.kappa", {"values", "weights"}, set(), errors)
                for key in ("values", "weights"):
                    if key in kappa and not (isinstance(kappa[key], list)
                                             and all(_is_num(v) for v in kappa[key])):
                        errors.append(f"surface.kappa.{key}: expected a list of finite numbers")
    else:
        errors.append("surface.type: expected 'hopf_torus' or 'horizontal_slice'")


def _validate_solver(doc, errors: list):
    if not isinstance(doc, dict):
        errors.append("solver: expected an object")
        return
    _check_keys(doc, "solver", set(),
                {"backend", "truncation", "eigenvalue_count", "convergence_tol",
                 "richardson"}, errors)
    if "backend" in doc and doc["backend"] not in ("fourier", "fd"):
        errors.append("solver.backend: expected 'fourier' or 'fd'")
    if "truncation" in doc and not (isinstance(doc["truncation"], int) and doc["truncation"] >= 4):
        errors.append("solver.truncation: expected an integer >= 4")
    if "eigenvalue_count" in doc and not (isinstance(doc["eigenvalue_count"], int)
                                          and doc["eigenvalue_count"] >= 1):
        errors.append("solver.eigenvalue_count: expected a positive integer")
    if "convergence_tol" in doc and not (_is_num(doc["convergence_tol"])
                                         and doc["convergence_tol"] > 0):
        errors.append("solver.convergence_tol: expected a positive number")
    if "richardson" in doc and not isinstance(doc["richardson"], bool):
        errors.append("solver.richardson: expected a boolean")


def _validate_outputs(doc, errors: list):
    if not isinstance(doc, dict):
        errors.append("outputs: expected an object")
        return
    _check_keys(doc, "outputs", set(), {"series", "sweep"}, errors)
    series = doc.get("series")
    if series is not None:
        if not isinstance(series, list) or any(s not in SERIES_NAMES for s in series):
            errors.append(f"outputs.series: expected a list drawn from {list(SERIES_NAMES)}")
    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            errors.append("outputs.sweep: expected an object")
        else:
            _check_keys(sweep, "outputs.sweep", {"start", "stop", "step"}, set(), errors)
            if all(_is_num(sweep.get(k)) for k in ("start", "stop", "step")):
                if not (sweep["start"] < sweep["stop"] and sweep["step"] > 0):
                    errors.append("outputs.sweep: needs start < stop and step > 0")


def validate_scenario(doc) -> list[str]:
    """Return every offending path of the document (empty when valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["<root>: expected a JSON object"]
    _check_keys(doc, "<root>", {"version", "model", "surface"},
                {"name", "solver", "gradient_mode", "outputs"}, errors)
    if doc.get("version") != SCHEMA_VERSION:
        errors.append(f"version: expected {SCHEMA_VERSION}")
    if "name" in doc and (not isinstance(doc["name"], str) or not doc["name"]
                          or any(c in doc["name"] for c in "/\\ ")):
        errors.append("name: expected a nonempty string without spaces or slashes")
    if "model" in doc:
        _validate_model(doc["model"], errors)
    if "surface" in doc:
        _validate_surface(doc["surface"], errors)
    if "solver" in doc:
        _validate_solver(doc["solver"], errors)
    if "gradient_mode" in doc and doc["gradient_mode"] not in \
            tuple(m.value for m in GradientMode):
        errors.append("gradient_mode: expected 'intrinsic_on_surface' or 'ambient'")
    if "outputs" in doc:
        _validate_outputs(doc["outputs"], errors)
    if not errors and doc["surface"].get("type") == "hopf_torus":
        warped = doc["model"].get("kind") == "warped"
        if warped != ("parallel" in doc["surface"]):
            errors.append("surface: hopf_torus needs 'parallel' exactly when the "
                          "model is warped")
    if not errors and doc.get("outputs", {}).get("sweep") is not None:
        if doc["model"].get("kind") != "warped" or "parallel" not in doc["surface"]:
            errors.append("outputs.sweep: only available for warped parallel tori")
    return errors


# --- building the pipeline objects ----------------------------------------------------

def _field_from_spec(spec: dict, period: float, n: int) -> ScalarField1D:
    if "constant" in spec:
        return ScalarField1D.constant(float(spec["constant"]), period, n)
    mean = float(spec.get("mean", 0.0))
    cos_coeffs = [float(v) for v in spec.get("cos", [])]
    sin_coeffs = [float(v) for v in spec.get("sin", [])]

    def fn(s):
        out = np.full_like(s, mean)
        for j, a in enumerate(cos_coeffs, start=1):
            out += a * np.cos(2 * np.pi * j * s / period)
        for j, b in enumerate(sin_coeffs, start=1):
            out += b * np.sin(2 * np.pi * j * s / period)
        return out

    return ScalarField1D.from_function(fn, period, n)


def _build_profile(spec):
    if spec == "half_arctan" or spec is None:
        return half_arctan_profile()
    if spec["kind"] == "half_arctan":
        return half_arctan_profile(offset=float(spec.get("offset", 0.0)))
    if spec["kind"] == "sampled":
        theta = ScalarField1D.on_interval(np.asarray(spec["theta"], dtype=float),
                                          tuple(float(v) for v in spec["interval"]))
        return sampled_profile(theta)
    return constant_profile(float(spec["value"]))


def build_model(doc: dict) -> SubmersionModel:
    kind = doc["kind"]
    if kind == "homogeneous":
        return homogeneous_model(float(doc["kappa"]), float(doc["tau"]),
                                 float(doc["fiber_length"]))
    if kind == "product":
        period = float(doc.get("period", TWO_PI))
        n = int(doc.get("samples", 512))
        kappa = _field_from_spec(doc["kappa"], period, n)
        fl = doc["fiber_length"]
        return product_model(kappa, None if fl is None else float(fl))
    profile = _build_profile(doc["profile"])
    window = tuple(float(v) for v in doc["window"])
    return submersion_from_theta(profile, window=window, n=int(doc.get("samples", 257)))


def build_surface(doc: dict, model: SubmersionModel):
    n = int(doc.get("samples", 512))
    if doc["type"] == "hopf_torus":
        if "parallel" in doc:
            return parallel_hopf_torus(model, float(doc["parallel"]), n=n)
        L = float(doc["curve_length"])
        kappa = _field_from_spec(doc["kappa"], L, n) if "kappa" in doc else None
        tau = _field_from_spec(doc["tau"], L, n) if "tau" in doc else None
        return hopf_torus(model, L, float(doc["geodesic_curvature"]),
                          kappa_on_curve=kappa, tau_on_curve=tau, n=n)
    kappa_doc = doc.get("kappa")
    if kappa_doc is None:
        kappa = None
    elif "constant" in kappa_doc:
        kappa = float(kappa_doc["constant"])
    else:
        kappa = SampledKappa(np.asarray(kappa_doc["values"], dtype=float),
                             np.asarray(kappa_doc["weights"], dtype=float))
    return horizontal_slice(model, float(doc["base_area"]), int(doc["genus"]),
                            kappa=kappa)


# --- running ---------------------------------------------------------------------------

@dataclass
class ScenarioOutcome:
    name: str
    report: dict
    series: dict = field(default_factory=dict)
    exit_code: int = EXIT_OK


def _convergence_series(surface: HopfTorus, backend: str, truncation: int,
                        richardson: bool) -> list[list]:
    """lambda1 on the doubling ladder from the backend's smallest grid up to
    the main solve's truncation, with the convergence check disabled."""
    rows = []
    t = MIN_FD_GRID if backend == "fd" else 8
    while t <= truncation:
        problem = surface_spectral_problem(surface, truncation=t, conv_tol=math.inf)
        r = solve(problem, m=1, backend=backend, richardson=richardson)
        rows.append([t, float(r.lambda1)])
        t *= 2
    return rows


def _sweep_series(model: SubmersionModel, sweep: dict, solver: dict) -> list[list]:
    rows = []
    u = float(sweep["start"])
    stop, step = float(sweep["stop"]), float(sweep["step"])
    while u <= stop + 1e-12:
        torus = parallel_hopf_torus(model, u)
        lam = _solve_with(torus, solver).lambda1
        parts = REGIME_PARTS.get(surface_regime(torus))
        if parts is None:
            u += step
            continue
        row = [float(u),
               float(torus.kappa_on_curve.samples[0]),
               float(torus.tau_on_curve.samples[0]),
               float(torus.mean_curvature), float(lam)]
        for mode in (GradientMode.AMBIENT, GradientMode.INTRINSIC_ON_SURFACE):
            row.extend([float(theorem_bound(torus, part, mode)) for part in parts])
        rows.append(row)
        u += step
    return rows


def _solve_with(surface, solver: dict):
    return solve_surface(surface, m=int(solver.get("eigenvalue_count", 6)),
                         backend=solver.get("backend", "fourier"),
                         truncation=solver.get("truncation"),
                         richardson=bool(solver.get("richardson", False)),
                         conv_tol=float(solver.get("convergence_tol", DEFAULT_CONV_TOL)))


def run_scenario(doc: dict, gradient_mode: str | None = None,
                 backend: str | None = None,
                 truncation: int | None = None) -> ScenarioOutcome:
    """Validate and execute one scenario document; overrides beat the file."""
    errors = validate_scenario(doc)
    if errors:
        raise ScenarioError(errors)
    solver = dict(doc.get("solver", {}))
    if backend is not None:
        solver["backend"] = backend
    if truncation is not None:
        solver["truncation"] = truncation
    mode_name = gradient_mode or doc.get("gradient_mode",
                                         GradientMode.INTRINSIC_ON_SURFACE.value)
    mode = GradientMode(mode_name)
    name = doc.get("name", "scenario")

    model = build_model(doc["model"])
    surface = build_surface(doc["surface"], model)
    result = _solve_with(surface, solver)

    regime = surface_regime(surface)
    is_torus = isinstance(surface, HopfTorus)
    q = potential_field(surface)
    identities = {
        "lambda1_identity_residual": float(lambda1_identity_check(surface, result)),
        "gauss_bonnet_residual": float(gauss_bonnet_check(surface)),
        "alpha": float(alpha_invariant(result.ground_state, surface.area))
        if is_torus else 0.0,
    }

    bounds_dict = None
    theta_form = None
    violations: list[str] = []
    if regime in (Regime.POSITIVE, Regime.NEGATIVE):
        bound_report = build_bound_report(surface, result.lambda1, gradient_mode=mode)
        bounds_dict = bound_report.to_dict()
        violations = list(bound_report.violations)
        if is_torus and surface.base_point is not None and regime is Regime.POSITIVE:
            try:
                b_i, b_ii = bounds_in_theta_form(model, surface)
                theta_form = {"bound_i": b_i, "bound_ii": b_ii}
            except JacobilabError:
                theta_form = None

    surface_info = {
        "type": "hopf_torus" if is_torus else "horizontal_slice",
        "name": surface.name,
        "area": float(surface.area),
        "genus": int(surface.genus),
        "mean_curvature": float(surface.mean_curvature),
        "regime": regime.value,
    }
    if is_torus:
        # the sign of the geodesic curvature depends on the curve orientation,
        # so |H| is reported alongside H
        surface_info["mean_curvature_abs"] = float(abs(surface.mean_curvature))
        surface_info["curve_length"] = float(surface.curve_length)
        surface_info["fiber_length"] = float(surface.fiber_length)
        if surface.base_point is not None:
            surface_info["parallel"] = float(surface.base_point)

    report = {
        "version": SCHEMA_VERSION,
        "name": name,
        "scenario": doc,
        "assumptions": {
            "torus_lattice": "rectangular curve_length x fiber_length, zero holonomy shear",
            "gradient_mode": mode.value,
            "strict_inequalities": "verified up to numerical tolerance",
        },
        "surface": surface_info,
        "spectrum": {
            "backend": result.backend,
            "truncation": int(result.truncation),
            "lambda1": float(result.lambda1),
            "eigenvalues": [float(v) for v in result.eigenvalues],
            "convergence_estimate": float(result.convergence_estimate),
        },
        "identities": identities,
        "bounds": bounds_dict,
        "bounds_theta_form": theta_form,
        "excluded_from_bounds": None if bounds_dict is not None else
        f"regime {regime.value} is outside both bound hypotheses",
        "anomalies": violations,
    }

    series = {}
    outputs = doc.get("outputs", {})
    for kind in outputs.get("series", []):
        if kind == "potential" and is_torus:
            qf = q
            series["potential"] = format_csv(
                ["s", "q"], [[float(s), float(v)] for s, v in zip(qf.grid, qf.samples)])
        elif kind == "ground_state":
            rho = result.ground_state
            series["ground_state"] = format_csv(
                ["s", "rho"], [[float(s), float(v)] for s, v in zip(rho.grid, rho.samples)])
        elif kind == "convergence" and is_torus:
            rows = _convergence_series(surface, solver.get("backend", "fourier"),
                                       result.truncation,
                                       bool(solver.get("richardson", False)))
            series["convergence"] = format_csv(["truncation", "lambda1"], rows)
    sweep = outputs.get("sweep")
    if sweep is not None:
        rows = _sweep_series(model, sweep, solver)
        series["sweep"] = format_csv(
            ["u", "kappa", "tau", "H", "lambda1", "bound_i_ambient", "bound_ii_ambient",
             "bound_i_intrinsic", "bound_ii_intrinsic"], rows)

    return ScenarioOutcome(name=name, report=report, series=series,
                           exit_code=EXIT_ANOMALY if violations else EXIT_OK)


def default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def write_outputs(outcome: ScenarioOutcome, out_dir: Path | None = None) -> list[Path]:
    out_dir = Path(out_dir) if out_dir is not None else default_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    report_path = out_dir / f"{outcome.name}.report.json"
    report_path.write_text(dumps_deterministic(outcome.report) + "\n")
    paths.append(report_path)
    for kind, text in outcome.series.items():
        p = out_dir / f"{outcome.name}.{kind}.csv"
        p.write_text(text)
        paths.append(p)
    return paths


def load_scenario(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError([f"<file>: cannot read {path}: {exc}"]) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"<file>: not valid JSON: {exc}"]) from exc
