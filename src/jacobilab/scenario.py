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
MAX_SAMPLES = 65_536
MAX_SWEEP_POINTS = 10_000
# largest solver.truncation per backend: a 2049 x 2049 Galerkin matrix, and an
# fd grid where rounding already sets the accuracy floor
MAX_TRUNCATION = {"fourier": 1024, "fd": MAX_SAMPLES}


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
#
# The schema is data.  A node is one of
#   None                    any value;
#   (predicate, message)    a value, reported with ``message`` when the predicate fails;
#   dict                    an object: key -> node, a trailing "?" marks an optional key;
#   _Variant                an object whose node is picked by one of its keys;
#   _ByType                 a value whose node is picked by its JSON type.
# ``_walk`` reports, object by object, unknown keys, then missing keys, then the
# errors of each present value, all in declaration order.

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_nums(x) -> bool:
    return isinstance(x, list) and all(_is_num(v) for v in x)


@dataclass(frozen=True)
class _Variant:
    """Object cases picked by the value of ``key`` or, when ``by_presence``,
    by whether ``key`` is present (cases True/False)."""
    key: str
    cases: dict
    message: str = ""  # reported at ``<path>.<key>`` when no case matches
    by_presence: bool = False


@dataclass(frozen=True)
class _ByType:
    cases: dict  # JSON type -> node
    message: str  # reported for any other type


_FINITE = (_is_num, "expected a finite number")
_POSITIVE = (lambda x: _is_num(x) and x > 0, "expected a positive number")
_SAMPLES = (lambda x: _is_int(x) and 8 <= x <= MAX_SAMPLES,
            f"expected an integer in [8, {MAX_SAMPLES}]")
_NUMBERS = (_is_nums, "expected a list of finite numbers")
_INTERVAL = (lambda x: _is_nums(x) and len(x) == 2 and x[0] < x[1],
             "expected [a, b] with a < b")


def _nullable(node) -> _ByType:
    return _ByType({type(None): None, dict: node}, "expected an object")


_FIELD = _Variant("constant", {
    True: {"constant": _FINITE},
    False: {"mean": _FINITE, "cos?": _NUMBERS, "sin?": _NUMBERS}}, by_presence=True)

_PROFILE = _ByType({
    type(None): None,
    str: (lambda x: x == "half_arctan", "unknown profile name"),
    dict: _Variant("kind", {
        "half_arctan": {"kind": None, "offset?": _FINITE},
        "constant": {"kind": None, "value": _FINITE},
        "sampled": {"kind": None,
                    "theta": (lambda x: _is_nums(x) and len(x) >= 8,
                              "expected >= 8 finite numbers"),
                    "interval": _INTERVAL}},
        "expected 'half_arctan', 'constant' or 'sampled'")},
    "expected a name or an object")

_MODEL = _Variant("kind", {
    "homogeneous": {"kind": None, "kappa": _FINITE, "tau": _FINITE, "fiber_length": _POSITIVE},
    "product": {"kind": None, "kappa": _FIELD,
                "fiber_length": (lambda x: x is None or _POSITIVE[0](x),
                                 "expected a positive number or null"),
                "period?": _POSITIVE, "samples?": _SAMPLES},
    "warped": {"kind": None, "profile": _PROFILE, "window": _INTERVAL, "samples?": _SAMPLES}},
    "expected 'homogeneous', 'product' or 'warped'")

_SURFACE = _Variant("type", {
    "hopf_torus": _Variant("parallel", {
        True: {"type": None, "parallel": _FINITE, "samples?": _SAMPLES},
        False: {"type": None, "curve_length": _POSITIVE, "geodesic_curvature": _FINITE,
                "kappa?": _FIELD, "tau?": _FIELD, "samples?": _SAMPLES}}, by_presence=True),
    "horizontal_slice": {
        "type": None, "base_area": _POSITIVE,
        "genus": (lambda x: _is_int(x) and x >= 0, "expected a nonnegative integer"),
        "kappa?": _nullable(_Variant("constant", {
            True: {"constant": _FINITE},
            False: {"values": _NUMBERS, "weights": _NUMBERS}}, by_presence=True))}},
    "expected 'hopf_torus' or 'horizontal_slice'")

_SCENARIO = {
    "version": (lambda x: x == SCHEMA_VERSION and not isinstance(x, bool),
                f"expected {SCHEMA_VERSION}"),
    "name?": (lambda x: isinstance(x, str) and x != "" and not any(c in x for c in "/\\ "),
              "expected a nonempty string without spaces or slashes"),
    "model": _MODEL,
    "surface": _SURFACE,
    "solver?": {
        "backend?": (lambda x: x in ("fourier", "fd"), "expected 'fourier' or 'fd'"),
        "truncation?": (lambda x: _is_int(x) and x >= 4, "expected an integer >= 4"),
        "eigenvalue_count?": (lambda x: _is_int(x) and x >= 1, "expected a positive integer"),
        "convergence_tol?": _POSITIVE,
        "richardson?": (lambda x: isinstance(x, bool), "expected a boolean")},
    "gradient_mode?": (lambda x: x in tuple(m.value for m in GradientMode),
                       "expected 'intrinsic_on_surface' or 'ambient'"),
    "outputs?": {
        "series?": (lambda x: x is None or (isinstance(x, list)
                                            and all(s in SERIES_NAMES for s in x)),
                    f"expected a list drawn from {list(SERIES_NAMES)}"),
        "sweep?": _nullable({"start": _FINITE, "stop": _FINITE, "step": _FINITE})},
}


def _walk(value, node, path: str, errors: list) -> None:
    """Append every error of ``value`` against schema ``node`` at ``path``."""
    if node is None:
        return
    if isinstance(node, tuple):
        predicate, message = node
        if not predicate(value):
            errors.append(f"{path}: {message}")
    elif isinstance(node, _ByType):
        sub = [n for t, n in node.cases.items() if isinstance(value, t)]
        if sub:
            _walk(value, sub[0], path, errors)
        else:
            errors.append(f"{path}: {node.message}")
    elif not isinstance(value, dict):
        errors.append(f"{path}: expected an object")
    elif isinstance(node, _Variant):
        pick = node.key in value if node.by_presence else value.get(node.key)
        sub = [n for case, n in node.cases.items() if case == pick]
        if sub:
            _walk(value, sub[0], path, errors)
        else:
            errors.append(f"{path}.{node.key}: {node.message}")
    else:
        keys = {key.rstrip("?"): (key.endswith("?"), sub) for key, sub in node.items()}
        label = path or "<root>"
        errors.extend(f"{label}.{key}: unknown key" for key in value if key not in keys)
        errors.extend(f"{label}.{key}: missing" for key, (optional, _) in keys.items()
                      if not optional and key not in value)
        for key, (_, sub) in keys.items():
            if key in value:
                _walk(value[key], sub, f"{path}.{key}" if path else key, errors)


def validate_scenario(doc) -> list[str]:
    """Return every offending path of the document (empty when valid)."""
    if not isinstance(doc, dict):
        return ["<root>: expected a JSON object"]
    errors: list[str] = []
    _walk(doc, _SCENARIO, "", errors)
    outputs = doc.get("outputs")
    sweep = outputs.get("sweep") if isinstance(outputs, dict) else None
    if isinstance(sweep, dict) and all(_is_num(sweep.get(k)) for k in ("start", "stop", "step")):
        if not (sweep["start"] < sweep["stop"] and sweep["step"] > 0):
            errors.append("outputs.sweep: needs start < stop and step > 0")
        elif _sweep_count(sweep) > MAX_SWEEP_POINTS:
            errors.append(f"outputs.sweep: expected at most {MAX_SWEEP_POINTS} points")
    if not errors:
        solver = {"backend": "fourier", "truncation": 0, **doc.get("solver", {})}
        cap = MAX_TRUNCATION[solver["backend"]]
        if solver["truncation"] > cap:
            errors.append(f"solver.truncation: expected at most {cap} for the "
                          f"{solver['backend']} backend")
        surface, warped = doc["surface"], doc["model"]["kind"] == "warped"
        if surface["type"] == "hopf_torus" and warped != ("parallel" in surface):
            errors.append("surface: hopf_torus needs 'parallel' exactly when the "
                          "model is warped")
        elif sweep is not None and not (warped and "parallel" in surface):
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


def _sweep_count(sweep: dict) -> float:
    """floor((stop - start)/step + 1e-9) + 1 points; inf when the quotient
    overflows, so a validator can compare it with a cap."""
    start, stop, step = (float(sweep[k]) for k in ("start", "stop", "step"))
    quotient = (stop - start) / step + 1e-9
    return math.floor(quotient) + 1 if math.isfinite(quotient) else math.inf


def _sweep_grid(sweep: dict):
    """u = start + i*step for i = 0 .. _sweep_count(sweep) - 1.

    The product form keeps the points free of accumulated rounding."""
    start, step = float(sweep["start"]), float(sweep["step"])
    return (start + i * step for i in range(_sweep_count(sweep)))


def _sweep_series(model: SubmersionModel, sweep: dict, solver: dict) -> list[list]:
    rows = []
    for u in _sweep_grid(sweep):
        torus = parallel_hopf_torus(model, u)
        lam = _solve_with(torus, solver).lambda1
        parts = REGIME_PARTS.get(surface_regime(torus))
        if parts is None:
            continue
        row = [float(u),
               float(torus.kappa_on_curve.samples[0]),
               float(torus.tau_on_curve.samples[0]),
               float(torus.mean_curvature), float(lam)]
        for mode in (GradientMode.AMBIENT, GradientMode.INTRINSIC_ON_SURFACE):
            row.extend([float(theorem_bound(torus, part, mode)) for part in parts])
        rows.append(row)
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
    if solver != doc.get("solver", {}):
        # overrides meet the same caps as the file
        errors = validate_scenario({**doc, "solver": solver})
        if errors:
            raise ScenarioError(errors)
    mode_name = gradient_mode or doc.get("gradient_mode",
                                         GradientMode.INTRINSIC_ON_SURFACE.value)
    mode = GradientMode(mode_name)
    name = doc.get("name", "scenario")

    model = build_model(doc["model"])
    surface = build_surface(doc["surface"], model)
    result = _solve_with(surface, solver)

    regime = surface_regime(surface)
    torus = not surface.horizontal
    q = potential_field(surface)
    identities = {
        "lambda1_identity_residual": float(lambda1_identity_check(surface, result)),
        "gauss_bonnet_residual": float(gauss_bonnet_check(surface)),
        "alpha": float(alpha_invariant(result.ground_state, surface.area)),
    }

    bounds_dict = None
    theta_form = None
    violations: list[str] = []
    if regime in (Regime.POSITIVE, Regime.NEGATIVE):
        bound_report = build_bound_report(surface, result.lambda1, gradient_mode=mode)
        bounds_dict = bound_report.to_dict()
        violations = list(bound_report.violations)
        if torus and surface.base_point is not None and regime is Regime.POSITIVE:
            try:
                b_i, b_ii = bounds_in_theta_form(model, surface)
                theta_form = {"bound_i": b_i, "bound_ii": b_ii}
            except JacobilabError:
                theta_form = None

    surface_info = {
        "type": "hopf_torus" if torus else "horizontal_slice",
        "name": surface.name,
        "area": float(surface.area),
        "genus": int(surface.genus),
        "mean_curvature": float(surface.mean_curvature),
        "regime": regime.value,
    }
    if torus:
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
    for kind in outputs.get("series") or []:
        if kind == "potential" and torus:
            qf = q
            series["potential"] = format_csv(
                ["s", "q"], [[float(s), float(v)] for s, v in zip(qf.grid, qf.samples)])
        elif kind == "ground_state":
            rho = result.ground_state
            series["ground_state"] = format_csv(
                ["s", "rho"], [[float(s), float(v)] for s, v in zip(rho.grid, rho.samples)])
        elif kind == "convergence" and torus:
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
