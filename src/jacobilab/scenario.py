"""Scenario files: schema validation, pipeline execution, deterministic output.

A scenario is a JSON document with a ``version`` field describing one model,
one surface on it, solver options and requested outputs.  Unknown keys are
rejected everywhere (schema drift protection) and every offending path is
reported.  A report is written by ``json.dumps`` with a fixed field order,
so identical scenarios produce byte-identical files.  Every float, in the
report and in the CSVs alike, is printed in shortest round-trip form: an
integral float as ``4.0``, negative zero as ``-0.0``.

A CSV series is one header row, then its data rows, with ',' between
cells and a newline after every row; each value is printed by ``str``, so a
float in shortest round-trip form with '.' decimals.  The ``s`` column of
``potential`` and ``ground_state`` is the torus's curve grid, or the
closed-form ground state's grid on a slice; one report has one grid.  The
writer formats column by column: the grid once per report, a column whose
values are one float bit for bit once in all.

A sweep row is the Hopf torus over one parallel u, whose kappa, tau and H
are constant, so its potential 4 H^2 + kappa is constant and its lambda1 is
the closed form 0.0 - (4 H^2 + kappa) that ``spectral.solve`` returns for
constant samples on any grid.  The rows are evaluated together, in blocks
of at most 2^20 samples per field to bound memory: first each parallel's
closed forms, by ``warped.parallel_closed_forms`` with all of its checks;
then one pass over (rows, n) arrays gives each row's regime, the range rule
of the ``surface`` module and the four bounds, from ``theorem_bound``
applied to a view whose ``mean`` reduces the last axis.  Every row keeps
the bits of ``parallel_hopf_torus``, ``solve`` and ``theorem_bound`` at its
u, and a refused sweep raises the error of its first failing row.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bounds import REGIME_PARTS, build_bound_report, theorem_bound
from .errors import (ConvergenceError, FieldError, JacobilabError, ScenarioError,
                     SurfaceError)
from .fields import ScalarField1D, _spectral_derivative
from .geometry import Regime, classify_regime
from .spectral import (DEFAULT_CONV_TOL, DEFAULT_TRUNCATION, _convergence_ladder,
                       _identity_residual, alpha_invariant, solve, solve_surface,
                       surface_spectral_problem)
from .submersion import GradientMode, SubmersionModel, \
    homogeneous_model, product_model
from .surface import SampledKappa, gauss_bonnet_check, hopf_torus, horizontal_slice, out_of_range
from .warped import (bounds_in_theta_form, constant_profile, half_arctan_profile,
                     parallel_closed_forms, parallel_hopf_torus, sampled_profile,
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
# largest solver.truncation: a 2049 x 2049 Galerkin matrix
MAX_TRUNCATION = 1024
# the bound columns of a sweep row, mode by mode
SWEEP_MODES = (GradientMode.AMBIENT, GradientMode.INTRINSIC_ON_SURFACE)


# --- deterministic serialization --------------------------------------------------

def dumps_deterministic(obj) -> str:
    """JSON text of a report: two-space indent, keys in insertion order,
    floats in shortest round-trip form; NaN and inf raise ``ValueError``."""
    return json.dumps(obj, indent=2, allow_nan=False)


def format_column(values) -> list[str]:
    """Cell text of one column of 64-bit floats or ints: ``str`` of each
    value, which prints a float in shortest round-trip form.  A column whose
    values share one bit pattern (so 0.0 and -0.0 differ) is formatted once."""
    values = np.asarray(values)
    bits = values.view(np.int64)
    if bits.size and (bits == bits[0]).all():
        return [str(values[0].item())] * bits.size
    return list(map(str, values.tolist()))


def format_csv(header: list[str], columns: Sequence[Sequence[str]]) -> str:
    """CSV text of one header row and the rows of ``columns``, which hold
    cell text and have one length; no columns give the header alone."""
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


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
    """A finite number that a float can hold; not a bool.  The comparison is
    exact, so an int beyond the float range is refused, not converted."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


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
        "backend?": (lambda x: x == "fourier", "expected 'fourier'"),
        "truncation?": (lambda x: _is_int(x) and 4 <= x <= MAX_TRUNCATION,
                        f"expected an integer in [4, {MAX_TRUNCATION}]"),
        "eigenvalue_count?": (lambda x: _is_int(x) and x >= 1, "expected a positive integer"),
        "convergence_tol?": _POSITIVE},
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
        surface, warped = doc["surface"], doc["model"]["kind"] == "warped"
        if surface["type"] == "hopf_torus" and warped != ("parallel" in surface):
            errors.append("surface: hopf_torus needs 'parallel' exactly when the "
                          "model is warped")
        elif sweep is not None and not (warped and "parallel" in surface):
            errors.append("outputs.sweep: only available for warped parallel tori")
    return errors


# --- building the pipeline objects ----------------------------------------------------

def _degree(spec: dict) -> int:
    """Highest harmonic with a nonzero coefficient in a field spec (0 if none)."""
    return max((j for key in ("cos", "sin") for j, a in enumerate(spec.get(key, []), start=1)
                if a != 0), default=0)


def _field_from_spec(spec: dict, period: float, n: int) -> ScalarField1D:
    degree = _degree(spec)
    if n <= 2 * degree:
        raise FieldError(f"{n} samples alias harmonic {degree} of a field: "
                         f"need more than {2 * degree}")
    if "constant" in spec:
        return ScalarField1D.constant(float(spec["constant"]), period, n)
    mean = float(spec.get("mean", 0.0))
    series = [(wave, [float(v) for v in spec.get(key, [])])
              for wave, key in ((np.cos, "cos"), (np.sin, "sin"))]

    def fn(s):
        out = np.full_like(s, mean)
        for wave, coeffs in series:
            for j, a in enumerate(coeffs, start=1):
                out += a * wave(2 * np.pi * j * s / period)
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
        # schema v1 keeps the surface kappa and tau keys as restatements of
        # the model's fields, which the torus reads
        for key, owned in (("kappa", model.kappa_field), ("tau", model.tau_field)):
            if key in doc and not np.array_equal(
                    _field_from_spec(doc[key], owned.period, owned.n).samples, owned.samples):
                raise SurfaceError(f"surface.{key} is not the model's {key}: a Hopf torus "
                                   f"reads its {key} from the model")
        return hopf_torus(model, float(doc["curve_length"]),
                          float(doc["geodesic_curvature"]), n=n)
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


class _ParallelTori(NamedTuple):
    """Hopf tori over parallels, one per row, as :func:`theorem_bound` and
    the range rule read a surface.  The curve fields are (rows, n) stacks,
    and ``mean`` reduces their last axis, which gives each row the bits of
    its own mean.  ``mean_curvature`` holds Python floats in an object
    array, so that the bound squares each H as one torus does: numpy's
    square can differ from Python's ``H**2`` by an ulp.  ``regime`` is that
    of every row, or None while the rows may differ."""

    regime: Regime | None
    mean_curvature: np.ndarray
    area: np.ndarray
    kappa: np.ndarray
    tau: np.ndarray
    grad_tau_ambient: np.ndarray
    grad_tau_intrinsic: np.ndarray

    genus = 1
    horizontal = False

    def samples(self, mode: GradientMode):
        return self.kappa, self.tau, (self.grad_tau_ambient if mode is GradientMode.AMBIENT
                                      else self.grad_tau_intrinsic)

    def mean(self, values):
        return np.mean(values, axis=-1)


def _sweep_series(run: dict, model: SubmersionModel) -> list[np.ndarray]:
    """The sweep's columns: u, kappa, tau, H, lambda1 and the four bounds at
    each point u whose torus, the document's torus moved to the parallel u,
    lies in a bound regime.  See the module docstring for how the rows are
    evaluated; an input error is that of the first row that fails."""
    n = int(run["surface"].get("samples", 512))
    grid, columns = _sweep_grid(run["outputs"]["sweep"]), []
    # blocks of rows whose (rows, n) curve fields hold at most 2^20 floats, 8 MB each
    while points := list(itertools.islice(grid, max(1, (1 << 20) // n))):
        parallels, refused = [], None
        for u in points:
            try:
                parallels.append((u, *parallel_closed_forms(model, u)))
            except JacobilabError as exc:  # raised once the rows before it pass the range rule
                refused = exc
                break
        u, length, h, kappa, tau, _ = block = np.array(parallels).reshape(-1, 6).T
        curves = np.repeat(block[3:, :, None], n, axis=2)  # kappa, tau, |theta''| rows
        stack = _ParallelTori(None, np.array(h.tolist(), dtype=object),
                              length * model.fiber_length, *curves,
                              np.abs(_spectral_derivative(curves[1], length[:, None])))
        if outside := out_of_range(stack):
            raise outside[1]
        if refused is not None:
            raise refused
        # solve's 0.0 - q for the constant q = 4 H^2 + kappa of potential_field,
        # with H squared as a Python float
        lam = 0.0 - ((4.0 * stack.mean_curvature**2).astype(float) + kappa)
        regimes, bounds = np.array(classify_regime(stack.kappa, stack.tau)), np.empty((u.size, 4))
        for regime, parts in REGIME_PARTS.items():
            if (rows := regimes == regime).any():
                group = _ParallelTori(regime, *(x[rows] for x in stack[1:]))
                bounds[rows] = np.array([theorem_bound(group, part, mode) for mode in SWEEP_MODES
                                         for part in parts], dtype=float).T
        keep = np.isin(regimes, list(REGIME_PARTS))
        columns.append([c[keep] for c in (u, kappa, tau, h)] + [lam[keep], *bounds[keep].T])
    return [np.concatenate(column) for column in zip(*columns)]


def run_scenario(doc: dict, gradient_mode: str | None = None,
                 truncation: int | None = None) -> ScenarioOutcome:
    """Validate and execute one scenario document.  The overrides are merged
    into a copy of the document, which is validated and run; the report
    echoes the document as given."""
    run = doc
    if isinstance(doc, dict):
        if gradient_mode is not None:
            run = {**run, "gradient_mode": gradient_mode}
        if truncation is not None and isinstance(doc.get("solver", {}), dict):
            run = {**run, "solver": {**doc.get("solver", {}), "truncation": truncation}}
    errors = validate_scenario(run)
    if errors:
        raise ScenarioError(errors)
    solver = run.get("solver", {})
    mode = GradientMode(run.get("gradient_mode", GradientMode.INTRINSIC_ON_SURFACE.value))
    name = doc.get("name", "scenario")

    model = build_model(doc["model"])
    surface = build_surface(doc["surface"], model)
    # a harmonic D of a product model's kappa, which a Hopf torus reads,
    # couples the constant mode to mode D, which a truncation-K basis lacks
    # when D > K: the solve and its K/2 estimate would both miss it
    product_torus = doc["model"]["kind"] == "product" and not surface.horizontal
    degree = _degree(doc["model"]["kappa"]) if product_torus else 0
    K = solver.get("truncation", DEFAULT_TRUNCATION)
    if degree > K:
        raise ConvergenceError(f"surface kappa has harmonic {degree} above the truncation "
                               f"K = {K}; increase the truncation")
    m = int(solver.get("eigenvalue_count", 6))
    torus = not surface.horizontal
    if torus:
        problem = surface_spectral_problem(
            surface, truncation=K, conv_tol=float(solver.get("convergence_tol", DEFAULT_CONV_TOL)))
        result, q = solve(problem, m=m), problem.potential
    else:
        result, q = solve_surface(surface, m=m), 0.0

    regime = surface.regime
    alpha = alpha_invariant(result.ground_state, surface.area)
    identities = {
        "lambda1_identity_residual": float(_identity_residual(surface, result.lambda1,
                                                              alpha, q)),
        "gauss_bonnet_residual": float(gauss_bonnet_check(surface)),
        "alpha": float(alpha),
    }

    bounds_dict = None
    theta_form = None
    violations: list[str] = []
    if regime in REGIME_PARTS:
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
    fields = {"potential": ("q", q if torus else None),
              "ground_state": ("rho", result.ground_state)}
    # q and rho both lie on the curve's grid (a slice prints rho alone)
    grid = None
    for kind in outputs.get("series") or []:
        column, f = fields.get(kind, (None, None))
        if f is not None:
            grid = grid or format_column(f.grid)
            series[kind] = format_csv(["s", column], [grid, format_column(f.samples)])
        elif kind == "convergence" and torus:
            series["convergence"] = format_csv(["truncation", "lambda1"], [
                format_column(c) for c in zip(*_convergence_ladder(problem, result.lambda1))])
    if outputs.get("sweep") is not None:
        series["sweep"] = format_csv(
            ["u", "kappa", "tau", "H", "lambda1", "bound_i_ambient", "bound_ii_ambient",
             "bound_i_intrinsic", "bound_ii_intrinsic"],
            [format_column(column) for column in _sweep_series(run, model)])

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
        data = path.read_bytes()
    except OSError as exc:
        raise ScenarioError([f"<file>: cannot read {path}: {exc}"]) from exc
    try:  # json.loads decodes the bytes, so a UnicodeDecodeError is a ValueError here
        return json.loads(data)
    except ValueError as exc:  # also an integer literal beyond int's digit limit
        raise ScenarioError([f"<file>: not valid JSON: {exc}"]) from exc
