"""Scenario validation: exact error lists, and no crash after validation."""

import copy
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from jacobilab import JacobilabError, ScenarioError
from jacobilab.scenario import (_sweep_grid, build_model, build_surface,
                                run_scenario, validate_scenario)

TWO_PI = 2 * math.pi
DELETE = object()

BERGER = {
    "version": 1,
    "name": "berger",
    "model": {"kind": "homogeneous", "kappa": 4.0, "tau": 0.5, "fiber_length": TWO_PI},
    "surface": {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.0},
    "solver": {"backend": "fourier", "truncation": 64, "eigenvalue_count": 6},
    "gradient_mode": "intrinsic_on_surface",
    "outputs": {"series": ["potential", "ground_state", "convergence"]},
}
PRODUCT = {
    "version": 1,
    "model": {"kind": "product", "fiber_length": TWO_PI,
              "kappa": {"mean": 1.0, "cos": [0.1]}, "period": TWO_PI, "samples": 64},
    "surface": {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.5,
                "kappa": {"mean": 1.0, "cos": [0.1]}, "tau": {"constant": 0.0},
                "samples": 64},
}
SLICE = {
    "version": 1,
    "model": {"kind": "product", "fiber_length": None, "kappa": {"constant": 1.0}},
    "surface": {"type": "horizontal_slice", "base_area": 4 * math.pi, "genus": 0,
                "kappa": {"values": [1.0, 1.0], "weights": [2 * math.pi, 2 * math.pi]}},
}
WARPED = {
    "version": 1,
    "model": {"kind": "warped", "profile": "half_arctan", "window": [0.25, 4.0],
              "samples": 65},
    "surface": {"type": "hopf_torus", "parallel": 1.0, "samples": 64},
    "outputs": {"sweep": {"start": 0.5, "stop": 0.7, "step": 0.1}},
}
SAMPLED = {
    "version": 1,
    "model": {"kind": "warped",
              "profile": {"kind": "sampled",
                          "theta": [0.5 * math.atan(0.25 + 0.25 * i) for i in range(16)],
                          "interval": [0.25, 4.0]},
              "window": [0.5, 3.0]},
    "surface": {"type": "hopf_torus", "parallel": 1.0},
}


def edit(base: dict, **changes) -> dict:
    """Copy of ``base`` with dotted-path keys (``model__kind``) set or deleted."""
    doc = copy.deepcopy(base)
    for dotted, value in changes.items():
        *parents, key = dotted.split("__")
        node = doc
        for p in parents:
            node = node[p]
        if value is DELETE:
            del node[key]
        else:
            node[key] = value
    return doc


MODEL_KIND = "model.kind: expected 'homogeneous', 'product' or 'warped'"
PROFILE_KIND = "model.profile.kind: expected 'half_arctan', 'constant' or 'sampled'"
SERIES = ("outputs.series: expected a list drawn from "
          "['potential', 'ground_state', 'convergence']")
INTERVAL = "expected [a, b] with a < b"
SAMPLES = "expected an integer in [8, 65536]"
TOO_MANY_POINTS = "outputs.sweep: expected at most 10000 points"
TRUNCATION = "expected an integer in [4, 1024]"

# (document, exact error list); the hand-written validator that the schema
# table replaced gave the same lists, except that its samples message read
# "expected an integer >= 8" (samples had no upper bound then)
UNCHANGED = {
    "valid_berger": (BERGER, []),
    "valid_product": (PRODUCT, []),
    "valid_slice_null_fiber": (SLICE, []),
    "valid_warped_sweep": (WARPED, []),
    "valid_sampled": (SAMPLED, []),
    "root_not_object": ([], ["<root>: expected a JSON object"]),
    "unknown_keys": (edit(BERGER, surprise=1, model__bogus=2),
                     ["<root>.surprise: unknown key", "model.bogus: unknown key"]),
    "version_99": (edit(BERGER, version=99), ["version: expected 1"]),
    "name_with_slash": (edit(BERGER, name="a/b"),
                        ["name: expected a nonempty string without spaces or slashes"]),
    "name_empty": (edit(BERGER, name=""),
                   ["name: expected a nonempty string without spaces or slashes"]),
    "model_not_object": (edit(BERGER, model="x"), ["model: expected an object"]),
    "model_kind_unknown": (edit(BERGER, model__kind="sphere"), [MODEL_KIND]),
    "model_kind_list": (edit(BERGER, model__kind=[]), [MODEL_KIND]),
    "homogeneous_values": (edit(BERGER, model__kappa="4", model__fiber_length=-2.0),
                           ["model.kappa: expected a finite number",
                            "model.fiber_length: expected a positive number"]),
    "homogeneous_one_missing": (edit(BERGER, model__tau=DELETE), ["model.tau: missing"]),
    "product_fiber_zero": (edit(PRODUCT, model__fiber_length=0),
                           ["model.fiber_length: expected a positive number or null"]),
    "field_mixed_keys": (edit(PRODUCT, model__kappa={"constant": 1.0, "mean": 0.0}),
                         ["model.kappa.mean: unknown key"]),
    "field_bad_cos": (edit(PRODUCT, model__kappa__cos=[0.1, "x"]),
                      ["model.kappa.cos: expected a list of finite numbers"]),
    "field_not_object": (edit(PRODUCT, surface__tau=3),
                         ["surface.tau: expected an object"]),
    "product_period_samples": (edit(PRODUCT, model__period=0, model__samples=4),
                               ["model.period: expected a positive number",
                                f"model.samples: {SAMPLES}"]),
    "profile_unknown_name": (edit(WARPED, model__profile="foo"),
                             ["model.profile: unknown profile name"]),
    "profile_wrong_type": (edit(WARPED, model__profile=3),
                           ["model.profile: expected a name or an object"]),
    "profile_null": (edit(WARPED, model__profile=None), []),
    "profile_kind_unknown": (edit(WARPED, model__profile={"kind": "x"}), [PROFILE_KIND]),
    "profile_constant_value": (edit(WARPED, model__profile={"kind": "constant",
                                                            "value": "a", "extra": 1}),
                               ["model.profile.extra: unknown key",
                                "model.profile.value: expected a finite number"]),
    "profile_offset": (edit(WARPED, model__profile={"kind": "half_arctan", "offset": "a"}),
                       ["model.profile.offset: expected a finite number"]),
    "sampled_theta_short": (edit(SAMPLED, model__profile__theta=[0.1] * 7),
                            ["model.profile.theta: expected >= 8 finite numbers"]),
    "sampled_interval": (edit(SAMPLED, model__profile__interval=[4.0, 0.25]),
                         [f"model.profile.interval: {INTERVAL}"]),
    "window_reversed": (edit(WARPED, model__window=[4.0, 0.25]),
                        [f"model.window: {INTERVAL}"]),
    "surface_type": (edit(BERGER, surface__type="sphere"),
                     ["surface.type: expected 'hopf_torus' or 'horizontal_slice'"]),
    "parallel_not_number": (edit(WARPED, surface__parallel="x"),
                            ["surface.parallel: expected a finite number"]),
    "torus_values": (edit(PRODUCT, surface__curve_length=0, surface__geodesic_curvature="x",
                          surface__kappa__mean=None, surface__samples=4),
                     ["surface.curve_length: expected a positive number",
                      "surface.geodesic_curvature: expected a finite number",
                      "surface.kappa.mean: expected a finite number",
                      f"surface.samples: {SAMPLES}"]),
    "slice_values": (edit(SLICE, surface__base_area=-1, surface__genus=-1),
                     ["surface.base_area: expected a positive number",
                      "surface.genus: expected a nonnegative integer"]),
    "slice_kappa_null": (edit(SLICE, surface__kappa=None), []),
    "slice_kappa_list": (edit(SLICE, surface__kappa=[]), ["surface.kappa: expected an object"]),
    "slice_kappa_weights": (edit(SLICE, surface__kappa={"values": [1.0], "weights": "x"}),
                            ["surface.kappa.weights: expected a list of finite numbers"]),
    "slice_kappa_missing": (edit(SLICE, surface__kappa={"values": [1.0]}),
                            ["surface.kappa.weights: missing"]),
    "solver_values": (edit(BERGER, solver={"backend": "gpu", "truncation": 2,
                                           "eigenvalue_count": 0, "convergence_tol": -1,
                                           "richardson": 1, "threads": 2}),
                      ["solver.richardson: unknown key",
                       "solver.threads: unknown key",
                       "solver.backend: expected 'fourier'",
                       f"solver.truncation: {TRUNCATION}",
                       "solver.eigenvalue_count: expected a positive integer",
                       "solver.convergence_tol: expected a positive number"]),
    "solver_not_object": (edit(BERGER, solver="x"), ["solver: expected an object"]),
    "gradient_mode": (edit(BERGER, gradient_mode="sideways"),
                      ["gradient_mode: expected 'intrinsic_on_surface' or 'ambient'"]),
    "series_unknown": (edit(BERGER, outputs__series=["nope"]), [SERIES]),
    "outputs_null_members": (edit(BERGER, outputs={"series": None, "sweep": None}), []),
    "outputs_not_object": (edit(BERGER, outputs=None), ["outputs: expected an object"]),
    "sweep_not_object": (edit(WARPED, outputs__sweep="x"),
                         ["outputs.sweep: expected an object"]),
    "sweep_reversed_with_others": (edit(WARPED, outputs__sweep__start=2.0,
                                        outputs__series=["x"]),
                                   [SERIES, "outputs.sweep: needs start < stop and step > 0"]),
    "sweep_missing_step": (edit(WARPED, outputs__sweep__step=DELETE),
                           ["outputs.sweep.step: missing"]),
    "sweep_not_warped": (edit(BERGER, outputs={"sweep": {"start": 0.5, "stop": 1.0,
                                                         "step": 0.1}}),
                         ["outputs.sweep: only available for warped parallel tori"]),
    "parallel_not_warped": (edit(BERGER, surface={"type": "hopf_torus", "parallel": 1.0}),
                            ["surface: hopf_torus needs 'parallel' exactly when the "
                             "model is warped"]),
    "warped_without_parallel": (edit(WARPED, surface=BERGER["surface"], outputs=DELETE),
                                ["surface: hopf_torus needs 'parallel' exactly when the "
                                 "model is warped"]),
}

# rows whose errors changed on purpose: values that used to pass validation and
# then crash, integers beyond the float range that crashed validation itself,
# bools taken for integers, a missing key reported twice, and the
# fd backend with its Richardson switch, which scenarios no longer select
# (valid_berger selects the one backend left)
FIXED = {
    "backend_fd": (edit(BERGER, solver__backend="fd"), ["solver.backend: expected 'fourier'"]),
    "richardson": (edit(BERGER, solver__richardson=True), ["solver.richardson: unknown key"]),
    **{f"sweep_{key}_{label}": (edit(WARPED, **{f"outputs__sweep__{key}": value}),
                                [f"outputs.sweep.{key}: expected a finite number"])
       for key in ("start", "stop", "step")
       for label, value in (("null", None), ("text", "x"), ("list", []), ("object", {}))},
    "window_null": (edit(WARPED, model__window=None), [f"model.window: {INTERVAL}"]),
    "genus_true": (edit(SLICE, surface__genus=True),
                   ["surface.genus: expected a nonnegative integer"]),
    "eigenvalue_count_true": (edit(BERGER, solver__eigenvalue_count=True),
                              ["solver.eigenvalue_count: expected a positive integer"]),
    "version_true": (edit(BERGER, version=True), ["version: expected 1"]),
    "version_missing": (edit(BERGER, version=DELETE), ["<root>.version: missing"]),
    "theta_missing": (edit(SAMPLED, model__profile__theta=DELETE),
                      ["model.profile.theta: missing"]),
    "interval_missing": (edit(SAMPLED, model__profile__interval=DELETE),
                         ["model.profile.interval: missing"]),
    **{f"int_beyond_float_{name}": (edit(base, **{key: value}), [message])
       for name, base, key, value, message in (
           ("curve_length", BERGER, "surface__curve_length", 10**400,
            "surface.curve_length: expected a positive number"),
           ("geodesic_curvature", BERGER, "surface__geodesic_curvature", -10**400,
            "surface.geodesic_curvature: expected a finite number"),
           ("kappa_mean", PRODUCT, "model__kappa__mean", 10**400,
            "model.kappa.mean: expected a finite number"),
           ("slice_weight", SLICE, "surface__kappa__weights", [2 * math.pi, 10**400],
            "surface.kappa.weights: expected a list of finite numbers"),
           ("sweep_stop", WARPED, "outputs__sweep__stop", 10**400,
            "outputs.sweep.stop: expected a finite number"))},
    "missing_in_declaration_order": (
        {"version": 1, "model": {"kind": "homogeneous"}, "surface": {"type": "hopf_torus"}},
        ["model.kappa: missing", "model.tau: missing", "model.fiber_length: missing",
         "surface.curve_length: missing", "surface.geodesic_curvature: missing"]),
}


# size caps: a sweep of more than 10,000 points (also one whose point count
# overflows a float) and a grid of more than 65,536 samples are input errors;
# the boundary sizes stay valid
BOUNDED = {
    "sweep_step_1e-9": (edit(WARPED, outputs__sweep={"start": 0.5, "stop": 3.0, "step": 1e-9}),
                        [TOO_MANY_POINTS]),
    "sweep_10001_points": (edit(WARPED, outputs__sweep={"start": 0.0, "stop": 10000.0,
                                                        "step": 1.0}), [TOO_MANY_POINTS]),
    "sweep_10000_points": (edit(WARPED, outputs__sweep={"start": 0.0, "stop": 9999.0,
                                                        "step": 1.0}), []),
    "sweep_span_overflows": (edit(WARPED, outputs__sweep={"start": -1e308, "stop": 1e308,
                                                          "step": 1.0}), [TOO_MANY_POINTS]),
    "sweep_quotient_overflows": (edit(WARPED, outputs__sweep__step=5e-324),
                                 [TOO_MANY_POINTS]),
    "surface_samples_1e7": (edit(BERGER, surface__samples=10**7),
                            [f"surface.samples: {SAMPLES}"]),
    "model_samples_65537": (edit(WARPED, model__samples=65537),
                            [f"model.samples: {SAMPLES}"]),
    "samples_65536": (edit(PRODUCT, model__samples=65536, surface__samples=65536), []),
    "fourier_truncation_1025": (edit(BERGER, solver__truncation=1025),
                                [f"solver.truncation: {TRUNCATION}"]),
    "fourier_truncation_1e6": (edit(BERGER, solver__truncation=10**6),
                               [f"solver.truncation: {TRUNCATION}"]),
    "default_backend_truncation_1025": (edit(BERGER, solver={"truncation": 1025}),
                                        [f"solver.truncation: {TRUNCATION}"]),
    "fourier_truncation_1024": (edit(BERGER, solver__truncation=1024), []),
}


@pytest.mark.parametrize("doc, expected", list(UNCHANGED.values()), ids=list(UNCHANGED))
def test_error_list(doc, expected):
    assert validate_scenario(doc) == expected


@pytest.mark.parametrize("doc, expected", list(FIXED.values()), ids=list(FIXED))
def test_error_list_fixed(doc, expected):
    assert validate_scenario(doc) == expected


@pytest.mark.parametrize("doc, expected", list(BOUNDED.values()), ids=list(BOUNDED))
def test_error_list_bounded(doc, expected):
    assert validate_scenario(doc) == expected


# a --truncation override is merged into the document before validation, so
# it meets the file's cap, and it does not hide a file's fd backend
@pytest.mark.parametrize("doc, expected", [
    (BERGER, [f"solver.truncation: {TRUNCATION}"]),
    (edit(BERGER, solver__backend="fd"), ["solver.backend: expected 'fourier'",
                                          f"solver.truncation: {TRUNCATION}"])],
    ids=["truncation", "backend"])
def test_solver_overrides_meet_the_caps(doc, expected):
    with pytest.raises(ScenarioError) as excinfo:
        run_scenario(doc, truncation=10**6)
    assert excinfo.value.paths == expected


def test_sweep_grid_length_is_the_validated_count():
    sweep = {"start": 0.0, "stop": 9999.0, "step": 1.0}
    grid = list(_sweep_grid(sweep))
    assert len(grid) == 10000 and grid[-1] == 9999.0


def test_sweep_grid_has_no_drift():
    doc = edit(WARPED, outputs__sweep={"start": 0.5, "stop": 0.8, "step": 0.1})
    rows = run_scenario(doc).series["sweep"].split()[1:]
    # accumulating u += 0.1 gives 0.7999999999999999 as the last point
    assert [float(row.split(",")[0]) for row in rows] == [0.5, 0.6, 0.7, 0.8]


# --- validated documents never crash the builders ------------------------------

VALID_DOCS = (BERGER, PRODUCT, SLICE, WARPED, SAMPLED)
VALUE_POOL = (None, True, False, 0, 1, 2, 8, 64, -1.5, 0.5, 1.0, 3.0, 1e300, "x",
              "half_arctan", "fd", "ambient", "constant", "sampled", [], [0.5],
              [0.5, 3.0], [1.0] * 8, {}, {"constant": 1.0}, {"mean": 1.0},
              {"kind": "constant", "value": 0.5}, {"start": 0.5, "stop": 0.7, "step": 0.1})


def _slots(node, out):
    """Every (container, key) pair of a document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutate(doc, edits):
    doc = copy.deepcopy(doc)
    for slot, action, name, value in edits:
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = slots[slot % len(slots)]
        if action == "delete" and isinstance(node, dict):
            del node[key]
        elif action == "add" and isinstance(node[key], dict):
            node[key][name] = copy.deepcopy(value)
        else:
            node[key] = copy.deepcopy(value)
    return doc


KEY_POOL = ("samples", "kappa", "tau", "window", "profile", "parallel", "constant",
            "sweep", "fiber_length", "extra")
_EDITS = st.lists(st.tuples(st.integers(0, 200), st.sampled_from(("set", "delete", "add")),
                            st.sampled_from(KEY_POOL), st.sampled_from(VALUE_POOL)),
                  min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(VALID_DOCS), _EDITS)
def test_validated_documents_build_or_raise_jacobilab_error(base, edits):
    doc = _mutate(base, edits)
    if validate_scenario(doc):
        return
    try:
        model = build_model(doc["model"])
        build_surface(doc["surface"], model)
        sweep = doc.get("outputs", {}).get("sweep")
        if sweep is not None:
            list(itertools.islice(_sweep_grid(sweep), 100))
    except JacobilabError:
        pass
