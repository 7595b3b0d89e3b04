"""Self-tests of the benchmark: gates, input determinism, trace counts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jacobilab import scenario, spectral, verification  # noqa: E402

OFF = 1e-6


def _write_report(workdir: Path, doc: dict, lam: float, sweep_rows=()):
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"spectrum": {"lambda1": lam}}
    (workdir / f"{doc['name']}.report.json").write_text(json.dumps(report))
    if doc.get("outputs", {}).get("sweep") is not None:
        lines = ["u,lambda1"] + [f"{u!r},{v!r}" for u, v in sweep_rows]
        (workdir / f"{doc['name']}.sweep.csv").write_text("\n".join(lines) + "\n")


def _first_input(cls: str) -> dict:
    return next(inp for inp in (workloads.scenario_input(7, i) for i in range(40))
                if inp["class"] == cls)


@pytest.mark.parametrize("cls", ["homogeneous", "product", "slice", "warped"])
def test_scenario_gate_flags_lambda1_off_by_1e_6(cls, tmp_path):
    inp = _first_input(cls)
    doc = inp["doc"]
    ref = workloads.scenario_reference(doc)
    rows = []
    if cls == "warped":
        offset = doc["model"]["profile"]["offset"]
        sweep = doc["outputs"]["sweep"]
        rows = [(sweep["start"] + k * sweep["step"],
                 workloads.half_arctan_lambda1(sweep["start"] + k * sweep["step"], offset))
                for k in range(5)]
    _write_report(tmp_path / "exact", doc, ref, rows)
    assert workloads.scenario_judge(inp, 0, tmp_path / "exact").wrong == []
    _write_report(tmp_path / "off", doc, ref + OFF, rows)
    assert workloads.scenario_judge(inp, 0, tmp_path / "off").wrong
    if rows:
        u, lam = rows[-1]
        _write_report(tmp_path / "row_off", doc, ref, rows[:-1] + [(u, lam + OFF)])
        assert workloads.scenario_judge(inp, 0, tmp_path / "row_off").wrong


def test_scenario_gate_counts_nonzero_exit_as_failed(tmp_path):
    inp = _first_input("homogeneous")
    _write_report(tmp_path, inp["doc"], workloads.scenario_reference(inp["doc"]))
    for code in (1, 2):
        verdict = workloads.scenario_judge(inp, code, tmp_path)
        assert verdict.failed and not verdict.wrong and not verdict.flagged


def _product_doc(eps: float) -> dict:
    kappa = {"mean": 1.0, "cos": [eps]}
    return {"version": 1, "name": f"product_{eps:g}",
            "model": {"kind": "product", "kappa": kappa, "fiber_length": 6.0},
            "surface": {"type": "hopf_torus", "curve_length": workloads.TWO_PI,
                        "geodesic_curvature": 0.0, "kappa": kappa},
            "solver": {"backend": "fourier", "truncation": 64}}


def test_known_false_anomaly_is_flagged_not_failed(tmp_path):
    inp = {"class": "product", "doc": _product_doc(1e-3)}
    exit_code = workloads.scenario_run(inp, tmp_path)
    assert exit_code == scenario.EXIT_ANOMALY  # the defect still shows
    verdict = workloads.scenario_judge(inp, exit_code, tmp_path)
    assert verdict.flagged and not verdict.failed and not verdict.wrong


def test_other_anomalies_still_fail(tmp_path):
    const = {"class": "product", "doc": _product_doc(0.0)}
    anomaly = ["equality anomaly in thm_plus_ii under intrinsic_on_surface"]
    for doc, anomalies in ((const["doc"], anomaly),
                           (_product_doc(1e-3), ["bound violated in thm_plus_i"])):
        path = tmp_path / f"{doc['name']}.report.json"
        path.write_text(json.dumps({"spectrum": {"lambda1": workloads.scenario_reference(doc)},
                                    "anomalies": anomalies}))
        verdict = workloads.scenario_judge({"doc": doc}, 2, tmp_path)
        assert verdict.failed and not verdict.flagged


@pytest.mark.parametrize("backend", ["fourier", "fd_richardson", "fourier_2d"])
def test_oracle_gate_flags_lambda1_off_by_1e_6(backend):
    inp = workloads.oracle_input(7, 0)
    ref = workloads.mathieu_lambda1(inp["q0"], inp["a"])
    exact = {"fourier": ref, "fd_richardson": ref, "fourier_2d": ref}
    assert workloads.oracle_judge(inp, exact, None).wrong == []
    assert workloads.oracle_judge(inp, {**exact, backend: ref + OFF}, None).wrong


def test_mathieu_reference_matches_fourier_solve():
    q0, a = 1.3, 0.7
    field = workloads.fields.ScalarField1D.from_function(
        lambda s: q0 + a * workloads.np.cos(s), workloads.TWO_PI)
    lam = spectral.solve(spectral.SpectralProblem(workloads.TWO_PI, workloads.TWO_PI,
                                                  field)).lambda1
    assert abs(lam - workloads.mathieu_lambda1(q0, a)) <= workloads.TOL_SPECTRAL


def test_verify_gate_flags_failing_check():
    ok = verification.CheckResult("x", True, "", 0.0)
    results = [ok] * len(verification.CATALOG)
    assert workloads.verify_judge({}, results, None).wrong == []
    bad = results[:-1] + [verification.CheckResult("y", False, "off by 1e-6", 0.0)]
    verdict = workloads.verify_judge({}, bad, None)
    assert verdict.failed and verdict.wrong


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name].make_input
    first = [json.dumps(make(11, i), sort_keys=True) for i in range(60)]
    again = [json.dumps(make(11, i), sort_keys=True) for i in range(60)]
    other = [json.dumps(make(12, i), sort_keys=True) for i in range(60)]
    assert first == again
    assert first != other


def test_scenario_rounds_keep_class_shares():
    for seed in (1, 2):
        classes = [workloads.scenario_input(seed, i)["class"] for i in range(60)]
        for start in range(0, 60, len(workloads.SCENARIO_ROUND)):
            chunk = classes[start:start + len(workloads.SCENARIO_ROUND)]
            assert sorted(chunk) == sorted(workloads.SCENARIO_ROUND)


def _traced_pass(name: str, seed: int, workdir: Path):
    workload = workloads.WORKLOADS[name]
    runner = run.Runner(workload, seed, workdir)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for i in range(workload.block_ops):
            runner.run_op(i)
    assert runner.wrong == 0, runner.notes
    return {n: s.calls for n, s in tracer.spans.items()}, tracer.counters()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_calls_and_counters_repeat_exactly(name, tmp_path):
    calls, counters = _traced_pass(name, 5, tmp_path / "a")
    again = _traced_pass(name, 5, tmp_path / "b")
    assert (calls, counters) == again
    assert calls["spectral.solve"] > 0 and calls["spectral.eigh"] > 0
    assert counters["spectral.eig.n3_sum"] > 0
    assert 0 < counters["spectral.eig.useful_ratio"] <= 1
    entered = {"scenario_batch": "spectral.solve_surface",  # imported by name
               "oracle_crosscheck": "spectral.solve_torus_2d",
               "verify_catalog": "verification.check_backend_equivalence"}[name]
    assert calls[entered] > 0


def test_tracing_restores_the_program():
    solve, np_module, catalog = spectral.solve, spectral.np, verification.CATALOG
    with tracing.traced(tracing.Tracer()):
        assert scenario.solve is not solve and spectral.np is not np_module
        assert verification.CATALOG is not catalog
    assert spectral.solve is solve and scenario.solve is solve
    assert spectral.np is np_module and verification.CATALOG is catalog


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(10000))

    wrapped_inner = tracer.wrap("spectral.assemble_fourier", inner)
    outer = tracer.wrap("spectral.solve", lambda m=1: wrapped_inner())
    outer()
    solve = tracer.spans["spectral.solve"]
    child = tracer.spans["spectral.assemble_fourier"]
    assert math.isclose(solve.self_s + child.total_s, solve.total_s)
    assert child.self_s == child.total_s


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "scenario_batch", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = ([f"{n}.calls" for n in tracing.SPAN_NAMES]
                 + [f"{n}.self_s" for n in run.SELF_TIME_SPANS]
                 + list(tracing.COUNTERS) + [run.FLAGGED_METRIC]
                 + ["trace.pass_s", "trace.overhead_s"])
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert sorted(m["name"] for m in spec["workloads"]) == sorted(workloads.WORKLOADS)
