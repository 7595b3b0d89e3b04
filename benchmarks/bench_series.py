"""Timings of a report with its CSV series, and of the series writing alone.

Usage (from the repository root):

    python3 benchmarks/bench_series.py --label change
    python3 benchmarks/bench_series.py --src OTHER_CHECKOUT/src --label parent

Times three documents: the shipped Berger torus with the series
``potential``, ``ground_state`` and ``convergence``; the ``product_ladder``
document of ``tests/test_cli.py`` (kappa = 2 + 0.2 cos s + 0.05 cos 3s at
K = 64, the same three series); and a warped half-arctan torus with its
``ground_state`` series and a sweep of 24 rows.  For each it records the time
of ``scenario.run_scenario`` followed by ``scenario.write_outputs`` into a
temporary directory (``<doc>_report``); in separate rounds, the time per
report spent inside the series writer: the scenario module's ``format_csv``
and, where the checkout has it, ``format_column``, each wrapped by a timer
(``<doc>_writer``); in the same way, the time per report spent inside the
bounds: the scenario module's ``build_bound_report`` and its sweep bound
function, ``theorem_bound`` or, in older checkouts, ``_bound_value``
(``<doc>_bounds``); and the time of ``scenario.dumps_deterministic`` on the
document's report, the JSON text of one report (``<doc>_json``).  Results
(median and quartiles of timed rounds, in ms per report) go into
BENCH_series.json under ``runs[label]``, next to the numpy, BLAS and thread
settings, as ``benchmarks/_harness.py`` files every layer harness.
"""

from __future__ import annotations

import functools
import json
import math
import tempfile
import time
from pathlib import Path

import _harness

OUT = _harness.ROOT / "BENCH_series.json"
TWO_PI = 2.0 * math.pi
LADDER_KAPPA = {"mean": 2.0, "cos": [0.2, 0.0, 0.05]}
ALL_SERIES = ["potential", "ground_state", "convergence"]
DOCUMENTS = {
    "berger": json.loads((_harness.ROOT / "scenarios" / "berger_minimal_hopf.json").read_text()),
    "product_ladder": {
        "version": 1, "name": "product_ladder",
        "model": {"kind": "product", "fiber_length": TWO_PI, "kappa": LADDER_KAPPA},
        "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                    "geodesic_curvature": 0.5, "kappa": LADDER_KAPPA},
        "solver": {"truncation": 64},
        "outputs": {"series": ALL_SERIES}},
    # u = 0.5, 0.6, ..., 2.8
    "warped_sweep24": {
        "version": 1, "name": "warped_sweep24",
        "model": {"kind": "warped", "profile": {"kind": "half_arctan", "offset": 0.02},
                  "window": [0.2, 4.0]},
        "surface": {"type": "hopf_torus", "parallel": 1.0},
        "outputs": {"series": ["ground_state"],
                    "sweep": {"start": 0.5, "stop": 2.8, "step": 0.1}}},
}
SWEEP_ROWS = 24
# document -> (rounds, reports per round)
ROUNDS = {"berger": (21, 20), "product_ladder": (21, 10), "warped_sweep24": (21, 3)}
WRITERS = ("format_column", "format_csv")
BOUNDS = ("build_bound_report", "theorem_bound", "_bound_value")


def inside_ms(scenario, names, doc: dict, rounds: int, per_round: int) -> dict:
    """Summary over rounds of the ms per report spent inside those of the
    scenario module's functions ``names`` that the checkout has."""
    spent = [0.0]

    def timer(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - started
        return wrapper

    originals = {name: getattr(scenario, name) for name in names if hasattr(scenario, name)}
    for name, fn in originals.items():
        setattr(scenario, name, timer(fn))
    try:
        scenario.run_scenario(doc)
        times = []
        for _ in range(rounds):
            spent[0] = 0.0
            for _ in range(per_round):
                scenario.run_scenario(doc)
            times.append(spent[0] / per_round * 1e3)
    finally:
        for name, fn in originals.items():
            setattr(scenario, name, fn)
    return _harness.summary(times, "ms")


def measure() -> dict:
    from jacobilab import scenario

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in DOCUMENTS.items():
            rounds, per_round = ROUNDS[name]
            out = Path(tmp) / name
            results[f"{name}_report"] = _harness.timed(
                lambda: scenario.write_outputs(scenario.run_scenario(doc), out),
                rounds, per_round, 1e3, "ms")
            results[f"{name}_writer"] = inside_ms(scenario, WRITERS, doc, rounds, per_round)
            results[f"{name}_bounds"] = inside_ms(scenario, BOUNDS, doc, rounds, per_round)
            report = scenario.run_scenario(doc).report
            results[f"{name}_json"] = _harness.timed(
                lambda: scenario.dumps_deterministic(report), rounds, per_round, 1e3, "ms")
        rows = (Path(tmp) / "warped_sweep24" / "warped_sweep24.sweep.csv").read_text().count("\n")
    if rows != SWEEP_ROWS + 1:
        raise SystemExit(f"the warped sweep wrote {rows - 1} rows, not {SWEEP_ROWS}")
    return results


def main(argv=None) -> int:
    label, results = _harness.main(
        __doc__, OUT, "scenario.run_scenario + write_outputs per report, the time per "
        "report inside the series writer (format_csv, format_column), the time per report "
        "inside the bounds (build_bound_report and theorem_bound or _bound_value) and the "
        "time of dumps_deterministic on one report, for the Berger torus, the product_ladder "
        "document and a 24-row warped sweep: median and quartiles of timed rounds",
        measure, argv)
    _harness.print_summaries(label, list(results.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
