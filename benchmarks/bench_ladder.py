"""Timings of a Hopf-torus report with and without its convergence ladder.

Usage (from the repository root):

    python3 benchmarks/bench_ladder.py --label change
    python3 benchmarks/bench_ladder.py --src OTHER_CHECKOUT/src --label parent

Times ``scenario.run_scenario`` on one product torus,
kappa = 2 + 0.2 cos s + 0.05 cos 3s, at truncation K = 64 and at the cap
K = 1024, once with the series ``potential``, ``ground_state`` and
``convergence`` and once without ``convergence``; the difference is what the
ladder costs.  It also runs ``perfbench/run.py --workload scenario_batch
--seed 2 --trace 1`` of the checkout that holds ``--src`` for one traced pass
and keeps the Fourier call counts of that pass.  Results go into
BENCH_ladder.json under ``runs[label]``, next to the numpy, BLAS and thread
settings, as ``benchmarks/_harness.py`` files every layer harness.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import _harness

OUT = _harness.ROOT / "BENCH_ladder.json"
TWO_PI = 2.0 * math.pi
KAPPA = {"mean": 2.0, "cos": [0.2, 0.0, 0.05]}
# truncation -> (rounds, calls per round); a K = 1024 report takes about a second
ROUNDS = {64: (21, 10), 1024: (5, 1)}
TRACED_CALLS = ("spectral.solve.calls", "spectral.assemble_fourier.calls",
                "spectral.eigh.calls", "spectral.eigvalsh.calls")


def document(truncation: int, ladder: bool) -> dict:
    series = ["potential", "ground_state"] + (["convergence"] if ladder else [])
    return {"version": 1, "name": "product_ladder",
            "model": {"kind": "product", "fiber_length": TWO_PI, "kappa": KAPPA},
            "surface": {"type": "hopf_torus", "curve_length": TWO_PI,
                        "geodesic_curvature": 0.5, "kappa": KAPPA},
            "solver": {"truncation": truncation},
            "outputs": {"series": series}}


def traced_pass(checkout: Path) -> dict:
    """Fourier call counts of one traced scenario_batch pass (seed 2, 20 ops)."""
    line = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
         "scenario_batch", "--seed", "2", "--seconds", "0", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout.splitlines()[-1]
    result = json.loads(line)
    counts = {name: result["metrics"][name]["value"] for name in TRACED_CALLS}
    return {**counts, "correct": result["correct"], "failed": result["failed"]}


def measure() -> dict:
    import jacobilab
    from jacobilab.scenario import run_scenario

    results = {}
    for K, (rounds, per_round) in ROUNDS.items():
        for ladder in (True, False):
            doc = document(K, ladder)
            name = f"run_scenario_K{K}_" + ("with_ladder" if ladder else "without_ladder")
            results[name] = _harness.timed(lambda: run_scenario(doc), rounds, per_round,
                                           1e3, "ms")
    checkout = Path(jacobilab.__file__).resolve().parent.parent.parent
    results["traced_scenario_batch_seed2_pass"] = traced_pass(checkout)
    return results


def main(argv=None) -> int:
    label, results = _harness.main(
        __doc__, OUT, "scenario.run_scenario on one product torus with and without the "
        "convergence series, time per call: median and quartiles of timed rounds; "
        "Fourier call counts of one traced perfbench scenario_batch pass (seed 2)",
        measure, argv)
    traced = results.pop("traced_scenario_batch_seed2_pass")
    _harness.print_summaries(label, list(results.items()))
    print(f"{label:>8}  traced pass: {traced}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
