"""Timings of the Fourier solve on a constant and a varying potential.

Usage (from the repository root):

    python3 benchmarks/bench_fourier.py --label change
    python3 benchmarks/bench_fourier.py --src OTHER_CHECKOUT/src --label parent

Times ``spectral.solve`` at K = 64 on 512 samples for q = 2 (a diagonal
Galerkin matrix, solved in closed form) and for q = 2 + 0.3 cos s (dense
LAPACK), and ``verification.run_checks()``, which is what ``jacobilab
verify`` runs.  The median and quartiles of the timed rounds go into
BENCH_fourier_diagonal.json under ``runs[label]``, next to the numpy, BLAS
and thread settings; other labels in the file are kept, so two checkouts can
be compared in one file.  BLAS is pinned to one thread before numpy loads,
as in the perfbench harness, whose environment record is reused.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  (pins BLAS to one thread before numpy loads)

OUT = ROOT / "BENCH_fourier_diagonal.json"
TWO_PI = 2.0 * math.pi
SAMPLES = 512
TRUNCATION = 64
# (rounds, calls per round): a round of closed-form solves lasts about 20 ms
SOLVE_ROUNDS = (31, 200)
CHECK_ROUNDS = (7, 1)


def _timed(fn, rounds: int, per_round: int, scale: float, unit: str) -> dict:
    """Median and quartiles over ``rounds`` of the time per call of ``fn``,
    after one warm-up call."""
    fn()
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(per_round):
            fn()
        times.append((time.perf_counter() - started) / per_round * scale)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "rounds": rounds}


def measure() -> dict:
    import numpy as np
    from jacobilab import ScalarField1D, SpectralProblem, solve, verification

    def problem(q_fn):
        q = ScalarField1D.from_function(q_fn, TWO_PI, SAMPLES)
        return SpectralProblem(TWO_PI, TWO_PI, q, truncation=TRUNCATION)

    def checks():
        failed = [r.name for r in verification.run_checks() if not r.passed]
        if failed:
            raise SystemExit(f"verification checks failed: {failed}")

    constant = problem(lambda s: np.full_like(s, 2.0))
    varying = problem(lambda s: 2.0 + 0.3 * np.cos(s))
    return {
        "solve_q_constant": _timed(lambda: solve(constant), *SOLVE_ROUNDS, 1e6, "us"),
        "solve_q_cos": _timed(lambda: solve(varying), *SOLVE_ROUNDS, 1e6, "us"),
        "run_checks": _timed(checks, *CHECK_ROUNDS, 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the jacobilab package to time")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    results = measure()
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = ("spectral.solve at K = 64 on 512 samples and "
                          "verification.run_checks(), time per call: median and "
                          "quartiles of timed rounds")
    doc["environment"] = perfbench.environment()
    doc.setdefault("runs", {})[args.label] = results
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, r in results.items():
        print(f"{args.label:>8}  {name:18} {r['median']:10.3f} {r['unit']}  "
              f"[{r['q1']:.3f}, {r['q3']:.3f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
