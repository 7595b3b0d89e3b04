"""Timings of the Fourier solve on a constant and a varying potential.

Usage (from the repository root):

    python3 benchmarks/bench_fourier.py --label change
    python3 benchmarks/bench_fourier.py --src OTHER_CHECKOUT/src --label parent

Times ``spectral.solve`` at K = 64 on 512 samples for q = 2 (a diagonal
Galerkin matrix, solved in closed form) and for q = 2 + 0.3 cos s (dense
LAPACK), and ``verification.run_checks()``, which is what ``jacobilab
verify`` runs.  The median and quartiles of the timed rounds go into
BENCH_fourier_diagonal.json under ``runs[label]``, next to the numpy, BLAS
and thread settings, as ``benchmarks/_harness.py`` files every layer harness.
"""

from __future__ import annotations

import math

import _harness

OUT = _harness.ROOT / "BENCH_fourier_diagonal.json"
TWO_PI = 2.0 * math.pi
SAMPLES = 512
TRUNCATION = 64
# (rounds, calls per round): a round of closed-form solves lasts about 20 ms
SOLVE_ROUNDS = (31, 200)
CHECK_ROUNDS = (7, 1)


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
    timed = _harness.timed
    return {
        "solve_q_constant": timed(lambda: solve(constant), *SOLVE_ROUNDS, 1e6, "us"),
        "solve_q_cos": timed(lambda: solve(varying), *SOLVE_ROUNDS, 1e6, "us"),
        "run_checks": timed(checks, *CHECK_ROUNDS, 1e3, "ms"),
    }


def main(argv=None) -> int:
    label, results = _harness.main(
        __doc__, OUT, "spectral.solve at K = 64 on 512 samples and "
        "verification.run_checks(), time per call: median and quartiles of timed rounds",
        measure, argv)
    _harness.print_summaries(label, list(results.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
