"""Timings and exits of the fd eigensolve: one certified Rayleigh-Ritz step per
ladder rung, or the dense matrix.

Usage (from the repository root):

    python3 benchmarks/bench_fd.py --label change
    python3 benchmarks/bench_fd.py --src OTHER_CHECKOUT/src --label parent

Times ``spectral._fd_eigs`` at N = 2048 and 1024 with m = 6 on five
``oracle_crosscheck`` potentials q0 + a cos(s + phi) (perfbench seed 91), the
two grids of one fd Richardson solve there; at N = 1024 and 512 with m = 1
on the 20 potentials of ``check_backend_equivalence`` (its default seed),
the two grids of its solves; and at N = 512 and 2048 with m = 1 and 6 on the
deep periodic wells 400 cos 20s and 800 cos 40s and the Gaussian well
40 exp(-30 (1 - cos s)).  Each case also records, per potential, the exit of
its solve, ``rung t`` when the Rayleigh-Ritz step at the ladder's rung t
certified it and ``dense`` when the ``assemble_fd`` matrix answered, and the
number of Rayleigh-Ritz steps it took (``spectral._fd_rayleigh_ritz`` calls;
on a 0.4.12 checkout, which has no such function, its one ``np.linalg.qr``
call, and the rung of its start is read from the largest ``np.linalg.eigh``
before that step).  ``traffic`` counts those exits and steps over every
``_fd_eigs`` call of ``perfbench/workloads.oracle_run`` on seeds 1-5 x 300
ops (``DEFAULT_FD_TRUNCATION`` with Richardson: N = 2048 and 1024) and of
``check_backend_equivalence`` on seeds 1-499 (N = 1024 and 512).
``verification.check_backend_equivalence()`` is timed by its
``CheckResult.elapsed``.  The median and quartiles of the timed rounds go
into BENCH_fd_start.json under ``runs[label]``, next to the numpy, BLAS and
thread settings, as ``benchmarks/_harness.py`` files every layer harness.
"""

from __future__ import annotations

import collections
import contextlib
import math

import _harness

OUT = _harness.ROOT / "BENCH_fd_start.json"
TWO_PI = 2.0 * math.pi
ORACLE_SEED = 91
ORACLE_OPS = 5
# rounds of each timed case; a round solves every potential of the case once
ROUNDS = 9
CHECK_ROUNDS = 15
# the traffic count's inputs
TRAFFIC_ORACLE_SEEDS = range(1, 6)
TRAFFIC_ORACLE_OPS = 300
TRAFFIC_EQUIVALENCE_SEEDS = range(1, 500)


def measure() -> dict:
    import numpy as np
    from jacobilab import ScalarField1D, SpectralProblem, spectral, verification
    from workloads import oracle_input, oracle_run

    def oracle(inp):
        return lambda s: inp["q0"] + inp["a"] * np.cos(s + inp["phi"])

    potentials = {
        "oracle": [oracle(oracle_input(ORACLE_SEED, i)) for i in range(ORACLE_OPS)],
        "equiv": verification._equivalence_potentials(verification.DEFAULT_SEED),
        "cos20": [lambda s: 400.0 * np.cos(20.0 * s)],
        "cos40": [lambda s: 800.0 * np.cos(40.0 * s)],
        "gauss": [lambda s: 40.0 * np.exp(-30.0 * (1.0 - np.cos(s)))],
    }
    cases = [("oracle", n, 6) for n in (2048, 1024)]
    cases += [("equiv", n, 1) for n in (1024, 512)]
    cases += [(kind, n, m) for kind in ("cos20", "cos40", "gauss")
              for n in (512, 2048) for m in (1, 6)]

    qr, eigh = np.linalg.qr, np.linalg.eigh
    fd_eigs, assemble_fd = spectral._fd_eigs, spectral.assemble_fd
    rayleigh_ritz = getattr(spectral, "_fd_rayleigh_ritz", None)
    solve = {"rungs": [], "start": 0, "dense": 0}
    exits, steps = [], []

    def recording_step(length, q, inv_h2, coefficients):
        solve["rungs"].append(coefficients.shape[0] // 2)
        return rayleigh_ritz(length, q, inv_h2, coefficients)

    def counting_qr(a, *args, **kwargs):
        solve["rungs"].append(solve["start"] // 2)
        return qr(a, *args, **kwargs)

    def sizing_eigh(a, *args, **kwargs):
        if not solve["rungs"] and not solve["dense"]:
            solve["start"] = max(solve["start"], a.shape[0])
        return eigh(a, *args, **kwargs)

    def counting_assemble_fd(*args):
        solve["dense"] += 1
        return assemble_fd(*args)

    def recording_fd_eigs(*args):
        solve.update(rungs=[], start=0, dense=0)
        result = fd_eigs(*args)
        exits.append("dense" if solve["dense"] else f"rung {solve['rungs'][-1]}")
        steps.append(len(solve["rungs"]))
        return result

    @contextlib.contextmanager
    def recording():
        """Record the exit and step count of every ``_fd_eigs`` call within."""
        exits.clear()
        steps.clear()
        spectral._fd_eigs, spectral.assemble_fd = recording_fd_eigs, counting_assemble_fd
        if rayleigh_ritz is None:
            np.linalg.qr, np.linalg.eigh = counting_qr, sizing_eigh
        else:
            spectral._fd_rayleigh_ritz = recording_step
        try:
            yield
        finally:
            np.linalg.qr, np.linalg.eigh = qr, eigh
            spectral._fd_eigs, spectral.assemble_fd = fd_eigs, assemble_fd
            if rayleigh_ritz is not None:
                spectral._fd_rayleigh_ritz = rayleigh_ritz

    def tally():
        return {"solves": len(exits),
                **collections.Counter(f"{e}, {s} step{'s' * (s != 1)}"
                                      for e, s in zip(exits, steps))}

    results = {}
    for kind, n, m in cases:
        problems = [SpectralProblem(TWO_PI, TWO_PI, ScalarField1D.from_function(q, TWO_PI, n),
                                    truncation=n) for q in potentials[kind]]

        def solve_all():
            for p in problems:
                spectral._fd_eigs(p, n, m)

        entry = _harness.timed(solve_all, ROUNDS, 1, 1e3 / len(problems), "ms")
        with recording():
            solve_all()
        entry["exit"], entry["steps"] = list(exits), list(steps)
        results[f"fd_eigs_{kind}_N{n}_m{m}"] = entry

    traffic = {}
    with recording():
        for seed in TRAFFIC_ORACLE_SEEDS:
            for i in range(TRAFFIC_ORACLE_OPS):
                oracle_run(oracle_input(seed, i), None)
    traffic["oracle_crosscheck"] = tally()
    with recording():
        for seed in TRAFFIC_EQUIVALENCE_SEEDS:
            verification.check_backend_equivalence(seed)
    traffic["backend_equivalence"] = tally()
    results["traffic"] = traffic

    elapsed = []
    verification.check_backend_equivalence()
    for _ in range(CHECK_ROUNDS):
        check = verification.check_backend_equivalence()
        if not check.passed:
            raise SystemExit(f"backend_equivalence failed: {check.detail}")
        elapsed.append(check.elapsed * 1e3)
    results["backend_equivalence"] = _harness.summary(elapsed, "ms")
    return results


def main(argv=None) -> int:
    label, results = _harness.main(
        __doc__, OUT, "spectral._fd_eigs time per potential (median and quartiles of "
        f"{ROUNDS} rounds after one warm-up), exit (the certifying rung t, or dense) and "
        "Rayleigh-Ritz steps per potential; traffic: exits and steps of every _fd_eigs call "
        "of oracle_run on seeds 1-5 x 300 ops and of check_backend_equivalence on seeds "
        f"1-499; check_backend_equivalence CheckResult.elapsed over {CHECK_ROUNDS} rounds",
        measure, argv)
    traffic = results.pop("traffic")
    _harness.print_summaries(label, list(results.items()))
    for name, r in results.items():
        if "exit" in r:
            print(f"{label:>8}  {name:26} exit {r['exit']}  steps {r['steps']}")
    for name, counts in traffic.items():
        print(f"{label:>8}  traffic {name:18} {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
