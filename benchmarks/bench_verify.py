"""Per-check timings of ``jacobilab verify`` and the peak RSS of the process.

Usage (from the repository root):

    python3 benchmarks/bench_verify.py --label change
    python3 benchmarks/bench_verify.py --src OTHER_CHECKOUT/src --label parent

Runs ``verification.run_checks()``, which is what ``jacobilab verify`` runs,
once to warm up and then for a number of timed rounds.  For every check the
median and quartiles of its ``CheckResult.elapsed`` go into
BENCH_verify_minmax.json under ``runs[label]``, together with the wall time of
the whole pass and the peak RSS of this process after the rounds, next to the
numpy, BLAS and thread settings, as ``benchmarks/_harness.py`` files every
layer harness.  Run each label in its own process, so that its peak RSS is
its own.
"""

from __future__ import annotations

import time

import _harness

OUT = _harness.ROOT / "BENCH_verify_minmax.json"
ROUNDS = 15


def measure(rounds: int) -> dict:
    from jacobilab import verification

    def one_pass() -> tuple[float, list]:
        started = time.perf_counter()
        results = verification.run_checks()
        wall = time.perf_counter() - started
        failed = [r.name for r in results if not r.passed]
        if failed:
            raise SystemExit(f"verification checks failed: {failed}")
        return wall, results

    one_pass()
    walls, elapsed = [], {}
    for _ in range(rounds):
        wall, results = one_pass()
        walls.append(wall * 1e3)
        for r in results:
            elapsed.setdefault(r.name, []).append(r.elapsed * 1e3)
    return {
        "run_checks": _harness.summary(walls, "ms"),
        "checks": {name: _harness.summary(times, "ms") for name, times in elapsed.items()},
        "peak_rss_mb": _harness.perfbench.peak_rss_mb(),
    }


def main(argv=None) -> int:
    label, results = _harness.main(
        __doc__, OUT, "verification.run_checks(): wall time per pass and each check's "
        f"CheckResult.elapsed, median and quartiles over {ROUNDS} rounds after one "
        "warm-up pass; peak RSS of the process after the rounds",
        lambda: measure(ROUNDS), argv)
    _harness.print_summaries(label, [("run_checks", results["run_checks"]),
                                     *results["checks"].items()])
    print(f"{label:>8}  {'peak_rss_mb':26} {results['peak_rss_mb']:10.3f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
