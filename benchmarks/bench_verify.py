"""Per-check timings of ``jacobilab verify`` and the peak RSS of the process.

Usage (from the repository root):

    python3 benchmarks/bench_verify.py --label change
    python3 benchmarks/bench_verify.py --src OTHER_CHECKOUT/src --label parent

Runs ``verification.run_checks()``, which is what ``jacobilab verify`` runs,
once to warm up and then for a number of timed rounds.  For every check the
median and quartiles of its ``CheckResult.elapsed`` go into
BENCH_verify_minmax.json under ``runs[label]``, together with the wall time of
the whole pass and the peak RSS of this process after the rounds, next to the
numpy, BLAS and thread settings.  Other labels in the file are kept, so two
checkouts can be compared in one file; run each label in its own process, so
that its peak RSS is its own.  BLAS is pinned to one thread before numpy
loads, as in the perfbench harness, whose environment record is reused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  (pins BLAS to one thread before numpy loads)

OUT = ROOT / "BENCH_verify_minmax.json"
ROUNDS = 15


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": "ms", "median": median, "q1": q1, "q3": q3, "rounds": len(values)}


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
        "run_checks": _summary(walls),
        "checks": {name: _summary(times) for name, times in elapsed.items()},
        "peak_rss_mb": perfbench.peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the jacobilab package to time")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    results = measure(ROUNDS)
    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc["description"] = ("verification.run_checks(): wall time per pass and each "
                          "check's CheckResult.elapsed, median and quartiles over "
                          f"{ROUNDS} rounds after one warm-up pass; peak RSS of the "
                          "process after the rounds")
    doc["environment"] = perfbench.environment()
    doc.setdefault("runs", {})[args.label] = results
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    rows = [("run_checks", results["run_checks"]), *results["checks"].items()]
    for name, r in rows:
        print(f"{args.label:>8}  {name:26} {r['median']:9.2f} ms  "
              f"[{r['q1']:.2f}, {r['q3']:.2f}]")
    print(f"{args.label:>8}  {'peak_rss_mb':26} {results['peak_rss_mb']:9.2f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
