"""Shared parts of the layer harnesses under ``benchmarks/``.

Each harness times one layer of jacobilab for a checkout given by ``--src``
and files the result under ``runs[--label]`` of its ``BENCH_*.json``, next to
the numpy, BLAS and thread settings; other labels in the file are kept, so
two checkouts can be compared in one file.  Importing this module pins BLAS
to one thread before numpy loads, as in the perfbench harness, whose
environment record is reused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402  (pins BLAS to one thread before numpy loads)


def summary(values: list[float], unit: str) -> dict:
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "rounds": len(values)}


def timed(fn: Callable[[], object], rounds: int, per_round: int, scale: float,
          unit: str) -> dict:
    """Summary over ``rounds`` of the time per call of ``fn``, in seconds times
    ``scale``, after one warm-up call."""
    fn()
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(per_round):
            fn()
        times.append((time.perf_counter() - started) / per_round * scale)
    return summary(times, unit)


def main(doc: str, out: Path, description: str, measure: Callable[[], dict],
         argv=None) -> tuple[str, dict]:
    """Parse ``--src`` and ``--label``, run ``measure`` on the package under
    ``--src`` and merge its results into ``out``; returns the label and the
    results."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the jacobilab package to time")
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    results = measure()
    record = json.loads(out.read_text()) if out.exists() else {}
    record["description"] = description
    record["environment"] = perfbench.environment()
    record.setdefault("runs", {})[args.label] = results
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return args.label, results


def print_summaries(label: str, rows: list[tuple[str, dict]]) -> None:
    for name, r in rows:
        print(f"{label:>8}  {name:26} {r['median']:10.3f} {r['unit']:2}  "
              f"[{r['q1']:.3f}, {r['q3']:.3f}]")
