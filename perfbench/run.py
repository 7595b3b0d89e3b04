"""jacobilab benchmark: closed-loop workloads with correctness gates.

Usage (from the repository root):

    python3 perfbench/run.py --workload scenario_batch --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` repeats a fixed list of ops from the seed,
each pass once untraced and once traced, until ``--seconds`` have passed, and
prints per-pass layer metrics plus the tracing overhead.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and details.

The program is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# One BLAS thread for every workload: two-thread runs on a 2-core machine
# were not repeatable.  This must happen before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# import probes before and after the workload, so that set-up time samples
# two moments of a machine whose speed drifts
SETUP_REPEATS = 8
IMPORT_PROBE = ("import time; t = time.perf_counter(); import jacobilab.cli; "
                "print(time.perf_counter() - t)")
# a percentile is reported only with at least this many ops beyond it
MIN_TAIL_OPS = 10
# spans every workload enters.  Elsewhere a span's self time would read 0 on
# every run of some workload, so those go to the detail line only.
SELF_TIME_SPANS = ("spectral.solve", "spectral.assemble_fourier", "spectral.eigh",
                   "spectral.eigvalsh")
# ops per traced pass that end in the known false anomaly (see workloads.py)
FLAGGED_METRIC = "scenario.false_anomaly.ops"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(repeats: int) -> list[float]:
    """Times of ``import jacobilab.cli`` in ``repeats`` fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=_child_env(), capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip()))
    return times


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and judges ops of one workload, counting failures and wrong values."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.flagged = 0
        self.notes: list[str] = []

    def run_op(self, i: int) -> float:
        """Run op ``i`` once; return its latency.  Judging is not timed."""
        inp = self.workload.make_input(self.seed, i)
        op_dir = self.workdir / f"op{self.attempted}"
        self.attempted += 1
        started = time.perf_counter()
        try:
            output = self.workload.run(inp, op_dir)
        except Exception as exc:  # a refused op is counted, not fatal
            latency = time.perf_counter() - started
            self.failed += 1
            self._note(f"op {i}: {type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - started
        try:
            verdict = self.workload.judge(inp, output, op_dir)
            failed, wrong, flagged = verdict.failed, verdict.wrong, verdict.flagged
        except (OSError, ValueError, KeyError) as exc:  # missing or garbled output
            failed, flagged = [], []
            wrong = [f"unreadable output: {type(exc).__name__}: {exc}"]
        shutil.rmtree(op_dir, ignore_errors=True)
        self.failed += bool(failed)
        self.wrong += bool(wrong)
        self.flagged += bool(flagged)
        for msg in failed + wrong:
            self._note(f"op {i}: {msg}")
        return latency

    def _note(self, msg: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(msg)


def warm_up() -> None:
    """Load lazily initialised code paths (FFT, LAPACK, scenario module)."""
    import numpy as np
    from jacobilab import fields, scenario, spectral

    q = fields.ScalarField1D.from_function(lambda s: 1.0 + 0.2 * np.cos(s), 2 * np.pi)
    spectral.solve(spectral.SpectralProblem(2 * np.pi, 2 * np.pi, q))
    spectral.solve(spectral.SpectralProblem(2 * np.pi, 2 * np.pi, q, truncation=64,
                                            conv_tol=1.0), backend="fd")
    scenario.validate_scenario({})


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    latencies = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        latencies.append(runner.run_op(i))
        i += 1
        if time.perf_counter() >= deadline:
            break
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] \
        if len(latencies) > 1 else p50
    beyond = sum(1 for x in latencies if x > p90)
    size = runner.workload.block_ops
    blocks = [latencies[k:k + size] for k in range(0, len(latencies), size)]
    if len(blocks) > 1 and len(blocks[-1]) < size:
        blocks.pop()
    metrics = {
        # median over blocks of consecutive ops, each block with the same mix
        "ops_per_s": (statistics.median(len(b) / sum(b) for b in blocks), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        # a p90 with fewer than MIN_TAIL_OPS ops beyond it does not measure
        # the tail; such workloads report their median here
        "latency_p90_ms": ((p90 if beyond >= MIN_TAIL_OPS else p50) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"ops": len(latencies), "ops_beyond_p90": beyond,
              "p90_is_median": beyond < MIN_TAIL_OPS}
    return metrics, detail


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from tracing import COUNTERS, SPAN_NAMES, Tracer, traced

    n_ops = runner.workload.block_ops
    deadline = time.perf_counter() + seconds
    passes = []
    flagged_per_pass = []
    while True:
        untraced = sum(runner.run_op(i) for i in range(n_ops))
        flagged_before = runner.flagged
        tracer = Tracer()
        with traced(tracer):
            traced_s = sum(runner.run_op(i) for i in range(n_ops))
        flagged_per_pass.append(runner.flagged - flagged_before)
        passes.append((untraced, traced_s, tracer))
        if time.perf_counter() >= deadline:
            break
    first = passes[0][2]
    repeatable = all(
        all(t.spans[n].calls == first.spans[n].calls for n in first.spans)
        and t.counters() == first.counters() for _, _, t in passes[1:]) \
        and len(set(flagged_per_pass)) == 1

    def med_self(name):
        return statistics.median(t.spans[name].self_s for _, _, t in passes)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first.spans[name].calls, "count")
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = (med_self(name), "s")
    for name, value in first.counters().items():
        metrics[name] = (value, COUNTERS[name])
    metrics[FLAGGED_METRIC] = (flagged_per_pass[0], "count")
    metrics["trace.pass_s"] = (statistics.median(p[1] for p in passes), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p[1] - p[0] for p in passes), "s")
    detail = {
        "passes": len(passes),
        "counts_repeat": repeatable,
        "ops_per_pass": n_ops,
        "span_table": {
            name: {"calls": first.spans[name].calls, "self_s": med_self(name),
                   "total_s": statistics.median(t.spans[name].total_s
                                                for _, _, t in passes)}
            for name in SPAN_NAMES if first.spans[name].calls},
    }
    return metrics, detail


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "jacobilab" / "__init__.py").is_file():
        print(f"error: no jacobilab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jacobilab

    if Path(jacobilab.__file__).resolve().parent != SRC / "jacobilab":
        print(f"error: imported jacobilab from {jacobilab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    # one untimed import writes the bytecode caches a second CLI call finds
    setup = [] if args.trace else measure_setup(1 + SETUP_REPEATS)[1:]
    warm_up()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = Runner(WORKLOADS[args.workload], args.seed, Path(tmp))
        if args.trace:
            metrics, detail = run_traced(runner, args.seconds)
        else:
            metrics, detail = run_untraced(runner, args.seconds)
            setup += measure_setup(SETUP_REPEATS)
            metrics["setup_s"] = (statistics.median(setup), "s")
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  wrong_ops=runner.wrong, known_false_anomaly_ops=runner.flagged,
                  notes=runner.notes,
                  environment=environment())
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
