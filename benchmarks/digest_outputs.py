"""SHA-256 digests of the scenario outputs and of the verify catalog.

Usage (from the repository root):

    python3 benchmarks/digest_outputs.py
    python3 benchmarks/digest_outputs.py --src OTHER_CHECKOUT/src

Runs ``jacobilab run`` in-process, with the package under ``--src``, on the
600 ``scenario_batch`` documents of seeds 101-110 (ops 0-59 each, built by
``perfbench/workloads.py``, which is only imported), on
``scenarios/*.json`` and on the ``EXTRA`` documents below, which reach the
schema forms that neither of those uses.  Each document writes into its own
directory.  The
first printed line holds the SHA-256 over every file's relative path and
bytes, in sorted path order, the file count and the tally of exit codes.
Two checkouts whose lines are equal wrote the same bytes and exited alike
on every document.  The second line holds the same SHA-256 and count over
the CSV files alone, so that a change to the report format can show that no
series moved.

A third line holds one SHA-256 over ``name``, ``passed`` and ``detail`` of
every ``run_checks(seed=seed)`` result for the seeds in ``VERIFY_SEEDS``, in
``CATALOG`` order, without the elapsed time, and the pass tally.  BLAS is
pinned to one thread before numpy loads, as in the perfbench harness.

Then follows one ``name exit_code sha256`` line per document, in run order,
where the SHA-256 covers that document's own files as above (a document that
writes nothing digests to the SHA-256 of no bytes).  Last comes one
``verify seed name passed detail`` line per check of the third line, in the
same order.  Two checkouts can then be compared document by document and
check by check with ``diff``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)
OPS = range(60)
VERIFY_SEEDS = (20260810, 1, 2, 3)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
_ARCTAN_GRID = [0.25 + 3.75 * i / 64 for i in range(65)]
_SWEEP = {"start": 0.5, "stop": 1.75, "step": 0.25}
# name -> (model, surface, outputs) of the documents that the scenario_batch
# workload and the shipped scenarios leave out: sin terms, 500 samples, a
# surface tau that restates the model's, sampled and constant profiles, a
# sweep whose every row is NULL, slices with a kappa document, a
# positive-regime parallel above pi/4 whose theta-form bounds are refused,
# and the inputs that contradict the model or that a model field that varies
# makes invalid
EXTRA = {
    "product_sin_tau": (
        {"kind": "product", "fiber_length": TWO_PI, "samples": 500,
         "kappa": {"mean": 1.0, "cos": [0.2], "sin": [0.1, 0.05]}},
        {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.3,
         "samples": 500, "kappa": {"mean": 1.0, "cos": [0.2], "sin": [0.1, 0.05]},
         "tau": {"mean": 0.4, "sin": [0.05]}},
        {"series": ["potential", "ground_state", "convergence"]}),
    "product_sin": (
        {"kind": "product", "fiber_length": TWO_PI, "samples": 500,
         "kappa": {"mean": 1.0, "cos": [0.2], "sin": [0.1, 0.05]}},
        {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.3,
         "samples": 500},
        {"series": ["potential", "ground_state", "convergence"]}),
    "berger_contradiction": (
        {"kind": "homogeneous", "kappa": 4.0, "tau": 0.5, "fiber_length": TWO_PI},
        {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.0,
         "kappa": {"mean": 1.0, "cos": [0.3]}, "tau": {"constant": 0.0}},
        {}),
    "product_curve_not_base_circle": (
        {"kind": "product", "fiber_length": TWO_PI, "kappa": {"mean": 1.0, "cos": [0.3]}},
        {"type": "hopf_torus", "curve_length": 3.0, "geodesic_curvature": 0.0},
        {}),
    "berger_tau_field": (
        {"kind": "homogeneous", "kappa": 4.0, "tau": 0.5, "fiber_length": TWO_PI},
        {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.0,
         "tau": {"constant": 0.5}},
        {"series": ["convergence"]}),
    "product_varying_kappa_no_curve_kappa": (
        {"kind": "product", "fiber_length": TWO_PI, "kappa": {"mean": 1.0, "sin": [0.2]}},
        {"type": "hopf_torus", "curve_length": TWO_PI, "geodesic_curvature": 0.0},
        {}),
    "sampled_profile_sweep": (
        {"kind": "warped", "window": [0.5, 3.0], "samples": 129,
         "profile": {"kind": "sampled", "interval": [0.25, 4.0],
                     "theta": [0.5 * math.atan(x) for x in _ARCTAN_GRID]}},
        {"type": "hopf_torus", "parallel": 1.0},
        {"series": ["potential"], "sweep": _SWEEP}),
    "convex_profile_above_quarter_pi": (
        {"kind": "warped", "window": [0.25, 1.75],
         "profile": {"kind": "sampled", "interval": [0.0, 2.0],
                     "theta": [math.pi / 4 + 0.1 + 0.05 * (i / 20) ** 2
                               for i in range(41)]}},
        {"type": "hopf_torus", "parallel": 1.0},
        {}),
    "constant_profile_sweep": (
        {"kind": "warped", "window": [0.25, 4.0], "profile": {"kind": "constant", "value": 0.5}},
        {"type": "hopf_torus", "parallel": 1.0},
        {"sweep": _SWEEP}),
    "constant_profile_slice": (
        {"kind": "warped", "window": [0.25, 4.0], "profile": {"kind": "constant", "value": 0.5}},
        {"type": "horizontal_slice", "base_area": 5.0, "genus": 1},
        {}),
    "slice_constant_kappa": (
        {"kind": "homogeneous", "kappa": -1.0, "tau": 0.0, "fiber_length": TWO_PI},
        {"type": "horizontal_slice", "base_area": FOUR_PI, "genus": 2,
         "kappa": {"constant": -1.0}},
        {"series": ["ground_state"]}),
    "slice_weighted_kappa": (
        {"kind": "homogeneous", "kappa": 1.0, "tau": 0.0, "fiber_length": TWO_PI},
        {"type": "horizontal_slice", "base_area": FOUR_PI, "genus": 0,
         "kappa": {"values": [0.5, 1.5, 1.0], "weights": [FOUR_PI / 3] * 3}},
        {}),
    "slice_varying_kappa_no_descriptor": (
        {"kind": "product", "fiber_length": None, "kappa": {"mean": 1.0, "cos": [0.3]}},
        {"type": "horizontal_slice", "base_area": FOUR_PI, "genus": 0},
        {}),
}


def documents(workloads) -> list[tuple[str, dict]]:
    """(directory name, document) of every digested run, in run order."""
    docs = [(f"seed{seed}_op{i:02d}", workloads.scenario_input(seed, i)["doc"])
            for seed in SEEDS for i in OPS]
    docs += [(f"shipped_{path.stem}", json.loads(path.read_text()))
             for path in sorted((ROOT / "scenarios").glob("*.json"))]
    docs += [(f"extra_{name}", {"version": 1, "name": name, "model": model,
                                "surface": surface, "outputs": outputs})
             for name, (model, surface, outputs) in EXTRA.items()]
    return docs


def digest(out: Path, pattern: str = "*") -> tuple[str, int]:
    """SHA-256 over (relative path, size, bytes) of every file under ``out``
    whose name matches ``pattern``."""
    sha = hashlib.sha256()
    files = sorted(p for p in out.rglob(pattern) if p.is_file())
    for p in files:
        data = p.read_bytes()
        sha.update(f"{p.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest(), len(files)


def verify_digest(verification) -> tuple[str, list[str]]:
    """The verify line, a SHA-256 over every check's name, verdict and
    detail, and one ``verify seed name passed detail`` line per check."""
    sha = hashlib.sha256()
    lines = []
    passed = 0
    for seed in VERIFY_SEEDS:
        for r in verification.run_checks(seed=seed):
            sha.update(f"{r.name}\0{r.passed}\0{r.detail}\0".encode())
            lines.append(f"verify {seed} {r.name} {r.passed} {r.detail}")
            passed += r.passed
    seeds = " ".join(map(str, VERIFY_SEEDS))
    return (f"verify sha256 {sha.hexdigest()}  seeds {seeds}  "
            f"checks passed {passed}/{len(lines)}"), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the jacobilab package to run")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import workloads
    from jacobilab import cli, verification

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, doc in documents(workloads):
            scenario_path = tmp / "in" / f"{name}.json"
            scenario_path.parent.mkdir(exist_ok=True)
            scenario_path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", str(scenario_path), "--out", str(tmp / "out" / name)])
            runs.append((name, code, digest(tmp / "out" / name)[0]))
        sha, count = digest(tmp / "out")
        csv_sha, csv_count = digest(tmp / "out", "*.csv")
    tally = collections.Counter(code for _, code, _ in runs)
    codes = " ".join(f"{code}x{n}" for code, n in sorted(tally.items()))
    print(f"sha256 {sha}  files {count}  documents {len(runs)}  exit codes {codes}")
    print(f"csv sha256 {csv_sha}  files {csv_count}")
    verify_line, check_lines = verify_digest(verification)
    print(verify_line)
    for name, code, doc_sha in runs:
        print(f"{name} {code} {doc_sha}")
    print("\n".join(check_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
