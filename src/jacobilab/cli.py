"""Command-line front end: run scenario files, verify the built-in catalog.

Exit codes for ``run``: 0 on success, 1 on input errors (schema violations,
inconsistent geometry, solver non-convergence), 2 when a report contains a
bound violation or an intrinsic-mode equality anomaly.  ``verify`` exits 0
exactly when every selected check passes; a rejected command line exits 1.
``run`` always solves with the Fourier backend; the fd oracle is reached
only through ``spectral.solve(..., backend="fd")``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import JacobilabError, ScenarioError
from .scenario import (EXIT_INPUT_ERROR, load_scenario, run_scenario,
                       write_outputs)
from .submersion import GradientMode
from .verification import DEFAULT_SEED, run_checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobilab",
        description="Stability spectra and eigenvalue bounds for surfaces in "
                    "Killing submersions")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="Run a scenario file and write reports")
    run_cmd.add_argument("scenario", help="Path to a scenario JSON file")
    run_cmd.add_argument("--out", default=None,
                         help="Output directory (default: $JACOBILAB_OUT or '.')")
    run_cmd.add_argument("--gradient-mode",
                         choices=[m.value for m in GradientMode], default=None,
                         help="Override the |grad tau| interpretation")
    run_cmd.add_argument("--truncation", type=int, default=None,
                         help="Override the solver truncation")

    verify_cmd = sub.add_parser("verify",
                                help="Run the built-in verification catalog")
    verify_cmd.add_argument("--filter", default=None,
                            help="Only run checks whose name contains this substring")
    verify_cmd.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                            help="Seed for sampled checks (a non-negative integer)")
    return parser


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only non-negative integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _cmd_run(args) -> int:
    try:
        doc = load_scenario(args.scenario)
        outcome = run_scenario(doc, gradient_mode=args.gradient_mode,
                               truncation=args.truncation)
        paths = write_outputs(outcome, args.out)
    except ScenarioError as exc:
        for path in exc.paths:
            print(f"error: {path}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (JacobilabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    for p in paths:
        print(p)
    for note in outcome.report["anomalies"]:
        print(f"anomaly: {note}", file=sys.stderr)
    return outcome.exit_code


def _cmd_verify(args) -> int:
    results = run_checks(name_filter=args.filter, seed=args.seed)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.elapsed:7.2f}s  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 is EXIT_ANOMALY here
        return EXIT_INPUT_ERROR if exc.code else 0
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
