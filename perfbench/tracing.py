"""Spans around the calls into each jacobilab module, recorded from outside.

``traced(tracer)`` wraps the public functions listed in ``SPANS`` and the
LAPACK calls that ``jacobilab.spectral`` makes through numpy, then restores
everything on exit.  Modules import each other's functions by name (for
example ``scenario`` and ``verification`` import ``solve``), so every
``jacobilab.*`` module attribute that refers to a wrapped function is rebound,
as are the entries of module-level lists such as ``verification.CATALOG``.

A span's self time is its duration minus the time covered by its child
spans.  Computed counters come from the sizes of the eigensolver inputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# module -> public functions that get one span each
SPANS = {
    "scenario": ["run_scenario", "validate_scenario", "build_model", "build_surface",
                 "format_csv", "dumps_deterministic", "write_outputs"],
    "submersion": ["homogeneous_model", "product_model"],
    "warped": ["submersion_from_theta", "parallel_hopf_torus", "bounds_in_theta_form"],
    "surface": ["hopf_torus", "horizontal_slice", "potential_field", "surface_regime",
                "gauss_bonnet_check"],
    "geometry": ["classify_regime"],
    "spectral": ["solve_surface", "solve", "assemble_fourier", "assemble_fd",
                 "solve_torus_2d", "alpha_invariant", "lambda1_identity_check",
                 "rayleigh_quotient"],
    "bounds": ["build_bound_report", "theorem_bound", "equality_classify",
               "corollary_checks", "stability_verdict"],
    "verification": ["check_hopf_spectrum_closed_form", "check_slice_spectrum",
                     "check_curvature_identities", "check_thm_plus_soundness",
                     "check_thm_minus_soundness", "check_alpha_identity",
                     "check_minmax_property", "check_backend_equivalence",
                     "check_warped_example", "check_gauss_bonnet",
                     "check_area_genus_consequence"],
}
# numpy eigensolvers as called from jacobilab.spectral; eigvalsh is the K/2
# convergence estimate
EIG_SPANS = ["spectral.eigh", "spectral.eigvalsh"]
LARGE_EIG = 1024  # eigh inputs at least this large also count in their own span
LARGE_EIGH_SPAN = "spectral.eigh.n_ge_1024"
SPAN_NAMES = ([f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns]
              + EIG_SPANS + [LARGE_EIGH_SPAN])
COUNTERS = {"spectral.eig.n3_sum": "n3", "spectral.eig.bytes": "B",
            "spectral.eig.useful_ratio": "ratio", "spectral.solve.errors": "count"}
# spans whose ``m`` argument says how many eigenvalues the caller keeps
_KEEPERS = ("spectral.solve", "spectral.solve_torus_2d")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("child_s", "keep")

    def __init__(self, keep):
        self.child_s = 0.0
        self.keep = keep


class Tracer:
    """In-memory span statistics and counters of one traced pass."""

    def __init__(self):
        self.spans = {name: SpanStats() for name in SPAN_NAMES}
        self.n3_sum = 0
        self.eig_bytes = 0
        self.eig_kept = 0
        self.eig_computed = 0
        self.solve_errors = 0
        self._stack: list[_Frame] = []

    def _close(self, name: str, frame: _Frame, duration: float) -> None:
        stats = self.spans[name]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration

    def wrap(self, name: str, fn):
        keeps = name in _KEEPERS
        signature = inspect.signature(fn) if keeps else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            keep = None
            if keeps:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                keep = bound.arguments["m"]
            frame = _Frame(keep)
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if name == "spectral.solve":
                    self.solve_errors += 1
                raise
            finally:
                duration = time.perf_counter() - started
                self._stack.pop()
                self._close(name, frame, duration)

        return span

    def wrap_eig(self, name: str, fn, values_only: bool):
        def span(a, *args, **kwargs):
            n = a.shape[0]
            keep = next((f.keep for f in reversed(self._stack) if f.keep is not None), n)
            self.n3_sum += n**3
            self.eig_bytes += 8 * n * n
            self.eig_computed += n
            # the K/2 estimate keeps only the lowest eigenvalue
            self.eig_kept += 1 if values_only else min(keep, n)
            frame = _Frame(None)
            self._stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                duration = time.perf_counter() - started
                self._stack.pop()
                self._close(name, frame, duration)
                if n >= LARGE_EIG and not values_only:
                    large = self.spans[LARGE_EIGH_SPAN]
                    large.calls += 1
                    large.total_s += duration
                    large.self_s += duration - frame.child_s

        return span

    def counters(self) -> dict:
        return {
            "spectral.eig.n3_sum": self.n3_sum,
            "spectral.eig.bytes": self.eig_bytes,
            "spectral.eig.useful_ratio":
                self.eig_kept / self.eig_computed if self.eig_computed else 0.0,
            "spectral.solve.errors": self.solve_errors,
        }


class _Delegate:
    """Attribute proxy: the given overrides, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _swap(value, replacements):
    """``value`` with wrapped functions substituted, or None if it holds none.

    Looks at plain attributes and at lists of tuples such as
    ``verification.CATALOG``.
    """
    if callable(value):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None
    if isinstance(value, list) and value and all(isinstance(v, tuple) for v in value):
        swapped = [tuple(_swap(x, replacements) or x for x in v) for v in value]
        return swapped if swapped != value else None
    return None


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install ``tracer``'s spans into every loaded jacobilab module."""
    replacements = {}
    for mod_name, fns in SPANS.items():
        module = importlib.import_module(f"jacobilab.{mod_name}")
        for fn_name in fns:
            original = getattr(module, fn_name)
            replacements[id(original)] = (original,
                                          tracer.wrap(f"{mod_name}.{fn_name}", original))
    restore = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "jacobilab" or name.startswith("jacobilab.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            new = _swap(value, replacements)
            if new is not None:
                restore.append((module, key, value))
                setattr(module, key, new)
    spectral = sys.modules["jacobilab.spectral"]
    np_real = spectral.np
    linalg = _Delegate(np_real.linalg,
                       eigh=tracer.wrap_eig("spectral.eigh", np_real.linalg.eigh, False),
                       eigvalsh=tracer.wrap_eig("spectral.eigvalsh",
                                                np_real.linalg.eigvalsh, True))
    restore.append((spectral, "np", np_real))
    spectral.np = _Delegate(np_real, linalg=linalg)
    try:
        yield tracer
    finally:
        for module, key, old in reversed(restore):
            setattr(module, key, old)
