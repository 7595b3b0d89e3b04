"""Uniformly sampled scalar fields over a circle or an interval.

All heavier machinery (differentiation, resampling) lives here so
the geometric modules can stay close to their formulas.  Periodic fields are
sampled at ``s_j = j * period / n`` (endpoint excluded); interval fields
include both endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FieldError

MIN_SAMPLES = 8


@dataclass(frozen=True)
class ScalarField1D:
    """Real scalar field on a uniform 1D grid.

    Exactly one of ``period`` (circle of that circumference) and ``interval``
    (closed interval, endpoints included in the grid) is set.
    """

    samples: np.ndarray
    period: float | None = None
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1 or arr.size < MIN_SAMPLES:
            raise FieldError(f"need a 1D field with >= {MIN_SAMPLES} samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FieldError("field samples must be finite")
        if (self.period is None) == (self.interval is None):
            raise FieldError("exactly one of period/interval must be set")
        if self.period is not None and not (math.isfinite(self.period) and self.period > 0):
            raise FieldError(f"period must be positive and finite, got {self.period}")
        if self.interval is not None:
            a, b = self.interval
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise FieldError(f"invalid interval {self.interval}")
            object.__setattr__(self, "interval", (float(a), float(b)))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    # --- constructors -----------------------------------------------------

    @staticmethod
    def periodic(samples, period: float) -> "ScalarField1D":
        return ScalarField1D(np.asarray(samples, dtype=float), period=float(period))

    @staticmethod
    def on_interval(samples, interval: tuple[float, float]) -> "ScalarField1D":
        return ScalarField1D(np.asarray(samples, dtype=float), interval=interval)

    @staticmethod
    def constant(value: float, period: float, n: int = 512) -> "ScalarField1D":
        return ScalarField1D(np.full(n, float(value)), period=float(period))

    @staticmethod
    def from_function(fn, period: float, n: int = 512) -> "ScalarField1D":
        grid = np.arange(n) * (float(period) / n)
        return ScalarField1D(np.asarray(fn(grid), dtype=float), period=float(period))

    # --- grid geometry ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    @property
    def spacing(self) -> float:
        if self.period is not None:
            return self.period / self.n
        a, b = self.interval
        return (b - a) / (self.n - 1)

    @property
    def grid(self) -> np.ndarray:
        if self.period is not None:
            return np.arange(self.n) * (self.period / self.n)
        a, b = self.interval
        return np.linspace(a, b, self.n)

    def same_grid(self, other: "ScalarField1D") -> bool:
        return (
            self.n == other.n
            and self.is_periodic == other.is_periodic
            and (
                math.isclose(self.period, other.period, rel_tol=1e-12)
                if self.is_periodic
                else (
                    math.isclose(self.interval[0], other.interval[0], rel_tol=1e-12, abs_tol=1e-300)
                    and math.isclose(self.interval[1], other.interval[1], rel_tol=1e-12, abs_tol=1e-300)
                )
            )
        )

    # --- calculus ---------------------------------------------------------

    def derivative(self) -> "ScalarField1D":
        """First derivative on the same grid.

        Periodic fields use spectral (FFT) differentiation; interval fields
        fourth-order Richardson-extrapolated central differences with
        one-sided stencils at the ends.
        """
        if self.is_periodic:
            return ScalarField1D(_spectral_derivative(self.samples, self.period),
                                 period=self.period)
        return ScalarField1D(_central_richardson_derivative(self.samples, self.spacing),
                             interval=self.interval)

    def map(self, fn) -> "ScalarField1D":
        return ScalarField1D(np.asarray(fn(self.samples), dtype=float),
                             period=self.period, interval=self.interval)

    def is_constant(self, tol: float = 1e-9) -> bool:
        return is_constant(self.samples, tol)

    def resampled(self, n: int) -> "ScalarField1D":
        """Trigonometric resampling of a periodic field onto ``n`` points."""
        if not self.is_periodic:
            raise FieldError("resampling is only defined for periodic fields")
        if n == self.n:
            return self
        c = np.fft.rfft(self.samples) / self.n
        out = np.zeros(n // 2 + 1, dtype=complex)
        keep = min(c.size, out.size)
        out[:keep] = c[:keep]
        if self.n % 2 == 0 and keep == c.size and c.size - 1 < out.size:
            out[c.size - 1] *= 0.5  # split the Nyquist mode when upsampling
        return ScalarField1D(np.fft.irfft(out * n, n), period=self.period)


def is_constant(samples: np.ndarray, tol: float = 1e-9) -> bool:
    """Spread of the samples within ``tol`` relative to max(1, |extremes|)."""
    lo, hi = float(np.min(samples)), float(np.max(samples))
    return hi - lo <= tol * max(1.0, abs(lo), abs(hi))


def _spectral_derivative(samples: np.ndarray, period: float) -> np.ndarray:
    n = samples.size
    c = np.fft.rfft(samples)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)
    d = 1j * k * c
    if n % 2 == 0:
        d[-1] = 0.0  # derivative of the unresolved Nyquist mode
    return np.fft.irfft(d, n)


def _central_richardson_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    f = samples

    def central(step: int) -> np.ndarray:
        d = np.empty_like(f)
        d[step:-step] = (f[2 * step:] - f[:-2 * step]) / (2 * step * h)
        d[:step] = np.nan
        d[-step:] = np.nan
        return d

    out = (4.0 * central(1) - central(2)) / 3.0
    # second-order one-sided stencils near the endpoints
    for i in range(2):
        out[i] = (-3 * f[i] + 4 * f[i + 1] - f[i + 2]) / (2 * h)
        j = f.size - 1 - i
        out[j] = (3 * f[j] - 4 * f[j - 1] + f[j - 2]) / (2 * h)
    return out
