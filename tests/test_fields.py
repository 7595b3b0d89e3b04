import numpy as np
import pytest

from jacobilab import FieldError, ScalarField1D
from jacobilab.fields import is_constant


def test_periodic_grid_excludes_endpoint():
    f = ScalarField1D.constant(1.0, period=2.0, n=8)
    assert f.grid[0] == 0.0
    assert f.grid[-1] == pytest.approx(2.0 - f.spacing)
    assert f.spacing == pytest.approx(0.25)


def test_interval_grid_includes_endpoints():
    f = ScalarField1D.on_interval(np.linspace(0, 1, 9), (0.0, 1.0))
    assert f.grid[0] == 0.0 and f.grid[-1] == 1.0
    assert f.spacing == pytest.approx(1.0 / 8.0)


def test_rejects_too_few_samples():
    with pytest.raises(FieldError):
        ScalarField1D.periodic([1.0, 2.0], 1.0)


def test_rejects_nan_and_bad_domains():
    with pytest.raises(FieldError):
        ScalarField1D.periodic([np.nan] * 8, 1.0)
    with pytest.raises(FieldError):
        ScalarField1D.periodic(np.ones(8), -1.0)
    with pytest.raises(FieldError):
        ScalarField1D(np.ones(8), period=1.0, interval=(0.0, 1.0))
    with pytest.raises(FieldError):
        ScalarField1D(np.ones(8))


def test_samples_are_immutable():
    f = ScalarField1D.constant(1.0, period=1.0)
    with pytest.raises(ValueError):
        f.samples[0] = 2.0


def test_spectral_derivative_of_sin():
    f = ScalarField1D.from_function(np.sin, 2 * np.pi, n=256)
    d = f.derivative()
    assert np.max(np.abs(d.samples - np.cos(f.grid))) < 1e-12


def test_central_richardson_on_interval_endpoints():
    f = ScalarField1D.on_interval(np.linspace(0.0, 1.0, 101) ** 2, (0.0, 1.0))
    d = f.derivative()
    assert np.max(np.abs(d.samples - 2.0 * f.grid)) < 1e-8


def test_resample_band_limited_is_exact():
    f = ScalarField1D.from_function(lambda s: 1 + np.cos(s) + 0.5 * np.sin(2 * s),
                                    2 * np.pi, n=64)
    g = f.resampled(256)
    expect = 1 + np.cos(g.grid) + 0.5 * np.sin(2 * g.grid)
    assert np.max(np.abs(g.samples - expect)) < 1e-13


def test_is_constant():
    assert ScalarField1D.constant(3.0, 1.0).is_constant()
    assert not ScalarField1D.from_function(np.cos, 2 * np.pi).is_constant()
    # the array form also takes the 1-element samples of constant slices
    assert is_constant(np.array([-2.5]))
    assert not is_constant(np.array([1.0, 1.0 + 1e-6]))


def test_same_grid():
    a = ScalarField1D.constant(1.0, 2 * np.pi, 64)
    b = ScalarField1D.constant(2.0, 2 * np.pi, 64)
    c = ScalarField1D.constant(2.0, 1.0, 64)
    assert a.same_grid(b)
    assert not a.same_grid(c)
    assert not a.same_grid(ScalarField1D.constant(1.0, 2 * np.pi, 128))
