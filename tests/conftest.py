import numpy as np
import pytest

from jacobilab import classify_regime


def ulp_tol(n_ulps, *scales):
    """Absolute tolerance of n ulps at the magnitude of the given scales."""
    scale = max(float(np.max(np.abs(s))) for s in scales)
    return n_ulps * np.spacing(scale)


def base_regime(model):
    """Regime of kappa - 4 tau^2 over a model's sampled base parameter."""
    return classify_regime(model.kappa_field.samples, model.tau_field.samples)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
