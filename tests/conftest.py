import hypothesis
import numpy as np
import pytest
from scipy import integrate

from psdalloc.objectives import h_prime

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
# a deeper run of the same properties, for CI: pytest --hypothesis-profile=deep
hypothesis.settings.register_profile(
    "deep", deadline=None, max_examples=1000, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def _gs_value_reference(s, u):
    """G_S(u) = int_0^u gs'(w) dw by scipy quad, independent of psdalloc.budget.

    With the order of the nested integral swapped,
    int_0^u int_0^w exp(r (w - v)) h'(theta v) dv dw
        = int_0^u h'(theta v) expm1(r (u - v)) / r dv.
    """
    if u <= 0.0:
        return 0.0
    r = s.rate
    val, _ = integrate.quad(
        lambda v: h_prime(s.objective, s.theta * v) * np.expm1(r * (u - v)) / r,
        0.0, u, epsabs=1e-13, epsrel=1e-13, limit=200)
    return -(s.gamma * s.theta / (s.B * (np.e - 1.0))) * val


@pytest.fixture(scope="session")
def gs_value_reference():
    return _gs_value_reference
