import numpy as np
import pytest

from cmldde import ModelParams, _kernels, dde_sim


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # trigger JIT compilation once so timed tests measure the numerics only
    _kernels.warmup()


@pytest.fixture(scope="session")
def p3():
    """Reference operating point in the bistable zone (r, delta) = (7.55, 0.0015)."""
    return ModelParams(n=2, beta0=2.5, delta=0.0015, k=1.01, r=7.55)


@pytest.fixture(scope="session")
def hopf_example():
    """(n, beta0, k, delta) of the worked supercritical-threshold example."""
    return 12.0, 1.77, 1.18074, 0.05


def sample_params(rng, n_range=(1.0, 12.0), r_range=(0.1, 20.0), delta_range=(0.002, 0.3)):
    """Random valid parameter set with a positive equilibrium."""
    while True:
        p = ModelParams(
            n=rng.uniform(*n_range),
            beta0=rng.uniform(0.3, 2.5),
            delta=rng.uniform(*delta_range),
            k=rng.uniform(1.02, 1.98),
            r=rng.uniform(*r_range),
        )
        if p.renewal_ratio > 1.0:
            return p


class HoledHistory(dde_sim.History):
    """1 on [-r, 0] except NaN on (-0.87 r, -0.73 r), the stretch a NaN sample at
    s = -0.8 r spoils; the packaged histories reject non-finite data, so tests of
    the integrators' non-finite detection build it on the bare History."""

    def __init__(self, r):
        self.r = r

    def value(self, s):
        return np.where((s > -0.87 * self.r) & (s < -0.73 * self.r), np.nan, 1.0)

    def derivative(self, s):
        return np.zeros_like(s)
