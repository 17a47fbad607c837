import math
import os

import numpy as np
import pytest
from hypothesis import settings

import sinefit as sf
from sinefit.model import standard_normal_draws

# pyproject.toml puts src/ on sys.path for this process; the CLI tests'
# subprocesses find the package through PYTHONPATH.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

# derandomize: every run draws the same examples, so the tier-1 count repeats
settings.register_profile("default", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("default")

# The running example used throughout: A=2, f=0.05 Hz, phi=35 degrees,
# N=100 samples at dt=1 with sigma=0.5 Gaussian noise.
AMPLITUDE = 2.0
FREQUENCY = 0.05
PHASE = 0.6109
PHASE_EXACT = 7.0 * math.pi / 36.0
SIGMA = 0.5
N = 100

# Non-finite sample patterns every record consumer must reject: NaN, +inf,
# -inf, and +inf beside -inf (their sum is NaN, not inf).
NON_FINITE = {"nan": [math.nan], "+inf": [math.inf], "-inf": [-math.inf],
              "+-inf": [math.inf, -math.inf]}


def with_non_finite(kind, n):
    """A sine record of n samples with the NON_FINITE[kind] run at index 7."""
    x = np.sin(0.3 * np.arange(n))
    bad = NON_FINITE[kind]
    x[7:7 + len(bad)] = bad
    return sf.TimeSeries(0.0, 1.0, x)


@pytest.fixture(scope="session")
def demo_params():
    return sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE)


@pytest.fixture(scope="session")
def noisy_series():
    """Factory for seeded noisy records of the demo configuration."""

    def make(seed, sigma=SIGMA, n=N):
        params = sf.SinusoidParams(AMPLITUDE, FREQUENCY, PHASE)
        return sf.synthesize(params, sf.NoiseSpec(sigma=sigma, seed=seed), n)

    return make


@pytest.fixture(scope="session")
def pure_noise():
    """Factory for seeded signal-free Gaussian records."""

    def make(seed, sigma=1.0, n=N):
        return sf.TimeSeries(0.0, 1.0, sigma * standard_normal_draws(seed, n))

    return make


@pytest.fixture(scope="session")
def pipeline_reports(noisy_series):
    """Default-config pipeline runs over 100 fixed seeds, shared by the
    Monte Carlo tests and the acceptance suite."""
    config = sf.PipelineConfig()
    return [sf.estimate_parameters(noisy_series(seed), config)
            for seed in range(100)]
