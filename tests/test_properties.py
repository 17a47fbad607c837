"""Invariants of the sinusoid model, pinned as properties of the default
pipeline (under ``skip_screen``, so every drawn record is estimated).

With x(t) = A*sin(2*pi*f*t + phi):
* scaling the samples by 2**k scales A by 2**k and leaves f and phi
  alone; a power of two scales every sum exactly, so bit for bit;
* negating the samples leaves f alone and moves phi by pi (the grid
  phases of x and -x differ by pi only to within a refine step);
* scaling dt by 2**j scales f by 2**-j and leaves phi alone, bit for bit;
* shifting the record's start time by s moves phi by -2*pi*f*s, to
  within a refine step, under the full_record objective (the one_period
  window moves with the start time, so it sums over other samples).

The gate-1 runs split, which the partition decides on most records, is
pinned against a reference that gathers the kept signs on every record,
on arbitrary finite arrays.

No finite record ends in a traceback: on white noise, quantised samples
with ties, tones at any f <= 0.5 cycles per sample and sparse spikes,
scaled by 10**k for |k| <= 150 and sampled every 10**[-300, 300] s, the
screen, the estimate with every report field read and the JSON payload
each return or raise ``ValueError`` under the four configs of
``scripts/same_outputs.py`` (pytest turns a ``RuntimeWarning`` into a
failure).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import sinefit as sf
from sinefit import io, screening
from sinefit.estimate import REFINE_STEP
from sinefit.model import standard_normal_draws
from test_gate1 import _gathered_runs_statistics

CONFIG = sf.PipelineConfig(skip_screen=True)
FULL_RECORD = sf.PipelineConfig(skip_screen=True, objective_range="full_record")


@st.composite
def demo_like_tones(draw):
    """Noisy tones near the demo one: A = 1..4, 2 to 20 cycles per 100
    samples, any phase, sigma = 0.5, N = 64..1000, seeded noise."""
    params = sf.SinusoidParams(draw(st.floats(1.0, 4.0)), draw(st.floats(0.02, 0.2)),
                               draw(st.floats(-math.pi, math.pi, exclude_max=True)))
    n = draw(st.integers(64, 1000))
    return sf.synthesize(params, sf.NoiseSpec(0.5, draw(st.integers(0, 2 ** 32 - 1))), n)


def phase_gap(a, b):
    return abs(sf.wrap_phase(a - b))


@given(demo_like_tones(), st.integers(-100, 100))
def test_scaling_by_a_power_of_two_scales_only_the_amplitude(record, k):
    scaled = sf.TimeSeries(record.start_time, record.dt, record.samples * 2.0 ** k)
    base = sf.estimate_parameters(record, CONFIG).params
    got = sf.estimate_parameters(scaled, CONFIG).params
    assert got.amplitude == base.amplitude * 2.0 ** k
    assert got.frequency_hz == base.frequency_hz
    assert got.phase_rad == base.phase_rad


@given(demo_like_tones())
def test_negating_moves_the_phase_by_pi(record):
    negated = sf.TimeSeries(record.start_time, record.dt, -record.samples)
    base = sf.estimate_parameters(record, CONFIG).params
    got = sf.estimate_parameters(negated, CONFIG).params
    assert got.frequency_hz == base.frequency_hz
    assert got.amplitude == base.amplitude
    assert phase_gap(got.phase_rad, base.phase_rad + math.pi) <= REFINE_STEP


@given(demo_like_tones(), st.integers(-100, 100))
@pytest.mark.parametrize("config", [CONFIG, FULL_RECORD], ids=["one_period", "full_record"])
def test_rescaling_dt_leaves_f_dt_and_the_phase(config, record, j):
    dt = 2.0 ** j
    rescaled = sf.TimeSeries(record.start_time * dt, dt, record.samples)
    base = sf.estimate_parameters(record, config).params
    got = sf.estimate_parameters(rescaled, config).params
    assert got.frequency_hz * dt == base.frequency_hz
    assert got.phase_rad == base.phase_rad


@given(demo_like_tones(), st.floats(-1000.0, 1000.0))
def test_shifting_the_start_time_moves_the_phase_by_minus_omega_s(record, s):
    shifted = sf.TimeSeries(s, record.dt, record.samples)
    base = sf.estimate_parameters(record, FULL_RECORD).params
    got = sf.estimate_parameters(shifted, FULL_RECORD).params
    assert got.frequency_hz == base.frequency_hz
    assert phase_gap(got.phase_rad, base.phase_rad - 2.0 * math.pi * got.frequency_hz * s) \
        <= REFINE_STEP


# (lower + upper) / 2 of any two of these stays finite, as np.median's does.
FINITE = st.floats(-1e300, 1e300)


@st.composite
def runs_test_samples(draw):
    """N = 20..201 finite samples, even and odd N: arbitrary floats, a few
    values repeated (ties at the median), or samples whose two middle
    values are adjacent floats, so that their mean rounds onto one."""
    n = draw(st.integers(20, 201))
    kind = draw(st.sampled_from(["floats", "duplicates", "adjacent"]))
    if kind == "floats":
        return np.array(draw(st.lists(FINITE, min_size=n, max_size=n)))
    if kind == "duplicates":
        pool = draw(st.lists(FINITE, min_size=1, max_size=4))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    lower = draw(st.floats(-1e6, 1e6))
    upper = float(np.nextafter(lower, np.inf))
    below = draw(st.lists(st.floats(-1e6, lower), min_size=n // 2 - 1, max_size=n // 2 - 1))
    above = draw(st.lists(st.floats(upper, 1e6), min_size=n - n // 2 - 1,
                          max_size=n - n // 2 - 1))
    return np.array(draw(st.permutations(below + [lower, upper] + above)))


@given(runs_test_samples())
def test_runs_split_equals_the_gathering_reference(x):
    record = sf.TimeSeries(0.0, 1.0, x)
    median = np.median(x)
    n1, n2 = int(np.count_nonzero(x > median)), int(np.count_nonzero(x < median))
    if n1 == 0 or n2 == 0 or n1 + n2 == 2:  # one sample on each side: the runs variance is 0
        with pytest.raises(ValueError, match="degenerate dichotomy"):
            screening._runs_statistics(record)
        return
    assert screening._runs_statistics(record) == _gathered_runs_statistics(x)


SAME_OUTPUTS_CONFIGS = [sf.PipelineConfig(), sf.PipelineConfig(objective_range="full_record"),
                        sf.PipelineConfig(ma_k=1), sf.PipelineConfig(skip_screen=True)]


@st.composite
def any_records(draw):
    """N = 2..400 samples of one family, scaled by 10**k, every 10**e s."""
    n, seed = draw(st.integers(2, 400)), draw(st.integers(0, 2 ** 32 - 1))
    kind = draw(st.sampled_from(["white", "quantised", "tone", "spikes"]))
    if kind == "white":
        x = standard_normal_draws(seed, n)
    elif kind == "quantised":  # a few levels, so many ties at the median
        x = np.round(draw(st.floats(0.1, 3.0)) * standard_normal_draws(seed, n))
    elif kind == "tone":
        params = sf.SinusoidParams(1.0, draw(st.floats(0.0, 0.5, exclude_min=True)),
                                   draw(st.floats(-math.pi, math.pi, exclude_max=True)))
        x = sf.synthesize(params, sf.NoiseSpec(draw(st.floats(0.0, 2.0)), seed), n).samples
    else:
        x = np.zeros(n)
        spikes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        x[spikes] = draw(st.lists(st.sampled_from([-1.0, 1.0, 2.5]),
                                  min_size=len(spikes), max_size=len(spikes)))
    scale = 10.0 ** draw(st.integers(-150, 150))
    return sf.TimeSeries(0.0, 10.0 ** draw(st.floats(-300.0, 300.0)), scale * x)


def read_every_field(report):
    for name in dir(report):
        if not name.startswith("_"):
            getattr(report, name)
    io.report_to_dict(report)


# dt * |x| past float max: the crossing interpolation used to overflow
@example(sf.TimeSeries(0.0, 1e300, 1e100 * sf.synthesize(
    sf.SinusoidParams(2.0, 0.05, 0.6109), sf.NoiseSpec(0.5, 3), 300).samples))
@given(any_records())
def test_no_record_ends_in_a_traceback(record):
    for config in SAME_OUTPUTS_CONFIGS:
        for stage in (lambda: sf.screen(record, config.far),
                      lambda: read_every_field(sf.estimate_parameters(record, config))):
            try:
                stage()
            except ValueError:
                pass
