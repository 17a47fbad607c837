"""Work that gives the same answer every time is done once: the phase
grid's trig tables per process, the gate-1 quantile per false-alarm rate,
the full-model ACF on first read, and the median's selection per record."""

import math

import numpy as np
import pytest

import sinefit as sf
from sinefit import estimate, screening
from sinefit.estimate import COARSE_STEP, REFINE_STEP
from sinefit.normal import normal_quantile


def fresh_table(phis):
    return [phis, np.cos(phis), np.sin(phis), np.cos(2.0 * phis), np.sin(2.0 * phis)]


def assert_same_bits(table, expected):
    assert len(table) == len(expected)
    for column, reference in zip(table, expected):
        assert column.dtype == reference.dtype and column.shape == reference.shape
        assert column.tobytes() == reference.tobytes()


class TestPhaseTables:
    def test_coarse_table_is_the_fresh_grid_bit_for_bit(self):
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        assert coarse.size == 629
        assert_same_bits(estimate._COARSE, fresh_table(coarse))

    def test_every_refine_table_is_the_fresh_grid_bit_for_bit(self):
        coarse = np.arange(-math.pi, math.pi, COARSE_STEP)
        for cell, phi0 in enumerate(coarse.tolist()):
            refine = np.arange(phi0 - COARSE_STEP, phi0 + COARSE_STEP + REFINE_STEP / 2,
                               REFINE_STEP)
            assert refine.size == 21
            assert_same_bits(estimate._refine_table(cell), fresh_table(refine))

    def test_refine_tables_are_built_once_and_kept(self):
        assert estimate._refine_table(100) is estimate._refine_table(100)
        assert estimate._refine_table.cache_info().currsize <= 629

    def test_tables_are_read_only(self):
        for table in (estimate._COARSE, estimate._refine_table(0)):
            assert not any(column.flags.writeable for column in table)

    def test_curve_still_takes_any_array_and_leaves_it_writable(self, noisy_series):
        obj = sf.PhaseObjective(noisy_series(1), 2.0, 0.05)
        curve = estimate._objective_polynomial(obj, *estimate._objective_points(obj))
        phis = np.linspace(-3.0, 3.0, 7)
        values = curve(phis)
        assert values.shape == (7,) and phis.flags.writeable
        on_tables = estimate._objective_on_tables(obj, *estimate._objective_points(obj))
        assert values.tobytes() == on_tables(estimate._phase_table(phis)).tobytes()
        assert curve(estimate._COARSE.phis).tobytes() == on_tables(estimate._COARSE).tobytes()


class TestModelAcfOnFirstRead:
    @pytest.mark.parametrize("max_lag", [None, 1, 99])
    def test_equals_model_acf_full_bit_for_bit(self, noisy_series, max_lag):
        record = noisy_series(3)
        report = sf.estimate_parameters(record, sf.PipelineConfig(max_lag=max_lag))
        p = report.params
        per_sample = sf.SinusoidParams(p.amplitude, p.frequency_hz * record.dt, p.phase_rad)
        expected = sf.model_acf_full(per_sample, max_lag or 50)
        assert report.model_acf.kind == expected.kind
        assert report.model_acf.values.tobytes() == expected.values.tobytes()

    def test_computed_only_when_read_and_then_kept(self, noisy_series, monkeypatch):
        calls = []

        def counting(*args, _real=estimate.model_acf_full):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(estimate, "model_acf_full", counting)
        report = sf.estimate_parameters(noisy_series(3))
        assert calls == []
        assert report.model_acf is report.model_acf
        assert len(calls) == 1

    def test_noise_report_has_none(self, pure_noise):
        report = sf.estimate_parameters(pure_noise(0, sigma=80.0), sf.PipelineConfig(far=0.001))
        assert report.params is None and report.model_acf is None

    def test_degenerate_fit_gives_none_and_the_warning(self, noisy_series, monkeypatch):
        def degenerate(params):
            raise sf.DegenerateParametersError("normalization denominator vanishes")

        monkeypatch.setattr(estimate, "normalizing_constant", degenerate)
        report = sf.estimate_parameters(noisy_series(3))
        assert report.params is not None
        assert report.model_acf is None
        assert "full-model ACF is degenerate for the fitted parameters" in report.warnings

    @pytest.mark.parametrize("frequency", [1e-9, 4e-8, 6.3e-8, 1e-7, 1e-3])
    @pytest.mark.parametrize("phase", [-math.pi, -math.pi + 1e-7, 0.0, 1e-6, 1.0])
    def test_normalizing_check_and_model_acf_agree_on_degeneracy(self, frequency, phase):
        # the warning is decided by normalizing_constant, the values by
        # model_acf_full: both must call the same parameters degenerate
        params = sf.SinusoidParams(1.0, frequency, phase)
        try:
            sf.normalizing_constant(params)
            degenerate = False
        except sf.DegenerateParametersError:
            degenerate = True
        if degenerate:
            with pytest.raises(sf.DegenerateParametersError):
                sf.model_acf_full(params, 5)
        else:
            assert sf.model_acf_full(params, 5).values[0] == pytest.approx(1.0)


class TestGate1Threshold:
    @pytest.mark.parametrize("far", [0.001, 0.01, 0.05, 0.2, 0.4999, np.float64(0.01)])
    def test_equals_the_normal_quantile(self, far):
        expected = normal_quantile(1.0 - far / 2.0)
        assert screening._gate1_threshold(100, far) == expected
        assert screening._gate1_threshold(20, far) == expected
        assert type(screening._gate1_threshold(100, far)) is float

    def test_quantile_is_taken_once_per_far(self, monkeypatch):
        calls = []

        def counting(p, _real=screening.normal_quantile):
            calls.append(p)
            return _real(p)

        screening._two_sided_quantile.cache_clear()
        monkeypatch.setattr(screening, "normal_quantile", counting)
        try:
            for n in (20, 100, 1000):
                screening._gate1_threshold(n, 0.01)
                screening._gate1_threshold(n, 0.001)
        finally:
            screening._two_sided_quantile.cache_clear()
        assert calls == [1.0 - 0.01 / 2.0, 1.0 - 0.001 / 2.0]

    @pytest.mark.parametrize("far", [0.0, 0.5, -0.1, 0.7, math.nan])
    def test_bad_far_still_raises_after_a_good_one(self, far):
        screening._gate1_threshold(100, 0.01)
        with pytest.raises(ValueError, match="false-alarm rate"):
            screening._gate1_threshold(100, far)

    def test_short_record_still_raises_after_a_good_one(self):
        screening._gate1_threshold(100, 0.01)
        with pytest.raises(ValueError, match="at least 20 samples"):
            screening._gate1_threshold(19, 0.01)


class TestGate1Median:
    @pytest.mark.parametrize("n", [100, 101, 1000, 1001])
    def test_a_gate1_reject_makes_one_single_kth_partition(self, monkeypatch, n):
        calls = []

        def counting(a, kth, *args, _real=np.partition, **kwargs):
            calls.append(kth)
            return _real(a, kth, *args, **kwargs)

        monkeypatch.setattr(np, "partition", counting)
        record = sf.TimeSeries(0.0, 1.0, np.random.default_rng(n).standard_normal(n))
        for run in (lambda: sf.screen(record), lambda: sf.estimate_parameters(record)):
            calls.clear()
            run()
            assert len(calls) == 1
            assert isinstance(calls[0], (int, np.integer))
        assert sf.screen(record).gate_failed == "gate1"
