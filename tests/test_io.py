import math

import numpy as np
import pytest

import sinefit as sf
from sinefit import io


def rowwise_csv(header, rows):
    """Reference writer: every value of every row as repr(float(v))."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def read_text(path):
    with open(path, newline="") as handle:
        return handle.read()


AWKWARD = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 1e-320, 5e-324, 1.7976931348623157e308,
           -1e-300, 123456789.0, 1e16, 2.0 ** 53 + 2, math.nan, math.inf, -math.inf]


class TestWriteCsv:
    def test_matches_rowwise_reference_on_awkward_values(self, tmp_path):
        lags = np.arange(len(AWKWARD))
        values = np.array(AWKWARD)
        plain = list(reversed(AWKWARD))
        path = tmp_path / "out.csv"
        io.write_csv(str(path), ("lag", "a", "b"), (lags, values, plain))
        expected = rowwise_csv(("lag", "a", "b"), zip(range(len(AWKWARD)), values, plain))
        assert read_text(path) == expected
        assert read_text(path).splitlines()[1].startswith("0.0,0.0,-inf")

    def test_matches_rowwise_reference_on_random_records(self, tmp_path):
        rng = np.random.default_rng(3)
        for n in (2, 17, 1000):
            columns = (np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n),
                       np.full(n, math.nan))
            path = tmp_path / f"r{n}.csv"
            io.write_csv(str(path), ("x", "y", "z"), columns)
            assert read_text(path) == rowwise_csv(("x", "y", "z"), zip(*columns))

    def test_timeseries_csv_matches_reference(self, tmp_path, noisy_series):
        record = noisy_series(4)
        path = tmp_path / "ts.csv"
        io.write_timeseries_csv(str(path), record)
        expected = rowwise_csv(("t", "value"), zip(record.times(), record.samples))
        assert read_text(path) == expected
        assert np.array_equal(io.read_timeseries_csv(str(path)).samples, record.samples)

    @pytest.mark.parametrize("bound", [0.257, None])
    def test_acf_csv_matches_reference(self, tmp_path, noisy_series, bound):
        acf = sf.circular_acf(noisy_series(5))
        path = tmp_path / "acf.csv"
        io.write_acf_csv(str(path), acf, bound)
        lo, hi = (-bound, bound) if bound is not None else (math.nan, math.nan)
        half = acf.values[:acf.values.size // 2 + 1]
        expected = rowwise_csv(("lag", "value", "lower_bound", "upper_bound"),
                               ((tau, v, lo, hi) for tau, v in enumerate(half)))
        assert read_text(path) == expected
        if bound is None:
            assert read_text(path).splitlines()[1] == "0.0,1.0,nan,nan"


class TestReadTimeseriesCsvLineNumbers:
    """Errors name the file line of the bad row, blank lines included."""

    def write(self, tmp_path, lines):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_non_uniform_spacing_after_a_blank_line(self, tmp_path):
        path = self.write(tmp_path, ["t,value", "0,1", "", "1,2", "2,3", "3.5,4"])
        with pytest.raises(ValueError, match=r"line 6: non-uniform sample spacing \(1\.5 vs 1\.0\)"):
            io.read_timeseries_csv(path)

    def test_non_increasing_time_after_a_blank_line(self, tmp_path):
        path = self.write(tmp_path, ["t,value", "0,1", "", "0,2"])
        with pytest.raises(ValueError, match="line 4: time must be strictly increasing"):
            io.read_timeseries_csv(path)

    def test_without_blank_lines(self, tmp_path):
        path = self.write(tmp_path, ["t,value", "0,1", "1,2", "2,3", "3,4", "4.2,5"])
        with pytest.raises(ValueError, match="line 6: non-uniform sample spacing"):
            io.read_timeseries_csv(path)
        path = self.write(tmp_path, ["t,value", "1,1", "0,2"])
        with pytest.raises(ValueError, match="line 3: time must be strictly increasing"):
            io.read_timeseries_csv(path)

    def test_parse_errors_after_blank_lines(self, tmp_path):
        path = self.write(tmp_path, ["t,value", "0,1", "", "", "1,x"])
        with pytest.raises(ValueError, match="line 5: could not parse numbers"):
            io.read_timeseries_csv(path)

    def test_first_uneven_step_is_named(self, tmp_path):
        rows = [f"{t!r},{t!r}" for t in [0.0, 0.5, 1.0, 1.5, 2.25, 2.5, 3.5]]
        path = self.write(tmp_path, ["t,value", "", *rows])
        with pytest.raises(ValueError, match=r"line 7: non-uniform sample spacing \(0\.75 vs 0\.5\)"):
            io.read_timeseries_csv(path)

    def test_uniform_record_with_blank_lines_reads(self, tmp_path):
        path = self.write(tmp_path, ["t,value", "", "0.5,1", "", "1.0,2", "1.5,3"])
        record = io.read_timeseries_csv(path)
        assert (record.start_time, record.dt) == (0.5, 0.5)
        assert type(record.dt) is float
        assert record.samples.tolist() == [1.0, 2.0, 3.0]


class TestReadTimeseriesCsvFarFromZero:
    """Times far from t = 0 carry their rounding, which the spacing check allows for."""

    def write(self, tmp_path, times):
        path = tmp_path / "in.csv"
        path.write_text("t,value\n" + "".join(f"{t!r},1.0\n" for t in times))
        return str(path)

    @pytest.mark.parametrize("start, dt, f, n", [(86400.0, 0.01, 5.0, 1000),
                                                 (1e4, 1e-3, 50.0, 1000),
                                                 (1.7e9, 1e-3, 50.0, 200)])
    def test_a_written_record_reads_back(self, tmp_path, start, dt, f, n):
        record = sf.synthesize(sf.SinusoidParams(2.0, f, 0.6109), sf.NoiseSpec(0.5, 0), n,
                               dt=dt, start=start)
        path = str(tmp_path / "record.csv")
        io.write_timeseries_csv(path, record)
        back = io.read_timeseries_csv(path)
        t = record.times()
        assert (back.start_time, back.dt) == (t[0], t[1] - t[0])  # dt is the first step
        assert back.samples.tobytes() == record.samples.tobytes()

    def test_a_step_off_by_more_than_the_rounding_still_raises(self, tmp_path):
        path = self.write(tmp_path, [86400.0, 86400.01, 86400.02, 86400.030001])
        with pytest.raises(ValueError, match="line 5: non-uniform sample spacing"):
            io.read_timeseries_csv(path)

    def test_a_grid_rounded_nearly_as_coarsely_as_dt_still_raises(self, tmp_path):
        # near 1e17 the times are multiples of 16, so 2 ulps (32) exceed the step
        path = self.write(tmp_path, [1e17, 1e17 + 16, 1e17 + 32, 1e17 + 64])
        with pytest.raises(ValueError, match=r"line 5: non-uniform sample spacing \(32\.0 vs 16\.0\)"):
            io.read_timeseries_csv(path)
