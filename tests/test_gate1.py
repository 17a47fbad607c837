"""Gate-1 kernels: the normal quantile of a scalar, the partition median
and the runs split.

``normal_quantile`` has one path: a scalar (a float, a NumPy float or a
0-d array) goes through it as a 0-d array and comes back a Python float,
pinned bit for bit against the same probabilities passed as one array,
over a small sweep of both tails, the centre and the branch edges.  The
one-kth partition median and the runs split replace general NumPy
machinery on the screening reject path, so each is pinned against that
machinery: the median against ``np.median``, and the runs split against
a reference that gathers the kept signs on every record, on records the
partition splits and on records it leaves to counting.
"""

import subprocess
import sys

import numpy as np
import pytest

import sinefit as sf
from sinefit import screening
from sinefit.io import write_timeseries_csv
from sinefit.normal import _P_HIGH, _P_LOW, normal_quantile

INPUT_TYPES = [float, np.float64, np.array]


def _probability_sweep():
    """About 2,000 probabilities over both tails, the centre and the branch
    edges: each edge and 0.5 with the 50 floats on either side, and the
    special points (the smallest subnormal up to the float below 1)."""
    rng = np.random.default_rng(2024)
    tiny = np.finfo(float).smallest_subnormal
    below_one = np.nextafter(1.0, 0.0)
    edges = []
    for edge in (_P_LOW, _P_HIGH, 0.5):
        p = edge
        for _ in range(50):
            p = np.nextafter(p, 0.0)
            edges.append(p)
        p = edge
        for _ in range(50):
            p = np.nextafter(p, 1.0)
            edges.append(p)
        edges.append(edge)
    sweep = np.concatenate([
        10.0 ** rng.uniform(-320, np.log10(_P_LOW), 500),           # lower tail
        rng.uniform(_P_LOW, _P_HIGH, 500),                          # centre
        1.0 - 10.0 ** rng.uniform(-16, np.log10(_P_LOW), 500),      # upper tail
        np.linspace(0.01, 0.04, 100),                               # lower edge
        np.linspace(0.96, 0.99, 100),                               # upper edge
        np.array(edges),
        np.array([tiny, 1e-300, 1e-10, 0.001, 0.005, 0.995, 0.999, below_one]),
    ])
    return sweep[(sweep > 0.0) & (sweep < 1.0)]


def test_sweep_covers_both_tails_and_branch_edges():
    p = _probability_sweep()
    assert p.size >= 2_000
    assert np.count_nonzero(p < _P_LOW) > 500
    assert np.count_nonzero(p > _P_HIGH) > 500
    assert np.count_nonzero((p > _P_LOW) & (p < _P_HIGH)) > 500
    assert _P_LOW in p and _P_HIGH in p and 0.5 in p
    assert np.nextafter(_P_LOW, 0.0) in p and np.nextafter(_P_HIGH, 1.0) in p


@pytest.mark.parametrize("kind", INPUT_TYPES, ids=["float", "float64", "0-d"])
def test_scalar_input_matches_the_array_path_bit_for_bit(kind):
    p = _probability_sweep()
    reference = normal_quantile(p).tolist()
    scalar = [normal_quantile(kind(v)) for v in p.tolist()]
    assert all(type(z) is float for z in scalar)
    mismatches = [(v, z, r) for v, z, r in zip(p.tolist(), scalar, reference) if z != r]
    assert mismatches == []


@pytest.mark.parametrize("kind", INPUT_TYPES, ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("bad", [0.0, 1.0, float("nan"), float("inf"), float("-inf")])
def test_scalar_input_rejects_out_of_domain(kind, bad):
    with pytest.raises(ValueError, match="strictly inside"):
        normal_quantile(kind(bad))


def test_array_path_still_returns_arrays():
    z = normal_quantile(np.array([0.01, 0.5, 0.99]))
    assert isinstance(z, np.ndarray) and z.shape == (3,)
    assert normal_quantile(np.array([[0.5]])).shape == (1, 1)


def _partition_median(x):
    """The median that ``_runs_statistics`` computes from the middle pair."""
    lower, upper = screening._middle_pair(x)
    return float((lower + upper) / 2.0)


def _median_cases():
    rng = np.random.default_rng(7)
    cases = []
    for n in (20, 21, 100, 101, 1000, 1001, 10_000, 10_001):
        cases.append(rng.standard_normal(n))                          # continuous
        cases.append(rng.integers(0, 3, n).astype(float))             # heavily tied
        cases.append(rng.integers(-1000, 1000, n).astype(float))      # integer-valued
        half, low = n // 2, (n - n // 2) // 2                          # half the samples
        cases.append(rng.permutation(np.concatenate([                  # equal the median
            np.full(half, 4.0), rng.uniform(0.0, 3.0, low),
            rng.uniform(5.0, 8.0, n - half - low)])))
    cases.append(np.array([1.0, 2.0] * 15))                            # even, two values
    cases.append(np.array([1e300, 1.5e300, -1e300, 2e300] * 5))         # wide range
    cases.append(np.array([0.1, 0.2, 0.30000000000000004, 0.3] * 5))    # rounding-sensitive mean
    middle = np.array([1.0, np.nextafter(1.0, 2.0)])                   # even, the two middle
    cases.append(rng.permutation(np.concatenate([                       # values adjacent floats
        rng.uniform(0.0, 0.5, 29), middle, rng.uniform(1.5, 2.0, 29)])))
    return cases


@pytest.mark.parametrize("index", range(len(_median_cases())))
def test_partition_median_equals_np_median(index):
    x = _median_cases()[index]
    ours = _partition_median(x)
    assert type(ours) is float
    assert ours == float(np.median(x))


@pytest.mark.parametrize("index", range(len(_median_cases())))
def test_partition_median_needs_only_the_partition_contract(monkeypatch, index):
    # A partition guarantees only the kth element and which side each
    # other element lies on; numpy's selection happens to leave its
    # neighbours nearly sorted, so shuffle each side of the screen's one
    # selection (``screening._partitioned``) to take that away.  The
    # median and the runs split read from the partition both hold.
    x = _median_cases()[index]
    expected = float(np.median(x))
    expected_runs = _gathered_runs_statistics(x)
    rng = np.random.default_rng(index)

    def shuffled_sides(a, kth, _real=screening._partitioned):
        part = _real(a, kth)
        assert part.tobytes() == np.partition(a, kth).tobytes()
        k = int(kth)
        part[:k] = rng.permutation(part[:k])
        part[k + 1:] = rng.permutation(part[k + 1:])
        return part

    monkeypatch.setattr(screening, "_partitioned", shuffled_sides)
    assert _partition_median(x) == expected
    assert screening._runs_statistics(sf.TimeSeries(0.0, 1.0, x)) == expected_runs


def test_median_cases_cover_adjacent_middle_values():
    x = np.sort(_median_cases()[-1])
    n = x.size
    assert n % 2 == 0 and x[n // 2] == np.nextafter(x[n // 2 - 1], 2.0)
    assert _partition_median(x) == x[n // 2 - 1]  # the mean rounds down
    assert not _split_by_the_partition(_median_cases()[-1])  # so the split counts


def _gathered_runs_statistics(x):
    """Runs statistics with the kept signs gathered on every record."""
    median = float(np.median(x))
    signs = x[x != median] > median
    n1 = int(signs.sum())
    n2 = signs.size - n1
    runs = 1 + int(np.sum(signs[1:] != signs[:-1]))
    n = n1 + n2
    mu = 2.0 * n1 * n2 / n + 1.0
    var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n) / (n * n * (n - 1.0))
    return (runs - mu) / np.sqrt(var), runs, n1, n2


def _runs_cases():
    rng = np.random.default_rng(19)
    cases = []
    for n in (20, 21, 100, 101, 1000, 1001):
        cases.append(rng.standard_normal(n))                          # no ties
        cases.append(np.sin(0.3 * np.arange(n)) + 0.3 * rng.standard_normal(n))
        cases.append(rng.integers(0, 5, n).astype(float))             # ties at the median
        cases.append(np.round(rng.standard_normal(n), 1))
    return cases


def test_runs_cases_have_records_with_and_without_median_ties():
    tied = [np.count_nonzero(x == np.median(x)) > 0 for x in _runs_cases()]
    assert 0 < sum(tied) < len(tied)


@pytest.mark.parametrize("index", range(len(_runs_cases())))
def test_runs_split_equals_a_gathering_reference(index):
    x = _runs_cases()[index]
    z, runs, n1, n2 = screening._runs_statistics(sf.TimeSeries(0.0, 1.0, x))
    assert (type(runs), type(n1), type(n2)) == (int, int, int)
    assert (z, runs, n1, n2) == _gathered_runs_statistics(x)


def _screen_records():
    rng = np.random.default_rng(11)
    records = []
    for i in range(120):
        n = int(rng.choice([20, 21, 64, 100, 101, 1000]))
        records.append(rng.standard_normal(n))
        ar = np.empty(n)
        ar[0] = rng.standard_normal()
        for t in range(1, n):
            ar[t] = 0.3 * ar[t - 1] + rng.standard_normal()
        records.append(ar)
        t = np.arange(n)
        f = rng.uniform(0.01, 0.3)
        records.append(2.0 * np.sin(2 * np.pi * f * t + rng.uniform(-np.pi, np.pi))
                       + rng.choice([0.0, 0.5, 2.0]) * rng.standard_normal(n))
    records.append(np.round(rng.standard_normal(200)))  # integer-valued, many ties
    return [sf.TimeSeries(0.0, 1.0, x) for x in records]


def _split_by_the_partition(x):
    lower, upper = screening._middle_pair(x)
    return lower < float((lower + upper) / 2.0) < upper


@pytest.mark.parametrize("far", [0.01, 0.001])
def test_screen_decisions_match_an_np_median_reference(monkeypatch, far):
    records = _screen_records()
    ours = [sf.screen(r, far) for r in records]
    split = sum(_split_by_the_partition(r.samples) for r in records)
    # A middle pair (m, m) gives the median m = np.median(x) and sends
    # every record through the counting path.
    monkeypatch.setattr(screening, "_middle_pair", lambda x: (np.median(x),) * 2)
    reference = [sf.screen(r, far) for r in records]
    assert len(records) > 300
    assert 0 < split < len(records)  # both paths are compared
    assert {d.gate_failed for d in ours} == {"gate1", "gate2", "none"}
    assert ours == reference


def test_estimate_cli_does_not_import_numpy_ma(tmp_path):
    signal = sf.synthesize(sf.SinusoidParams(2.0, 0.05, 0.6109),
                           sf.NoiseSpec(sigma=0.5, seed=3), 1000)
    noise = sf.TimeSeries(0.0, 1.0, np.random.default_rng(5).standard_normal(1000))
    code = (
        "import sys\n"
        "from sinefit import cli\n"
        "sys.argv = ['sinefit', *sys.argv[1:]]\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    for name, record, exit_line in (("signal", signal, ""), ("noise", noise, "exit 2\n")):
        csv_path = tmp_path / f"{name}.csv"
        write_timeseries_csv(str(csv_path), record)
        result = subprocess.run(
            [sys.executable, "-c", code, "estimate", str(csv_path),
             "-o", str(tmp_path / f"{name}.json"),
             "--plot-data", str(tmp_path / f"{name}_plots")],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith(exit_line + "False\n"), result.stdout
        assert (tmp_path / f"{name}_plots" / "acf.csv").exists()
