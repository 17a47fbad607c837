"""Print one line per case of the standard same-outputs sweep.

Run it in two checkouts and diff the outputs to see whether a change
moves any result of ``estimate_parameters``:

    PYTHONPATH=src python scripts/same_outputs.py > after.txt

Inputs: tones (A = 2, phi = 0.6109) at f in {0.05, 0.0537, 0.123} Hz,
N in {100, 1000, 10000} and sigma in {0, 0.5, 2} (noise seeds 0 and 1
when sigma > 0), plus white-noise and AR(1) (rho = 0.3) records at each
N, seeds 0 and 1.  Configs: default, full_record, ma_k=1, skip_screen.

Each line is ``<input> <config> <sha256> acf_arccos=<v> acf_period=<v>``.
The hash covers the canonical JSON of ``report_to_dict`` (or of the
error message, when the pipeline raises) without the two ACF-derived
frequency reads, which follow it rounded to 1e-15 (``-`` when absent):
they may move in the last bits when the ACF's arithmetic changes.
"""

import hashlib
import itertools
import json

import numpy as np

import sinefit as sf
from sinefit import io
from sinefit.model import standard_normal_draws

FREQUENCIES = (0.05, 0.0537, 0.123)
SIZES = (100, 1000, 10_000)
SIGMAS = (0.0, 0.5, 2.0)
SEEDS = (0, 1)
CONFIGS = {
    "default": sf.PipelineConfig(),
    "full_record": sf.PipelineConfig(objective_range="full_record"),
    "ma_k=1": sf.PipelineConfig(ma_k=1),
    "skip_screen": sf.PipelineConfig(skip_screen=True),
}
ACF_READS = ("acf_arccos", "acf_period")


def ar1(seed, n, rho=0.3):
    e = standard_normal_draws(seed, n)
    x = np.empty_like(e)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = rho * x[i - 1] + e[i]
    return x


def inputs():
    for f, n, sigma in itertools.product(FREQUENCIES, SIZES, SIGMAS):
        params = sf.SinusoidParams(2.0, f, 0.6109)
        for seed in SEEDS if sigma > 0 else SEEDS[:1]:
            yield (f"tone:f={f}:n={n}:sigma={sigma}:seed={seed}",
                   sf.synthesize(params, sf.NoiseSpec(sigma, seed), n))
    for n, seed in itertools.product(SIZES, SEEDS):
        yield f"white:n={n}:seed={seed}", sf.TimeSeries(0.0, 1.0, standard_normal_draws(seed, n))
        yield f"ar1:n={n}:seed={seed}", sf.TimeSeries(0.0, 1.0, ar1(seed, n))


def case_line(name, config_name, record):
    try:
        payload = io.report_to_dict(sf.estimate_parameters(record, CONFIGS[config_name]))
        reads = [payload["frequency_cross_checks_hz"].pop(key, None) for key in ACF_READS]
    except ValueError as exc:
        payload, reads = {"error": str(exc)}, [None, None]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    shown = ["-" if v is None else repr(round(v, 15)) for v in reads]
    return f"{name} {config_name} {digest} " + " ".join(
        f"{key}={value}" for key, value in zip(ACF_READS, shown))


def main():
    for name, record in inputs():
        for config_name in CONFIGS:
            print(case_line(name, config_name, record))


if __name__ == "__main__":
    main()
