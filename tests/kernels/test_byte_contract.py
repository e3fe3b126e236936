"""The kernel contract: python and numpy give the same bytes.

Both backends compute the compressive slew recurrence with the same
float64 operations in the same order (see :mod:`repro.kernels`), so
every check here compares ``tobytes()``, never a tolerance:

* a corpus of whole ``FineDelayLine.process`` records (1, 2 and 4
  stages; dt 1, 5 and 20 ps; random control voltage);
* a multi-line ``calibrate_lines_pack`` (the solvers' tables);
* streams in chunks of 1, 2 and 7 samples, in uneven splits and in
  random many-chunk splits, against each other and against the whole
  record;
* both smoke campaign specs at ``batch_lanes`` 1 and ``auto``, and the
  ``range_mc`` benchmark spec's metrics;
* a ramp longer than the relaxation's sweep cap, which must also equal
  a plain-Python recurrence.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.campaign import report, runner
from repro.campaign.spec import CampaignSpec
from repro.core import CombinedDelayLine, FineDelayLine, calibration_stimulus
from repro.core.combined import calibrate_lines_pack
from repro.kernels import numpy_backend, python_backend
from repro.signals import synthesize_nrz
from repro.signals.waveform import Waveform

SPECS = Path(__file__).resolve().parents[2] / "examples" / "campaign_specs"

#: The ``range_mc`` benchmark workload's campaign (perfbench/workloads.py).
RANGE_MC = {
    "name": "bench-range-mc",
    "scenario": "range",
    "seed": 1,
    "n_instances": 16,
    "base": {"n_bits": 32, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["3.2 Gbps"]}],
}


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


def _on_both(run):
    """``run()`` on python and on numpy."""
    results = []
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend):
            results.append(run())
    return results


def _corpus_cases():
    rng = np.random.default_rng(2027)
    for n_stages in (1, 2, 4):
        for dt in (1e-12, 5e-12, 20e-12):
            for _ in range(4):
                yield (
                    n_stages,
                    dt,
                    rng.integers(0, 2, 24),
                    float(rng.uniform(1.6e9, 6.4e9)),
                    int(rng.integers(1 << 30)),
                    float(rng.uniform(0.2, 1.4)),
                )


@pytest.mark.parametrize(
    "n_stages, dt, bits, bit_rate, seed, vctrl", list(_corpus_cases())
)
def test_whole_records(n_stages, dt, bits, bit_rate, seed, vctrl):
    stimulus = synthesize_nrz(bits, bit_rate, dt)

    def run():
        line = FineDelayLine(n_stages=n_stages, seed=seed)
        line.vctrl = vctrl
        return line.process(stimulus, np.random.default_rng(seed)).values

    reference, vectorised = _on_both(run)
    assert vectorised.tobytes() == reference.tobytes()


def test_calibrate_lines_pack():
    stimuli = [
        calibration_stimulus(bit_rate=3.2e9, n_bits=32, rise_time=rise)
        for rise in (26e-12, 30e-12, 34e-12)
    ]

    def run():
        lines = [CombinedDelayLine(seed=seed) for seed in (21, 22, 23)]
        return [
            (
                solver.fine_table.vctrls.tobytes(),
                solver.fine_table.delays.tobytes(),
                np.asarray(solver.tap_delays).tobytes(),
            )
            for solver in calibrate_lines_pack(lines, stimuli, 5)
        ]

    reference, vectorised = _on_both(run)
    assert vectorised == reference


def _stream(line, stimulus, bounds):
    """*line*'s primed stream over *stimulus* cut at *bounds*."""
    processor = line.open_stream()
    processor.prime(stimulus)
    return np.concatenate(
        [
            processor.push(
                Waveform(
                    stimulus.values[a:b].copy(),
                    stimulus.dt,
                    stimulus.t0 + stimulus.dt * a,
                )
            ).values
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
    )


@pytest.mark.parametrize("chunk", ["1", "2", "7", "uneven"])
def test_streams_equal_the_whole_record(chunk):
    if chunk == "uneven":
        stimulus = calibration_stimulus(n_bits=63, dt=1e-12)
        n = len(stimulus)
        bounds = [0] + [int(f * n) for f in (0.13, 0.31, 0.57, 0.83)] + [n]
    else:
        stimulus = calibration_stimulus(n_bits=2, dt=20e-12)
        n = len(stimulus)
        bounds = list(range(0, n, int(chunk))) + [n]

    def run():
        whole = FineDelayLine(n_stages=2, seed=7).process(stimulus).values
        line = FineDelayLine(n_stages=2, seed=7)
        return whole, _stream(line, stimulus, bounds)

    (whole, streamed), (np_whole, np_streamed) = _on_both(run)
    assert np_whole.tobytes() == whole.tobytes()
    assert np_streamed.tobytes() == streamed.tobytes()
    assert streamed.tobytes() == whole.tobytes()


def _split_case(case):
    """A random 1-4-stage line, record and 2-400-cut split."""
    rng = np.random.default_rng([28, case])
    dt = float(rng.choice([1e-12, 2e-12, 5e-12]))
    stimulus = synthesize_nrz(
        rng.integers(0, 2, int(rng.integers(16, 64))),
        float(rng.uniform(1.6e9, 6.4e9)),
        dt,
    )
    n = len(stimulus)
    cuts = rng.choice(
        np.arange(1, n), int(rng.integers(2, 400)), replace=False
    )
    return (
        int(rng.integers(1, 5)),
        stimulus,
        [0] + sorted(cuts.tolist()) + [n],
        int(rng.integers(1 << 30)),
        float(rng.uniform(0.2, 1.4)),
    )


@pytest.mark.parametrize("case", range(24))
def test_random_splits_equal_the_whole_record(case):
    # Hundreds of chunk boundaries, each carrying every lane's
    # half-cycle age across: the carried age must round exactly as the
    # whole record's does.
    n_stages, stimulus, bounds, seed, vctrl = _split_case(case)

    def line():
        line = FineDelayLine(n_stages=n_stages, seed=seed)
        line.vctrl = vctrl
        return line

    def run():
        whole = line().process(stimulus).values
        return whole, _stream(line(), stimulus, bounds)

    for whole, streamed in _on_both(run):
        assert streamed.tobytes() == whole.tobytes()


def test_one_sample_numpy_stream_takes_no_fallback(monkeypatch):
    # The dense sweep settles a one-sample chunk: a sample it moves has
    # no successor, so no lane is handed to the reference loop.
    kernels.set_backend("numpy")
    fallbacks = []
    reference_loop = numpy_backend.slew_limit

    def spy(*args):
        fallbacks.append(args[0].size)
        return reference_loop(*args)

    monkeypatch.setattr(numpy_backend, "slew_limit", spy)
    stimulus = calibration_stimulus(n_bits=2, dt=20e-12)
    whole = FineDelayLine(n_stages=2, seed=7).process(stimulus).values
    streamed = _stream(
        FineDelayLine(n_stages=2, seed=7),
        stimulus,
        list(range(len(stimulus) + 1)),
    )
    assert fallbacks == []
    assert streamed.tobytes() == whole.tobytes()


def _payload(spec, backend, batch_lanes, tmp_path):
    with kernels.use_backend(backend):
        result = runner.run_campaign(
            spec,
            cache_dir=str(tmp_path / f"{backend}-{batch_lanes}"),
            batch_lanes=batch_lanes,
        )
    return json.dumps(report.build_report(result)["payload"], sort_keys=True)


@pytest.mark.parametrize("name", ["smoke_range", "smoke_deskew"])
def test_smoke_payloads(name, tmp_path):
    # ``auto`` is one lane on python (``packing.AUTO_LANES``), so python
    # runs once.
    spec = CampaignSpec.load(SPECS / f"{name}.json")
    payloads = {
        _payload(spec, backend, lanes, tmp_path)
        for backend, lanes in (("python", 1), ("numpy", 1), ("numpy", "auto"))
    }
    assert len(payloads) == 1


def test_range_mc_metrics(tmp_path):
    spec = CampaignSpec.from_dict(RANGE_MC)

    def run():
        backend = kernels.active_backend()
        result = runner.run_campaign(
            spec, cache_dir=str(tmp_path / backend), batch_lanes="auto"
        )
        return json.dumps(result.metrics, sort_keys=True)

    reference, vectorised = _on_both(run)
    assert vectorised == reference


def _recurrence(targets, step, initial):
    """The slew recurrence as a plain-Python loop."""
    y = initial
    out = []
    for t in targets:
        y = y + min(max(t - y, -step), step)
        out.append(y)
    return np.array(out, dtype=np.float64)


def test_ramp_past_the_sweep_cap():
    cap = numpy_backend._RELAX_MAX_SWEEPS
    step = 0.004  # a 0 -> 1 ramp spans 250 samples, beyond the cap
    ramp = np.concatenate([np.zeros(20), np.ones(cap + 200)])
    targets = np.stack([np.full_like(ramp, 0.25), ramp])
    relaxed = numpy_backend._slew_limit_relax(targets, step, np.zeros(2))
    looped = python_backend.slew_limit_batch(targets, step, np.zeros(2))
    assert relaxed.tobytes() == looped.tobytes()
    for lane in range(2):
        assert relaxed[lane].tobytes() == (
            _recurrence(targets[lane], step, 0.0).tobytes()
        )
