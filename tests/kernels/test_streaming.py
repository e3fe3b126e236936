"""Streamed-vs-monolithic cascade equivalence: the streaming contract.

Contract (see DESIGN.md §"Streaming engine" and the
:mod:`repro.core.streaming` docstring):

* A primed stream (``prime`` = the concatenated chunks) gives the
  same bytes on both backends, and on these records and splits the
  bytes of the monolithic :meth:`FineDelayLine.process` — including
  pathological one-sample chunks.
* A whole record is a one-chunk stream: a fresh processor fed the
  whole record as one chunk is byte-identical to the monolithic path
  on every backend, with no priming pass at all (the first chunk *is*
  the whole record, so the frozen statistics match).
* Malformed streams — dt changes, gaps, overlaps, empty chunks,
  priming after data — fail fast with :class:`CircuitError`.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import FineDelayLine, calibration_stimulus
from repro.core.fine_delay import cascade_plan_pack
from repro.errors import CircuitError, WaveformError
from repro.kernels import python_backend
from repro.kernels.cascade import fresh_cascade_state
from repro.signals.waveform import Waveform, WaveformBatch

from .test_fusion import per_stage

ALL_BACKENDS = kernels.BACKEND_NAMES
STAGE_COUNTS = (1, 2, 4)

# Named record splits, as fractions of the record length.  "uneven"
# lands chunk boundaries mid-edge and mid-filter-transient; "tiny-head"
# starts with a chunk much shorter than the noise filter's warmup.
SPLITS = {
    "halves": (0.5,),
    "uneven": (0.13, 0.31, 0.57, 0.83),
    "tiny-head": (0.002, 0.4),
}


def _stimulus(n_bits=63, dt=1e-12):
    return calibration_stimulus(n_bits=n_bits, dt=dt)


def _chunks(waveform, fractions):
    """Split one record at the given fractional positions."""
    n = len(waveform)
    bounds = [0] + [int(f * n) for f in fractions] + [n]
    out = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        out.append(
            Waveform(
                waveform.values[a:b].copy(),
                waveform.dt,
                waveform.t0 + waveform.dt * a,
            )
        )
    return out


def _streamed(line, waveform, fractions, prime=True, rng=None):
    """Run *waveform* through *line* chunk by chunk; return the
    concatenated output and the per-chunk outputs."""
    processor = line.open_stream(rng=rng)
    if prime:
        processor.prime(waveform)
    outs = [processor.push(c) for c in _chunks(waveform, fractions)]
    values = np.concatenate([o.values for o in outs])
    return Waveform(values, outs[0].dt, outs[0].t0), outs


@pytest.fixture(autouse=True)
def _restore_backend():
    backend = kernels.active_backend()
    yield
    kernels.set_backend(backend)


# -- the equivalence contract ------------------------------------------------


@pytest.mark.parametrize("split", sorted(SPLITS))
@pytest.mark.parametrize("n_stages", STAGE_COUNTS)
def test_python_primed_stream_bit_exact(n_stages, split):
    """Primed streaming == monolithic, bit for bit, on any split."""
    kernels.set_backend("python")
    stimulus = _stimulus()
    mono = FineDelayLine(n_stages=n_stages, seed=42).process(stimulus)
    line = FineDelayLine(n_stages=n_stages, seed=42)
    streamed, _ = _streamed(line, stimulus, SPLITS[split])
    assert streamed.dt == mono.dt
    assert streamed.t0 == mono.t0
    assert np.array_equal(streamed.values, mono.values)


def test_python_one_sample_chunks_bit_exact():
    """The pathological split: every chunk is a single sample."""
    kernels.set_backend("python")
    stimulus = _stimulus(n_bits=2, dt=20e-12)
    mono = FineDelayLine(n_stages=2, seed=7).process(stimulus)
    line = FineDelayLine(n_stages=2, seed=7)
    processor = line.open_stream()
    processor.prime(stimulus)
    outs = [
        processor.push(
            Waveform(
                stimulus.values[i : i + 1].copy(),
                stimulus.dt,
                stimulus.t0 + stimulus.dt * i,
            )
        )
        for i in range(len(stimulus))
    ]
    values = np.concatenate([o.values for o in outs])
    assert np.array_equal(values, mono.values)
    assert outs[0].t0 == mono.t0


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_delay_contract_all_backends(backend):
    """A streamed 4-stage run is the monolithic run byte for byte (so
    it measures the same delay) on every backend."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    mono = FineDelayLine(n_stages=4, seed=3).process(stimulus)
    line = FineDelayLine(n_stages=4, seed=3)
    streamed, _ = _streamed(line, stimulus, SPLITS["uneven"])
    assert streamed.values.tobytes() == mono.values.tobytes()


def _vctrl_tone(stimulus):
    """A slow control-voltage tone across *stimulus* (jitter injection)."""
    return Waveform(
        0.75 + 0.35 * np.sin(2 * np.pi * stimulus.times() / 2e-9),
        stimulus.dt,
        stimulus.t0,
    )


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_single_chunk_equals_monolithic_without_prime(backend):
    """A whole record is a one-chunk stream: a fresh processor fed the
    record as one chunk is byte-identical to the monolithic path on
    every backend, with a scalar and with a waveform Vctrl, and with no
    priming pass (the first chunk's frozen statistics are the
    whole-record statistics)."""
    kernels.set_backend(backend)
    stimulus = _stimulus()
    for vctrl in (0.75, _vctrl_tone(stimulus)):
        mono_line = FineDelayLine(n_stages=4, seed=11, vctrl=vctrl)
        line = FineDelayLine(n_stages=4, seed=11, vctrl=vctrl)
        mono = mono_line.process(stimulus)
        out = line.open_stream().push(stimulus)
        assert out.values.tobytes() == mono.values.tobytes()
        assert out.t0 == mono.t0


def test_streamed_run_is_deterministic():
    """Same line seed, same split -> identical streamed output."""
    kernels.set_backend("python")
    stimulus = _stimulus()
    a, _ = _streamed(
        FineDelayLine(n_stages=3, seed=5), stimulus, SPLITS["uneven"]
    )
    b, _ = _streamed(
        FineDelayLine(n_stages=3, seed=5), stimulus, SPLITS["uneven"]
    )
    assert np.array_equal(a.values, b.values)


def test_explicit_rng_split_invariant_with_prime():
    """An explicit generator is spawned per element, so two different
    splits of the same record agree when both are primed."""
    kernels.set_backend("python")
    stimulus = _stimulus()
    line_a = FineDelayLine(n_stages=3, seed=5)
    a, _ = _streamed(
        line_a, stimulus, SPLITS["halves"], rng=np.random.default_rng(9)
    )
    line_b = FineDelayLine(n_stages=3, seed=5)
    b, _ = _streamed(
        line_b, stimulus, SPLITS["uneven"], rng=np.random.default_rng(9)
    )
    assert np.array_equal(a.values, b.values)


def test_chunk_time_axes_tile_the_monolithic_axis():
    """Each output chunk's t0 lands exactly where the monolithic
    record's time axis puts that sample."""
    kernels.set_backend("python")
    stimulus = _stimulus()
    mono = FineDelayLine(n_stages=2, seed=1).process(stimulus)
    line = FineDelayLine(n_stages=2, seed=1)
    _, outs = _streamed(line, stimulus, SPLITS["uneven"])
    assert outs[0].t0 == mono.t0
    offset = 0
    for out in outs:
        # Association differs (chunk.t0 + shifts vs t0 + dt*offset), so
        # exactness here is to the stream's own contiguity tolerance.
        assert abs(out.t0 - (mono.t0 + mono.dt * offset)) < 1e-6 * mono.dt
        offset += len(out)
    assert offset == len(mono)


def test_jitter_injection_vctrl_waveform_streams_exactly():
    """Time-varying Vctrl: the stream evaluates the control waveform on
    the global time grid, so chunked jitter injection is bit-exact."""
    kernels.set_backend("python")
    stimulus = _stimulus()
    vwave = _vctrl_tone(stimulus)
    mono_line = FineDelayLine(n_stages=2, seed=8)
    mono_line.vctrl = vwave
    mono = mono_line.process(stimulus)
    line = FineDelayLine(n_stages=2, seed=8)
    line.vctrl = vwave
    streamed, _ = _streamed(line, stimulus, SPLITS["uneven"])
    assert np.array_equal(streamed.values, mono.values)


def test_stream_matches_both_fusion_settings():
    """The monolithic reference is the same fused or chained stage by
    stage, so the stream agrees with both."""
    kernels.set_backend("python")
    stimulus = _stimulus()
    refs = [
        FineDelayLine(n_stages=2, seed=21).process(stimulus),
        per_stage(FineDelayLine(n_stages=2, seed=21), stimulus),
    ]
    line = FineDelayLine(n_stages=2, seed=21)
    streamed, _ = _streamed(line, stimulus, SPLITS["halves"])
    for ref in refs:
        assert np.array_equal(streamed.values, ref.values)


# -- kernel-level: the stream kernel itself ----------------------------------


def test_stream_kernel_single_call_equals_cascade_kernel():
    """The cascade kernel on one lane and fresh state over the whole
    record is the whole cascade: bit-exact against the per-stage chain
    fed the same generator."""
    stimulus = _stimulus()
    line = FineDelayLine(n_stages=3, seed=2)
    stages, _ = cascade_plan_pack(
        [line],
        WaveformBatch.from_waveforms([stimulus]),
        [np.random.default_rng(4)],
    )
    out_stream = python_backend.fine_delay_cascade(
        stimulus.values[None, :],
        stages,
        stimulus.dt,
        fresh_cascade_state(len(stages)),
    )[0]
    kernels.set_backend("python")
    chained = per_stage(
        FineDelayLine(n_stages=3, seed=2), stimulus, np.random.default_rng(4)
    )
    assert np.array_equal(out_stream, chained.values)


def test_stream_kernel_dispatch_rejects_state_mismatch():
    """The dispatcher refuses a state list of the wrong length."""
    stimulus = _stimulus(n_bits=4, dt=10e-12)
    line = FineDelayLine(n_stages=2, seed=0)
    stages, _ = cascade_plan_pack(
        [line],
        WaveformBatch.from_waveforms([stimulus]),
        [np.random.default_rng(0)],
    )
    with pytest.raises(CircuitError):
        kernels.fine_delay_cascade_stream(
            stimulus.values, stages, stimulus.dt, fresh_cascade_state(1)
        )


# -- stream validation -------------------------------------------------------


def _open(seed=0):
    return FineDelayLine(n_stages=2, seed=seed).open_stream()


def test_rejects_empty_chunk():
    # Waveform itself refuses empty records; the stream's own guard is
    # a backstop for duck-typed chunks.
    with pytest.raises((CircuitError, WaveformError)):
        _open().push(Waveform(np.empty(0), 1e-12, 0.0))


def test_rejects_dt_change_mid_stream():
    stimulus = _stimulus(n_bits=4, dt=10e-12)
    processor = _open()
    processor.push(stimulus)
    with pytest.raises(CircuitError, match="dt"):
        processor.push(
            Waveform(stimulus.values, 2 * stimulus.dt, stimulus.t_end)
        )


def test_rejects_non_contiguous_chunk():
    stimulus = _stimulus(n_bits=4, dt=10e-12)
    processor = _open()
    processor.push(stimulus)
    gap_t0 = stimulus.t_end + 5 * stimulus.dt
    with pytest.raises(CircuitError, match="contiguous"):
        processor.push(Waveform(stimulus.values, stimulus.dt, gap_t0))


def test_prime_binds_the_time_grid():
    # The priming record is the stream's record: the first chunk must
    # start where it starts.
    stimulus = _stimulus(n_bits=4, dt=10e-12)
    processor = _open()
    processor.prime(stimulus)
    with pytest.raises(CircuitError, match="contiguous"):
        processor.push(
            Waveform(stimulus.values, stimulus.dt, stimulus.t_end)
        )


def test_rejects_prime_after_push():
    stimulus = _stimulus(n_bits=4, dt=10e-12)
    processor = _open()
    processor.push(stimulus)
    with pytest.raises(CircuitError, match="prime"):
        processor.prime(stimulus)


def test_samples_processed_counts_input_samples():
    stimulus = _stimulus(n_bits=4, dt=10e-12)
    line = FineDelayLine(n_stages=2, seed=0)
    processor = line.open_stream()
    for chunk in _chunks(stimulus, (0.5,)):
        processor.push(chunk)
    assert processor.samples_processed == len(stimulus)


def test_process_generator_matches_push():
    stimulus = _stimulus(n_bits=8, dt=10e-12)
    chunks = _chunks(stimulus, (0.4,))
    via_push = [
        FineDelayLine(n_stages=2, seed=3).open_stream().push(c)
        for c in [stimulus]
    ]
    line = FineDelayLine(n_stages=2, seed=3)
    via_gen = list(line.process_stream(iter(chunks)))
    assert len(via_gen) == len(chunks)
    joined = np.concatenate([o.values for o in via_gen])
    assert joined.size == len(stimulus)
    assert via_push[0].values.size == len(stimulus)
