"""Tests for analog waveform synthesis (NRZ, clocks, steps)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PatternError, WaveformError
from repro.signals import (
    GAUSSIAN_RISE_SIGMA_RATIO,
    NRZStreamSource,
    crossing_times,
    render_transitions,
    synthesize_clock,
    synthesize_nrz,
    synthesize_rz_clock,
    synthesize_step,
    transition_times_from_bits,
)


def _reference_render(
    times, targets, n_samples, dt, amplitude, rise_time, t0, initial_level
):
    """The renderer's per-transition loop, kept as the byte reference:
    each transition fills every later sample and places its own step."""
    levels = np.where(targets == 1, amplitude, -amplitude)
    if initial_level is None:
        initial_level = -levels[0] if levels.size else -amplitude
    values = np.full(n_samples, float(initial_level))
    current = float(initial_level)
    for instant, level in zip(times, levels):
        index_float = (instant - t0) / dt
        nearest = int(math.floor(index_float + 0.5))
        delta = index_float - nearest
        if nearest >= n_samples:
            break
        if nearest < 0:
            current = float(level)
            values[:] = current
            continue
        values[nearest + 1 :] = level
        values[nearest] = current + (0.5 - delta) * (level - current)
        current = float(level)
    if rise_time > 0.0:
        sigma_samples = (rise_time / GAUSSIAN_RISE_SIGMA_RATIO) / dt
        half_width = max(1, int(math.ceil(4.0 * sigma_samples)))
        x = np.arange(-half_width, half_width + 1, dtype=np.float64)
        kernel = np.exp(-0.5 * (x / sigma_samples) ** 2)
        kernel /= kernel.sum()
        padded = np.concatenate(
            [
                np.full(half_width, values[0]),
                values,
                np.full(half_width, values[-1]),
            ]
        )
        values = np.convolve(padded, kernel, mode="valid")
    return values


class TestTransitionTimes:
    def test_simple_pattern(self):
        times, targets = transition_times_from_bits([1, 1, 0, 1], 100e-12)
        np.testing.assert_allclose(times, [0.0, 200e-12, 300e-12])
        np.testing.assert_array_equal(targets, [1, 0, 1])

    def test_initial_bit_suppresses_first_edge(self):
        times, targets = transition_times_from_bits(
            [1, 0], 100e-12, initial_bit=1
        )
        np.testing.assert_allclose(times, [100e-12])
        np.testing.assert_array_equal(targets, [0])

    def test_constant_pattern_has_no_edges(self):
        times, _ = transition_times_from_bits([0, 0, 0], 100e-12)
        assert times.size == 0

    def test_rejects_empty(self):
        with pytest.raises(PatternError):
            transition_times_from_bits([], 100e-12)

    def test_rejects_bad_ui(self):
        with pytest.raises(PatternError):
            transition_times_from_bits([1, 0], 0.0)

    def test_t_start_offsets_times(self):
        times, _ = transition_times_from_bits([1], 100e-12, t_start=1e-9)
        assert times[0] == pytest.approx(1e-9)


class TestRenderTransitions:
    def test_crossing_lands_at_requested_time(self):
        # Sub-sample edge placement: request an edge at a non-grid time
        # and verify the interpolated 50 % crossing recovers it.
        for instant in (500.0e-12, 500.3e-12, 500.7e-12):
            wf = render_transitions(
                np.array([instant]),
                np.array([1]),
                duration=1e-9,
                dt=1e-12,
                amplitude=0.4,
                rise_time=30e-12,
            )
            crossings = crossing_times(wf, 0.0, "rising")
            assert crossings.size == 1
            assert crossings[0] == pytest.approx(instant, abs=0.05e-12)

    def test_zero_rise_time_renders_ideal_steps(self):
        wf = render_transitions(
            np.array([500e-12]),
            np.array([1]),
            duration=1e-9,
            dt=1e-12,
            amplitude=0.4,
            rise_time=0.0,
        )
        assert wf.values[0] == pytest.approx(-0.4)
        assert wf.values[-1] == pytest.approx(0.4)

    def test_initial_level_defaults_to_complement(self):
        wf = render_transitions(
            np.array([500e-12]),
            np.array([0]),
            duration=1e-9,
            dt=1e-12,
            amplitude=0.4,
            rise_time=0.0,
        )
        assert wf.values[0] == pytest.approx(0.4)

    def test_no_transitions_is_flat(self):
        wf = render_transitions(
            np.array([]),
            np.array([], dtype=np.int64),
            duration=1e-9,
            dt=1e-12,
            amplitude=0.4,
            rise_time=0.0,
        )
        assert wf.peak_to_peak() == pytest.approx(0.0)

    def test_pre_record_transition_sets_level(self):
        wf = render_transitions(
            np.array([-1e-9]),
            np.array([1]),
            duration=1e-9,
            dt=1e-12,
            amplitude=0.4,
            rise_time=0.0,
        )
        assert np.all(wf.values == pytest.approx(0.4))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("rise_time", (0.0, 7e-12, 60e-12))
    def test_bytes_match_per_transition_loop(self, seed, rise_time):
        # Random ascending instants, some repeated or sharing a sample,
        # some before the record and some past its end.
        rng = np.random.default_rng(seed)
        dt = (1e-12, 4e-12, 25e-12)[seed % 3]
        t0 = (0.0, 1.3e-12, -0.2e-9)[seed % 4 % 3]
        times = rng.uniform(-0.3e-9, 1.3e-9, int(rng.integers(0, 60)))
        times = np.concatenate(
            [times, times[:5], times[5:10] + 0.2 * dt]
        )
        times.sort()
        targets = rng.integers(0, 2, times.size)
        initial = (None, 0.4, -0.1)[seed // 4 % 3]
        n_samples = int(round(1e-9 / dt)) + 1
        wf = render_transitions(
            times,
            targets,
            duration=1e-9,
            dt=dt,
            amplitude=0.4,
            rise_time=rise_time,
            t0=t0,
            initial_level=initial,
        )
        reference = _reference_render(
            times, targets, n_samples, dt, 0.4, rise_time, t0, initial
        )
        assert wf.values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("jitter_ui", (0.3, 3.0))
    def test_jittered_record_bytes_match_per_transition_loop(
        self, jitter_ui
    ):
        # Jitter of several UI reorders edges; the sorted instants still
        # render exactly as the loop does.
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 200)
        times, targets = transition_times_from_bits(bits, 1.0 / 6.4e9)
        jitter = rng.normal(0.0, jitter_ui / 6.4e9, times.size)
        wf = synthesize_nrz(bits, 6.4e9, 2e-12, edge_jitter=jitter)
        order = np.argsort(times + jitter, kind="stable")
        reference = _reference_render(
            (times + jitter)[order],
            targets[order],
            len(wf),
            2e-12,
            0.4,
            30e-12,
            wf.t0,
            None,
        )
        assert wf.values.tobytes() == reference.tobytes()

    def test_rejects_descending_times(self):
        with pytest.raises(WaveformError):
            render_transitions(
                np.array([2e-10, 1e-10]),
                np.array([1, 0]),
                duration=1e-9,
                dt=1e-12,
                amplitude=0.4,
                rise_time=0.0,
            )

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejects_non_finite_times(self, bad):
        # A non-finite instant has no sample to land on.
        with pytest.raises(WaveformError):
            render_transitions(
                np.array([1e-10, bad]),
                np.array([1, 0]),
                duration=1e-9,
                dt=1e-12,
                amplitude=0.4,
                rise_time=0.0,
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(WaveformError):
            render_transitions(
                np.array([1e-10]),
                np.array([1, 0]),
                duration=1e-9,
                dt=1e-12,
                amplitude=0.4,
                rise_time=0.0,
            )


class TestSynthesizeNrz:
    def test_edge_count_matches_pattern(self):
        bits = [0, 1, 0, 1, 1, 0]
        # Transitions relative to an initial 0: at bits 1, 2, 3, and 5.
        wf = synthesize_nrz(bits, 2.4e9, 1e-12)
        edges = crossing_times(wf, 0.0)
        assert edges.size == 4

    def test_levels_are_plus_minus_amplitude(self):
        wf = synthesize_nrz([0, 0, 1, 1, 1], 1e9, 1e-12, amplitude=0.3)
        assert wf.values.max() == pytest.approx(0.3, rel=0.02)
        assert wf.values.min() == pytest.approx(-0.3, rel=0.02)

    def test_lead_in_starts_settled(self):
        wf = synthesize_nrz([1, 0], 2.4e9, 1e-12, lead_ui=2.0)
        assert wf.t0 == pytest.approx(-2.0 / 2.4e9)
        assert wf.values[0] == pytest.approx(-0.4, rel=0.05)

    def test_edge_jitter_moves_crossings(self):
        bits = [0, 1, 0, 1, 0, 1]
        jitter = np.array([0.0, 5e-12, 0.0, -5e-12, 0.0])
        clean = synthesize_nrz(bits, 1e9, 1e-12)
        dirty = synthesize_nrz(bits, 1e9, 1e-12, edge_jitter=jitter)
        clean_edges = crossing_times(clean, 0.0)
        dirty_edges = crossing_times(dirty, 0.0)
        deltas = dirty_edges - clean_edges
        np.testing.assert_allclose(deltas, jitter, atol=0.2e-12)

    def test_edge_jitter_length_mismatch(self):
        with pytest.raises(WaveformError):
            synthesize_nrz(
                [0, 1, 0], 1e9, 1e-12, edge_jitter=np.zeros(5)
            )

    def test_rejects_bad_rate(self):
        with pytest.raises(PatternError):
            synthesize_nrz([0, 1], 0.0, 1e-12)

    @pytest.mark.parametrize("initial_bit", (0, 1))
    def test_edgeless_pattern_holds_initial_bit_level(self, initial_bit):
        # Regression: an all-ones pattern after initial_bit=1 has no
        # transition, and rendered at -amplitude instead of +amplitude.
        bits = [initial_bit] * 4
        wf = synthesize_nrz(bits, 6.4e9, 1e-11, initial_bit=initial_bit)
        level = 0.4 if initial_bit else -0.4
        np.testing.assert_allclose(wf.values, level, rtol=1e-12)

    def test_rejects_negative_lead(self):
        with pytest.raises(PatternError):
            synthesize_nrz([0, 1], 1e9, 1e-12, lead_ui=-1.0)

    @given(st.integers(2, 40), st.sampled_from([1e9, 2.4e9, 6.4e9]))
    @settings(max_examples=20, deadline=None)
    def test_crossings_on_ui_grid(self, n_bits, rate):
        # Without jitter every crossing sits on an integer multiple of
        # the unit interval.
        rng = np.random.default_rng(n_bits)
        bits = rng.integers(0, 2, n_bits)
        bits[0] = 1  # guarantee at least one edge at t=0
        wf = synthesize_nrz(bits, rate, 0.5e-12)
        edges = crossing_times(wf, 0.0)
        ui = 1.0 / rate
        fractional = np.abs(edges / ui - np.round(edges / ui))
        assert np.all(fractional < 0.005)


class TestClocks:
    def test_clock_frequency(self):
        wf = synthesize_clock(1e9, 10, 1e-12)
        rising = crossing_times(wf, 0.0, "rising")
        periods = np.diff(rising)
        np.testing.assert_allclose(periods, 1e-9, rtol=1e-3)

    def test_clock_edge_count(self):
        wf = synthesize_clock(1e9, 10, 1e-12)
        edges = crossing_times(wf, 0.0)
        assert edges.size == 20

    def test_rz_clock_duty_cycle(self):
        wf = synthesize_rz_clock(1e9, 10, 1e-12, duty_cycle=0.25)
        rising = crossing_times(wf, 0.0, "rising")
        falling = crossing_times(wf, 0.0, "falling")
        widths = falling[: len(rising)] - rising[: len(falling)]
        np.testing.assert_allclose(widths.mean(), 0.25e-9, rtol=0.02)

    def test_rz_clock_half_duty_matches_square(self):
        rz = synthesize_rz_clock(1e9, 10, 1e-12, duty_cycle=0.5)
        edges = crossing_times(rz, 0.0)
        spacing = np.diff(edges)
        np.testing.assert_allclose(spacing, 0.5e-9, rtol=1e-3)

    def test_rz_rejects_bad_duty(self):
        with pytest.raises(PatternError):
            synthesize_rz_clock(1e9, 10, 1e-12, duty_cycle=1.5)

    def test_clock_rejects_bad_frequency(self):
        with pytest.raises(PatternError):
            synthesize_clock(-1e9, 10, 1e-12)


class TestStep:
    def test_rising_step(self):
        wf = synthesize_step(1e-12, rising=True)
        assert wf.values[0] == pytest.approx(-0.4, rel=0.05)
        assert wf.values[-1] == pytest.approx(0.4, rel=0.05)

    def test_falling_step(self):
        wf = synthesize_step(1e-12, rising=False)
        assert wf.values[0] == pytest.approx(0.4, rel=0.05)
        assert wf.values[-1] == pytest.approx(-0.4, rel=0.05)

    def test_step_time_is_crossing(self):
        wf = synthesize_step(1e-12, step_time=0.2e-9)
        edges = crossing_times(wf, 0.0, "rising")
        assert edges[0] == pytest.approx(0.2e-9, abs=0.1e-12)


class TestNRZStreamSource:
    BIT_RATE = 1e9

    def _source(self, bits, chunk_samples, **kwargs):
        return NRZStreamSource(
            bits, self.BIT_RATE, 10e-12, chunk_samples, **kwargs
        )

    def _drain(self, source):
        chunks = list(source)
        return chunks, np.concatenate([c.values for c in chunks])

    @pytest.mark.parametrize(
        "chunk_samples, bit_rate, dt, rise_time",
        [
            pytest.param(chunk, *geometry, id=f"{name}{chunk}")
            for name, geometry in (
                ("", (1e9, 10e-12, 30e-12)),  # Gaussian half-width 8
                ("ui<dt-", (40e9, 60e-12, 30e-12)),  # colliding indices
                ("wide-kernel-", (1e9, 10e-12, 300e-12)),  # half-width 72
                ("rise0-", (1e9, 10e-12, 0.0)),  # no guard band
            )
            for chunk in (1, 7, 100, 4096, 10**9)
        ],
    )
    def test_sample_exact_against_monolithic(
        self, chunk_samples, bit_rate, dt, rise_time
    ):
        from repro.signals import prbs_sequence

        bits = prbs_sequence(7, 127)
        mono = synthesize_nrz(bits, bit_rate, dt, rise_time=rise_time)
        source = NRZStreamSource(
            bits, bit_rate, dt, chunk_samples, rise_time=rise_time
        )
        chunks, values = self._drain(source)
        assert values.size == len(mono)
        assert values.tobytes() == mono.values.tobytes()
        assert chunks[0].t0 == mono.t0
        assert source.n_samples_total == len(mono)

    @pytest.mark.parametrize("chunk_samples", (1, 3, 64))
    def test_edgeless_pattern_matches_monolithic(self, chunk_samples):
        mono = synthesize_nrz([1, 1, 1, 1], 6.4e9, 1e-11, initial_bit=1)
        _, values = self._drain(
            NRZStreamSource(
                [1, 1, 1, 1], 6.4e9, 1e-11, chunk_samples, initial_bit=1
            )
        )
        assert values.tobytes() == mono.values.tobytes()

    def test_chunk_time_axes_are_contiguous(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        source = self._source(bits, 64)
        chunks, _ = self._drain(source)
        cursor = 0
        for chunk in chunks:
            assert chunk.t0 == pytest.approx(
                chunks[0].t0 + 10e-12 * cursor, abs=1e-18
            )
            cursor += len(chunk)

    def test_zero_rise_time_path(self):
        bits = [0, 1, 0, 1, 1, 0]
        mono = synthesize_nrz(bits, self.BIT_RATE, 10e-12, rise_time=0.0)
        _, values = self._drain(self._source(bits, 33, rise_time=0.0))
        np.testing.assert_array_equal(values, mono.values)

    def test_callable_bit_source(self):
        from repro.signals import PRBSGenerator, prbs_sequence

        bits = prbs_sequence(7, 400)
        mono = synthesize_nrz(bits, self.BIT_RATE, 10e-12)
        source = self._source(
            PRBSGenerator(7).take, 512, n_bits=400
        )
        _, values = self._drain(source)
        np.testing.assert_array_equal(values, mono.values)

    def test_callable_source_requires_n_bits(self):
        with pytest.raises(PatternError):
            self._source(lambda n: np.zeros(n, dtype=np.uint8), 64)

    def test_short_bit_source_detected(self):
        def starved(count):
            return np.zeros(min(count, 3), dtype=np.uint8)

        source = self._source(starved, 64, n_bits=5000)
        with pytest.raises(PatternError):
            self._drain(source)

    def test_rejects_bad_chunk_samples(self):
        with pytest.raises(WaveformError):
            self._source([0, 1], 0)

    def test_rejects_empty_bits(self):
        with pytest.raises(PatternError):
            self._source([], 64)

    def test_rejects_n_bits_beyond_sequence(self):
        with pytest.raises(PatternError):
            self._source([0, 1, 1], 64, n_bits=10)
