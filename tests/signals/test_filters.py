"""Tests for the linear filter blocks."""

import math

import numpy as np
import pytest

from repro.errors import WaveformError
from repro.signals import (
    Waveform,
    bandwidth_to_rise_time,
    bandwidth_to_time_constant,
    bilinear_lowpass_coefficients,
    cascade_filter_plan,
    clear_filter_caches,
    gaussian_lowpass,
    lowpass_zi_unit,
    moving_average,
    multi_pole_lowpass,
    rise_time_to_bandwidth,
    single_pole_highpass,
    single_pole_lowpass,
    synthesize_step,
)
from repro.signals.edges import crossing_times


def sine(frequency, dt=1e-12, cycles=50, amplitude=1.0):
    duration = cycles / frequency
    return Waveform.from_function(
        lambda t: amplitude * np.sin(2 * np.pi * frequency * t),
        duration,
        dt,
    )


class TestConversions:
    def test_bandwidth_to_tau(self):
        tau = bandwidth_to_time_constant(1e9)
        assert tau == pytest.approx(1 / (2 * np.pi * 1e9))

    def test_rise_bandwidth_round_trip(self):
        bw = rise_time_to_bandwidth(35e-12)
        assert bandwidth_to_rise_time(bw) == pytest.approx(35e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(WaveformError):
            bandwidth_to_time_constant(0.0)
        with pytest.raises(WaveformError):
            rise_time_to_bandwidth(-1.0)
        with pytest.raises(WaveformError):
            bandwidth_to_rise_time(0.0)


class TestBilinearCoefficients:
    """Pin the shared one-pole bilinear-transform construction.

    Every discrete one-pole in the simulator (filters, stage
    bandwidth, trace dispersion) must build the same ``(b, a)`` pair;
    these values are the closed-form bilinear transform of
    ``1 / (1 + s*tau)`` at sample interval ``dt``.
    """

    def test_pinned_values(self):
        dt, tau = 1e-12, 20e-12
        b, a = bilinear_lowpass_coefficients(dt, tau)
        k = 2.0 * tau / dt
        np.testing.assert_allclose(
            b, [1.0 / (1.0 + k), 1.0 / (1.0 + k)], rtol=0, atol=0
        )
        np.testing.assert_allclose(
            a, [1.0, (1.0 - k) / (1.0 + k)], rtol=0, atol=0
        )

    def test_unity_dc_gain(self):
        for tau in (1e-12, 5e-11, 3e-9):
            b, a = bilinear_lowpass_coefficients(1e-12, tau)
            assert b.sum() / a.sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(WaveformError):
            bilinear_lowpass_coefficients(0.0, 1e-12)
        with pytest.raises(WaveformError):
            bilinear_lowpass_coefficients(1e-12, -1e-12)

    def test_matches_single_pole_lowpass(self):
        # The filter built from the shared coefficients must be the
        # filter single_pole_lowpass applies.
        wave = synthesize_step(1e-12, rise_time=5e-12)
        bandwidth = 10e9
        filtered = single_pole_lowpass(wave, bandwidth)
        from scipy.signal import lfilter, lfilter_zi

        tau = bandwidth_to_time_constant(bandwidth)
        b, a = bilinear_lowpass_coefficients(wave.dt, tau)
        zi = lfilter_zi(b, a) * wave.values[0]
        expected, _ = lfilter(b, a, wave.values, zi=zi)
        np.testing.assert_array_equal(filtered.values, expected)


class TestSinglePoleLowpass:
    def test_minus_3db_at_corner(self):
        wf = sine(1e9, dt=1e-12)
        out = single_pole_lowpass(wf, 1e9)
        # Discard the settling region, compare steady-state amplitude.
        steady = out.slice_time(20e-9, out.t_end)
        gain = steady.amplitude() / 1.0
        assert gain == pytest.approx(1 / np.sqrt(2), rel=0.02)

    def test_passband_flat(self):
        wf = sine(0.1e9, dt=2e-12, cycles=20)
        out = single_pole_lowpass(wf, 10e9)
        steady = out.slice_time(50e-9, out.t_end)
        assert steady.amplitude() == pytest.approx(1.0, rel=0.01)

    def test_dc_preserved(self):
        wf = Waveform.constant(0.7, 5e-9, 1e-12)
        out = single_pole_lowpass(wf, 1e9)
        np.testing.assert_allclose(out.values, 0.7, rtol=1e-6)

    def test_no_startup_transient_from_settled_level(self):
        wf = Waveform.constant(-0.4, 1e-9, 1e-12)
        out = single_pole_lowpass(wf, 5e9)
        assert abs(out.values[0] + 0.4) < 1e-9

    def test_step_response_rise_time(self):
        step = synthesize_step(0.5e-12, rise_time=1e-12, t_after=2e-9)
        out = single_pole_lowpass(step, 3.5e9)
        # 10-90 rise of a single pole is 2.2 tau = 0.35/BW.
        v = out.values
        swing = v[-1] - v[0]
        t10 = crossing_times(out, v[0] + 0.1 * swing, "rising")[0]
        t90 = crossing_times(out, v[0] + 0.9 * swing, "rising")[0]
        assert (t90 - t10) == pytest.approx(0.35 / 3.5e9, rel=0.05)


class TestMultiPole:
    def test_combined_bandwidth(self):
        wf = sine(1e9, dt=1e-12)
        out = multi_pole_lowpass(wf, 1e9, n_poles=3)
        steady = out.slice_time(20e-9, out.t_end)
        assert steady.amplitude() == pytest.approx(1 / np.sqrt(2), rel=0.03)

    def test_one_pole_equals_single(self):
        wf = sine(2e9, dt=1e-12, cycles=10)
        a = multi_pole_lowpass(wf, 3e9, n_poles=1)
        b = single_pole_lowpass(wf, 3e9)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_rejects_zero_poles(self):
        with pytest.raises(WaveformError):
            multi_pole_lowpass(sine(1e9), 1e9, n_poles=0)


class TestHighpass:
    def test_blocks_dc(self):
        wf = Waveform.constant(0.7, 20e-9, 2e-12)
        out = single_pole_highpass(wf, 1e6)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-6)

    def test_passes_high_frequency(self):
        wf = sine(1e9, dt=1e-12, cycles=20)
        out = single_pole_highpass(wf, 1e6)
        steady = out.slice_time(5e-9, out.t_end)
        assert steady.amplitude() == pytest.approx(1.0, rel=0.01)

    def test_minus_3db_at_corner(self):
        wf = sine(1e6, dt=50e-12, cycles=30)
        out = single_pole_highpass(wf, 1e6)
        steady = out.slice_time(10e-6, out.t_end)
        assert steady.amplitude() == pytest.approx(1 / np.sqrt(2), rel=0.03)


def _reference_convolve(values, kernel, half):
    """Edge-padded ``valid`` convolution, written out as the byte
    reference for the shared kernel and padding helpers."""
    padded = np.concatenate(
        [np.full(half, values[0]), values, np.full(half, values[-1])]
    )
    return np.convolve(padded, kernel, mode="valid")


def _reference_gaussian(values, sigma_samples):
    half_width = max(1, int(math.ceil(4.0 * sigma_samples)))
    x = np.arange(-half_width, half_width + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma_samples) ** 2)
    kernel /= kernel.sum()
    return _reference_convolve(values, kernel, half_width)


class TestGaussianAndBoxcar:
    @pytest.mark.parametrize("n", (1, 2, 17, 1000))
    @pytest.mark.parametrize("sigma", (0.2e-12, 1e-12, 7.7e-12, 40e-12))
    def test_gaussian_bytes_pinned(self, n, sigma):
        rng = np.random.default_rng(n)
        wf = Waveform(rng.normal(0.0, 0.3, n), 1e-12, 2e-12)
        out = gaussian_lowpass(wf, sigma)
        reference = _reference_gaussian(wf.values, sigma / 1e-12)
        assert out.values.tobytes() == reference.tobytes()
        assert (out.dt, out.t0) == (wf.dt, wf.t0)

    @pytest.mark.parametrize("n", (1, 2, 17, 1000))
    @pytest.mark.parametrize("window_time", (2e-12, 5e-12, 13e-12, 60e-12))
    def test_moving_average_bytes_pinned(self, n, window_time):
        rng = np.random.default_rng(n)
        wf = Waveform(rng.normal(0.0, 0.3, n), 1e-12, 2e-12)
        out = moving_average(wf, window_time)
        window = int(round(window_time / 1e-12)) | 1
        reference = _reference_convolve(
            wf.values, np.full(window, 1.0 / window), window // 2
        )
        assert out.values.tobytes() == reference.tobytes()

    def test_gaussian_preserves_crossing_position(self):
        step = synthesize_step(0.5e-12, rise_time=5e-12, step_time=0.3e-9)
        smoothed = gaussian_lowpass(step, 10e-12)
        before = crossing_times(step, 0.0, "rising")[0]
        after = crossing_times(smoothed, 0.0, "rising")[0]
        assert after == pytest.approx(before, abs=0.05e-12)

    def test_gaussian_zero_sigma_is_copy(self):
        wf = sine(1e9)
        out = gaussian_lowpass(wf, 0.0)
        np.testing.assert_array_equal(out.values, wf.values)

    def test_gaussian_rejects_negative(self):
        with pytest.raises(WaveformError):
            gaussian_lowpass(sine(1e9), -1e-12)

    def test_gaussian_reduces_slope(self):
        step = synthesize_step(0.5e-12, rise_time=5e-12)
        smoothed = gaussian_lowpass(step, 20e-12)
        raw_slope = np.abs(np.diff(step.values)).max()
        smooth_slope = np.abs(np.diff(smoothed.values)).max()
        assert smooth_slope < raw_slope / 2

    def test_moving_average_dc(self):
        wf = Waveform.constant(0.3, 1e-9, 1e-12)
        out = moving_average(wf, 50e-12)
        np.testing.assert_allclose(out.values, 0.3, atol=1e-12)

    def test_moving_average_single_sample_window(self):
        wf = sine(1e9)
        out = moving_average(wf, 0.1e-12)
        np.testing.assert_array_equal(out.values, wf.values)

    def test_moving_average_even_window_preserves_crossing(self):
        # Regression: an even sample count has no centre sample, so the
        # boxcar was effectively asymmetric and every edge shifted by
        # dt/2 (0.5 ps here) — fatal for a library measuring single
        # picoseconds.  The window must be rounded to odd so a linear
        # ramp's zero crossing stays exactly put.
        dt = 1e-12
        t_cross = 500.4e-12
        wf = Waveform.from_function(
            lambda t: 1e9 * (t - t_cross), 1000e-12, dt
        )
        from repro.signals import crossing_times

        for window_time in (4 * dt, 5 * dt, 8 * dt, 9 * dt):
            averaged = moving_average(wf, window_time)
            crossings = crossing_times(averaged, 0.0, "rising")
            assert crossings.size == 1
            assert crossings[0] == pytest.approx(t_cross, abs=1e-15)

    def test_moving_average_attenuates_matched_period(self):
        # Averaging over exactly one period nulls a sine.
        wf = sine(1e9, dt=1e-12)
        out = moving_average(wf, 1e-9)
        steady = out.slice_time(5e-9, out.t_end)
        assert steady.amplitude() < 0.02


class TestFilterCaches:
    """Bounded memo caches behind lowpass_zi_unit / cascade_filter_plan."""

    @pytest.fixture(autouse=True)
    def _fresh_caches(self):
        clear_filter_caches()
        yield
        clear_filter_caches()

    def test_zi_cache_hit_miss_counters(self):
        from repro import instrument

        with instrument.enabled_scope(reset=True) as registry:
            first = lowpass_zi_unit(1e-12, 2e-11)
            second = lowpass_zi_unit(1e-12, 2e-11)
            counters = registry.snapshot()["counters"]
        assert counters["filters.zi_cache_misses"] == 1
        assert counters["filters.zi_cache_hits"] == 1
        assert second is first  # the cached object itself

    def test_plan_cache_hit_miss_counters(self):
        from repro import instrument

        with instrument.enabled_scope(reset=True) as registry:
            first = cascade_filter_plan(1e-12, 2e-11)
            second = cascade_filter_plan(1e-12, 2e-11)
            counters = registry.snapshot()["counters"]
        assert counters["filters.plan_cache_misses"] == 1
        assert counters["filters.plan_cache_hits"] == 1
        assert second is first

    def test_plan_matches_direct_builders(self):
        b, a, zi_unit = cascade_filter_plan(2e-12, 3e-11)
        b_ref, a_ref = bilinear_lowpass_coefficients(2e-12, 3e-11)
        np.testing.assert_array_equal(b, b_ref)
        np.testing.assert_array_equal(a, a_ref)
        np.testing.assert_array_equal(zi_unit, lowpass_zi_unit(2e-12, 3e-11))

    def test_cached_arrays_are_read_only(self):
        b, a, zi_unit = cascade_filter_plan(1e-12, 5e-11)
        for array in (b, a, zi_unit, lowpass_zi_unit(1e-12, 5e-11)):
            assert not array.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = 0.0

    def test_caches_are_bounded_fifo(self):
        from repro.signals import filters

        for i in range(filters._FILTER_CACHE_MAX + 8):
            dt = 1e-12 * (1.0 + i * 1e-3)
            lowpass_zi_unit(dt, 2e-11)
            cascade_filter_plan(dt, 2e-11)
        assert len(filters._ZI_CACHE) == filters._FILTER_CACHE_MAX
        assert len(filters._PLAN_CACHE) == filters._FILTER_CACHE_MAX
        # FIFO: the oldest keys were evicted, the newest survive.
        newest = (float(1e-12 * (1.0 + (filters._FILTER_CACHE_MAX + 7) * 1e-3)),
                  float(2e-11))
        oldest = (float(1e-12), float(2e-11))
        assert newest in filters._ZI_CACHE
        assert oldest not in filters._ZI_CACHE

    def test_clear_filter_caches_forces_resolve(self):
        from repro import instrument
        from repro.signals import filters

        lowpass_zi_unit(1e-12, 2e-11)
        clear_filter_caches()
        assert not filters._ZI_CACHE and not filters._PLAN_CACHE
        with instrument.enabled_scope(reset=True) as registry:
            lowpass_zi_unit(1e-12, 2e-11)
            counters = registry.snapshot()["counters"]
        assert counters["filters.zi_cache_misses"] == 1
