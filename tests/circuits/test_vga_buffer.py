"""Tests for the variable-gain buffer — the paper's key component."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis import measure_delay
from repro.circuits import (
    BufferParams,
    VariableGainBuffer,
    band_limited_noise,
)
from repro.circuits.vga_buffer import BandLimitedNoise
from repro.errors import CircuitError, ControlRangeError
from repro.kernels import python_backend
from repro.kernels.cascade import CascadeStage
from repro.signals import Waveform, synthesize_nrz


def slew_limit(values, max_step, initial=None):
    """The active backend's slew loop, the cascade's slew step."""
    values = np.asarray(values, dtype=np.float64)
    start = float(values[0]) if initial is None else float(initial)
    return kernels.get_backend().slew_limit(values, max_step, start)


def compressive_slew_limit(
    v_in,
    target_floor,
    target_extra,
    max_step,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval=1.0,
):
    """One fresh record through the reference compressive slew loop."""
    return python_backend.compressive_slew_limit_carry(
        v_in, target_floor, target_extra, max_step, dt, hysteresis,
        corner, order, initial_interval, 0, 0, 0.0, 1.0, 0.0, False,
    )[0]


def stage_with_step(max_step, corner):
    """A one-stage cascade plan with the given slew step."""
    return CascadeStage(
        amplitude=np.asarray(0.4),
        amplitude_min=0.1,
        v_linear=0.03,
        max_step=max_step,
        corner=corner,
        order=3,
        b=np.array([0.5, 0.5]),
        a=np.array([1.0, 0.0]),
        zi_unit=np.array([0.5]),
    )


@pytest.fixture(scope="module")
def nrz():
    return synthesize_nrz(
        [0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0] * 3, 2.4e9, 1e-12
    )


class TestBufferParams:
    def test_defaults_valid(self):
        params = BufferParams()
        assert params.amplitude_min < params.amplitude_max

    def test_amplitude_curve_endpoints(self):
        params = BufferParams()
        assert params.amplitude_from_vctrl(params.vctrl_min) == pytest.approx(
            params.amplitude_min
        )
        assert params.amplitude_from_vctrl(params.vctrl_max) == pytest.approx(
            params.amplitude_max
        )

    def test_amplitude_curve_clamps(self):
        params = BufferParams()
        assert params.amplitude_from_vctrl(-10.0) == pytest.approx(
            params.amplitude_min
        )
        assert params.amplitude_from_vctrl(+10.0) == pytest.approx(
            params.amplitude_max
        )

    def test_amplitude_curve_monotone(self):
        params = BufferParams()
        v = np.linspace(params.vctrl_min, params.vctrl_max, 101)
        amplitudes = params.amplitude_from_vctrl(v)
        assert np.all(np.diff(amplitudes) > 0)

    def test_amplitude_curve_s_shape(self):
        # Slope at the centre exceeds slope at the ends.
        params = BufferParams()
        def slope(v, h=1e-3):
            return (
                params.amplitude_from_vctrl(v + h)
                - params.amplitude_from_vctrl(v - h)
            ) / (2 * h)
        centre = (params.vctrl_min + params.vctrl_max) / 2
        assert slope(centre) > slope(params.vctrl_min + 0.01)
        assert slope(centre) > slope(params.vctrl_max - 0.01)

    def test_array_input(self):
        params = BufferParams()
        out = params.amplitude_from_vctrl(np.array([0.0, 0.75, 1.5]))
        assert out.shape == (3,)

    def test_compression_factor_limits(self):
        params = BufferParams()
        assert params.compression_factor(1.0) == pytest.approx(1.0)
        assert params.compression_factor(1e-12) < 0.01

    def test_compression_factor_monotone(self):
        params = BufferParams()
        periods = np.logspace(-12, -9, 20)
        factors = params.compression_factor(periods)
        assert np.all(np.diff(factors) > 0)

    def test_compression_disabled(self):
        params = BufferParams(compression_corner=float("inf"))
        assert params.compression_factor(1e-12) == pytest.approx(1.0)

    def test_nominal_delay_grows_with_amplitude(self):
        params = BufferParams()
        assert params.nominal_delay(0.75) > params.nominal_delay(0.1)

    def test_nominal_delay_compresses_at_speed(self):
        params = BufferParams()
        slow = params.nominal_delay(0.75, half_period=math.inf)
        fast = params.nominal_delay(0.75, half_period=78e-12)
        assert fast < slow

    def test_with_updates(self):
        params = BufferParams().with_updates(slew_rate=99e9)
        assert params.slew_rate == 99e9
        assert params.bandwidth == BufferParams().bandwidth

    @pytest.mark.parametrize(
        "field,value",
        [
            ("amplitude_min", -0.1),
            ("amplitude_min", 0.9),  # above amplitude_max
            ("v_linear", 0.0),
            ("slew_rate", -1.0),
            ("bandwidth", 0.0),
            ("noise_sigma", -1e-3),
            ("compression_corner", 0.0),
            ("compression_order", 0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(CircuitError):
            BufferParams(**{field: value})


class TestSlewLimit:
    def test_tracks_slow_target(self):
        target = np.linspace(0.0, 1.0, 100)
        out = slew_limit(target, max_step=0.5)
        np.testing.assert_allclose(out, target)

    def test_limits_fast_step(self):
        target = np.concatenate([np.zeros(5), np.ones(20)])
        out = slew_limit(target, max_step=0.1)
        # After the step the output climbs 0.1 per sample.
        np.testing.assert_allclose(out[5:15], 0.1 * np.arange(1, 11))

    def test_initial_override(self):
        target = np.ones(10)
        out = slew_limit(target, max_step=0.25, initial=0.0)
        assert out[0] == pytest.approx(0.25)

    def test_symmetric_down(self):
        target = np.concatenate([np.ones(5), -np.ones(20)])
        out = slew_limit(target, max_step=0.5)
        assert out[6] == pytest.approx(0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(CircuitError):
            stage_with_step(0.0, corner=math.inf)

    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1), min_size=2, max_size=100
        ),
        st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_step_bound_invariant(self, targets, max_step):
        out = slew_limit(np.asarray(targets), max_step)
        assert np.all(np.abs(np.diff(out)) <= max_step + 1e-12)

    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1), min_size=2, max_size=100
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_output_within_target_envelope(self, targets):
        targets = np.asarray(targets)
        out = slew_limit(targets, max_step=0.3)
        assert out.max() <= targets.max() + 1e-12
        assert out.min() >= targets.min() - 1e-12


class TestBandLimitedNoise:
    def test_exact_sigma(self, rng):
        noise = band_limited_noise(50000, 5e-3, 20e9, 1e-12, rng)
        # Normalised to exact RMS; std differs only by the tiny mean.
        assert np.std(noise) == pytest.approx(5e-3, rel=1e-3)

    def test_sigma_independent_of_dt(self):
        a = band_limited_noise(
            20000, 5e-3, 20e9, 1e-12, np.random.default_rng(1)
        )
        b = band_limited_noise(
            20000, 5e-3, 20e9, 0.25e-12, np.random.default_rng(1)
        )
        assert np.std(a) == pytest.approx(np.std(b), rel=1e-2)

    def test_zero_sigma(self, rng):
        assert np.all(band_limited_noise(100, 0.0, 20e9, 1e-12, rng) == 0.0)

    def test_zero_samples(self, rng):
        assert band_limited_noise(0, 5e-3, 20e9, 1e-12, rng).size == 0

    def test_bandwidth_limits_spectrum(self, rng):
        # Narrow-band noise has longer correlation than wide-band.
        narrow = band_limited_noise(50000, 1.0, 0.5e9, 1e-12, rng)
        wide = band_limited_noise(50000, 1.0, 600e9, 1e-12, rng)
        def lag1(x):
            return np.corrcoef(x[:-1], x[1:])[0, 1]
        assert lag1(narrow) > 0.9
        assert lag1(wide) < 0.5

    def test_record_starts_stationary(self):
        # Regression: the pre-fix filter started from zero state, so
        # every record opened with a depressed startup transient (the
        # first sample was essentially 0 for narrow-band noise).  The
        # record must be a snapshot of a long-running process: the
        # first sample carries full noise power.
        sigma = 0.1
        first = np.array(
            [
                band_limited_noise(
                    64, sigma, 5e9, 1e-12, np.random.default_rng(seed)
                )[0]
                for seed in range(400)
            ]
        )
        # Per-record exact-RMS rescaling widens the spread slightly;
        # pre-fix the first-sample std was ~0.02 * sigma.
        assert np.std(first) == pytest.approx(sigma, rel=0.25)

    def test_steady_state_power_record_length_invariant(self):
        # Regression: rescaling to exact RMS over a record whose head
        # was a zero-state startup transient *inflated* the tail power
        # of short records (~30 % at 32 samples with a 5 GHz corner)
        # while leaving long records nearly unbiased.  The delivered
        # noise power must not depend on how long a record the caller
        # asked for.
        sigma, bandwidth, dt = 0.1, 5e9, 1e-12

        def tail_power(n, seed):
            noise = band_limited_noise(
                n, sigma, bandwidth, dt, np.random.default_rng(seed)
            )
            return np.mean(noise[n // 2 :] ** 2)

        short = np.mean([tail_power(32, s) for s in range(300)])
        long = np.mean([tail_power(4096, s) for s in range(30)])
        assert math.sqrt(short) == pytest.approx(sigma, rel=0.08)
        assert math.sqrt(short) == pytest.approx(math.sqrt(long), rel=0.08)


    @pytest.mark.parametrize("bandwidth", [5e9, 600e9])
    def test_chunked_draws_continue_one_record(self, bandwidth):
        # A source drawn chunk by chunk, at the gain its first draw of
        # the whole record froze, is that record sample for sample.
        whole = BandLimitedNoise(
            0.1, bandwidth, 1e-12, np.random.default_rng(3)
        )
        record = whole.draw(1000)
        source = BandLimitedNoise(
            0.1, bandwidth, 1e-12, np.random.default_rng(3)
        )
        source.gain = whole.gain
        chunks = [source.draw(n) for n in (1, 300, 699)]
        assert np.concatenate(chunks).tobytes() == record.tobytes()


class TestVariableGainBuffer:
    def test_output_amplitude_tracks_vctrl(self, nrz, rng):
        for vctrl, expect in ((0.0, 0.1), (1.5, 0.75)):
            buffer = VariableGainBuffer(vctrl=vctrl, seed=1)
            out = buffer.process(nrz, rng)
            assert out.amplitude() == pytest.approx(expect, rel=0.1)

    def test_delay_grows_with_vctrl(self, nrz, rng):
        delays = []
        for vctrl in (0.0, 0.75, 1.5):
            buffer = VariableGainBuffer(vctrl=vctrl, seed=1)
            out = buffer.process(nrz, np.random.default_rng(2))
            delays.append(measure_delay(nrz, out).delay)
        assert delays[0] < delays[1] < delays[2]

    def test_per_stage_range_close_to_nominal(self, nrz):
        # The emergent range should be near (A_max-A_min)/SR.
        params = BufferParams()
        outs = {}
        for vctrl in (0.0, 1.5):
            buffer = VariableGainBuffer(params, vctrl=vctrl, seed=1)
            outs[vctrl] = buffer.process(nrz, np.random.default_rng(2))
        measured = measure_delay(outs[0.0], outs[1.5]).delay
        nominal = (
            params.amplitude_max - params.amplitude_min
        ) / params.slew_rate
        assert measured == pytest.approx(nominal, rel=0.5)

    def test_vctrl_setter_validation(self):
        buffer = VariableGainBuffer()
        with pytest.raises(ControlRangeError):
            buffer.vctrl = float("nan")

    def test_vctrl_waveform_accepted(self, nrz, rng):
        control = Waveform.constant(0.75, 1e-6, 1e-9, t0=-1e-7)
        buffer = VariableGainBuffer(vctrl=control, seed=1)
        out = buffer.process(nrz, rng)
        assert out.amplitude() > 0.2

    def test_vctrl_waveform_equivalent_to_scalar(self, nrz):
        # A constant control waveform must behave as the scalar.
        control = Waveform.constant(0.9, 1e-6, 1e-9, t0=-1e-7)
        a = VariableGainBuffer(vctrl=control, seed=1).process(
            nrz, np.random.default_rng(5)
        )
        b = VariableGainBuffer(vctrl=0.9, seed=1).process(
            nrz, np.random.default_rng(5)
        )
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_propagation_delay_shifts_t0(self, nrz, rng):
        buffer = VariableGainBuffer(seed=1)
        out = buffer.process(nrz, rng)
        assert out.t0 == pytest.approx(
            nrz.t0 + buffer.params.propagation_delay
        )

    def test_noiseless_buffer_is_deterministic(self, nrz):
        params = BufferParams(noise_sigma=0.0)
        a = VariableGainBuffer(params, seed=1).process(nrz)
        b = VariableGainBuffer(params, seed=2).process(nrz)
        np.testing.assert_array_equal(a.values, b.values)

    def test_amplitude_at_scalar(self, nrz):
        buffer = VariableGainBuffer(vctrl=1.5)
        assert buffer.amplitude_at(nrz) == pytest.approx(0.75)


class TestCompressiveSlewLimit:
    def test_matches_plain_slew_for_slow_signal(self):
        # A slow square wave sees no compression; outputs must agree.
        n = 4000
        v = np.where((np.arange(n) // 1000) % 2 == 0, -0.4, 0.4)
        target = 0.5 * v
        plain = slew_limit(target, max_step=0.01, initial=target[0])
        comp = compressive_slew_limit(
            v,
            np.zeros(n),
            target,
            max_step=0.01,
            dt=1e-12,
            hysteresis=0.1,
            corner=6.2e9,
            order=3,
            initial_interval=1000e-12,
        )
        # The 1 ns half period still carries ~0.05 % compression.
        np.testing.assert_allclose(comp, plain, atol=5e-4)

    def test_fast_signal_compressed(self):
        # A fast square wave's excursions shrink.
        n = 4000
        period = 100  # samples -> 50 ps half period at dt=0.5ps
        v = np.where((np.arange(n) // (period // 2)) % 2 == 0, -0.4, 0.4)
        target = 0.5 * v
        out = compressive_slew_limit(
            v,
            np.zeros(n),
            target,
            max_step=0.05,
            dt=0.5e-12,
            hysteresis=0.1,
            corner=6.2e9,
            order=3,
            initial_interval=25e-12,
        )
        # Steady-state excursion well below the 0.2 V target.
        assert np.abs(out[2000:]).max() < 0.15

    def test_floor_always_delivered(self):
        # With the whole amplitude in the floor, compression is a no-op.
        n = 2000
        v = np.where((np.arange(n) // 50) % 2 == 0, -0.4, 0.4)
        floor_target = 0.1 * np.sign(v)
        out = compressive_slew_limit(
            v,
            floor_target,
            np.zeros(n),
            max_step=0.05,
            dt=0.5e-12,
            hysteresis=0.1,
            corner=6.2e9,
            order=3,
            initial_interval=12.5e-12,
        )
        assert np.abs(out[1000:]).max() == pytest.approx(0.1, rel=0.05)

    def test_rejects_bad_step(self):
        with pytest.raises(CircuitError):
            stage_with_step(0.0, corner=6e9)
