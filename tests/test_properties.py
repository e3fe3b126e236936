"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold across module boundaries, exercised on
randomly generated inputs: delay additivity, monotonicity of control
laws, calibration round trips, model-order sanity for the event
model under random (but physical) parameters, and the paper's delay
line invariants over the variation model's +-3 sigma box.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.analysis import measure_delay
from repro.circuits import (
    Chain,
    ControlDAC,
    IdealDelay,
    TransmissionLine,
)
from repro.campaign.variation import InstanceVariation
from repro.core import (
    CalibrationTable,
    CombinedDelayLine,
    EventDelayModel,
    calibration_stimulus,
)
from repro.errors import CalibrationError
from repro.core.params import (
    COARSE_TAP_ERRORS,
    FOUR_STAGE_BUFFER,
    SOURCE_RISE_TIME,
)
from repro.circuits.vga_buffer import BufferParams
from repro.signals import synthesize_nrz


def _stimulus():
    return synthesize_nrz([0, 1, 1, 0, 1, 0, 0, 1] * 2, 2.4e9, 1e-12)


STIM = _stimulus()


class TestDelayAdditivity:
    @given(
        st.lists(
            st.floats(min_value=-200e-12, max_value=200e-12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_ideal_delays_add(self, delays):
        chain = Chain(*[IdealDelay(d) for d in delays])
        out = chain.process(STIM)
        measured = measure_delay(STIM, out).delay
        assert measured == pytest.approx(sum(delays), abs=1e-15)

    @given(
        st.floats(min_value=0.0, max_value=80e-12),
        st.floats(min_value=0.0, max_value=80e-12),
    )
    @settings(max_examples=30, deadline=None)
    def test_lossless_lines_add(self, d1, d2):
        chain = Chain(
            TransmissionLine(d1, loss_db=0.0, dispersive=False),
            TransmissionLine(d2, loss_db=0.0, dispersive=False),
        )
        out = chain.process(STIM)
        assert measure_delay(STIM, out).delay == pytest.approx(
            d1 + d2, abs=1e-15
        )


class TestControlLawProperties:
    @given(
        st.floats(min_value=0.02, max_value=0.3),
        st.floats(min_value=0.35, max_value=0.9),
        st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_amplitude_curve_monotone_for_any_shape(
        self, a_min, a_max, shape
    ):
        assume(a_min < a_max)
        params = BufferParams(
            amplitude_min=a_min, amplitude_max=a_max, control_shape=shape
        )
        v = np.linspace(params.vctrl_min, params.vctrl_max, 33)
        amplitudes = params.amplitude_from_vctrl(v)
        assert np.all(np.diff(amplitudes) > 0)
        assert amplitudes[0] == pytest.approx(a_min, rel=1e-6)
        assert amplitudes[-1] == pytest.approx(a_max, rel=1e-6)

    @given(
        st.floats(min_value=1e9, max_value=20e9),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_compression_monotone_in_half_period(self, corner, order):
        params = BufferParams(
            compression_corner=corner, compression_order=order
        )
        periods = np.geomspace(5e-12, 5e-9, 24)
        factors = params.compression_factor(periods)
        assert np.all(np.diff(factors) >= 0)
        assert np.all((factors > 0) & (factors <= 1))


class TestCalibrationProperties:
    @given(
        st.lists(
            st.floats(min_value=-2e-12, max_value=2e-12),
            min_size=5,
            max_size=15,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_isotonic_cleanup_never_decreases(self, noise):
        # A noisy but basically rising curve stays invertible.
        n = len(noise)
        base = np.linspace(0.0, 50e-12, n)
        table = CalibrationTable(
            vctrls=np.linspace(0.0, 1.5, n),
            delays=base + np.asarray(noise),
        )
        assert np.all(np.diff(table.delays) >= 0)
        # Inversion round trip holds for any delay inside the range.
        mid = table.delays[0] + table.range / 2
        vctrl = table.vctrl_for_delay(mid)
        assert table.delay_for_vctrl(vctrl) == pytest.approx(
            mid, abs=1e-15
        )

    @given(st.integers(min_value=4, max_value=14), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dac_monotone_for_any_part(self, n_bits, seed):
        dac = ControlDAC(n_bits=n_bits, dnl_lsb=0.5, seed=seed)
        codes = np.linspace(0, dac.n_codes - 1, min(dac.n_codes, 64)).astype(
            int
        )
        voltages = [dac.voltage(int(c)) for c in codes]
        assert all(b > a for a, b in zip(voltages, voltages[1:]))


class TestEventModelProperties:
    @given(
        st.floats(min_value=20e9, max_value=100e9),
        st.floats(min_value=5e9, max_value=30e9),
    )
    @settings(max_examples=40, deadline=None)
    def test_delay_monotone_in_vctrl_for_any_physics(
        self, slew_rate, bandwidth
    ):
        params = BufferParams(slew_rate=slew_rate, bandwidth=bandwidth)
        model = EventDelayModel(params=params)
        vctrls = np.linspace(0.0, 1.5, 9)
        delays = [model.total_delay(float(v)) for v in vctrls]
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    @given(st.floats(min_value=30e-12, max_value=1e-9))
    @settings(max_examples=40, deadline=None)
    def test_range_never_exceeds_dc_range(self, half_period):
        model = EventDelayModel()
        assert model.delay_range(half_period) <= model.delay_range() + 1e-15

    @given(
        st.lists(
            st.floats(min_value=50e-12, max_value=2e-9),
            min_size=2,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_propagated_edges_stay_monotone(self, gaps):
        times = np.cumsum(np.asarray(gaps))
        model = EventDelayModel()
        out = model.propagate_edges(
            times, vctrl=1.2, rng=np.random.default_rng(1)
        )
        assert np.all(np.diff(out) >= 0)


class TestDelayLineInvariants:
    @given(
        slew=st.floats(min_value=0.82, max_value=1.18),
        amplitude=st.floats(min_value=0.88, max_value=1.12),
        taps=st.lists(
            st.floats(min_value=-6e-12, max_value=6e-12),
            min_size=len(COARSE_TAP_ERRORS),
            max_size=len(COARSE_TAP_ERRORS),
        ),
        rise_time=st.floats(min_value=0.85, max_value=1.15),
        noise=st.floats(min_value=0.7, max_value=1.3),
    )
    @example(
        slew=1.0, amplitude=1.0, taps=[0.0] * 4, rise_time=1.0, noise=1.0
    )
    @example(
        slew=1.18,
        amplitude=0.88,
        taps=[6e-12, -6e-12, 6e-12, -6e-12],
        rise_time=1.0,
        noise=1.0,
    )
    @settings(max_examples=10, deadline=None)
    def test_calibration_monotone_and_in_spec_across_variation(
        self, slew, amplitude, taps, rise_time, noise
    ):
        """An instance inside the +-3 sigma box calibrates to a fine
        curve non-decreasing in Vctrl and >= 120 ps of total range (the
        paper's requirement).

        Not every instance calibrates: with a fast slew and opposing
        tap offsets the fine range cannot bridge the widest coarse step
        (the second example: 42.3 ps of fine range for a 49.8 ps gap).
        The solver must then refuse, naming the gap, rather than return
        a line with an unreachable band of delays.
        """
        variation = InstanceVariation(
            slew_rate_scale=slew,
            amplitude_scale=amplitude,
            tap_error_offsets=tuple(taps),
            rise_time_scale=rise_time,
            noise_sigma_scale=noise,
        )
        line = CombinedDelayLine(
            seed=3,
            buffer_params=variation.buffer_params(FOUR_STAGE_BUFFER),
            tap_errors=variation.tap_errors(COARSE_TAP_ERRORS),
        )
        stimulus = calibration_stimulus(
            n_bits=32, rise_time=variation.rise_time(SOURCE_RISE_TIME)
        )
        try:
            solver = line.calibrate(stimulus=stimulus, n_points=9)
        except CalibrationError as exc:
            assert "cannot cover the largest coarse gap" in str(exc)
            return
        assert np.all(np.diff(solver.fine_table.delays) >= 0)
        assert solver.total_range >= 120e-12
