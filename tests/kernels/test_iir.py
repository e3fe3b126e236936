"""``repro.kernels.iir`` gives ``scipy.signal``'s bytes.

The program filters through :mod:`repro.kernels.iir`, which calls
scipy's compiled ``_linear_filter`` directly and solves ``lfilter_zi``
in numpy, so that ``scipy.signal`` is never imported.  These tests pin
that both functions return exactly what ``scipy.signal.lfilter`` and
``scipy.signal.lfilter_zi`` return, on every ``(b, a)`` the program
builds: the bilinear one-pole low-pass over a dt/tau grid that holds
both benchmark workloads' stages (dt 1 ps and 19.5 ps, tau about
1–13 ps), and the AC-coupling high-pass.  They also pin the
correlation path of :mod:`repro.analysis.measurements`, which no longer
calls ``scipy.signal.correlate`` or ``scipy.fft``.
"""

import sys

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from repro.analysis import measurements
from repro.analysis.measurements import coarse_delay_estimate
from repro.kernels import iir
from repro.signals import filters, synthesize_nrz
from repro.signals.filters import (
    bandwidth_to_time_constant,
    bilinear_lowpass_coefficients,
)
from repro.signals.waveform import Waveform

#: Stage time constants: a grid over 0.5–50 ps plus the nominal stage
#: bandwidths (12, 14 and 20 GHz) of the benchmark workloads.
TAUS = list(np.geomspace(0.5e-12, 50e-12, 13)) + [
    bandwidth_to_time_constant(bw) for bw in (12e9, 14e9, 20e9)
]
DTS = [1e-12, 2e-12, 5e-12, 1.953125e-11, 20e-12]


def _same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _check_filter(b, a, rng):
    """iir.lfilter/lfilter_zi equal scipy's on 1-D records and batches."""
    zi = iir.lfilter_zi(b, a)
    _same(zi, scipy.signal.lfilter_zi(b, a))
    record = rng.standard_normal(257)
    _same(iir.lfilter(b, a, record), scipy.signal.lfilter(b, a, record))
    for got, want in zip(
        iir.lfilter(b, a, record, zi=zi * record[0]),
        scipy.signal.lfilter(b, a, record, zi=zi * record[0]),
    ):
        _same(got, want)
    batch = rng.standard_normal((5, 129))
    _same(
        iir.lfilter(b, a, batch, axis=1),
        scipy.signal.lfilter(b, a, batch, axis=1),
    )
    lanes_zi = zi[None, :] * batch[:, :1]
    for got, want in zip(
        iir.lfilter(b, a, batch, axis=1, zi=lanes_zi),
        scipy.signal.lfilter(b, a, batch, axis=1, zi=lanes_zi),
    ):
        _same(got, want)


@pytest.mark.parametrize("dt", DTS)
def test_lowpass_filters_match_scipy(dt):
    rng = np.random.default_rng(round(dt * 1e15))
    for tau in TAUS:
        _check_filter(*bilinear_lowpass_coefficients(dt, tau), rng)


def test_highpass_filters_match_scipy(monkeypatch):
    """The ``(b, a)`` that ``single_pole_highpass`` builds, as it calls it."""
    calls = []

    def recording_lfilter(b, a, x, axis=-1, zi=None):
        calls.append((b, a))
        return iir.lfilter(b, a, x, axis=axis, zi=zi)

    monkeypatch.setattr(filters, "lfilter", recording_lfilter)
    rng = np.random.default_rng(5)
    for dt in DTS:
        for cutoff in (1e6, 50e6, 1e9, 10e9):
            values = rng.standard_normal(64)
            got = filters.single_pole_highpass(Waveform(values, dt), cutoff)
            b, a = calls[-1]
            zi = scipy.signal.lfilter_zi(b, a) * values[0]
            want, _ = scipy.signal.lfilter(b, a, values, zi=zi)
            _same(got.values, want)
            _check_filter(b, a, rng)
    assert len(calls) == len(DTS) * 4


@pytest.mark.parametrize("a", [[1.0], [2.0]])
def test_short_denominator_raises(a):
    # scipy sends len(a) == 1 down its FIR (convolve) branch, which
    # this module does not reproduce.
    with pytest.raises(ValueError, match="len\\(a\\) >= 2"):
        iir.lfilter([0.5, 0.5], a, np.ones(8))
    with pytest.raises(ValueError, match="len\\(a\\) >= 2"):
        iir.lfilter_zi([0.5, 0.5], a)


def test_zero_leading_denominator_raises():
    with pytest.raises(ValueError, match="a\\[0\\] != 0"):
        iir.lfilter([0.5, 0.5], [0.0, 1.0], np.ones(8))


def test_scipy_signal_reuses_the_loaded_extension():
    # scipy's own lfilter runs the very module iir loaded.
    sigtools = sys.modules["scipy.signal._sigtools"]
    assert scipy.signal._signaltools._sigtools is sigtools
    assert iir._linear_filter is sigtools._linear_filter


def test_next_fast_len_matches_scipy():
    for n in range(1, 2**17 + 1):
        assert measurements._next_fast_len(n) == scipy.fft.next_fast_len(
            n, True
        ), n


def _nrz_pairs():
    """Reference/delayed NRZ record pairs: dt 1–20 ps, random delays."""
    rng = np.random.default_rng(29)
    for dt in (1e-12, 2e-12, 5e-12, 10e-12, 20e-12):
        for _ in range(8):
            bit_rate = float(rng.uniform(1.0e9, 6.4e9))
            bits = rng.integers(0, 2, int(rng.integers(16, 64)))
            rise = float(rng.uniform(20e-12, 60e-12))
            delay = float(rng.uniform(0.0, 4.0 / bit_rate))
            reference = synthesize_nrz(bits, bit_rate, dt, rise_time=rise)
            # The same record with every edge *delay* later: a longer
            # lead keeps the record's start on the reference's.
            delayed = synthesize_nrz(
                bits,
                bit_rate,
                dt,
                rise_time=rise,
                t0=delay,
                lead_ui=2.0 + delay * bit_rate,
            )
            # Start it a few samples late, cut it short and add noise,
            # as a scope trace would be.
            shift = int(rng.integers(0, 4))
            end = len(delayed) - int(rng.integers(0, 9))
            values = delayed.values[shift:end]
            values = values + rng.normal(0.0, 0.01, values.shape)
            yield reference, Waveform(values, dt, delayed.t0 + shift * dt)


@pytest.mark.parametrize("reference, delayed", list(_nrz_pairs()))
def test_coarse_delay_is_scipy_correlate_argmax(reference, delayed):
    a = reference.values - reference.values.mean()
    b = delayed.values - delayed.values.mean()
    n = min(len(a), len(b))
    correlation = scipy.signal.correlate(
        b[:n], a[:n], mode="full", method="fft"
    )
    lag = int(np.argmax(correlation)) - (n - 1)
    want = lag * reference.dt + (delayed.t0 - reference.t0)
    assert coarse_delay_estimate(reference, delayed) == want
