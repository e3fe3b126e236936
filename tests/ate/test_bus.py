"""Tests for the parallel bus model."""

import numpy as np
import pytest

from repro.ate import ParallelBus
from repro.errors import CircuitError


class TestConstruction:
    def test_channel_count(self):
        bus = ParallelBus(n_channels=4, seed=1)
        assert len(bus.channels) == 4
        assert len(bus.delay_lines) == 4

    def test_without_delay_circuits(self):
        bus = ParallelBus(n_channels=3, with_delay_circuits=False, seed=1)
        assert bus.delay_lines is None

    def test_skews_within_spread(self):
        bus = ParallelBus(n_channels=8, skew_spread=150e-12, seed=1)
        for channel in bus.channels:
            assert abs(channel.static_skew) <= 150e-12

    def test_skews_differ_between_channels(self):
        bus = ParallelBus(n_channels=4, seed=1)
        skews = {c.static_skew for c in bus.channels}
        assert len(skews) == 4

    def test_reproducible_given_seed(self):
        a = ParallelBus(n_channels=4, seed=9)
        b = ParallelBus(n_channels=4, seed=9)
        assert [c.static_skew for c in a.channels] == [
            c.static_skew for c in b.channels
        ]

    def test_rejects_single_channel(self):
        with pytest.raises(CircuitError):
            ParallelBus(n_channels=1)

    def test_rejects_negative_spread(self):
        with pytest.raises(CircuitError):
            ParallelBus(skew_spread=-1e-12)


class TestAcquire:
    def test_one_record_per_channel(self, rng):
        bus = ParallelBus(n_channels=3, seed=1)
        records = bus.acquire(
            bus.training_bits(40), rng=rng, through_delay_lines=False
        )
        assert len(records) == 3

    def test_training_bits_default(self):
        bus = ParallelBus(n_channels=2, seed=1)
        bits = bus.training_bits()
        assert bits.size == 127

    def test_calibrate_requires_delay_lines(self):
        bus = ParallelBus(n_channels=2, with_delay_circuits=False, seed=1)
        with pytest.raises(CircuitError):
            bus.calibrate_delay_lines()

    def test_records_reflect_skew(self, rng, short_stimulus):
        from repro.analysis import measure_delay

        bus = ParallelBus(n_channels=2, skew_spread=100e-12, seed=3)
        records = bus.acquire(
            bus.training_bits(40),
            rng=np.random.default_rng(1),
            through_delay_lines=False,
        )
        measured = measure_delay(records[0], records[1]).delay
        expected = (
            bus.channels[1].static_skew - bus.channels[0].static_skew
        )
        assert measured == pytest.approx(expected, abs=2e-12)


class TestBatchedAcquire:
    # A lane's bytes do not depend on the call it rides in, on either
    # backend, so batched and looped acquisitions are byte-identical.
    def test_batch_equals_loop_with_explicit_rng(self):
        bus = ParallelBus(n_channels=4, seed=17)
        bits = bus.training_bits(40)
        batched = bus.acquire(
            bits, rng=np.random.default_rng(6), batch=True
        )
        looped = bus.acquire(
            bits, rng=np.random.default_rng(6), batch=False
        )
        for a, b in zip(batched, looped):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.t0 == b.t0
            assert a.dt == b.dt

    def test_batch_equals_loop_with_private_rngs(self):
        # rng=None: every component on its own generator; two
        # identically-seeded buses must agree across the two modes.
        bits = ParallelBus(n_channels=3, seed=23).training_bits(40)
        batched = ParallelBus(n_channels=3, seed=23).acquire(
            bits, batch=True
        )
        looped = ParallelBus(n_channels=3, seed=23).acquire(
            bits, batch=False
        )
        for a, b in zip(batched, looped):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.t0 == b.t0

    def test_batch_bit_exact_on_python_backend(self):
        from repro.kernels import use_backend

        bits = ParallelBus(n_channels=2, seed=23).training_bits(20)
        with use_backend("python"):
            batched = ParallelBus(n_channels=2, seed=23).acquire(
                bits, dt=8e-12, batch=True
            )
            looped = ParallelBus(n_channels=2, seed=23).acquire(
                bits, dt=8e-12, batch=False
            )
        for a, b in zip(batched, looped):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.t0 == b.t0
            assert a.dt == b.dt

    def test_batch_flag_irrelevant_without_delay_lines(self):
        bus = ParallelBus(n_channels=2, with_delay_circuits=False, seed=5)
        bits = bus.training_bits(40)
        batched = bus.acquire(
            bits, rng=np.random.default_rng(2), batch=True
        )
        looped = bus.acquire(
            bits, rng=np.random.default_rng(2), batch=False
        )
        for a, b in zip(batched, looped):
            np.testing.assert_array_equal(a.values, b.values)
