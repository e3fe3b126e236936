"""Tests for calibration tables and the combined-delay solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import ControlDAC
from repro.core import (
    CalibrationTable,
    CombinedDelaySolver,
    calibrate_fine_delay,
    calibration_stimulus,
    FineDelayLine,
)
from repro.errors import CalibrationError, DelayRangeError


def linear_table(delay_range=50e-12, n=11):
    return CalibrationTable(
        vctrls=np.linspace(0.0, 1.5, n),
        delays=np.linspace(0.0, delay_range, n),
    )


class TestCalibrationTable:
    def test_range(self):
        assert linear_table(50e-12).range == pytest.approx(50e-12)

    def test_forward_lookup(self):
        table = linear_table(50e-12)
        assert table.delay_for_vctrl(0.75) == pytest.approx(25e-12)

    def test_forward_lookup_clamps(self):
        table = linear_table(50e-12)
        assert table.delay_for_vctrl(-1.0) == pytest.approx(0.0)
        assert table.delay_for_vctrl(5.0) == pytest.approx(50e-12)

    def test_inverse_lookup(self):
        table = linear_table(50e-12)
        assert table.vctrl_for_delay(25e-12) == pytest.approx(0.75)

    def test_inverse_out_of_range(self):
        table = linear_table(50e-12)
        with pytest.raises(DelayRangeError):
            table.vctrl_for_delay(60e-12)
        with pytest.raises(DelayRangeError):
            table.vctrl_for_delay(-1e-12)

    def test_inverse_tolerance_clamps(self):
        table = linear_table(50e-12)
        assert table.vctrl_for_delay(
            51e-12, tolerance=2e-12
        ) == pytest.approx(1.5)

    def test_isotonic_cleanup(self):
        # A noisy dip is flattened so inversion stays well defined.
        table = CalibrationTable(
            vctrls=np.array([0.0, 0.5, 1.0, 1.5]),
            delays=np.array([0.0, 10e-12, 9e-12, 20e-12]),
        )
        assert np.all(np.diff(table.delays) >= 0)

    def test_slope_at(self):
        table = linear_table(50e-12)
        assert table.slope_at(0.75) == pytest.approx(50e-12 / 1.5)

    def test_rejects_single_point(self):
        with pytest.raises(CalibrationError):
            CalibrationTable(np.array([0.0]), np.array([0.0]))

    def test_rejects_descending_vctrl(self):
        with pytest.raises(CalibrationError):
            CalibrationTable(
                np.array([1.0, 0.0]), np.array([0.0, 1e-12])
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(CalibrationError):
            CalibrationTable(
                np.array([0.0, 1.0]), np.array([0.0, 1e-12, 2e-12])
            )

    @given(st.floats(min_value=0.0, max_value=50e-12))
    @settings(max_examples=50, deadline=None)
    def test_inverse_forward_round_trip(self, delay):
        table = linear_table(50e-12)
        vctrl = table.vctrl_for_delay(delay)
        assert table.delay_for_vctrl(vctrl) == pytest.approx(
            delay, abs=1e-16
        )


class TestCalibrateFineDelay:
    def test_builds_monotone_table(self, fine_table):
        assert np.all(np.diff(fine_table.delays) >= 0)

    def test_range_in_paper_regime(self, fine_table):
        assert 40e-12 <= fine_table.range <= 70e-12

    def test_restores_vctrl(self, short_stimulus):
        line = FineDelayLine(seed=50)
        line.vctrl = 0.6
        calibrate_fine_delay(line, stimulus=short_stimulus, n_points=3)
        assert line.vctrl == 0.6

    def test_rejects_too_few_points(self, short_stimulus):
        line = FineDelayLine(seed=50)
        with pytest.raises(CalibrationError):
            calibrate_fine_delay(line, stimulus=short_stimulus, n_points=1)

    def test_default_stimulus(self):
        stim = calibration_stimulus()
        assert stim.dt == pytest.approx(1e-12)
        assert stim.amplitude() == pytest.approx(0.4, rel=0.05)


class TestCombinedDelaySolver:
    def test_total_range(self):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0, 33e-12, 70e-12, 95e-12]
        )
        assert solver.total_range == pytest.approx(145e-12)

    def test_solve_prefers_largest_tap(self):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0, 33e-12, 70e-12, 95e-12]
        )
        setting = solver.solve(100e-12)
        assert setting.tap == 3

    def test_solve_prediction_matches_target(self):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0, 33e-12, 70e-12, 95e-12]
        )
        for target in (0.0, 20e-12, 50e-12, 90e-12, 140e-12):
            setting = solver.solve(target)
            assert setting.predicted_delay == pytest.approx(
                target, abs=1e-15
            )

    def test_solve_out_of_range(self):
        solver = CombinedDelaySolver(linear_table(50e-12), [0.0, 33e-12])
        with pytest.raises(DelayRangeError):
            solver.solve(200e-12)
        with pytest.raises(DelayRangeError):
            solver.solve(-1e-12)

    def test_rejects_uncoverable_gap(self):
        with pytest.raises(CalibrationError):
            CombinedDelaySolver(linear_table(20e-12), [0.0, 33e-12])

    def test_rejects_unsorted_taps(self):
        with pytest.raises(CalibrationError):
            CombinedDelaySolver(linear_table(50e-12), [0.0, 40e-12, 20e-12])

    def test_nonzero_first_tap_rebased(self):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [10e-12, 43e-12]
        )
        assert solver.tap_delays[0] == 0.0
        assert solver.tap_delays[1] == pytest.approx(33e-12)

    def test_dac_quantization_reported(self):
        dac = ControlDAC(n_bits=12)
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0, 33e-12], dac=dac
        )
        setting = solver.solve(40e-12)
        assert setting.dac_code is not None
        assert dac.voltage(setting.dac_code) == pytest.approx(setting.vctrl)

    def test_resolution_estimate_subps(self):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0], dac=ControlDAC(n_bits=12)
        )
        assert solver.resolution_estimate(0.75) < 1e-12

    def test_resolution_requires_dac(self):
        solver = CombinedDelaySolver(linear_table(50e-12), [0.0])
        with pytest.raises(CalibrationError):
            solver.resolution_estimate(0.75)

    @given(st.floats(min_value=0.0, max_value=145e-12))
    @settings(max_examples=50, deadline=None)
    def test_every_target_in_range_solvable(self, target):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0, 33e-12, 70e-12, 95e-12]
        )
        setting = solver.solve(target)
        assert setting.predicted_delay == pytest.approx(target, abs=1e-15)
        assert 0 <= setting.tap <= 3


class TestPersistence:
    def test_table_round_trip_dict(self):
        table = linear_table(50e-12)
        restored = CalibrationTable.from_dict(table.to_dict())
        np.testing.assert_allclose(restored.vctrls, table.vctrls)
        np.testing.assert_allclose(restored.delays, table.delays)

    def test_table_save_load(self, tmp_path):
        table = linear_table(42e-12)
        path = tmp_path / "table.json"
        table.save(path)
        restored = CalibrationTable.load(path)
        assert restored.range == pytest.approx(table.range)

    def test_table_rejects_bad_dict(self):
        with pytest.raises(CalibrationError):
            CalibrationTable.from_dict({"nope": []})

    def test_solver_round_trip(self, tmp_path):
        solver = CombinedDelaySolver(
            linear_table(50e-12), [0.0, 33e-12, 70e-12, 95e-12]
        )
        path = tmp_path / "solver.json"
        solver.save(path)
        restored = CombinedDelaySolver.load(path)
        assert restored.total_range == pytest.approx(solver.total_range)
        original = solver.solve(88e-12)
        recovered = restored.solve(88e-12)
        assert recovered.tap == original.tap
        assert recovered.vctrl == pytest.approx(original.vctrl)

    def test_solver_load_with_dac(self, tmp_path):
        solver = CombinedDelaySolver(linear_table(50e-12), [0.0, 33e-12])
        path = tmp_path / "solver.json"
        solver.save(path)
        restored = CombinedDelaySolver.load(path, dac=ControlDAC(n_bits=12))
        setting = restored.solve(40e-12)
        assert setting.dac_code is not None

    def test_solver_rejects_bad_dict(self):
        with pytest.raises(CalibrationError):
            CombinedDelaySolver.from_dict({"fine_table": {}})


class TestAtomicSaves:
    def test_save_leaves_no_temp_files(self, tmp_path):
        linear_table(42e-12).save(tmp_path / "table.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]

    def test_overwrite_is_atomic_on_failure(self, tmp_path, monkeypatch):
        # A crash mid-write must leave the existing file intact and no
        # temp file behind.
        import json as json_module

        from repro.core import calibration as calibration_module

        path = tmp_path / "table.json"
        original = linear_table(42e-12)
        original.save(path)
        before = path.read_text()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(
            calibration_module.json, "dump", explode
        )
        with pytest.raises(OSError):
            linear_table(99e-12).save(path)
        assert path.read_text() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]
        assert json_module.loads(before)["delays"][-1] == pytest.approx(
            42e-12
        )

    def test_solver_save_leaves_no_temp_files(self, tmp_path):
        solver = CombinedDelaySolver(linear_table(50e-12), [0.0, 33e-12])
        solver.save(tmp_path / "solver.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["solver.json"]


class TestBatchedSweep:
    def test_batch_matches_sequential(self, short_stimulus):
        line = FineDelayLine(seed=55)
        batched = calibrate_fine_delay(
            line,
            stimulus=short_stimulus,
            n_points=4,
            rng=np.random.default_rng(5),
            batch=True,
        )
        sequential = calibrate_fine_delay(
            line,
            stimulus=short_stimulus,
            n_points=4,
            rng=np.random.default_rng(5),
            batch=False,
        )
        np.testing.assert_array_equal(batched.vctrls, sequential.vctrls)
        # A lane's bytes do not depend on the call it rides in.
        np.testing.assert_array_equal(batched.delays, sequential.delays)

    def test_batch_bit_exact_on_python_backend(self):
        from repro.kernels import use_backend

        stimulus = calibration_stimulus(n_bits=16, dt=8e-12)
        with use_backend("python"):
            line = FineDelayLine(seed=55)
            batched = calibrate_fine_delay(
                line,
                stimulus=stimulus,
                n_points=3,
                rng=np.random.default_rng(5),
                batch=True,
            )
            sequential = calibrate_fine_delay(
                line,
                stimulus=stimulus,
                n_points=3,
                rng=np.random.default_rng(5),
                batch=False,
            )
        np.testing.assert_array_equal(batched.vctrls, sequential.vctrls)
        np.testing.assert_array_equal(batched.delays, sequential.delays)

    def test_sweep_restores_vctrl(self, short_stimulus):
        line = FineDelayLine(seed=56)
        saved = line.vctrl
        calibrate_fine_delay(
            line, stimulus=short_stimulus, n_points=3, batch=True
        )
        assert line.vctrl == saved
