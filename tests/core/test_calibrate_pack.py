"""The pack-independence contract of ``calibrate_lines_pack``.

A line's solver is a function of that line alone: the same bytes when
it calibrates alone, packed with other lines, or with the pack split
into blocks that calibrate on separate threads — on both kernel
backends.  The block count follows the usable CPU count, which the
tests force through ``combined._usable_cpus``.  A failing block must
not leave threads or reprogrammed controls behind, and a threaded
calibration reports the same span paths and counters as a serial one
(apart from the counters that tally per fused dispatch, which grow by
one dispatch per block).
"""

import threading

import numpy as np
import pytest

from repro import instrument, kernels
from repro.core import CombinedDelayLine, calibration_stimulus
from repro.core import combined
from repro.core.combined import calibrate_lines_pack

N_POINTS = 5
SEEDS = (11, 12, 13, 14, 15)


def make_lines(seeds=SEEDS):
    return [CombinedDelayLine(seed=seed) for seed in seeds]


def make_stimuli(n):
    return [
        calibration_stimulus(bit_rate=3.2e9, n_bits=32, rise_time=rise)
        for rise in np.linspace(26e-12, 34e-12, n)
    ]


def solver_bytes(solver):
    return (
        solver.fine_table.vctrls.tobytes(),
        solver.fine_table.delays.tobytes(),
        np.asarray(solver.tap_delays).tobytes(),
    )


def force_cpus(monkeypatch, n):
    monkeypatch.setattr(combined, "_usable_cpus", lambda: n)


def record_thread_starts(monkeypatch):
    started = []
    monkeypatch.setattr(
        threading.Thread, "start", lambda thread: started.append(thread)
    )
    return started


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = kernels.active_backend()
    yield
    kernels.set_backend(previous)


@pytest.mark.parametrize("backend", kernels.BACKEND_NAMES)
def test_solver_is_independent_of_pack_and_blocks(backend, monkeypatch):
    kernels.set_backend(backend)
    stimuli = make_stimuli(len(SEEDS))
    force_cpus(monkeypatch, 1)
    alone = [
        solver_bytes(
            calibrate_lines_pack(make_lines([seed]), [stim], N_POINTS)[0]
        )
        for seed, stim in zip(SEEDS, stimuli)
    ]
    for n_blocks in (1, 2, 3):
        force_cpus(monkeypatch, n_blocks)
        lines = make_lines()
        solvers = calibrate_lines_pack(lines, stimuli, N_POINTS)
        assert [solver_bytes(s) for s in solvers] == alone, n_blocks
        assert [line.solver for line in lines] == solvers


def test_repeated_line_calibrates_serially(monkeypatch):
    force_cpus(monkeypatch, 2)
    stimulus = make_stimuli(1)[0]
    alone = solver_bytes(
        calibrate_lines_pack(make_lines(SEEDS[:1]), [stimulus], N_POINTS)[0]
    )
    started = record_thread_starts(monkeypatch)
    line = make_lines(SEEDS[:1])[0]
    solvers = calibrate_lines_pack([line, line], [stimulus] * 2, N_POINTS)
    assert started == []
    assert [solver_bytes(s) for s in solvers] == [alone, alone]


def test_one_cpu_starts_no_thread(monkeypatch):
    force_cpus(monkeypatch, 1)
    started = record_thread_starts(monkeypatch)
    calibrate_lines_pack(make_lines(SEEDS[:3]), make_stimuli(3), N_POINTS)
    assert started == []


def test_threads_are_joined_on_return(monkeypatch):
    force_cpus(monkeypatch, 3)
    before = threading.active_count()
    calibrate_lines_pack(make_lines(SEEDS[:3]), make_stimuli(3), N_POINTS)
    assert threading.active_count() == before


def _break_tap(line, tap, message):
    def fail(*args, **kwargs):
        raise RuntimeError(message)

    line.coarse.lines[tap].process = fail


@pytest.mark.parametrize(
    "failing,tap,expected",
    [
        # Blocks of 3 lines over 3 CPUs: [0], [1, 2], [3, 4].
        ((3, 1), 0, "lane 1"),  # blocks 2 and 1 fail in the fine sweep
        ((4, 0), 2, "lane 0"),  # the caller's block fails in the tap sweep
        ((4,), 3, "lane 4"),  # only the last block fails
    ],
)
def test_failing_block_raises_first_and_restores(
    monkeypatch, failing, tap, expected
):
    force_cpus(monkeypatch, 3)
    lines = make_lines()
    for k, line in enumerate(lines):
        line.coarse.select = 1 + k % 3
        line.fine.vctrl = line.fine.params.vctrl_min + 0.01 * (k + 1)
    saved = [(line.coarse.select, line.fine.vctrl) for line in lines]
    for k in failing:
        _break_tap(lines[k], tap, f"lane {k}")
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=expected):
        calibrate_lines_pack(lines, make_stimuli(len(lines)), N_POINTS)
    assert threading.active_count() == before
    assert [(line.coarse.select, line.fine.vctrl) for line in lines] == saved
    assert all(line.solver is None for line in lines)


#: Counters that tally per fused dispatch (kernel calls, and the filter
#: plan lookups each dispatch makes) grow by one dispatch per block.
PER_DISPATCH = ("kernels.", "fine_delay.fused_calls", "filters.plan_cache_hits")


def _traced(monkeypatch, n_blocks):
    force_cpus(monkeypatch, n_blocks)
    lines, stimuli = make_lines(), make_stimuli(len(SEEDS))
    with instrument.registry_scope() as registry:
        with instrument.span("outer"):
            calibrate_lines_pack(lines, stimuli, N_POINTS)
        snapshot = registry.snapshot()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith(PER_DISPATCH)
    }
    return set(snapshot["spans"]), counters


def test_spans_and_counters_match_serial(monkeypatch):
    _traced(monkeypatch, 1)  # warm the filter caches
    serial_spans, serial_counters = _traced(monkeypatch, 1)
    threaded_spans, threaded_counters = _traced(monkeypatch, 2)
    assert "outer/calibrate_fine_delay" in serial_spans
    assert "outer/calibrate_tap_sweep" in serial_spans
    assert threaded_spans == serial_spans
    assert serial_counters["calibration.sweep_points"] == 25
    assert threaded_counters == serial_counters
