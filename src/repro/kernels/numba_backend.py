"""Numba-compiled kernels (optional ``fast`` extra).

The module always imports cleanly; when numba is not installed the
module-level :data:`AVAILABLE` flag is ``False`` and the dispatcher
treats the backend as unavailable (the decorated functions then run
undecorated, but nothing ever dispatches to them).  The jitted loops
are line-for-line transcriptions of the reference implementations in
:mod:`repro.kernels.python_backend`, so they execute the same IEEE-754
operations in the same order and the results are **bit-exact** against
the reference — the property tests assert exactly that.

The first call to each kernel pays a one-off compilation cost
(hundreds of milliseconds); steady-state throughput is within a small
factor of hand-written C, typically 20-80x the interpreted loops.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _scipy_signal

from .cascade import typical_crossing_interval, typical_crossing_interval_batch

try:
    from numba import njit, prange

    AVAILABLE = True
except ImportError:  # pragma: no cover - depends on environment
    AVAILABLE = False
    prange = range

    def njit(**_options):
        def decorate(func):
            return func

        return decorate


__all__ = [
    "AVAILABLE",
    "slew_limit",
    "compressive_slew_limit",
    "match_edges",
    "hysteresis_crossings",
    "nearest_edge_margin",
    "slew_limit_batch",
    "compressive_slew_limit_batch",
    "match_edges_batch",
    "hysteresis_crossings_batch",
    "fine_delay_cascade_batch",
    "fine_delay_cascade_stream",
]

_JIT_OPTIONS = {"cache": True, "nogil": True, "fastmath": False}
# Lanes are independent recurrences, so the batched kernels parallelise
# over the lane axis.  ``cache=True`` is dropped: parallel=True kernels
# are not reliably cacheable across numba versions.
_BATCH_JIT_OPTIONS = {"nogil": True, "fastmath": False, "parallel": True}


@njit(**_JIT_OPTIONS)
def _slew_limit(values, max_step, initial):  # pragma: no cover - compiled
    n = values.shape[0]
    out = np.empty(n)
    y = initial
    up = max_step
    down = -max_step
    for i in range(n):
        dv = values[i] - y
        if dv > up:
            dv = up
        elif dv < down:
            dv = down
        y += dv
        out[i] = y
    return out


def slew_limit(values, max_step, initial):
    return _slew_limit(values, max_step, initial)


def compressive_slew_limit(
    v_in,
    target_floor,
    target_extra,
    max_step,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval,
):
    return _compressive_slew_limit_carry(
        v_in,
        target_floor,
        target_extra,
        max_step,
        dt,
        hysteresis,
        corner,
        order,
        initial_interval,
        0,
        0.0,
        1.0,
        0.0,
        False,
    )[0]


@njit(**_JIT_OPTIONS)
def _match_edges(  # pragma: no cover - compiled
    ref_edges, out_edges, coarse, max_edge_offset
):
    n_ref = ref_edges.shape[0]
    n_out = out_edges.shape[0]
    indices = np.searchsorted(out_edges, ref_edges + coarse)
    cand_dev = np.empty(n_ref)
    cand_ref = np.empty(n_ref, dtype=np.int64)
    cand_out = np.empty(n_ref, dtype=np.int64)
    n_cand = 0
    for r_index in range(n_ref):
        ref_time = ref_edges[r_index]
        index = indices[r_index]
        best_out = -1
        best_dev = np.inf
        for out_index in (index - 1, index):
            if 0 <= out_index < n_out:
                dev = abs(out_edges[out_index] - ref_time - coarse)
                if dev < best_dev:
                    best_dev = dev
                    best_out = out_index
        if best_out >= 0 and best_dev <= max_edge_offset:
            cand_dev[n_cand] = best_dev
            cand_ref[n_cand] = r_index
            cand_out[n_cand] = best_out
            n_cand += 1
    if n_cand == 0:
        return np.empty(0)
    order = np.argsort(cand_dev[:n_cand], kind="mergesort")
    taken = np.zeros(n_out, dtype=np.bool_)
    offset_by_ref = np.empty(n_ref)
    accepted = np.zeros(n_ref, dtype=np.bool_)
    for position in order:
        out_index = cand_out[position]
        if taken[out_index]:
            continue
        taken[out_index] = True
        r_index = cand_ref[position]
        accepted[r_index] = True
        offset_by_ref[r_index] = out_edges[out_index] - ref_edges[r_index]
    n_accepted = 0
    for r_index in range(n_ref):
        if accepted[r_index]:
            n_accepted += 1
    result = np.empty(n_accepted)
    position = 0
    for r_index in range(n_ref):
        if accepted[r_index]:
            result[position] = offset_by_ref[r_index]
            position += 1
    return result


def match_edges(ref_edges, out_edges, coarse, max_edge_offset):
    if len(ref_edges) == 0 or len(out_edges) == 0:
        return np.empty(0)
    return _match_edges(ref_edges, out_edges, coarse, max_edge_offset)


@njit(**_JIT_OPTIONS)
def _hysteresis_crossings(v, hysteresis):  # pragma: no cover - compiled
    n = v.shape[0]
    positions = np.empty(n)
    polarities = np.empty(n, dtype=np.bool_)
    count = 0
    state = 0
    last_nonpos = -1
    last_nonneg = -1
    for i in range(n):
        vi = v[i]
        if vi > hysteresis:
            tri = 1
        elif vi < -hysteresis:
            tri = -1
        else:
            tri = 0
        if tri != 0:
            if state == 0:
                state = tri
            elif tri != state:
                state = tri
                k = last_nonpos if tri > 0 else last_nonneg
                if k >= 0:
                    v0 = v[k]
                    v1 = v[k + 1]
                    if v0 == v1:
                        fraction = 0.5
                    else:
                        fraction = v0 / (v0 - v1)
                    fraction = min(max(fraction, 0.0), 1.0)
                    positions[count] = k + fraction
                    polarities[count] = tri > 0
                    count += 1
        if vi <= 0.0:
            last_nonpos = i
        if vi >= 0.0:
            last_nonneg = i
    return positions[:count].copy(), polarities[:count].copy()


def hysteresis_crossings(v, hysteresis):
    return _hysteresis_crossings(v, hysteresis)


@njit(**_BATCH_JIT_OPTIONS)
def _slew_limit_batch(values, max_step, initials):  # pragma: no cover
    n_lanes = values.shape[0]
    n = values.shape[1]
    out = np.empty((n_lanes, n))
    up = max_step
    down = -max_step
    for lane in prange(n_lanes):
        y = initials[lane]
        for i in range(n):
            dv = values[lane, i] - y
            if dv > up:
                dv = up
            elif dv < down:
                dv = down
            y += dv
            out[lane, i] = y
    return out


@njit(**_BATCH_JIT_OPTIONS)
def _slew_limit_batch_steps(values, max_steps, initials):  # pragma: no cover
    n_lanes = values.shape[0]
    n = values.shape[1]
    out = np.empty((n_lanes, n))
    for lane in prange(n_lanes):
        up = max_steps[lane]
        down = -max_steps[lane]
        y = initials[lane]
        for i in range(n):
            dv = values[lane, i] - y
            if dv > up:
                dv = up
            elif dv < down:
                dv = down
            y += dv
            out[lane, i] = y
    return out


def slew_limit_batch(values, max_step, initials):
    if isinstance(max_step, np.ndarray):
        steps = np.ascontiguousarray(
            max_step.reshape(-1), dtype=np.float64
        )
        return _slew_limit_batch_steps(values, steps, initials)
    return _slew_limit_batch(values, max_step, initials)


@njit(**_BATCH_JIT_OPTIONS)
def _compressive_slew_limit_batch(  # pragma: no cover - compiled
    v_in,
    target_floor,
    target_extra,
    max_step,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval,
):
    n_lanes = v_in.shape[0]
    n = v_in.shape[1]
    out = np.empty((n_lanes, n))
    inv_2corner = 1.0 / (2.0 * corner)
    up = max_step
    down = -max_step
    for lane in prange(n_lanes):
        band = hysteresis[lane]
        state = 1 if v_in[lane, 0] > 0.0 else -1
        elapsed = initial_interval[lane]
        scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
        y = target_floor[lane, 0] + scale * target_extra[lane, 0]
        for i in range(n):
            v = v_in[lane, i]
            if state > 0:
                if v < -band:
                    state = -1
                    scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
                    elapsed = 0.0
            elif v > band:
                state = 1
                scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
                elapsed = 0.0
            elapsed += dt
            dv = target_floor[lane, i] + scale * target_extra[lane, i] - y
            if dv > up:
                dv = up
            elif dv < down:
                dv = down
            y += dv
            out[lane, i] = y
    return out


@njit(**_BATCH_JIT_OPTIONS)
def _compressive_slew_limit_batch_steps(  # pragma: no cover - compiled
    v_in,
    target_floor,
    target_extra,
    max_steps,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval,
):
    n_lanes = v_in.shape[0]
    n = v_in.shape[1]
    out = np.empty((n_lanes, n))
    inv_2corner = 1.0 / (2.0 * corner)
    for lane in prange(n_lanes):
        up = max_steps[lane]
        down = -max_steps[lane]
        band = hysteresis[lane]
        state = 1 if v_in[lane, 0] > 0.0 else -1
        elapsed = initial_interval[lane]
        scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
        y = target_floor[lane, 0] + scale * target_extra[lane, 0]
        for i in range(n):
            v = v_in[lane, i]
            if state > 0:
                if v < -band:
                    state = -1
                    scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
                    elapsed = 0.0
            elif v > band:
                state = 1
                scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
                elapsed = 0.0
            elapsed += dt
            dv = target_floor[lane, i] + scale * target_extra[lane, i] - y
            if dv > up:
                dv = up
            elif dv < down:
                dv = down
            y += dv
            out[lane, i] = y
    return out


def compressive_slew_limit_batch(
    v_in,
    target_floor,
    target_extra,
    max_step,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval,
):
    if isinstance(max_step, np.ndarray):
        steps = np.ascontiguousarray(
            max_step.reshape(-1), dtype=np.float64
        )
        return _compressive_slew_limit_batch_steps(
            v_in,
            target_floor,
            target_extra,
            steps,
            dt,
            hysteresis,
            corner,
            order,
            initial_interval,
        )
    return _compressive_slew_limit_batch(
        v_in,
        target_floor,
        target_extra,
        max_step,
        dt,
        hysteresis,
        corner,
        order,
        initial_interval,
    )


@njit(**_JIT_OPTIONS)
def _compressive_slew_limit_carry(  # pragma: no cover - compiled
    v_in,
    target_floor,
    target_extra,
    max_step,
    dt,
    hysteresis,
    corner,
    order,
    initial_interval,
    comp_state,
    elapsed,
    scale,
    y,
    primed,
):
    n = target_extra.shape[0]
    out = np.empty(n)
    inv_2corner = 1.0 / (2.0 * corner)
    if not primed:
        comp_state = 1 if v_in[0] > 0.0 else -1
        elapsed = initial_interval
        scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
        y = target_floor[0] + scale * target_extra[0]
    state = comp_state
    up = max_step
    down = -max_step
    for i in range(n):
        v = v_in[i]
        if state > 0:
            if v < -hysteresis:
                state = -1
                scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
                elapsed = 0.0
        elif v > hysteresis:
            state = 1
            scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
            elapsed = 0.0
        elapsed += dt
        dv = target_floor[i] + scale * target_extra[i] - y
        if dv > up:
            dv = up
        elif dv < down:
            dv = down
        y += dv
        out[i] = y
    return out, state, elapsed, scale, y


def match_edges_batch(ref_edges, out_edges, coarse, max_edge_offset):
    # Ragged per-lane edge lists: loop at Python level over the jitted
    # single-lane kernel (the per-lane work releases the GIL).
    return [
        match_edges(ref_edges, lane_edges, float(coarse[lane]), max_edge_offset)
        for lane, lane_edges in enumerate(out_edges)
    ]


def hysteresis_crossings_batch(v, hysteresis):
    return [
        hysteresis_crossings(v[lane], float(hysteresis[lane]))
        for lane in range(v.shape[0])
    ]


def fine_delay_cascade_stream(values, stages, dt, states):
    """Fused cascade over one chunk, with carried per-stage state.

    The element-wise stage work (noise add, limiting tanh, comparator
    band) is cheap array math; the slew recurrences run through the
    jitted carry loop — a line-for-line transcription of the reference
    carry kernel, so streaming through this backend is bit-exact
    against the python backend's stream.
    """
    x = values
    for stage, carry in zip(stages, states):
        v_in = x
        if stage.noise is not None:
            v_in = v_in + stage.noise
        limited = np.tanh(v_in / stage.v_linear)
        amplitude = stage.amplitude
        if np.isfinite(stage.corner):
            floor = np.minimum(amplitude, stage.amplitude_min)
            extra = amplitude - floor
            if carry.hysteresis is None or carry.initial_interval is None:
                swing = np.percentile(v_in, 98) - np.percentile(v_in, 2)
                carry.freeze_stats(
                    float(0.3 * (swing / 2.0)),
                    typical_crossing_interval(v_in, dt),
                )
            slewed, comp_state, elapsed, scale, y = (
                _compressive_slew_limit_carry(
                    np.ascontiguousarray(v_in),
                    np.ascontiguousarray(
                        np.broadcast_to(floor * limited, limited.shape)
                    ),
                    np.ascontiguousarray(
                        np.broadcast_to(extra * limited, limited.shape)
                    ),
                    stage.max_step,
                    dt,
                    float(carry.hysteresis),
                    stage.corner,
                    stage.order,
                    float(carry.initial_interval),
                    carry.comp_state,
                    carry.elapsed,
                    carry.scale,
                    carry.slew_y,
                    carry.primed,
                )
            )
            carry.comp_state = int(comp_state)
            carry.elapsed = float(elapsed)
            carry.scale = float(scale)
            carry.slew_y = float(y)
        else:
            target = np.ascontiguousarray(amplitude * limited)
            initial = carry.slew_y if carry.primed else float(target[0])
            slewed = _slew_limit(target, stage.max_step, initial)
            carry.slew_y = float(slewed[-1])
        if carry.filter_zi is None:
            zi = stage.zi_unit * slewed[0]
        else:
            zi = carry.filter_zi
        x, zf = _scipy_signal.lfilter(stage.b, stage.a, slewed, zi=zi)
        carry.filter_zi = zf
        carry.primed = True
    return x


def fine_delay_cascade_batch(values, stages, dt):
    """Fused cascade over a batch: jitted ``prange`` lane loops inside."""
    x = values
    n_lanes = x.shape[0]
    for stage in stages:
        v_in = x
        if stage.noise is not None:
            v_in = v_in + stage.noise
        limited = np.tanh(v_in / stage.v_linear)
        amplitude = stage.amplitude
        if np.isfinite(stage.corner):
            floor = np.minimum(amplitude, stage.amplitude_min)
            extra = amplitude - floor
            upper, lower = np.percentile(v_in, (98.0, 2.0), axis=1)
            hysteresis = 0.3 * ((upper - lower) / 2.0)
            slewed = compressive_slew_limit_batch(
                np.ascontiguousarray(v_in),
                np.ascontiguousarray(
                    np.broadcast_to(floor * limited, limited.shape)
                ),
                np.ascontiguousarray(
                    np.broadcast_to(extra * limited, limited.shape)
                ),
                stage.max_step,
                dt,
                np.ascontiguousarray(hysteresis),
                stage.corner,
                stage.order,
                typical_crossing_interval_batch(v_in, dt),
            )
        else:
            target = np.ascontiguousarray(amplitude * limited)
            slewed = slew_limit_batch(
                target,
                stage.max_step,
                np.ascontiguousarray(target[:, 0]),
            )
        zi = stage.zi_unit[None, :] * slewed[:, :1]
        x, _ = _scipy_signal.lfilter(stage.b, stage.a, slewed, axis=1, zi=zi)
    return x


@njit(**_JIT_OPTIONS)
def _nearest_edge_margin(probe_edges, data_edges):  # pragma: no cover
    n_data = data_edges.shape[0]
    indices = np.searchsorted(data_edges, probe_edges)
    margin = np.inf
    for p_index in range(probe_edges.shape[0]):
        edge = probe_edges[p_index]
        index = indices[p_index]
        if index > 0:
            margin = min(margin, abs(edge - data_edges[index - 1]))
        if index < n_data:
            margin = min(margin, abs(data_edges[index] - edge))
    return margin


def nearest_edge_margin(probe_edges, data_edges):
    if probe_edges.size == 0 or data_edges.size == 0:
        return float("inf")
    return float(_nearest_edge_margin(probe_edges, data_edges))
