"""NumPy-vectorised kernels.

Same algebra as the reference loops in
:mod:`repro.kernels.python_backend`, evaluated with array operations.
Because the evaluation order differs (e.g. ramp levels are computed as
``y0 + k * step`` instead of ``k`` repeated additions), results agree
with the reference to floating-point rounding, not bit-exactly; the
property tests bound the disagreement far below a femtosecond of
delay-measurement impact.

The slew limiters have a per-sample recurrence, so they cannot be
vectorised sample-by-sample.  They *can* be vectorised event-by-event:
a slew limiter is always in one of two regimes — **tracking** (output
equals the target, until a step larger than ``max_step`` occurs) or
**ramping** (output moves at exactly ``±max_step`` per sample until it
catches the target).  Both regimes cover long runs of samples that can
be emitted with one array operation each, so the Python-level loop
runs once per edge instead of once per sample.

The *batched* slew limiters use a different strategy — frontier
relaxation (see :func:`_slew_limit_relax`) — because the per-event
Python overhead of the walk is paid per lane, whereas a relaxation
sweep is a few array operations shared by every lane in the batch.
One dense sweep over the whole batch is followed by sweeps over only
the samples whose predecessor changed, so the cost tracks the ramping
samples.  The result is the sequential recurrence bit for bit on every
lane that settles within the sweep cap.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as _scipy_signal

from .cascade import typical_crossing_interval

__all__ = [
    "slew_limit",
    "compressive_slew_limit",
    "match_edges",
    "hysteresis_crossings",
    "nearest_edge_margin",
    "slew_limit_batch",
    "compressive_slew_limit_batch",
    "fine_delay_cascade_batch",
    "fine_delay_cascade_stream",
]


def _first_at_most(arr: np.ndarray, start: int, bound: float) -> int:
    """First index ``>= start`` with ``arr[i] <= bound`` (galloping scan)."""
    n = arr.size
    window = 32
    lo = start
    while lo < n:
        hi = min(n, lo + window)
        hits = arr[lo:hi] <= bound
        j = int(np.argmax(hits))
        if hits[j]:
            return lo + j
        lo = hi
        window *= 2
    return n


def _first_at_least(arr: np.ndarray, start: int, bound: float) -> int:
    """First index ``>= start`` with ``arr[i] >= bound`` (galloping scan)."""
    n = arr.size
    window = 32
    lo = start
    while lo < n:
        hi = min(n, lo + window)
        hits = arr[lo:hi] >= bound
        j = int(np.argmax(hits))
        if hits[j]:
            return lo + j
        lo = hi
        window *= 2
    return n


def slew_limit(
    values: np.ndarray, max_step: float, initial: float
) -> np.ndarray:
    """Event-vectorised slew limiter (exact regime decomposition).

    While ramping up from level ``y0`` at sample ``i0``, the output is
    ``y0 + (m - i0 + 1) * max_step`` and the ramp continues at sample
    ``m`` as long as ``v[m] - y[m-1] > max_step``, i.e. as long as
    ``v[m] - m * max_step > y0 - (i0 - 1) * max_step`` — a constant
    bound on a precomputed array, found by a galloping scan.  Tracking
    runs end at the next target step exceeding ``max_step``
    (precomputed once).  Both regime transitions advance the cursor by
    at least one sample, so the walk terminates in O(events).
    """
    n = len(values)
    out = np.empty(n)
    if n == 0:
        return out
    v = values
    y = initial
    index = np.arange(n)
    ramp_up_key = v - index * max_step
    ramp_dn_key = v + index * max_step
    # Sample pairs across which tracking cannot continue.
    break_after = np.flatnonzero(np.abs(np.diff(v)) > max_step)
    i = 0
    while i < n:
        dv = v[i] - y
        if dv > max_step:
            bound = y + (1 - i) * max_step
            # max() guards the FP boundary case dv ~ max_step, where the
            # scan can resolve the first sample differently than the
            # sequential reference; one clamped step is then identical.
            end = max(_first_at_most(ramp_up_key, i, bound), i + 1)
            steps = np.arange(1, end - i + 1, dtype=np.float64)
            out[i:end] = y + steps * max_step
            y = out[end - 1]
            i = end
        elif dv < -max_step:
            bound = y + (i - 1) * max_step
            end = max(_first_at_least(ramp_dn_key, i, bound), i + 1)
            steps = np.arange(1, end - i + 1, dtype=np.float64)
            out[i:end] = y - steps * max_step
            y = out[end - 1]
            i = end
        else:
            position = np.searchsorted(break_after, i)
            if position == len(break_after):
                end = n
            else:
                end = int(break_after[position]) + 1
            out[i:end] = v[i:end]
            y = out[end - 1]
            i = end
    return out


def _compressive_target_carry(
    v_in: np.ndarray,
    target_floor: np.ndarray,
    target_extra: np.ndarray,
    dt: float,
    hysteresis: float,
    corner: float,
    order: int,
    initial_interval: float,
    comp_state: int,
    elapsed_in: float,
    scale_in: float,
    primed: bool,
) -> "tuple[np.ndarray, float, int, int, float, float]":
    """Per-sample slew target, initial level and flip count of one lane.

    The comparator flips are pure functions of *v_in* and the
    hysteresis band, so the per-half-cycle excursion scales can be
    computed for all flips at once and expanded to a per-sample target
    with :func:`numpy.repeat`.  The flip count feeds the fused
    cascade's walk-vs-relax cost model.

    Fresh (unprimed) calls seed the comparator from the first sample
    and the compression state from *initial_interval*, as if the signal
    had been toggling at its own rate forever; primed calls seed the
    forward fill with the carried comparator state, time the first flip
    from the carried half-cycle age, and hold the carried compression
    scale until that flip.

    The outgoing ``elapsed`` is computed as ``(n - last_flip) * dt``
    rather than by the reference loop's repeated ``+= dt`` — the same
    quantity up to float rounding, which is within this backend's
    documented tolerance (the python backend carries the exact value).

    Returns ``(target, y0, n_flips, comp_state, elapsed, scale)``.
    """
    n = len(target_extra)
    inv_2corner = 1.0 / (2.0 * corner)
    if not primed:
        comp_state = 1 if v_in[0] > 0.0 else -1
        elapsed_in = initial_interval
        scale_in = 1.0 / (1.0 + (inv_2corner / initial_interval) ** order)
    tri = np.zeros(n, dtype=np.int8)
    tri[v_in > hysteresis] = 1
    tri[v_in < -hysteresis] = -1
    prefixed = np.empty(n + 1, dtype=np.int8)
    prefixed[0] = comp_state
    prefixed[1:] = tri
    fill_index = np.zeros(n + 1, dtype=np.int64)
    decided = np.flatnonzero(prefixed)
    fill_index[decided] = decided
    fill_index = np.maximum.accumulate(fill_index)
    filled = prefixed[fill_index]
    flips = np.flatnonzero(filled[1:] != filled[:-1])  # sample indices
    if flips.size == 0:
        scale = np.full(n, scale_in)
        elapsed_out = elapsed_in + n * dt
        scale_out = scale_in
    else:
        elapsed = np.empty(flips.size)
        elapsed[0] = elapsed_in + flips[0] * dt
        elapsed[1:] = np.diff(flips) * dt
        flip_scales = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
        lengths = np.empty(flips.size + 1, dtype=np.int64)
        lengths[0] = flips[0]
        lengths[1:-1] = np.diff(flips)
        lengths[-1] = n - flips[-1]
        scale = np.repeat(
            np.concatenate([[scale_in], flip_scales]), lengths
        )
        elapsed_out = float((n - flips[-1]) * dt)
        scale_out = float(flip_scales[-1])
    target = target_floor + scale * target_extra
    y0 = float(target_floor[0]) + scale_in * float(target_extra[0])
    return target, y0, int(flips.size), int(filled[-1]), elapsed_out, scale_out


def compressive_slew_limit(
    v_in: np.ndarray,
    target_floor: np.ndarray,
    target_extra: np.ndarray,
    max_step: float,
    dt: float,
    hysteresis: float,
    corner: float,
    order: int,
    initial_interval: float,
) -> np.ndarray:
    """Vectorised compression comparator feeding the slew limiter.

    The per-sample target comes from an unprimed
    :func:`_compressive_target_carry`; the result then runs through the
    event-vectorised :func:`slew_limit`.
    """
    target, y0, *_carry = _compressive_target_carry(
        v_in,
        target_floor,
        target_extra,
        dt,
        hysteresis,
        corner,
        order,
        initial_interval,
        0,
        0.0,
        1.0,
        primed=False,
    )
    return slew_limit(target, max_step, y0)


def match_edges(
    ref_edges: np.ndarray,
    out_edges: np.ndarray,
    coarse: float,
    max_edge_offset: float,
) -> np.ndarray:
    """Vectorised one-to-one greedy edge matching (see reference)."""
    n_ref = len(ref_edges)
    n_out = len(out_edges)
    if n_ref == 0 or n_out == 0:
        return np.empty(0)
    indices = np.searchsorted(out_edges, ref_edges + coarse)
    left = np.clip(indices - 1, 0, n_out - 1)
    right = np.clip(indices, 0, n_out - 1)
    dev_left = np.abs(out_edges[left] - ref_edges - coarse)
    dev_right = np.abs(out_edges[right] - ref_edges - coarse)
    dev_left[indices - 1 < 0] = np.inf
    dev_right[indices >= n_out] = np.inf
    use_right = dev_right < dev_left  # ties go to the earlier edge
    best = np.where(use_right, right, left)
    best_dev = np.where(use_right, dev_right, dev_left)
    valid = best_dev <= max_edge_offset
    if not valid.any():
        return np.empty(0)
    ref_index = np.flatnonzero(valid)
    best = best[valid]
    best_dev = best_dev[valid]
    # Greedy unique assignment: grant in order of increasing deviation;
    # np.unique keeps the first occurrence in that order.
    order = np.argsort(best_dev, kind="stable")
    _, first = np.unique(best[order], return_index=True)
    keep = np.sort(order[first])  # back to reference-edge order
    return out_edges[best[keep]] - ref_edges[ref_index[keep]]


def hysteresis_crossings(
    v: np.ndarray, hysteresis: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorised comparator-with-hysteresis switch location."""
    n = v.size
    empty = (np.empty(0), np.empty(0, dtype=np.bool_))
    tri = np.zeros(n, dtype=np.int8)
    tri[v > hysteresis] = 1
    tri[v < -hysteresis] = -1
    decided = np.flatnonzero(tri)
    if decided.size < 2:
        return empty
    fill_index = np.zeros(n, dtype=np.int64)
    fill_index[decided] = decided
    fill_index = np.maximum.accumulate(fill_index)
    filled = tri[fill_index]
    filled[: decided[0]] = tri[decided[0]]
    switches = np.flatnonzero(filled[1:] != filled[:-1]) + 1
    if switches.size == 0:
        return empty
    index = np.arange(n)
    last_nonpos = np.maximum.accumulate(np.where(v <= 0.0, index, -1))
    last_nonneg = np.maximum.accumulate(np.where(v >= 0.0, index, -1))
    new_states = filled[switches]
    k = np.where(
        new_states > 0,
        last_nonpos[switches - 1],
        last_nonneg[switches - 1],
    )
    found = k >= 0
    k = k[found]
    rising = new_states[found] > 0
    v0 = v[k]
    v1 = v[k + 1]
    denominator = v0 - v1
    safe = np.where(denominator == 0.0, 1.0, denominator)
    fraction = np.where(denominator == 0.0, 0.5, v0 / safe)
    fraction = np.clip(fraction, 0.0, 1.0)
    return k + fraction, rising


#: Relaxation sweep cap.  A sweep propagates the recurrence one sample,
#: so convergence needs as many sweeps as the longest clamped (ramping)
#: run; simulator edges span tens of samples.  Lanes that have not
#: settled by the cap fall back to the exact per-lane event walk.
_RELAX_MAX_SWEEPS = 192


def _slew_limit_relax(
    targets: np.ndarray, max_step, initials: np.ndarray
) -> np.ndarray:
    """Lane-parallel slew limiting by frontier relaxation.

    Iterates the Jacobi sweep ``y[i] = y[i-1] + clip(t[i] - y[i-1], ±s)``
    (``y[-1]`` is the lane's initial level) from ``y = t``.  Its fixed
    point is the sequential recurrence itself, bit for bit: a sample
    whose predecessor holds its final value recomputes exactly the
    sequential update.  Sweep 1 runs over the whole ``(lanes, n)``
    batch.  A later sweep can change sample ``i`` only if the sweep
    before it changed sample ``i - 1`` of the same lane, so every sweep
    gathers just the successors of the previous sweep's changed samples
    (the frontier), updates them with the same three float64 operations
    from their predecessors' values, and scatters back the ones that
    moved, which form the next frontier.  Past the dense first sweep,
    the work tracks the clamped (ramping) samples, not
    ``lanes × n × sweeps``, and lanes never interact, so a lane's
    result does not depend on the batch it rides in.

    Lanes that still have a frontier after ``_RELAX_MAX_SWEEPS`` sweeps
    (a ramp longer than the cap) are redone by the exact event walk
    :func:`slew_limit`, which agrees with the recurrence to rounding.

    *max_step* is a shared float or a per-lane array (pack plans carry
    per-instance slew rates).
    """
    n_lanes, n = targets.shape
    if n == 0:
        return np.empty_like(targets)
    lane_steps = None
    step = max_step
    if isinstance(max_step, np.ndarray):
        lane_steps = max_step.reshape(-1)
        step = lane_steps[:, None]
    # Sweep 1, dense: the predecessor of sample 0 is the initial level,
    # of every other sample its own target.
    out = np.empty((n_lanes, n))
    out[:, 0] = initials
    out[:, 1:] = targets[:, :-1]
    delta = np.subtract(targets, out)
    np.clip(delta, -step, step, out=delta)
    out += delta
    del delta
    # "Moved" compares bit patterns, so a flip of the sign of zero
    # propagates like any other change.
    flat_targets = targets.reshape(-1)
    flat_out = out.reshape(-1)
    out_bits = flat_out.view(np.int64)
    moved = np.flatnonzero(out_bits != flat_targets.view(np.int64))
    for _ in range(1, min(n, _RELAX_MAX_SWEEPS)):
        if moved.size == 0:
            break
        index = moved[moved % n != n - 1] + 1
        # Gather every predecessor before scattering (Jacobi order).
        before = flat_out[index - 1]
        update = np.subtract(flat_targets[index], before)
        if lane_steps is None:
            np.clip(update, -step, step, out=update)
        else:
            bound = lane_steps[index // n]
            np.clip(update, -bound, bound, out=update)
        update += before
        changed = update.view(np.int64) != out_bits[index]
        moved = index[changed]
        flat_out[moved] = update[changed]
    for lane in np.unique(moved // n):
        lane_step = step if lane_steps is None else float(lane_steps[lane])
        out[lane] = slew_limit(targets[lane], lane_step, float(initials[lane]))
    return out


def slew_limit_batch(
    values: np.ndarray, max_step, initials: np.ndarray
) -> np.ndarray:
    """Slew limiting of a ``(lanes, n)`` batch by frontier relaxation.

    See :func:`_slew_limit_relax`; lanes agree with sequential
    single-lane calls (the event walk) to floating-point rounding.
    """
    return _slew_limit_relax(
        values, max_step, np.asarray(initials, dtype=np.float64)
    )


def compressive_slew_limit_batch(
    v_in: np.ndarray,
    target_floor: np.ndarray,
    target_extra: np.ndarray,
    max_step,
    dt: float,
    hysteresis: np.ndarray,
    corner: float,
    order: int,
    initial_interval: np.ndarray,
) -> np.ndarray:
    """Lane-vectorised compression comparators feeding one relaxed slew.

    Everything runs on the whole batch at once: the comparator state
    fill in 2-D (integer operations, so row ``i`` is bit-for-bit the
    single-lane fill), the sparse per-flip scale algebra flattened
    across all lanes' flips, and the slew recurrence as a lane-parallel
    frontier relaxation (:func:`_slew_limit_relax`).  Each lane's target
    is the same quantity an unprimed :func:`_compressive_target_carry`
    computes, evaluated with array ops over the pooled flips, so lanes
    agree with sequential single-lane calls to floating-point rounding.
    """
    n_lanes, n = v_in.shape
    band = hysteresis[:, None]
    tri = np.zeros((n_lanes, n), dtype=np.int8)
    tri[v_in > band] = 1
    tri[v_in < -band] = -1
    # Forward-fill undecided samples with the last decided state, seeded
    # with each lane's initial comparator state.
    prefixed = np.empty((n_lanes, n + 1), dtype=np.int8)
    prefixed[:, 0] = np.where(v_in[:, 0] > 0.0, 1, -1)
    prefixed[:, 1:] = tri
    col = np.arange(n + 1, dtype=np.int32)
    fill_index = np.where(prefixed != 0, col[None, :], 0)
    np.maximum.accumulate(fill_index, axis=1, out=fill_index)
    filled = np.take_along_axis(prefixed, fill_index, axis=1)
    flip_mask = filled[:, 1:] != filled[:, :-1]  # flip at sample j

    # Per-flip excursion scales for every lane at once.  ``np.nonzero``
    # walks the mask in row-major order, so each lane's flips appear as
    # one ascending run — segment bookkeeping per lane reduces to
    # adjacent-element comparisons on the flat arrays.
    inv_2corner = 1.0 / (2.0 * corner)
    scale0 = 1.0 / (1.0 + (inv_2corner / initial_interval) ** order)
    flip_lanes, flip_cols = np.nonzero(flip_mask)
    total = flip_lanes.size
    if total == 0:
        scale = np.broadcast_to(scale0[:, None], (n_lanes, n))
    else:
        is_first = np.empty(total, dtype=bool)
        is_first[0] = True
        is_first[1:] = flip_lanes[1:] != flip_lanes[:-1]
        prev_cols = np.empty(total, dtype=np.int64)
        prev_cols[0] = 0
        prev_cols[1:] = flip_cols[:-1]
        # Interval preceding each flip: from the previous flip in the
        # same lane, or from ``initial_interval`` before the record
        # began for a lane's first flip.
        elapsed = np.where(
            is_first,
            initial_interval[flip_lanes] + flip_cols * dt,
            (flip_cols - prev_cols) * dt,
        )
        flip_scales = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
        # Expand to per-sample scales with one flat repeat: each lane
        # contributes a leading segment at its initial scale followed
        # by one segment per flip; lane rows are contiguous in the
        # flattened (n_lanes * n) layout.
        counts = np.bincount(flip_lanes, minlength=n_lanes)
        starts = np.empty(n_lanes, dtype=np.int64)
        starts[0] = 0
        np.cumsum(counts[:-1] + 1, out=starts[1:])
        seg_values = np.empty(total + n_lanes)
        seg_lengths = np.empty(total + n_lanes, dtype=np.int64)
        flip_slots = np.ones(total + n_lanes, dtype=bool)
        flip_slots[starts] = False
        seg_values[starts] = scale0
        seg_values[flip_slots] = flip_scales
        lead = np.full(n_lanes, n, dtype=np.int64)
        lead[flip_lanes[is_first]] = flip_cols[is_first]
        is_last = np.empty(total, dtype=bool)
        is_last[:-1] = is_first[1:]
        is_last[-1] = True
        next_cols = np.empty(total, dtype=np.int64)
        next_cols[:-1] = flip_cols[1:]
        next_cols[-1] = n
        seg_lengths[starts] = lead
        seg_lengths[flip_slots] = np.where(
            is_last, n - flip_cols, next_cols - flip_cols
        )
        scale = np.repeat(seg_values, seg_lengths).reshape(n_lanes, n)
    target = target_floor + scale * target_extra
    y0 = target_floor[:, 0] + scale0 * target_extra[:, 0]
    return _slew_limit_relax(target, max_step, y0)


# Calibrated per-stage cost model for the fused cascade's slew step.
# Both strategies are exact (the relaxation's stale-lane fallback is the
# walk itself), so the choice only affects speed: the event walk costs
# one Python-level iteration per comparator flip, each touching O(n)
# precomputed keys; a relaxation sweep is three array passes shared by
# the whole record but must run once per sample of the longest ramp.
# Constants were measured on the development host; they only need to
# rank the two strategies, not predict absolute times.  They describe
# the dense sweep loop that frontier relaxation replaced, so they
# overstate relaxation; refitting them changes which strategy a stage
# runs, which moves result bits within the 0.01 ps contract.
_WALK_COST_PER_EVENT = 4e-6
_WALK_COST_PER_EVENT_SAMPLE = 0.45e-9
_RELAX_COST_PER_SWEEP_SAMPLE = 2.1e-9
_RELAX_COST_FIXED = 2e-5


def _cascade_slew(
    target: np.ndarray, max_step: float, y0: float, n_events: int
) -> np.ndarray:
    """Slew-limit one lane, choosing the cheaper exact strategy."""
    n = target.size
    span = float(target.max()) - float(target.min())
    sweeps = min(n, _RELAX_MAX_SWEEPS, int(span / max_step) + 2)
    relax_cost = sweeps * n * _RELAX_COST_PER_SWEEP_SAMPLE + _RELAX_COST_FIXED
    walk_cost = (n_events + 1) * (
        _WALK_COST_PER_EVENT + _WALK_COST_PER_EVENT_SAMPLE * n
    )
    if relax_cost < walk_cost:
        return _slew_limit_relax(
            target[None, :], max_step, np.array([y0])
        )[0]
    return slew_limit(target, max_step, y0)


def fine_delay_cascade_stream(
    values: np.ndarray, stages, dt: float, states
) -> np.ndarray:
    """Fused cascade over one chunk, with carried per-stage state.

    Mirrors the reference streaming semantics (see
    ``python_backend.fine_delay_cascade_stream``) with this backend's
    vectorised machinery.  Per-stage element-wise work (noise add,
    limiting tanh) runs in-place in a scratch buffer owned by the
    kernel; the compressed slew target comes from the carry-aware
    comparator decomposition (:func:`_compressive_target_carry`) and is
    slewed from the carried tracker level by whichever exact strategy
    the cost model prefers (:func:`_cascade_slew`); the stage filter
    starts from the plan's precomputed settled state, or the carried
    filter state.  One unprimed call agrees with the per-stage path to
    floating-point rounding, and chunked runs agree with one
    whole-record call likewise (within the 0.01 ps delay contract).
    """
    x = values.copy()
    scratch = np.empty_like(x)
    for stage, carry in zip(stages, states):
        if stage.noise is not None:
            np.add(x, stage.noise, out=x)
        v_in = x
        np.divide(v_in, stage.v_linear, out=scratch)
        limited = np.tanh(scratch, out=scratch)
        amplitude = stage.amplitude
        if np.isfinite(stage.corner):
            floor = np.minimum(amplitude, stage.amplitude_min)
            extra = amplitude - floor
            if carry.hysteresis is None or carry.initial_interval is None:
                upper, lower = np.percentile(v_in, (98.0, 2.0))
                carry.freeze_stats(
                    float(0.3 * ((upper - lower) / 2.0)),
                    typical_crossing_interval(v_in, dt),
                )
            target, y0, n_flips, comp_state, elapsed, scale = (
                _compressive_target_carry(
                    v_in,
                    floor * limited,
                    extra * limited,
                    dt,
                    float(carry.hysteresis),
                    stage.corner,
                    stage.order,
                    float(carry.initial_interval),
                    carry.comp_state,
                    carry.elapsed,
                    carry.scale,
                    carry.primed,
                )
            )
            y_start = carry.slew_y if carry.primed else y0
            slewed = _cascade_slew(target, stage.max_step, y_start, n_flips)
            carry.comp_state = comp_state
            carry.elapsed = elapsed
            carry.scale = scale
        else:
            target = amplitude * limited
            sign = np.signbit(target)
            n_events = int(np.count_nonzero(sign[1:] != sign[:-1]))
            y_start = carry.slew_y if carry.primed else float(target[0])
            slewed = _cascade_slew(target, stage.max_step, y_start, n_events)
        carry.slew_y = float(slewed[-1])
        if carry.filter_zi is None:
            zi = stage.zi_unit * slewed[0]
        else:
            zi = carry.filter_zi
        filtered, zf = _scipy_signal.lfilter(stage.b, stage.a, slewed, zi=zi)
        carry.filter_zi = zf
        carry.primed = True
        x = filtered
    return x


def fine_delay_cascade_batch(
    values: np.ndarray, stages, dt: float
) -> np.ndarray:
    """Fused cascade over a ``(lanes, samples)`` batch.

    The per-stage work reuses the batched kernels (pooled-flips
    compression decomposition + lane-parallel frontier relaxation), with
    the stage filter applied across the whole batch from the plan's
    precomputed settled state.
    """
    x = values.copy()
    scratch = np.empty_like(x)
    for stage in stages:
        if stage.noise is not None:
            np.add(x, stage.noise, out=x)
        v_in = x
        np.divide(v_in, stage.v_linear, out=scratch)
        limited = np.tanh(scratch, out=scratch)
        amplitude = stage.amplitude
        if np.isfinite(stage.corner):
            floor = np.minimum(amplitude, stage.amplitude_min)
            extra = amplitude - floor
            upper, lower = np.percentile(v_in, (98.0, 2.0), axis=1)
            hysteresis = 0.3 * ((upper - lower) / 2.0)
            slewed = compressive_slew_limit_batch(
                v_in,
                np.broadcast_to(floor * limited, limited.shape),
                np.broadcast_to(extra * limited, limited.shape),
                stage.max_step,
                dt,
                hysteresis,
                stage.corner,
                stage.order,
                np.array(
                    [typical_crossing_interval(lane, dt) for lane in v_in]
                ),
            )
        else:
            target = amplitude * limited
            slewed = _slew_limit_relax(
                target, stage.max_step, np.ascontiguousarray(target[:, 0])
            )
        zi = stage.zi_unit[None, :] * slewed[:, :1]
        filtered, _ = _scipy_signal.lfilter(
            stage.b, stage.a, slewed, axis=1, zi=zi
        )
        x = filtered
    return x


def nearest_edge_margin(
    probe_edges: np.ndarray, data_edges: np.ndarray
) -> float:
    """Vectorised nearest-edge distance minimum."""
    if probe_edges.size == 0 or data_edges.size == 0:
        return float("inf")
    n_data = len(data_edges)
    indices = np.searchsorted(data_edges, probe_edges)
    left = np.clip(indices - 1, 0, n_data - 1)
    right = np.clip(indices, 0, n_data - 1)
    dist_left = np.abs(probe_edges - data_edges[left])
    dist_right = np.abs(data_edges[right] - probe_edges)
    dist_left[indices - 1 < 0] = np.inf
    dist_right[indices >= n_data] = np.inf
    return float(np.minimum(dist_left, dist_right).min())
