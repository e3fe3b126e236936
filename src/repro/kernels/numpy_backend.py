"""NumPy-vectorised kernels.

Same algebra as the reference loops in
:mod:`repro.kernels.python_backend`, evaluated with array operations,
and the same bytes (the contract is stated in :mod:`repro.kernels`):
the half-cycle age at a flip is ``samples since the last flip * dt``
(the count carried across chunks as an integer, plus the seed interval
before a lane's first flip) and every flip's
compression scale comes from :func:`~repro.kernels.cascade._flip_scale`,
in both backends.

The fused cascade is one kernel, :func:`fine_delay_cascade`, over a
``(lanes, samples)`` record with per-lane carried state; every
limiting-buffer stage runs on it, standalone buffers as one-stage
cascades.  :func:`_compressive_target` builds each stage's compressed
slew target, and :func:`_slew_limit_relax` slews every lane of it by
frontier relaxation, whatever the lane count: one dense Jacobi sweep
over the whole record, then sweeps over only the samples whose
predecessor changed, so the cost tracks the ramping samples and the
sweeps are array operations shared by every lane.  The result is the
sequential recurrence bit for bit, and lanes never interact, so a
lane's output does not depend on the call it rides in.  A lane whose
ramp outlasts the sweep cap is finished by the reference loop
:func:`~repro.kernels.python_backend.slew_limit`.  The kernel writes
its element-wise steps in place into full-length scratch arrays kept
with the carry states, never into its inputs, so a stream's chunks
reuse them.
"""

from __future__ import annotations

import numpy as np

from .cascade import CascadeStageState, _flip_scale
from .iir import lfilter
from .python_backend import slew_limit

__all__ = [
    "slew_limit",
    "match_edges",
    "hysteresis_crossings",
    "nearest_edge_margin",
    "fine_delay_cascade",
]


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
    # +1 above the band, -1 below it, 0 inside (*hysteresis* > 0).
    tri = np.subtract(
        (v > hysteresis).view(np.int8), (v < -hysteresis).view(np.int8)
    )
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
#: settled by the cap are finished by the reference loop.
_RELAX_MAX_SWEEPS = 192


def _slew_limit_relax(
    targets: np.ndarray,
    max_step,
    initials: np.ndarray,
    out: "np.ndarray | None" = None,
    delta: "np.ndarray | None" = None,
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
    (a ramp longer than the cap) are redone by the reference loop
    :func:`slew_limit`, which is the fixed point the sweeps converge
    to.  A changed sample at the end of its lane has no successor, so
    it ends the lane's frontier rather than sending the lane there.

    *max_step* is a shared float or a per-lane array (pack plans carry
    per-instance slew rates).  *out* and *delta*, when given, are
    ``targets``-shaped scratch arrays the result and the dense sweep's
    step are written into; *targets* and *initials* are only read.
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
    if out is None:
        out = np.empty((n_lanes, n))
    out[:, 0] = initials
    out[:, 1:] = targets[:, :-1]
    delta = np.subtract(targets, out, out=delta)
    np.clip(delta, -step, step, out=delta)
    out += delta
    del delta
    # "Moved" compares bit patterns, so a flip of the sign of zero
    # propagates like any other change.
    flat_targets = targets.reshape(-1)
    flat_out = out.reshape(-1)
    out_bits = flat_out.view(np.int64)
    moved = np.flatnonzero(out_bits != flat_targets.view(np.int64))
    for sweep in range(1, _RELAX_MAX_SWEEPS + 1):
        # After *sweep* sweeps the frontier is the successors, in their
        # own lanes, of the samples the last sweep moved.
        index = moved[moved % n != n - 1] + 1
        if index.size == 0 or sweep == _RELAX_MAX_SWEEPS:
            break
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
    for lane in np.unique(index // n):
        lane_step = step if lane_steps is None else float(lane_steps[lane])
        out[lane] = slew_limit(targets[lane], lane_step, float(initials[lane]))
    return out


def _compressive_target(
    v_in: np.ndarray,
    target_floor: np.ndarray,
    target_extra: np.ndarray,
    dt: float,
    corner: float,
    order: int,
    carry: CascadeStageState,
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-sample compressed slew target of every lane of a batch.

    The comparator flips are pure functions of *v_in* and each lane's
    frozen hysteresis band (``carry``), so everything runs on the whole
    ``(lanes, n)`` batch at once: the comparator decisions and their
    flips over the flattened batch (integer operations), the sparse
    per-flip scale algebra across all lanes' flips, and one flat repeat
    back to per-sample scales.

    A fresh (unprimed) *carry* seeds each lane's comparator from its
    first sample and its compression state from its frozen
    ``initial_interval``, as if the signal had been toggling at its own
    rate forever; a primed one starts from the carried comparator
    state, times each lane's first flip from the carried half-cycle
    age (integer sample count plus seed lead), and holds the carried
    scale until that flip.  The outgoing comparator state, half-cycle
    age and scale are written back to *carry*.

    Returns ``(target, y_start)``: the slew target and each lane's
    initial tracker level (the carried ``slew_y`` when primed).
    """
    n_lanes, n = v_in.shape
    inv_2corner = 1.0 / (2.0 * corner)
    if carry.primed:
        count_in, elapsed_in = carry.count, carry.elapsed
        scale_in = carry.scale
        comp_state = carry.comp_state
    else:
        count_in, elapsed_in = 0, carry.initial_interval
        # The seed uses Python-float ``**`` per lane, as the reference
        # loop does: ``np.power`` can differ from it in the last bit.
        scale_in = np.array(
            [
                1.0 / (1.0 + (inv_2corner / interval) ** order)
                for interval in elapsed_in.tolist()
            ]
        )
        comp_state = np.where(v_in[:, 0] > 0.0, 1, -1)
    band = carry.hysteresis[:, None]
    # Each lane's incoming comparator state, then its decisions: +1
    # above the band, -1 below it, 0 inside.
    prefixed = np.empty((n_lanes, n + 1), dtype=np.int8)
    prefixed[:, 0] = comp_state
    np.subtract(
        (v_in > band).view(np.int8),
        (v_in < -band).view(np.int8),
        out=prefixed[:, 1:],
    )
    # The state flips wherever a decision differs from the lane's last
    # decision before it.  Every row starts decided (+1/-1), so scanning
    # the decisions of the flattened batch in order compares one lane
    # with another only at a lane's first slot, which is not a flip.
    flat = prefixed.reshape(-1)
    decided = np.flatnonzero(flat)
    states = flat[decided]
    turns = decided[1:][states[1:] != states[:-1]]
    turn_lanes, turn_slots = np.divmod(turns, n + 1)
    inside = turn_slots != 0
    flip_lanes = turn_lanes[inside]
    # Flip positions in the flattened (n_lanes * n) sample layout, in
    # row-major order, so each lane's flips form one ascending run.
    flips = (turns - turn_lanes - 1)[inside]
    counts = np.bincount(flip_lanes, minlength=n_lanes)

    # Segments of constant scale, in flat order: each lane's lead
    # segment (its incoming scale from its first sample), then one per
    # flip.  ``ends`` is the slot of each lane's last segment.
    lanes = np.arange(n_lanes)
    ends = lanes + counts.cumsum()
    starts = ends - counts
    is_flip = np.ones(flips.size + n_lanes, dtype=bool)
    is_flip[starts] = False
    seg_begin = np.empty(flips.size + n_lanes + 1, dtype=np.int64)
    seg_begin[starts] = lanes * n
    seg_begin[:-1][is_flip] = flips
    seg_begin[-1] = n_lanes * n
    seg_lengths = seg_begin[1:] - seg_begin[:-1]
    # Each segment's age at its end: its sample count (for a lead
    # segment, plus the incoming count) times ``dt``, plus, for a lead
    # segment, the incoming seed lead.  A flip's interval is the age of
    # the segment before it; the outgoing count is that of the lane's
    # last segment.
    seg_counts = seg_lengths.copy()
    seg_counts[starts] += count_in
    ages = seg_counts * dt
    ages[starts] += elapsed_in
    seg_values = np.empty(flips.size + n_lanes)
    seg_values[starts] = scale_in
    seg_values[is_flip] = _flip_scale(
        inv_2corner / ages[:-1][is_flip[1:]], order
    )
    # The target ``floor + scale * extra`` is built in the repeat's own
    # output, the one full-length array this function allocates.
    target = np.repeat(seg_values, seg_lengths).reshape(n_lanes, n)
    np.multiply(target, target_extra, out=target)
    np.add(target_floor, target, out=target)
    if carry.primed:
        y_start = carry.slew_y
    else:
        y_start = target_floor[:, 0] + scale_in * target_extra[:, 0]
    # Each flip toggles the comparator.
    carry.comp_state = comp_state * (-1) ** counts
    carry.count = seg_counts[ends]
    carry.elapsed = np.where(counts == 0, elapsed_in, 0.0)
    carry.scale = seg_values[ends]
    return target, y_start


def fine_delay_cascade(
    values: np.ndarray, stages, dt: float, states
) -> np.ndarray:
    """Fused cascade over a ``(lanes, samples)`` record, carrying
    per-lane state in *states*.

    Mirrors the reference semantics (see
    ``python_backend.fine_delay_cascade``) with this backend's
    vectorised machinery.  Per-stage element-wise work (noise add,
    limiting tanh, target floor and extra, the slew relaxation's step
    and output) writes in place into four full-length scratch arrays
    kept with the carry states (:meth:`CascadeStageState.buffer` on the
    first stage's state; the stages run one after another, so they
    share one set).  A stream's states live from chunk to chunk, so its
    same-length chunks reuse the same arrays instead of faulting fresh
    heap pages in on every push; a whole-record or pack call runs on
    fresh states, whose scratch is freed when the call returns.  The
    caller's *values* and the plan's arrays are only read, and the
    returned record is the last stage's filter output, never scratch.
    The compressed slew target comes from the carry-aware comparator
    decomposition (:func:`_compressive_target`); the stage filter
    starts from the plan's precomputed settled state, or the carried
    filter state.

    Every stage slews all its lanes with one frontier relaxation
    (:func:`_slew_limit_relax`), however many lanes the call has, and
    lanes never interact, so a lane's output is byte-identical whether
    it runs alone or inside a multi-lane call, and every byte is the
    python reference's (see :mod:`repro.kernels`).
    """
    if not stages:
        return values.copy()
    held = states[0]
    shape = values.shape
    x = values
    for stage, carry in zip(stages, states):
        if stage.noise is not None:
            x = np.add(x, stage.noise, out=held.buffer("record", shape))
        v_in = x
        limited = held.buffer("limited", shape)
        np.divide(v_in, stage.v_linear, out=limited)
        np.tanh(limited, out=limited)
        amplitude = stage.amplitude
        if np.isfinite(stage.corner):
            floor = np.minimum(amplitude, stage.amplitude_min)
            carry.freeze_from(v_in, dt)
            target, y_start = _compressive_target(
                v_in,
                np.multiply(floor, limited, out=held.buffer("floor", shape)),
                np.multiply(
                    amplitude - floor, limited, out=held.buffer("extra", shape)
                ),
                dt,
                stage.corner,
                stage.order,
                carry,
            )
        else:
            target = np.multiply(
                amplitude, limited, out=held.buffer("floor", shape)
            )
            y_start = carry.slew_y if carry.primed else target[:, 0].copy()
        # The tanh output and the extra target are spent once the
        # target is built: the relaxation writes its step and output
        # there.
        slewed = _slew_limit_relax(
            target,
            stage.max_step,
            y_start,
            held.buffer("extra", shape),
            limited,
        )
        # Free a compressive target (the one full-length array not
        # held) before the next stage builds its own.
        del target
        carry.slew_y = slewed[:, -1].copy()
        if carry.filter_zi is None:
            zi = stage.zi_unit[None, :] * slewed[:, :1]
        else:
            zi = carry.filter_zi
        x, carry.filter_zi = lfilter(stage.b, stage.a, slewed, axis=1, zi=zi)
        carry.primed = True
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
