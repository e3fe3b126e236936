"""Pure-Python reference implementations of the hot-loop kernels.

These loops are the *semantic reference* for the kernel layer: the
vectorised numpy backend reproduces them byte for byte (the contract
is stated in :mod:`repro.kernels`).  Keep them simple and obviously
correct; speed is the numpy backend's job.

All functions receive pre-validated, contiguous ``float64`` arrays and
plain Python scalars (the dispatch wrappers in
:mod:`repro.kernels` normalise inputs), and return plain numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .cascade import _flip_scale
from .iir import lfilter

__all__ = [
    "slew_limit",
    "compressive_slew_limit_carry",
    "match_edges",
    "hysteresis_crossings",
    "nearest_edge_margin",
    "slew_limit_batch",
    "fine_delay_cascade",
]


def slew_limit(
    values: np.ndarray, max_step: float, initial: float
) -> np.ndarray:
    """Track *values* with a per-sample step bounded by *max_step*."""
    out = np.empty(len(values))
    y = initial
    # Plain-float loop: ~50 ns/sample, far cheaper than numpy scalar ops.
    targets = values.tolist()
    up = max_step
    down = -max_step
    for i, target in enumerate(targets):
        dv = target - y
        if dv > up:
            dv = up
        elif dv < down:
            dv = down
        y += dv
        out[i] = y
    return out


def compressive_slew_limit_carry(
    v_in: np.ndarray,
    target_floor: np.ndarray,
    target_extra: np.ndarray,
    max_step: float,
    dt: float,
    hysteresis: float,
    corner: float,
    order: int,
    initial_interval: float,
    comp_state: int,
    count: int,
    elapsed: float,
    scale: float,
    y: float,
    primed: bool,
) -> "tuple[np.ndarray, int, int, float, float, float]":
    """Compressive slew limiting with carried recurrence state.

    When *primed* is False the comparator/compression/tracker state is
    initialised from this chunk's first sample: the record is a
    snapshot of a long-running signal, so the compression state starts
    as if the signal had been toggling at its own rate
    (*initial_interval*) forever.  When True, (*comp_state*,
    *count*, *elapsed*, *scale*, *y*) continue the loop where the
    previous chunk stopped.

    The half-cycle age at a flip is ``count * dt + elapsed``: *count*
    is the integer number of samples since the last flip (carried
    across chunks) and *elapsed* the seed interval until the lane's
    first flip, 0.0 after it.  Each flip's scale comes from
    :func:`~repro.kernels.cascade._flip_scale`.  That is the numpy
    kernel's arithmetic, so the two backends give the same bytes, and
    a split record rounds every age exactly as the whole one does.

    Returns ``(out, comp_state, count, elapsed, scale, y)``.
    """
    n = len(target_extra)
    out = np.empty(n)
    v_list = v_in.tolist()
    floor_list = target_floor.tolist()
    extra_list = target_extra.tolist()
    inv_2corner = 1.0 / (2.0 * corner)
    if not primed:
        comp_state = 1 if v_list[0] > 0.0 else -1
        count = 0
        elapsed = initial_interval
        scale = 1.0 / (1.0 + (inv_2corner / elapsed) ** order)
        y = float(floor_list[0]) + scale * float(extra_list[0])
    state = comp_state
    last_flip = -count
    up = max_step
    down = -max_step
    for i in range(n):
        v = v_list[i]
        if (v < -hysteresis) if state > 0 else (v > hysteresis):
            state = -state
            age = (i - last_flip) * dt + elapsed
            scale = _flip_scale(np.array([inv_2corner / age]), order).item()
            last_flip = i
            elapsed = 0.0
        dv = floor_list[i] + scale * extra_list[i] - y
        if dv > up:
            dv = up
        elif dv < down:
            dv = down
        y += dv
        out[i] = y
    return out, state, n - last_flip, elapsed, scale, y


def match_edges(
    ref_edges: np.ndarray,
    out_edges: np.ndarray,
    coarse: float,
    max_edge_offset: float,
) -> np.ndarray:
    """One-to-one greedy edge matching; returns offsets in edge order.

    Each reference edge proposes the output edge nearest to
    ``ref + coarse`` (ties go to the earlier edge).  Proposals farther
    than *max_edge_offset* from the coarse estimate are discarded; the
    survivors are granted in order of increasing deviation, and a
    reference edge whose proposed output edge is already taken is
    dropped — so a dropped edge in the output trace costs one match
    instead of biasing the mean with a duplicate.
    """
    n_ref = len(ref_edges)
    n_out = len(out_edges)
    if n_ref == 0 or n_out == 0:
        return np.empty(0)
    indices = np.searchsorted(out_edges, ref_edges + coarse)
    ref_list = ref_edges.tolist()
    out_list = out_edges.tolist()
    index_list = indices.tolist()
    cand_dev = []
    cand_ref = []
    cand_out = []
    for r_index in range(n_ref):
        ref_time = ref_list[r_index]
        index = index_list[r_index]
        best_out = -1
        best_dev = math.inf
        for out_index in (index - 1, index):
            if 0 <= out_index < n_out:
                dev = abs(out_list[out_index] - ref_time - coarse)
                if dev < best_dev:
                    best_dev = dev
                    best_out = out_index
        if best_out >= 0 and best_dev <= max_edge_offset:
            cand_dev.append(best_dev)
            cand_ref.append(r_index)
            cand_out.append(best_out)
    n_cand = len(cand_dev)
    if n_cand == 0:
        return np.empty(0)
    order = np.argsort(np.asarray(cand_dev), kind="stable")
    taken = np.zeros(n_out, dtype=np.bool_)
    offset_by_ref = np.empty(n_ref)
    accepted = np.zeros(n_ref, dtype=np.bool_)
    for position in order.tolist():
        out_index = cand_out[position]
        if taken[out_index]:
            continue
        taken[out_index] = True
        r_index = cand_ref[position]
        accepted[r_index] = True
        offset_by_ref[r_index] = out_list[out_index] - ref_list[r_index]
    return offset_by_ref[accepted]


def hysteresis_crossings(
    v: np.ndarray, hysteresis: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Comparator-with-hysteresis switch instants on a bare array.

    *v* is the waveform minus the threshold.  Returns fractional sample
    positions of the threshold crossings that caused each comparator
    switch, plus their polarities.
    """
    positions = []
    polarities = []
    state = 0
    last_nonpos = -1  # last index so far with v <= 0
    last_nonneg = -1  # last index so far with v >= 0
    v_list = v.tolist()
    for i, vi in enumerate(v_list):
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
                # The crossing lies in the last bare-threshold sign
                # change before this switch.
                k = last_nonpos if tri > 0 else last_nonneg
                if k >= 0:
                    v0 = v_list[k]
                    v1 = v_list[k + 1]
                    if v0 == v1:
                        fraction = 0.5
                    else:
                        fraction = v0 / (v0 - v1)
                    fraction = min(max(fraction, 0.0), 1.0)
                    positions.append(k + fraction)
                    polarities.append(tri > 0)
        if vi <= 0.0:
            last_nonpos = i
        if vi >= 0.0:
            last_nonneg = i
    return (
        np.asarray(positions, dtype=np.float64),
        np.asarray(polarities, dtype=np.bool_),
    )


def _lane_step(max_step, lane: int) -> float:
    """Per-lane slew step: scalar shared by all lanes, or one per lane.

    Pack plans (many device instances in one batch) carry ``max_step``
    as an ``(n_lanes,)`` or ``(n_lanes, 1)`` array; single-instance
    batches keep the plain float.
    """
    if isinstance(max_step, np.ndarray):
        return float(max_step.reshape(-1)[lane])
    return max_step


def slew_limit_batch(
    values: np.ndarray, max_step, initials: np.ndarray
) -> np.ndarray:
    """Per-lane slew limiting of a ``(lanes, n)`` batch.

    The reference semantics of the batch axis: each lane is exactly the
    single-lane kernel, so batched and sequential runs are bit-exact.
    *max_step* is a shared float or a per-lane array.
    """
    out = np.empty_like(values)
    for lane in range(values.shape[0]):
        out[lane] = slew_limit(
            values[lane], _lane_step(max_step, lane), float(initials[lane])
        )
    return out


def fine_delay_cascade(
    values: np.ndarray, stages, dt: float, states
) -> np.ndarray:
    """Reference fused cascade over a ``(lanes, samples)`` record.

    *states* is one :class:`~repro.kernels.cascade.CascadeStageState`
    per stage, mutated in place.  An unprimed state performs the exact
    whole-record initialisation from this record (percentile
    hysteresis, crossing-interval seeding, first-sample tracker and
    filter state); a primed state continues every lane's recurrences
    across the chunk boundary.  Lanes run one by one through the
    reference loops, so one call on unprimed states is **bit-exact**
    against the chain of one-stage calls on each lane (and each lane
    against its own one-lane call), and chunked calls reproduce one
    whole-record call byte for byte whenever the frozen statistics
    match.
    """
    n_lanes = values.shape[0]
    x = values
    for stage, carry in zip(stages, states):
        v_in = x
        if stage.noise is not None:
            v_in = v_in + stage.noise
        limited = np.tanh(v_in / stage.v_linear)
        amplitude = stage.amplitude
        if np.isfinite(stage.corner):
            floor = np.minimum(amplitude, stage.amplitude_min)
            target_floor = floor * limited
            target_extra = (amplitude - floor) * limited
            carry.freeze_from(v_in, dt)
            if not carry.primed:
                # Placeholders: unprimed lanes seed from their record.
                carry.comp_state = np.zeros(n_lanes, dtype=np.int8)
                carry.count = np.zeros(n_lanes, dtype=np.int64)
                carry.elapsed = np.zeros(n_lanes)
                carry.scale = np.ones(n_lanes)
                carry.slew_y = np.zeros(n_lanes)
            slewed = np.empty_like(v_in)
            for lane in range(n_lanes):
                (
                    slewed[lane],
                    carry.comp_state[lane],
                    carry.count[lane],
                    carry.elapsed[lane],
                    carry.scale[lane],
                    _,
                ) = compressive_slew_limit_carry(
                    v_in[lane],
                    target_floor[lane],
                    target_extra[lane],
                    _lane_step(stage.max_step, lane),
                    dt,
                    float(carry.hysteresis[lane]),
                    stage.corner,
                    stage.order,
                    float(carry.initial_interval[lane]),
                    int(carry.comp_state[lane]),
                    int(carry.count[lane]),
                    float(carry.elapsed[lane]),
                    float(carry.scale[lane]),
                    float(carry.slew_y[lane]),
                    carry.primed,
                )
        else:
            target = amplitude * limited
            initials = carry.slew_y if carry.primed else target[:, 0]
            slewed = slew_limit_batch(target, stage.max_step, initials)
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
    """Smallest |probe - nearest data edge| over all probe edges."""
    if probe_edges.size == 0 or data_edges.size == 0:
        return math.inf
    n_data = len(data_edges)
    indices = np.searchsorted(data_edges, probe_edges)
    margin = math.inf
    data_list = data_edges.tolist()
    for edge, index in zip(probe_edges.tolist(), indices.tolist()):
        if index > 0:
            margin = min(margin, abs(edge - data_list[index - 1]))
        if index < n_data:
            margin = min(margin, abs(data_list[index] - edge))
    return margin
