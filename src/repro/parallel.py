"""Zero-copy transport of waveform payloads between worker processes.

``repro.experiments --jobs`` runs figures on a ``ProcessPoolExecutor``
that would move results to the parent the default way: pickled
through a pipe.  For payloads that carry sample records — waveforms,
waveform batches, large arrays — that serialises megabytes per unit,
and the pipe write + parent-side unpickle shows up directly in
wall-clock.

This module provides the replacement: :func:`encode_payload` walks a
result object just before it crosses the process boundary and rewrites
every :class:`~repro.signals.waveform.Waveform`,
:class:`~repro.signals.waveform.WaveformBatch` and large float array
into a small *token* naming a ``multiprocessing.shared_memory`` block
that holds the raw samples.  The pickle that crosses the pipe then
contains tokens and scalars only; :func:`decode_payload` on the parent
side attaches each block, copies the samples out, and unlinks it.

Properties:

* **>10x fewer IPC bytes** for waveform-carrying payloads (the pickle
  shrinks to metadata; samples move through page-backed shared memory).
* **Zero waveform pickling** — asserted in tests via the
  ``waveform.pickled`` instrument counter.
* **Graceful degradation**: when shared memory is unavailable (or a
  block cannot be created), values are passed inline exactly as before.
* Metrics-only payloads (plain dicts of floats) pass through untouched
  — no tokens, no shared memory, no behaviour change.

Campaigns do not use this module: ``repro.campaign run --jobs N`` runs
on the :class:`~repro.workers.pool.WorkerPool` (``spawn://N``), whose
wire protocol (:mod:`repro.workers.protocol`) sends any array as a
binary frame on the worker socket.

Ownership protocol: the encoding (worker) side creates each block,
copies the samples in, *unregisters* it from its own
``resource_tracker`` and closes its mapping — the block then belongs to
the decoding (parent) side, whose attach re-registers it and whose
decode unlinks it.  Without the unregister, the worker's tracker would
destroy the block at worker exit, racing the parent's read.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

from . import instrument
from .signals.waveform import Waveform, WaveformBatch

__all__ = [
    "SHM_AVAILABLE",
    "encode_payload",
    "decode_payload",
    "release_payload",
    "payload_nbytes",
    "validate_jobs",
]


def validate_jobs(jobs, flag: str = "--jobs") -> int:
    """Validate a worker-process count, naming the flag that set it.

    Every surface that accepts a parallelism degree (``repro.campaign
    run --jobs``, ``repro.experiments --jobs``, :func:`run_campaign`)
    funnels through here so ``0``, negative, and non-integer values
    fail the same way: a :class:`~repro.errors.CampaignError` whose
    message names *flag*.
    """
    from .errors import CampaignError

    try:
        count = int(jobs)
    except (TypeError, ValueError):
        count = None
    if count is None or count != jobs or count < 1:
        raise CampaignError(f"{flag} must be >= 1, got {jobs!r}")
    return count

try:
    from multiprocessing import resource_tracker, shared_memory

    SHM_AVAILABLE = True
except ImportError:  # pragma: no cover - minimal platforms
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]
    SHM_AVAILABLE = False

# Arrays smaller than this ride the pickle inline: a shared-memory block
# costs a file descriptor, two syscalls and a page, which only pays off
# once the copy it saves is larger than that.
MIN_SHM_BYTES = 16 * 1024


@dataclass(frozen=True)
class ShmArray:
    """Token for a float array parked in a shared-memory block."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ShmWaveform:
    """Token for a :class:`Waveform` whose samples are in shared memory."""

    samples: ShmArray
    dt: float
    t0: float


@dataclass(frozen=True)
class ShmWaveformBatch:
    """Token for a :class:`WaveformBatch` with samples in shared memory."""

    samples: ShmArray
    dt: float
    t0: Tuple[float, ...]


def _park_array(array: np.ndarray) -> Any:
    """Copy *array* into a fresh shared-memory block and return its token.

    Falls back to returning the array itself when shared memory is
    unavailable or the block cannot be created (fd exhaustion, tiny
    /dev/shm, ...): the payload is then bigger but still correct.
    """
    array = np.ascontiguousarray(array)
    try:
        block = shared_memory.SharedMemory(create=True, size=array.nbytes)
    except Exception:
        return array
    try:
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[:] = array
        token = ShmArray(block.name, tuple(array.shape), str(array.dtype))
        instrument.count("ipc.shm_blocks")
        instrument.count("ipc.shm_bytes", array.nbytes)
    finally:
        # Hand ownership to the decoding side: without the unregister,
        # this process's resource tracker unlinks the block on exit,
        # racing the parent's attach-and-read.
        try:
            resource_tracker.unregister(block._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker variations
            pass
        block.close()
    return token


def _claim_array(token: ShmArray) -> np.ndarray:
    """Copy a parked array out of its block and release the block."""
    block = shared_memory.SharedMemory(name=token.name)
    try:
        view = np.ndarray(
            token.shape, dtype=np.dtype(token.dtype), buffer=block.buf
        )
        array = np.array(view)  # own the data before the block dies
    finally:
        try:
            block.close()
        finally:
            # Unlink even when close() itself raises — the backing
            # segment must not outlive a failed claim.
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
    return array


def _release_tokens(obj: Any) -> None:
    """Best-effort unlink of every shm block still referenced in *obj*.

    Called when a decode fails partway: blocks already claimed are gone,
    but every token not yet visited still owns a segment that nothing
    else will ever free.  Attach-and-unlink each one; blocks that no
    longer exist are skipped.
    """
    if isinstance(obj, ShmWaveform) or isinstance(obj, ShmWaveformBatch):
        _release_tokens(obj.samples)
        return
    if isinstance(obj, ShmArray):
        try:
            block = shared_memory.SharedMemory(name=obj.name)
        except FileNotFoundError:
            return  # already claimed or released
        try:
            block.close()
        finally:
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        return
    if isinstance(obj, dict):
        for value in obj.values():
            _release_tokens(value)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _release_tokens(item)


def encode_payload(obj: Any, min_bytes: int = MIN_SHM_BYTES) -> Any:
    """Rewrite waveforms and large arrays in *obj* into shm tokens.

    Recurses through dicts, lists and tuples; every
    :class:`Waveform` / :class:`WaveformBatch` and every float ndarray
    of at least *min_bytes* is parked in shared memory and replaced by
    a token.  Everything else passes through unchanged.  Call in the
    worker, immediately before returning across the process boundary.
    """
    if not SHM_AVAILABLE:
        return obj
    if isinstance(obj, Waveform):
        parked = _park_array(obj.values)
        if isinstance(parked, ShmArray):
            return ShmWaveform(parked, obj.dt, obj.t0)
        return obj
    if isinstance(obj, WaveformBatch):
        parked = _park_array(obj.values)
        if isinstance(parked, ShmArray):
            return ShmWaveformBatch(parked, obj.dt, tuple(obj.t0.tolist()))
        return obj
    if isinstance(obj, np.ndarray) and obj.nbytes >= min_bytes:
        return _park_array(obj)
    if isinstance(obj, dict):
        return {
            key: encode_payload(value, min_bytes)
            for key, value in obj.items()
        }
    if isinstance(obj, tuple):
        return tuple(encode_payload(item, min_bytes) for item in obj)
    if isinstance(obj, list):
        return [encode_payload(item, min_bytes) for item in obj]
    return obj


def _decode(obj: Any) -> Any:
    """Recursive decode walk (may raise mid-payload)."""
    if isinstance(obj, ShmWaveform):
        return Waveform(_claim_array(obj.samples), obj.dt, obj.t0)
    if isinstance(obj, ShmWaveformBatch):
        return WaveformBatch(
            _claim_array(obj.samples), obj.dt, np.array(obj.t0)
        )
    if isinstance(obj, ShmArray):
        return _claim_array(obj)
    if isinstance(obj, dict):
        return {key: _decode(value) for key, value in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_decode(item) for item in obj)
    if isinstance(obj, list):
        return [_decode(item) for item in obj]
    return obj


def decode_payload(obj: Any) -> Any:
    """Inverse of :func:`encode_payload`: claim tokens, rebuild values.

    Call in the parent, on the object received from the worker.  Safe
    on payloads that were never encoded (no tokens → identity walk).

    If attaching or rebuilding any block raises partway through a
    multi-block payload, the blocks not yet claimed are unlinked before
    the exception propagates — otherwise each one would leak a
    /dev/shm segment that survives the process.
    """
    try:
        return _decode(obj)
    except Exception:
        _release_tokens(obj)
        raise


def release_payload(obj: Any) -> None:
    """Unlink every shm block referenced by an *undecoded* payload.

    The counterpart of :func:`decode_payload` for payloads that will
    never be decoded: a drained-but-discarded worker result (a pool
    unwinding after one task failed).  Each token's block is attached
    and unlinked; blocks already claimed or released are skipped.
    Safe on payloads that were never encoded, and a no-op when shared
    memory is unavailable.
    """
    if SHM_AVAILABLE:
        _release_tokens(obj)


def payload_nbytes(obj: Any) -> int:
    """Size of *obj* as the worker pool would serialise it, in bytes.

    This is the apples-to-apples metric for the IPC benchmark: the
    pickle of an encoded payload counts only tokens and scalars, the
    pickle of a raw payload counts every sample.
    """
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
