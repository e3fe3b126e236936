"""Distributed sharded campaign execution: the remote worker pool.

``repro.workers`` turns the single-host campaign engine into a
multi-host service.  Three layers, all stdlib + numpy only:

:mod:`repro.workers.protocol`
    A versioned, length-prefixed JSON/binary frame protocol (sans-io):
    hello/welcome handshake keyed by **cache identity** (code-version
    salt + kernel backend) and guarded by the shared
    ``REPRO_MASTER_TOKEN`` secret, point-batch dispatch, streamed
    result upload, ping/pong heartbeats, and work-stealing revocation.
    Waveforms and arrays cross the wire as dtype/shape-framed raw
    bytes (no pickle), from local and remote workers alike.
:mod:`repro.workers.pool`
    :class:`~repro.workers.pool.WorkerPool` — the pool-side scheduler
    that shards campaign points across every connected worker,
    rebalances the tail by stealing queued points back from busy
    workers, requeues in-flight points when a worker dies or misses
    its heartbeat deadline (idempotent: the content-addressed cache
    is the rendezvous point, so re-execution is safe and a resubmit
    resumes from hits), and merges per-worker
    :mod:`repro.instrument` counter snapshots.
:mod:`repro.workers.worker`
    The worker daemon (``python -m repro.workers serve --connect
    HOST:PORT``): executes points through the existing campaign
    evaluators and streams each result back the moment it completes.
    A heartbeat thread keeps answering pings while a point computes.

``repro.campaign run --workers spawn://N`` starts N local worker
processes (forked from the campaign process where the platform's
default :mod:`multiprocessing` context forks, so they inherit its
imports); ``--jobs N`` is the same pool.  ``--workers tcp://HOST:PORT``
listens for remote ones (start them on the other hosts with ``python
-m repro.workers serve``).  Results are bit-for-bit identical to the
in-process ``--jobs 1`` loop — per-point seeding never depends on
which worker (or host) evaluated a point.
"""

from .pool import WorkerPool, parse_workers_spec
from .protocol import PROTOCOL_VERSION, worker_cache_identity

__all__ = [
    "PROTOCOL_VERSION",
    "WorkerPool",
    "parse_workers_spec",
    "worker_cache_identity",
]
