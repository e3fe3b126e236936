"""The master's job queue: priorities, the run loop, live events.

One :class:`MasterScheduler` owns the whole submission lifecycle:

* **submit** validates the spec (a bad spec is rejected at the API
  edge, before it gets a rid), allocates the persistent rid, and
  enqueues a ``queued`` :class:`~repro.master.state.RunRecord`;
* the **run loop** (``run_forever``) picks the highest-priority
  queued run (ties broken by rid — submission order), moves it to
  ``running``, and executes :func:`~repro.campaign.runner.run_campaign`
  in a worker thread so the event loop stays responsive while the
  runner's point scheduling (in-process, or a worker pool for
  ``jobs > 1`` / ``workers``), kill-resume and ``jobs`` semantics
  are inherited unchanged;
* **pause/resume** hold and release queued runs; **cancel** removes a
  queued run or sets the running run's cancellation event — the
  runner drains in-flight points into the shared cache and raises
  :class:`~repro.errors.CampaignCancelled`, so a resubmission of the
  same spec finishes from cache hits;
* every run executes inside :func:`repro.instrument.registry_scope`,
  so its counters/spans are **per-run telemetry**: progress callbacks
  diff the counter snapshot and publish ``(done, total)`` plus the
  instrument-counter deltas to every subscribed client queue, and the
  final snapshot is persisted on the record.

Runs execute one at a time (points parallelise *within* a run via
``jobs``); that serialisation is what makes the per-run registry
scoping and cache-stat attribution exact.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Dict, List, Optional

from .. import instrument
from ..campaign.cache import ResultCache
from ..campaign.packing import validate_batch_lanes
from ..campaign.report import build_report
from ..campaign.runner import run_campaign
from ..campaign.spec import CampaignSpec
from ..errors import CampaignCancelled, MasterError
from .state import TERMINAL_STATES, RunRecord, RunStore

__all__ = ["MasterScheduler"]

#: Per-subscriber event queue depth; a slow client drops its *oldest*
#: events (progress frames are cumulative, so the latest matters most).
_SUBSCRIBER_QUEUE_SIZE = 512


class MasterScheduler:
    """Priority job queue + single-run campaign executor.

    All public methods are **event-loop-thread only** (the server
    calls them from request handlers); the campaign itself runs in a
    worker thread that communicates back exclusively through
    ``loop.call_soon_threadsafe``.
    """

    def __init__(
        self,
        data_dir,
        cache_dir=None,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        workers: Optional[str] = None,
        batch_lanes="auto",
    ):
        self.store = RunStore(data_dir)
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise MasterError(f"jobs must be >= 1, got {jobs}")
        # Lane-packing width every run executes with.  Validated
        # eagerly (like `workers`) so `serve` fails at boot; results
        # never depend on it, so it is an execution knob, not part of
        # a run's identity.
        self.batch_lanes = validate_batch_lanes(
            batch_lanes, flag="--batch-lanes"
        )
        # Optional repro.workers endpoint spec: every accepted run is
        # sharded across the distributed pool instead of local
        # processes.  Validated eagerly so `serve` fails at boot, not
        # at the first submission.
        self.workers = workers
        if workers is not None:
            from ..workers.pool import parse_workers_spec

            parse_workers_spec(workers)
        self.runs: Dict[int, RunRecord] = self.store.load()
        self._subscribers: List[asyncio.Queue] = []
        self._cancel_events: Dict[int, threading.Event] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self._current_rid: Optional[int] = None

    # -- submissions (event-loop thread) -----------------------------------

    def submit(self, spec_dict: dict, priority: int = 0) -> RunRecord:
        """Validate, persist, and enqueue one campaign submission."""
        spec = CampaignSpec.from_dict(spec_dict)  # raises CampaignError
        rid = self.store.allocate_rid()
        record = RunRecord(
            rid=rid,
            spec=spec.to_dict(),
            priority=int(priority),
            total=spec.n_points(),
        )
        self.runs[rid] = record
        self.store.save(record)
        instrument.count("master.runs.submitted")
        self._publish_state(record)
        self._wake()
        return record

    def get(self, rid: int) -> RunRecord:
        try:
            return self.runs[int(rid)]
        except (KeyError, ValueError, TypeError):
            raise MasterError(f"no such run: {rid!r}") from None

    def list_runs(self) -> List[RunRecord]:
        """Every known run, ascending rid."""
        return [self.runs[rid] for rid in sorted(self.runs)]

    def pause(self, rid: int) -> RunRecord:
        """Hold a queued run back from scheduling."""
        record = self.get(rid)
        record.transition("paused")
        self.store.save(record)
        self._publish_state(record)
        return record

    def resume(self, rid: int) -> RunRecord:
        """Release a paused run back into the queue."""
        record = self.get(rid)
        record.transition("queued")
        self.store.save(record)
        self._publish_state(record)
        self._wake()
        return record

    def cancel(self, rid: int) -> RunRecord:
        """Cancel a queued, paused, or running run.

        A queued/paused run is cancelled immediately; a running run
        has its cancellation event set and reaches ``cancelled`` once
        the runner has drained in-flight points into the cache (so
        the transition arrives as a later state event).
        """
        record = self.get(rid)
        if record.state == "running":
            event = self._cancel_events.get(record.rid)
            if event is None:  # pragma: no cover - cancel/finish race
                raise MasterError(
                    f"run {rid} is finishing; cannot cancel"
                )
            event.set()
            return record
        record.transition("cancelled")
        self.store.save(record)
        self._publish_state(record)
        return record

    # -- event stream ------------------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        """A queue of live event dicts (``state`` / ``progress``)."""
        queue: asyncio.Queue = asyncio.Queue(_SUBSCRIBER_QUEUE_SIZE)
        self._subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(self, event: dict) -> None:
        for queue in self._subscribers:
            while True:
                try:
                    queue.put_nowait(event)
                    break
                except asyncio.QueueFull:
                    try:
                        queue.get_nowait()
                    except asyncio.QueueEmpty:  # pragma: no cover
                        break

    def _publish_state(self, record: RunRecord) -> None:
        self._publish(
            {
                "type": "state",
                "rid": record.rid,
                "state": record.state,
                "done": record.done,
                "total": record.total,
                "error": record.error,
            }
        )

    def _wake(self) -> None:
        if self._wakeup is not None:
            self._wakeup.set()

    # -- the run loop ------------------------------------------------------

    def _next_queued(self) -> Optional[RunRecord]:
        """Highest priority first; rid (submission order) breaks ties."""
        queued = [r for r in self.runs.values() if r.state == "queued"]
        if not queued:
            return None
        return min(queued, key=lambda r: (-r.priority, r.rid))

    async def run_forever(self) -> None:
        """Drain the queue until :meth:`request_stop`; one run at a time."""
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        while True:
            record = self._next_queued()
            if record is None or self._stopping:
                if self._stopping:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._run_one(record)

    def request_stop(self) -> None:
        """Begin a graceful stop: cancel the active run, exit the loop.

        Queued runs stay queued on disk — the next master picks them
        up (monotonic rids make the restart seamless for clients).
        """
        self._stopping = True
        if self._current_rid is not None:
            event = self._cancel_events.get(self._current_rid)
            if event is not None:
                event.set()
        self._wake()

    async def _run_one(self, record: RunRecord) -> None:
        record.transition("running")
        self.store.save(record)
        self._publish_state(record)
        cancel_event = threading.Event()
        self._cancel_events[record.rid] = cancel_event
        self._current_rid = record.rid
        loop = self._loop
        try:
            result, report, snapshot = await loop.run_in_executor(
                None, self._execute, record, cancel_event
            )
        except CampaignCancelled as exc:
            record.done = exc.done
            record.error = str(exc)
            record.counters = {}
            record.transition("cancelled")
            instrument.count("master.runs.cancelled")
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            record.transition("failed")
            instrument.count("master.runs.failed")
        else:
            record.done = record.total = len(result.points)
            record.counters = dict(snapshot.get("counters", {}))
            record.cache_stats = dict(result.cache_stats)
            self.store.save_report(record.rid, report)
            record.transition("done")
            instrument.count("master.runs.done")
        finally:
            self._cancel_events.pop(record.rid, None)
            self._current_rid = None
        self.store.save(record)
        self._publish_state(record)

    # -- worker thread -----------------------------------------------------

    def _execute(self, record: RunRecord, cancel_event: threading.Event):
        """Run one campaign inside its own instrument registry.

        Worker-thread only.  Progress lands back on the event loop as
        ``progress`` events carrying the counter *deltas* since the
        previous callback — a watching client can integrate them into
        live cache-hit / kernel-call readouts without ever polling.
        """
        registry = instrument.Registry()
        loop = self._loop
        last_counters: Dict[str, float] = {}

        def progress(done: int, total: int) -> None:
            counters = registry.snapshot()["counters"]
            delta = {
                name: value - last_counters.get(name, 0)
                for name, value in counters.items()
                if value != last_counters.get(name, 0)
            }
            last_counters.clear()
            last_counters.update(counters)
            loop.call_soon_threadsafe(
                self._on_progress, record, done, total, delta
            )

        with instrument.registry_scope(registry):
            spec = CampaignSpec.from_dict(record.spec)
            result = run_campaign(
                spec,
                jobs=self.jobs,
                workers=self.workers,
                cache=self.cache,
                progress=progress,
                cancel=cancel_event,
                batch_lanes=self.batch_lanes,
            )
            report = build_report(result)
            snapshot = registry.snapshot()
        return result, report, snapshot

    def _on_progress(
        self, record: RunRecord, done: int, total: int, delta: dict
    ) -> None:
        """Event-loop side of a worker progress callback."""
        if record.state in TERMINAL_STATES:  # pragma: no cover - race
            return
        record.done = done
        record.total = total
        self._publish(
            {
                "type": "progress",
                "rid": record.rid,
                "done": done,
                "total": total,
                "time": time.time(),
                "counters": delta,
            }
        )
