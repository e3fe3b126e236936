"""The pool-side scheduler: shard points across connected workers.

:class:`WorkerPool` owns every connection:

* **endpoints** — ``spawn://N`` starts N local worker processes from
  the default :mod:`multiprocessing` context (fork on Linux, so they
  inherit the pool's imports instead of re-importing ``repro``) that
  connect back over loopback; ``tcp://HOST:PORT`` listens on an
  interface for remote workers started by hand on other hosts with
  ``python -m repro.workers serve``.  Both kinds ship results the same
  way, as JSON with dtype/shape-framed binary array bodies.  A
  comma-separated spec mixes both.  ``repro.campaign run --jobs N``
  is ``spawn://N``.
* **handshake** — a connecting worker must present the matching
  protocol version, shared secret (``REPRO_MASTER_TOKEN``), and
  **cache identity** (code-version salt + kernel backend); anything
  else is answered with a JSON error frame and a close, because a
  mismatched worker would poison the bit-identical-results contract.
* **scheduling** — :meth:`WorkerPool.run` keeps a small batch of
  points outstanding per worker and tops each worker up as results
  stream back, so the queue itself load-balances.  The first point
  failure stops dispatch and **revokes** every worker's queued points
  (a ``revoke`` round-trip — points a worker already started simply
  finish), so the drain only waits for what is computing.
* **liveness** — a heartbeat thread pings every worker and declares
  any worker silent past ``deadline`` seconds dead; a dead or
  disconnected worker's in-flight points are **requeued** onto the
  survivors.  Requeue re-execution is idempotent: every point's
  result is a pure function of its identity and lands in the
  content-addressed cache, which is the rendezvous point for
  kill-resume across pool restarts too.

All result settling (cache writes, instrument merges, progress
callbacks) happens on the caller's thread inside :meth:`run`, through
the same ``on_result`` the in-process campaign loop settles with —
reader threads only parse frames and queue events.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import socket
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .. import instrument
from ..errors import WorkerError, WorkerProtocolError
from . import worker
from .protocol import (
    PROTOCOL_VERSION,
    check_token,
    decode_tree,
    identity_mismatch,
    parse_address,
    point_to_wire,
    read_message,
    recv_message,
    send_message,
    sock_read_exactly,
    worker_cache_identity,
)

__all__ = ["WorkerPool", "parse_workers_spec", "PointFailure"]

#: Handshake must complete within this many seconds of the TCP accept.
_HANDSHAKE_TIMEOUT = 10.0


def parse_workers_spec(spec) -> Dict[str, object]:
    """Parse a ``--workers`` value into ``{"spawn": N, "listen": [...]}``.

    ``spec`` is a comma-separated list of endpoints::

        spawn://2                  two local worker processes
        tcp://0.0.0.0:8761         listen for remote workers here
        spawn://2,tcp://:8761      both

    Raises :class:`~repro.errors.WorkerError` on anything else, naming
    the bad endpoint.
    """
    spawn = 0
    listen: List[Tuple[str, int]] = []
    text = spec if isinstance(spec, str) else ",".join(spec)
    for endpoint in filter(None, (e.strip() for e in text.split(","))):
        if endpoint.startswith("spawn://"):
            count = endpoint[len("spawn://"):]
            if not count.isdigit() or int(count) < 1:
                raise WorkerError(
                    f"--workers endpoint {endpoint!r}: spawn count "
                    "must be an integer >= 1"
                )
            spawn += int(count)
        elif endpoint.startswith("tcp://"):
            listen.append(
                parse_address(
                    endpoint[len("tcp://"):],
                    what=f"--workers endpoint {endpoint!r}",
                    default_host="0.0.0.0",
                )
            )
        else:
            raise WorkerError(
                f"unknown --workers endpoint {endpoint!r}; expected "
                "spawn://N or tcp://HOST:PORT"
            )
    if spawn == 0 and not listen:
        raise WorkerError(f"--workers spec {spec!r} names no endpoints")
    return {"spawn": spawn, "listen": listen}


class PointFailure(WorkerError):
    """One point's evaluation failed on a worker (not an infra error)."""

    def __init__(self, point, message: str):
        super().__init__(message)
        self.point = point


class _WorkerHandle:
    """Pool-side state for one connected worker."""

    def __init__(self, name: str, sock: socket.socket, hello: dict):
        self.name = name
        self.sock = sock
        self.pid = hello.get("pid")
        self.host = hello.get("host", "?")
        self.send_lock = threading.Lock()
        #: index -> CampaignPoint, in dispatch order (run-loop only).
        self.outstanding: Dict[int, object] = {}
        self.last_seen = time.monotonic()
        self.alive = True
        #: run-loop flag: death already processed (dedupes the reader
        #: thread's and the heartbeat thread's "dead" events).
        self.retired = False

    def send(self, obj: dict, frames: Tuple[bytes, ...] = ()) -> None:
        with self.send_lock:
            send_message(self.sock, obj, frames)

    def kill_connection(self) -> None:
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class WorkerPool:
    """Shard campaign points across spawned and remote workers.

    Parameters
    ----------
    workers:
        Endpoint spec string (see :func:`parse_workers_spec`).
    token:
        Shared secret workers must present; defaults to the
        ``REPRO_MASTER_TOKEN`` environment variable.  Spawned workers
        are handed it directly.
    heartbeat:
        Ping cadence, seconds.
    deadline:
        A worker silent for this long is declared dead and its
        in-flight points are requeued.
    connect_timeout:
        How long :meth:`run` waits for the first worker (and for all
        spawned workers) before giving up.
    max_requeues:
        A single point surviving this many worker deaths fails the
        campaign (it is probably what is killing them).
    """

    def __init__(
        self,
        workers: str = "spawn://1",
        *,
        token: Optional[str] = None,
        heartbeat: float = 1.0,
        deadline: float = 15.0,
        connect_timeout: float = 60.0,
        max_requeues: int = 3,
    ):
        spec = parse_workers_spec(workers)
        self.spawn_count: int = spec["spawn"]
        self.listen_endpoints: List[Tuple[str, int]] = spec["listen"]
        self.token = (
            token
            if token is not None
            else os.environ.get("REPRO_MASTER_TOKEN")
        )
        self.heartbeat = float(heartbeat)
        self.deadline = float(deadline)
        self.connect_timeout = float(connect_timeout)
        self.max_requeues = int(max_requeues)
        self.identity = worker_cache_identity()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._lock = threading.Lock()
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._listeners: List[socket.socket] = []
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._threads: List[threading.Thread] = []
        #: Workers admitted so far, dead ones included; names them.
        self.joined = 0
        self._closed = False
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Bind listeners, spawn local workers, start service threads."""
        if self._started:
            return self
        self._started = True
        if self.spawn_count:
            spawn_listener = socket.create_server(("127.0.0.1", 0))
            self._listeners.append(spawn_listener)
            port = spawn_listener.getsockname()[1]
            for _ in range(self.spawn_count):
                self._procs.append(self._spawn_worker(port))
        for host, port in self.listen_endpoints:
            self._listeners.append(socket.create_server((host, port)))
        for listener in self._listeners:
            thread = threading.Thread(
                target=self._accept_loop, args=(listener,), daemon=True
            )
            thread.start()
            self._threads.append(thread)
        thread = threading.Thread(target=self._heartbeat_loop, daemon=True)
        thread.start()
        self._threads.append(thread)
        return self

    def _spawn_worker(self, port: int) -> multiprocessing.process.BaseProcess:
        proc = multiprocessing.Process(
            target=_serve_local,
            args=(f"127.0.0.1:{port}", self.token),
            daemon=True,
        )
        proc.start()
        return proc

    def close(self) -> None:
        """Shut every worker down and release sockets and processes."""
        if self._closed:
            return
        self._closed = True
        for listener in self._listeners:
            try:
                listener.close()
            except OSError:
                pass
        with self._lock:
            handles = list(self._workers.values())
            self._workers.clear()
        for handle in handles:
            try:
                handle.send({"type": "shutdown"})
            except OSError:
                pass
            handle.kill_connection()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- connection service threads ----------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._closed:
            try:
                sock, _addr = listener.accept()
            except OSError:
                return  # listener closed
            try:
                self._handshake(sock)
            except (WorkerProtocolError, OSError):
                try:
                    sock.close()
                except OSError:
                    pass

    def _handshake(self, sock: socket.socket) -> None:
        sock.settimeout(_HANDSHAKE_TIMEOUT)
        hello, _frames = recv_message(sock)

        def reject(message: str) -> None:
            try:
                send_message(sock, {"type": "error", "error": message})
            finally:
                sock.close()
            raise WorkerProtocolError(message)

        if hello.get("type") != "hello":
            reject(f"expected a hello message, got {hello.get('type')!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            reject(
                f"protocol version mismatch: worker speaks "
                f"{hello.get('protocol')!r}, pool speaks "
                f"{PROTOCOL_VERSION}"
            )
        if not check_token(self.token, hello.get("token")):
            reject("authentication failed: bad or missing token")
        mismatch = identity_mismatch(self.identity, hello.get("identity"))
        if mismatch:
            reject(mismatch)
        sock.settimeout(None)
        with self._lock:
            name = f"w{self.joined}"
            self.joined += 1
            handle = _WorkerHandle(name, sock, hello)
            self._workers[name] = handle
        handle.send(
            {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "name": name,
                "heartbeat": self.heartbeat,
            }
        )
        reader = threading.Thread(
            target=self._reader_loop, args=(handle,), daemon=True
        )
        reader.start()
        self._threads.append(reader)
        self._events.put(("joined", handle))

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        read_exactly = sock_read_exactly(handle.sock)
        try:
            while handle.alive and not self._closed:
                envelope, frames = read_message(read_exactly)
                handle.last_seen = time.monotonic()
                kind = envelope.get("type")
                if kind == "pong":
                    continue
                if kind == "ping":
                    handle.send({"type": "pong", "seq": envelope.get("seq")})
                    continue
                if kind in ("result", "point_error", "revoked"):
                    self._events.put((kind, handle, envelope, frames))
                    continue
                if kind == "bye":
                    break
                raise WorkerProtocolError(
                    f"unexpected message type {kind!r} from worker "
                    f"{handle.name}"
                )
        except (WorkerProtocolError, OSError, ValueError) as exc:
            if not self._closed:
                self._events.put(
                    ("dead", handle, {"reason": str(exc)}, [])
                )
            return
        self._events.put(("dead", handle, {"reason": "worker left"}, []))

    def _heartbeat_loop(self) -> None:
        while not self._closed:
            time.sleep(self.heartbeat)
            now = time.monotonic()
            with self._lock:
                handles = list(self._workers.values())
            for handle in handles:
                if not handle.alive:
                    continue
                if now - handle.last_seen > self.deadline:
                    handle.kill_connection()
                    self._events.put(
                        (
                            "dead",
                            handle,
                            {
                                "reason": (
                                    "heartbeat deadline exceeded "
                                    f"({self.deadline:g}s)"
                                )
                            },
                            [],
                        )
                    )
                    continue
                try:
                    handle.send({"type": "ping", "seq": int(now * 1000)})
                except OSError:
                    handle.kill_connection()

    # -- worker availability -----------------------------------------------

    def live_workers(self) -> List[_WorkerHandle]:
        with self._lock:
            return [h for h in self._workers.values() if h.alive]

    def wait_for_workers(self, timeout: Optional[float] = None) -> int:
        """Block until the expected workers joined; returns the count.

        Spawn mode waits for every spawned worker (a spawned process
        that exits before connecting fails fast); listen-only mode
        waits for the first remote worker to join.
        """
        deadline = time.monotonic() + (
            self.connect_timeout if timeout is None else timeout
        )
        want = self.spawn_count if self.spawn_count else 1
        while True:
            alive = len(self.live_workers())
            if alive >= want:
                return alive
            for proc in self._procs:
                if proc.exitcode is not None and alive < want:
                    raise WorkerError(
                        f"spawned worker (pid {proc.pid}) exited with "
                        f"status {proc.exitcode} before connecting"
                    )
            if time.monotonic() > deadline:
                if alive:
                    return alive
                raise WorkerError(
                    f"no workers connected within {self.connect_timeout:g}s "
                    f"(spawn={self.spawn_count}, "
                    f"listen={self.listen_endpoints})"
                )
            time.sleep(0.01)

    # -- scheduling --------------------------------------------------------

    def run(
        self,
        points: List[object],
        *,
        collect: bool = False,
        on_result: Callable[[object, dict, float, Optional[dict]], None],
        packs: Optional[List[List[int]]] = None,
    ) -> None:
        """Evaluate *points* across the pool.

        ``on_result(point, metrics, duration_s, snapshot)`` fires on
        the calling thread for every completed point, in completion
        order.

        *packs* optionally groups point indices into lane packs (see
        :mod:`repro.campaign.packing`): each group is dispatched to
        one worker as a unit, which evaluates it as one fused kernel
        pass and still streams one result per point back.  All
        accounting (batch top-up, dispatch counters, requeue) stays in
        points; a requeued pack member is re-dispatched as a scalar
        singleton, which is idempotent and cache-equivalent.

        Raises
        ------
        PointFailure
            A point's evaluator raised on a worker.  The undispatched
            queue is dropped, queued points are revoked from every
            worker, and in-flight survivors are drained through
            ``on_result`` first, so their compute still lands in the
            cache.
        WorkerError
            No live workers remain with work outstanding, or one
            point exceeded ``max_requeues`` worker deaths.
        """
        if not self._started:
            self.start()
        self.wait_for_workers()
        by_index = {point.index: point for point in points}
        pack_of: Dict[int, List[int]] = {}
        for group in packs or ():
            members = [int(i) for i in group]
            for index in members:
                pack_of[index] = members
        # Units preserve campaign order: a pack sits where its first
        # member sits, singletons stay themselves.
        units: List[List[object]] = []
        grouped: set = set()
        for point in points:
            group = pack_of.get(point.index)
            if group is None:
                units.append([point])
            elif point.index not in grouped:
                grouped.update(group)
                units.append(
                    [by_index[i] for i in group if i in by_index]
                )
        pending = deque(units)
        done: set = set()
        requeues: Dict[int, int] = {}
        batch = max(
            1, min(4, len(points) // (2 * max(1, len(self.live_workers()))))
        )
        draining = False  # set by the first point failure
        failure: Optional[PointFailure] = None

        def outstanding_total() -> int:
            return sum(len(h.outstanding) for h in self.live_workers())

        def begin_drain() -> None:
            nonlocal draining
            if draining:
                return
            draining = True
            pending.clear()
            # Pull queued (not yet started) points back so the drain
            # only waits for what is genuinely computing.
            for handle in self.live_workers():
                queued = [
                    i for i in handle.outstanding if i not in done
                ]
                if len(queued) > 1:
                    self._revoke(handle, queued[1:])

        while True:
            finished = len(done) == len(by_index)
            drained = draining and all(
                len(h.outstanding) == 0 for h in self.live_workers()
            )
            if finished or drained:
                break
            if not draining:
                self._dispatch(pending, batch, collect)
            if (
                not self.live_workers()
                and (pending or outstanding_total() or not draining)
                and len(done) < len(by_index)
            ):
                raise WorkerError(
                    "all workers died with "
                    f"{len(by_index) - len(done)} points unfinished"
                )
            try:
                event = self._events.get(timeout=0.2)
            except queue.Empty:
                continue
            kind, handle, envelope, frames = (
                event if len(event) == 4 else (*event, {}, [])
            )
            if kind == "joined":
                instrument.count("workers.connected")
                continue
            if kind == "dead":
                self._on_dead(
                    handle, envelope.get("reason", "connection lost"),
                    pending, done, requeues, draining,
                )
                continue
            if kind == "revoked":
                # Only the failure drain revokes: returned points are
                # dropped, never rescheduled.
                for index in envelope.get("indices", ()):
                    handle.outstanding.pop(index, None)
                continue
            if kind == "point_error":
                index = envelope.get("index")
                point = by_index.get(index)
                handle.outstanding.pop(index, None)
                if failure is None and point is not None:
                    failure = PointFailure(
                        point, str(envelope.get("error", "unknown error"))
                    )
                    begin_drain()
                continue
            if kind == "result":
                index = envelope.get("index")
                handle.outstanding.pop(index, None)
                if index in done or index not in by_index:
                    # Duplicate delivery of a requeued point: the
                    # first result won.
                    continue
                point = by_index[index]
                with instrument.span("ipc.decode"):
                    metrics = decode_tree(envelope.get("metrics"), frames)
                    snapshot = decode_tree(envelope.get("snapshot"), frames)
                done.add(index)
                instrument.count("workers.points.completed")
                on_result(
                    point,
                    metrics,
                    float(envelope.get("duration_s", 0.0)),
                    snapshot,
                )
        if failure is not None:
            raise failure

    # -- run-loop helpers --------------------------------------------------

    def _dispatch(self, pending: deque, batch: int, collect: bool) -> None:
        """Top every under-filled worker up from the pending queue.

        The queue holds evaluation *units* (singletons and lane
        packs); a pack always travels whole, and all sizing and
        accounting count points, so a queue full of packs tops a
        worker up exactly as fast as the same points unpacked.
        """
        for handle in self.live_workers():
            while pending and len(handle.outstanding) < 2 * batch:
                chunk: List[list] = []
                n_points = 0
                while pending and n_points < batch:
                    unit = pending.popleft()
                    chunk.append(unit)
                    n_points += len(unit)
                flat = [point for unit in chunk for point in unit]
                envelope = {
                    "type": "batch",
                    "points": [point_to_wire(p) for p in flat],
                    "collect": collect,
                }
                groups = [
                    [point.index for point in unit]
                    for unit in chunk
                    if len(unit) > 1
                ]
                if groups:
                    envelope["packs"] = groups
                try:
                    handle.send(envelope)
                except OSError:
                    pending.extendleft(reversed(chunk))
                    handle.kill_connection()
                    break
                for point in flat:
                    handle.outstanding[point.index] = point
                instrument.count("workers.points.dispatched", len(flat))

    def _revoke(self, handle: _WorkerHandle, indices: List[int]) -> None:
        try:
            handle.send({"type": "revoke", "indices": list(indices)})
        except OSError:
            handle.kill_connection()

    def _on_dead(
        self,
        handle: _WorkerHandle,
        reason: str,
        pending: deque,
        done: set,
        requeues: Dict[int, int],
        draining: bool,
    ) -> None:
        """Retire a worker once and requeue its in-flight points."""
        if handle.retired:
            return
        handle.retired = True
        handle.kill_connection()
        with self._lock:
            self._workers.pop(handle.name, None)
        instrument.count("workers.dead")
        orphans = [
            point
            for index, point in handle.outstanding.items()
            if index not in done
        ]
        handle.outstanding.clear()
        if draining:
            return  # a drain discards, it never reschedules
        for point in orphans:
            count = requeues.get(point.index, 0) + 1
            if count > self.max_requeues:
                raise WorkerError(
                    f"point {point.index} was requeued {count} times "
                    f"by dying workers (last: {handle.name}: {reason}); "
                    "giving up"
                )
            requeues[point.index] = count
            # Orphaned pack lanes requeue as scalar singletons; lanes
            # whose results already landed stay done, so only the
            # genuinely uncomputed remainder of a pack is redone.
            pending.appendleft([point])
        if orphans:
            instrument.count("workers.points.requeued", len(orphans))


def _serve_local(address: str, token: Optional[str]) -> None:
    """Body of a ``spawn://`` worker process: serve the local pool."""
    try:
        worker.serve(address, token=token)
    except KeyboardInterrupt:
        pass
