"""The worker daemon: evaluate campaign points for a remote pool.

A worker is a plain TCP client.  It dials the pool, introduces itself
with a ``hello`` carrying the protocol version, the shared secret, and
its **cache identity** (code-version salt + kernel backend), and then
serves until told to stop:

* a **reader thread** owns the socket's receive side — it answers
  heartbeat pings immediately (so liveness holds while a long point
  computes on the main thread), queues incoming point batches, and
  confirms ``revoke`` requests by handing back every queued point it
  had not started yet;
* the **main thread** pops points off the local queue, evaluates each
  through the ordinary campaign evaluator
  (:func:`repro.campaign.runner.evaluate_point` — deterministic
  per-point seeding, so results are byte-identical to any other
  executor), and streams each result back the moment it finishes.

Results travel as the protocol's encoded tree: JSON with every array
as a dtype/shape-framed binary frame, whether the worker is a
``spawn://`` child or runs on another host.  A failed point is
reported as a ``point_error`` frame; the worker itself keeps serving.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import deque
from typing import Optional, Tuple

from ..errors import WorkerError, WorkerProtocolError
from .protocol import (
    PROTOCOL_VERSION,
    encode_tree,
    point_from_wire,
    read_message,
    send_message,
    sock_read_exactly,
    worker_cache_identity,
)

__all__ = ["WorkerSession", "serve"]


class WorkerSession:
    """One worker's lifetime on one pool connection."""

    def __init__(self, sock: socket.socket, *, token: Optional[str] = None):
        self.sock = sock
        self.token = (
            token
            if token is not None
            else os.environ.get("REPRO_MASTER_TOKEN")
        )
        self.name = "?"
        self._send_lock = threading.Lock()
        self._cond = threading.Condition()
        #: evaluation units: (indices, points, collect); a singleton
        #: point is a one-lane unit, a lane pack keeps its lanes
        #: together so the main loop can evaluate them fused.
        self._queue: deque = deque()
        self._stop = False

    # -- outbound ----------------------------------------------------------

    def _send(self, obj: dict, frames: Tuple[bytes, ...] = ()) -> None:
        with self._send_lock:
            send_message(self.sock, obj, frames)

    # -- handshake ---------------------------------------------------------

    def handshake(self) -> None:
        self._send(
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "token": self.token,
                "identity": worker_cache_identity(),
                "pid": os.getpid(),
                "host": socket.gethostname(),
            }
        )
        reply, _frames = read_message(sock_read_exactly(self.sock))
        if reply.get("type") == "error":
            raise WorkerError(
                f"pool rejected this worker: {reply.get('error')}"
            )
        if reply.get("type") != "welcome":
            raise WorkerProtocolError(
                f"expected welcome, got {reply.get('type')!r}"
            )
        self.name = str(reply.get("name", "?"))

    # -- inbound (reader thread) -------------------------------------------

    def _reader_loop(self) -> None:
        read_exactly = sock_read_exactly(self.sock)
        try:
            while not self._stop:
                envelope, _frames = read_message(read_exactly)
                kind = envelope.get("type")
                if kind == "ping":
                    self._send(
                        {"type": "pong", "seq": envelope.get("seq")}
                    )
                elif kind == "batch":
                    collect = bool(envelope.get("collect"))
                    pack_of = {}
                    for group in envelope.get("packs", ()) or ():
                        members = tuple(int(i) for i in group)
                        for index in members:
                            pack_of[index] = members
                    with self._cond:
                        units: dict = {}
                        for wire in envelope.get("points", ()):
                            point = point_from_wire(wire)
                            members = pack_of.get(point.index)
                            if members is None:
                                self._queue.append(
                                    ([point.index], [point], collect)
                                )
                                continue
                            unit = units.get(members)
                            if unit is None:
                                unit = ([], [], collect)
                                units[members] = unit
                                self._queue.append(unit)
                            unit[0].append(point.index)
                            unit[1].append(point)
                        self._cond.notify_all()
                elif kind == "revoke":
                    wanted = set(envelope.get("indices", ()))
                    returned = []
                    with self._cond:
                        kept = deque()
                        for indices, pts, collect in self._queue:
                            keep = [
                                (i, p)
                                for i, p in zip(indices, pts)
                                if i not in wanted
                            ]
                            returned.extend(
                                i for i in indices if i in wanted
                            )
                            if keep:
                                # A pack that lost lanes to a revoke
                                # simply runs narrower.
                                kept.append(
                                    (
                                        [i for i, _ in keep],
                                        [p for _, p in keep],
                                        collect,
                                    )
                                )
                        self._queue = kept
                    self._send(
                        {"type": "revoked", "indices": returned}
                    )
                elif kind == "shutdown":
                    break
                else:
                    raise WorkerProtocolError(
                        f"unexpected message type {kind!r} from pool"
                    )
        except (WorkerProtocolError, OSError, ValueError):
            pass
        with self._cond:
            self._stop = True
            self._cond.notify_all()

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        """Serve until the pool says shutdown or the link drops."""
        self.handshake()
        reader = threading.Thread(target=self._reader_loop, daemon=True)
        reader.start()
        # Imported here, not at module top: the campaign runner is the
        # heavyweight end of the dependency graph and the protocol
        # handshake should fail fast without it.
        from ..campaign.runner import evaluate_pack, evaluate_point
        from ..experiments.common import call_instrumented

        def send_result(
            index: int, metrics, duration_s: float, snapshot
        ) -> bool:
            frames: list = []
            envelope = {
                "type": "result",
                "index": index,
                "duration_s": duration_s,
                "metrics": encode_tree(metrics, frames),
                "snapshot": encode_tree(snapshot, frames),
            }
            try:
                self._send(envelope, tuple(frames))
            except OSError:
                return False
            return True

        def run_scalar(index: int, point, collect: bool) -> bool:
            try:
                metrics, duration_s, snapshot = call_instrumented(
                    evaluate_point,
                    point,
                    collect=collect,
                    span="campaign.point",
                )
            except Exception as exc:  # report, keep serving
                try:
                    self._send(
                        {
                            "type": "point_error",
                            "index": index,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                except OSError:
                    return False
                return True
            return send_result(index, metrics, duration_s, snapshot)

        alive = True
        while alive:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if self._stop and not self._queue:
                    break
                indices, pts, collect = self._queue.popleft()
            if len(pts) > 1:
                try:
                    results, duration_s, snapshot = call_instrumented(
                        evaluate_pack,
                        pts,
                        collect=collect,
                        span="campaign.pack",
                    )
                except Exception:
                    # Fall through to the per-lane loop below: every
                    # lane re-runs scalar and reports its own result
                    # or point_error, so the pool always hears about
                    # every dispatched index (its failure drain waits
                    # on exactly that) and the error names the lane
                    # that actually broke.
                    results = None
                if results is not None and len(results) == len(pts):
                    # One pack pass, one result frame per lane; the
                    # instrument snapshot rides the first lane only so
                    # the pool merges the pack's counters once.
                    per_lane = duration_s / len(pts)
                    for lane, (index, metrics) in enumerate(
                        zip(indices, results)
                    ):
                        if not send_result(
                            index,
                            metrics,
                            per_lane,
                            snapshot if lane == 0 else None,
                        ):
                            alive = False
                            break
                    continue
            for index, point in zip(indices, pts):
                if not run_scalar(index, point, collect):
                    alive = False
                    break
        try:
            self._send({"type": "bye"})
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def serve(
    address: str,
    *,
    token: Optional[str] = None,
    retry_s: float = 10.0,
) -> None:
    """Dial ``HOST:PORT`` and serve points until shut down.

    The connect is retried for *retry_s* seconds so a worker started a
    moment before its pool still finds it.
    """
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        raise WorkerError(
            f"--connect expects HOST:PORT, got {address!r}"
        )
    port = int(port_text)
    import time

    deadline = time.monotonic() + retry_s
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
            break
        except OSError as exc:
            if time.monotonic() > deadline:
                raise WorkerError(
                    f"could not reach pool at {address}: {exc}"
                ) from exc
            time.sleep(0.2)
    sock.settimeout(None)
    WorkerSession(sock, token=token).run()
