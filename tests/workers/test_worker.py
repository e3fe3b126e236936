"""Tests for the worker daemon driven over an in-process socketpair.

The test plays the pool's side of the protocol by hand against a real
:class:`WorkerSession` running in a thread, so the full serialized
result path — evaluate, encode, frame, decode — is exercised without
subprocesses.
"""

import json
import socket
import threading

import pytest

from repro import instrument
from repro.campaign.runner import evaluate_point
from repro.campaign.spec import CampaignSpec, expand_points
from repro.errors import WorkerError
from repro.workers.protocol import (
    PROTOCOL_VERSION,
    decode_tree,
    point_to_wire,
    recv_message,
    send_message,
)
from repro.workers.__main__ import main as workers_main
from repro.workers.worker import WorkerSession

TINY = {
    "name": "worker-tiny",
    "scenario": "range",
    "seed": 31,
    "n_instances": 1,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
}


@pytest.fixture
def session():
    """(pool-side socket, running WorkerSession, its thread)."""
    pool_side, worker_side = socket.socketpair()
    worker = WorkerSession(worker_side, token="t0k3n")
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    hello, _frames = recv_message(pool_side)
    assert hello["type"] == "hello"
    assert hello["protocol"] == PROTOCOL_VERSION
    assert hello["token"] == "t0k3n"
    assert "shm" not in hello
    send_message(
        pool_side,
        {
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "name": "w0",
            "heartbeat": 1.0,
        },
    )
    yield pool_side, worker, thread
    try:
        send_message(pool_side, {"type": "shutdown"})
    except OSError:
        pass
    thread.join(timeout=30)
    pool_side.close()


def points():
    return expand_points(CampaignSpec.from_dict(TINY))


class TestWorkerSession:
    def test_serialized_results_match_direct_evaluation(self, session):
        pool_side, _worker, _thread = session
        batch = points()
        send_message(
            pool_side,
            {
                "type": "batch",
                "points": [point_to_wire(p) for p in batch],
                "collect": False,
            },
        )
        got = {}
        for _ in batch:
            envelope, frames = recv_message(pool_side)
            assert envelope["type"] == "result"
            assert envelope["duration_s"] > 0
            got[envelope["index"]] = decode_tree(
                envelope["metrics"], frames
            )
        for point in batch:
            assert json.dumps(
                got[point.index], sort_keys=True
            ) == json.dumps(evaluate_point(point), sort_keys=True)

    def test_pings_answered_between_points(self, session):
        pool_side, _worker, _thread = session
        send_message(pool_side, {"type": "ping", "seq": 17})
        reply, _frames = recv_message(pool_side)
        assert reply == {"type": "pong", "seq": 17}

    def test_collect_ships_counter_snapshots(self, session):
        pool_side, _worker, _thread = session
        point = points()[0]
        previously_enabled = instrument.enabled()
        try:
            send_message(
                pool_side,
                {
                    "type": "batch",
                    "points": [point_to_wire(point)],
                    "collect": True,
                },
            )
            envelope, frames = recv_message(pool_side)
        finally:
            if not previously_enabled:
                instrument.disable()
        snapshot = decode_tree(envelope["snapshot"], frames)
        assert snapshot is not None
        assert snapshot["counters"]  # the point ticked kernel counters

    def test_revoke_returns_only_unstarted_points(self, session):
        pool_side, worker, _thread = session
        batch = points()
        send_message(
            pool_side,
            {
                "type": "batch",
                "points": [point_to_wire(p) for p in batch],
                "collect": False,
            },
        )
        send_message(
            pool_side,
            {"type": "revoke", "indices": [p.index for p in batch]},
        )
        revoked = None
        results = 0
        while revoked is None or results < len(batch) - len(revoked):
            envelope, _frames = recv_message(pool_side)
            if envelope["type"] == "revoked":
                revoked = envelope["indices"]
            elif envelope["type"] == "result":
                results += 1
        # Whatever was already computing finished; the rest came back.
        assert results + len(revoked) == len(batch)
        assert set(revoked).issubset({p.index for p in batch})

    def test_failed_point_reported_and_worker_survives(self, session):
        pool_side, _worker, _thread = session
        batch = points()
        broken = point_to_wire(batch[0])
        broken["params"] = {"warp_factor": 9}  # unknown parameter
        send_message(
            pool_side,
            {"type": "batch", "points": [broken], "collect": False},
        )
        envelope, _frames = recv_message(pool_side)
        assert envelope["type"] == "point_error"
        assert "warp_factor" in envelope["error"]
        # The worker keeps serving after a point failure.
        send_message(
            pool_side,
            {
                "type": "batch",
                "points": [point_to_wire(batch[1])],
                "collect": False,
            },
        )
        envelope, frames = recv_message(pool_side)
        assert envelope["type"] == "result"
        assert envelope["index"] == batch[1].index


class TestHandshakeRejection:
    def test_pool_error_reply_raises(self):
        pool_side, worker_side = socket.socketpair()
        worker = WorkerSession(worker_side)
        failure = {}

        def run():
            try:
                worker.run()
            except WorkerError as exc:
                failure["exc"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        recv_message(pool_side)
        send_message(
            pool_side,
            {"type": "error", "error": "authentication failed: bad token"},
        )
        thread.join(timeout=10)
        pool_side.close()
        assert "authentication failed" in str(failure["exc"])


class TestServeArguments:
    """``serve`` rejects bad arguments before it dials anything."""

    @pytest.mark.parametrize(
        "address, message",
        [
            ("127.0.0.1:99999", "port must be 0-65535"),
            ("127.0.0.1:65536", "port must be 0-65535"),
            (":8761", "expected HOST:PORT"),
            ("host", "expected HOST:PORT"),
        ],
    )
    def test_bad_connect_address(self, address, message, capsys):
        assert workers_main(["serve", "--connect", address]) == 1
        assert f"--connect {address!r}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("retry", ["nan", "inf", "-1"])
    def test_bad_retry(self, retry, capsys):
        argv = ["serve", "--connect", "127.0.0.1:1", "--retry", retry]
        assert workers_main(argv) == 1
        assert "--retry must be a finite number" in capsys.readouterr().err
