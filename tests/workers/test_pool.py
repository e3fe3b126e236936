"""Integration tests for the distributed worker pool.

These run real ``spawn://`` worker processes (loopback TCP), a
``python -m repro.workers serve`` subprocess on a ``tcp://`` pool, and
hand-rolled fake workers (a raw socket speaking just enough protocol)
to exercise the failure paths — auth rejection, heartbeat death,
requeue, mid-run SIGKILL — without waiting on real crashes.
"""

import glob
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro

from repro.campaign.runner import evaluate_point, run_campaign
from repro.campaign.spec import CampaignSpec, expand_points
from repro.errors import CampaignError, WorkerError, WorkerProtocolError
from repro.workers import WorkerPool, parse_workers_spec
from repro.workers.pool import PointFailure
from repro.workers.protocol import (
    PROTOCOL_VERSION,
    encode_tree,
    recv_message,
    send_message,
    worker_cache_identity,
)

TINY = {
    "name": "pool-tiny",
    "scenario": "range",
    "seed": 23,
    "n_instances": 1,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps", "4.8 Gbps"]}],
}


def tiny_spec(n_instances=1, rates=("2.4 Gbps", "4.8 Gbps")):
    data = dict(TINY, n_instances=n_instances)
    data["sweeps"] = [{"name": "bit_rate", "values": list(rates)}]
    return CampaignSpec.from_dict(data)


def shm_segments():
    return set(glob.glob("/dev/shm/psm_*")) if os.path.isdir("/dev/shm") else set()


class TestParseWorkersSpec:
    def test_spawn(self):
        assert parse_workers_spec("spawn://3") == {"spawn": 3, "listen": []}

    def test_tcp_and_mixed(self):
        parsed = parse_workers_spec("spawn://2,tcp://0.0.0.0:8761")
        assert parsed["spawn"] == 2
        assert parsed["listen"] == [("0.0.0.0", 8761)]
        assert parse_workers_spec("tcp://:9000")["listen"] == [
            ("0.0.0.0", 9000)
        ]
        assert parse_workers_spec("tcp://127.0.0.1:0")["listen"] == [
            ("127.0.0.1", 0)
        ]
        assert parse_workers_spec("tcp://:65535")["listen"] == [
            ("0.0.0.0", 65535)
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "spawn://0",
            "spawn://x",
            "tcp://host",
            "tcp://127.0.0.1:70000",
            "tcp://:65536",
            "carrier://2",
            ",",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(WorkerError, match=re.escape(repr(bad))):
            parse_workers_spec(bad)


def fake_worker_hello(
    port,
    token=None,
    identity=None,
    protocol=PROTOCOL_VERSION,
    **fields,
):
    """Dial a pool and perform the worker side of the handshake.

    Extra keyword *fields* are added to the hello as they are.
    """
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    send_message(
        sock,
        {
            "type": "hello",
            "protocol": protocol,
            "token": token,
            "identity": identity or worker_cache_identity(),
            "pid": os.getpid(),
            "host": "fake",
            **fields,
        },
    )
    reply, _frames = recv_message(sock)
    return sock, reply


def listen_port(pool):
    return pool._listeners[-1].getsockname()[1]


class TestHandshake:
    def test_token_rejection(self):
        with WorkerPool("tcp://127.0.0.1:0", token="s3cret") as pool:
            sock, reply = fake_worker_hello(listen_port(pool), token="wrong")
            assert reply["type"] == "error"
            assert "authentication failed" in reply["error"]
            sock.close()
            assert pool.live_workers() == []

    def test_token_accepted(self):
        with WorkerPool("tcp://127.0.0.1:0", token="s3cret") as pool:
            sock, reply = fake_worker_hello(listen_port(pool), token="s3cret")
            assert reply["type"] == "welcome"
            assert reply["protocol"] == PROTOCOL_VERSION
            assert pool.wait_for_workers(timeout=5) == 1
            sock.close()

    def test_identity_mismatch_rejection(self):
        with WorkerPool("tcp://127.0.0.1:0") as pool:
            stale = dict(worker_cache_identity(), salt="repro.campaign/0")
            sock, reply = fake_worker_hello(
                listen_port(pool), identity=stale
            )
            assert reply["type"] == "error"
            assert "cache identity mismatch" in reply["error"]
            sock.close()

    def test_protocol_version_rejection(self):
        with WorkerPool("tcp://127.0.0.1:0") as pool:
            sock, reply = fake_worker_hello(listen_port(pool), protocol=99)
            assert reply["type"] == "error"
            assert "version mismatch" in reply["error"]
            sock.close()

    def test_shm_hello_is_welcomed_without_grant_and_frames_decode(self):
        # A worker built before results always travelled as binary
        # frames still asks for shared memory.  It is welcomed without
        # a grant, so it sends frames, and those decode.
        points = expand_points(tiny_spec(rates=["2.4 Gbps"]))
        trace = np.random.default_rng(9).normal(size=8192)
        box = {}
        with WorkerPool("tcp://127.0.0.1:0") as pool:
            port = listen_port(pool)

            def fake_main():
                sock, box["reply"] = fake_worker_hello(port, shm=True)
                try:
                    envelope, _frames = recv_message(sock)
                    while envelope["type"] != "batch":
                        envelope, _frames = recv_message(sock)
                    frames = []
                    send_message(
                        sock,
                        {
                            "type": "result",
                            "index": envelope["points"][0]["index"],
                            "duration_s": 0.0,
                            "metrics": encode_tree({"trace": trace}, frames),
                            "snapshot": None,
                        },
                        tuple(frames),
                    )
                    recv_message(sock)  # shutdown, or the pool closing
                except (WorkerProtocolError, OSError):
                    pass
                finally:
                    sock.close()

            thread = threading.Thread(target=fake_main, daemon=True)
            thread.start()
            got = {}
            pool.run(
                points,
                on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
            )
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert box["reply"]["type"] == "welcome"
        assert "shm" not in box["reply"]
        assert got[points[0].index]["trace"].tobytes() == trace.tobytes()

    def test_no_workers_times_out(self):
        with WorkerPool("tcp://127.0.0.1:0", connect_timeout=0.3) as pool:
            with pytest.raises(WorkerError, match="no workers connected"):
                pool.wait_for_workers()


class TestSpawnedWorkers:
    def test_spawn_matches_local_execution(self):
        spec = tiny_spec()
        points = expand_points(spec)
        direct = [evaluate_point(p) for p in points]
        got = {}
        with WorkerPool("spawn://2", deadline=60.0) as pool:
            pool.run(
                points,
                on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
            )
        assert sorted(got) == [p.index for p in points]
        for point, expected in zip(points, direct):
            assert json.dumps(got[point.index], sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_run_campaign_workers_byte_identical_to_jobs(self, tmp_path):
        # jobs=2 is spawn://2 itself; the reference is the in-process loop.
        spec = tiny_spec()
        local = run_campaign(spec, jobs=1)
        distributed = run_campaign(
            spec,
            workers="spawn://2",
            cache_dir=str(tmp_path / "cache"),
        )
        assert json.dumps(local.metrics, sort_keys=True) == json.dumps(
            distributed.metrics, sort_keys=True
        )
        assert distributed.statuses == ["computed"] * len(spec_points(spec))
        # A resubmission replays entirely from the cache: the
        # distributed run wrote every computed point through.
        resumed = run_campaign(
            spec,
            workers="spawn://2",
            cache_dir=str(tmp_path / "cache"),
        )
        assert resumed.cached == len(resumed.points)
        assert resumed.cache_stats["hits"] == len(resumed.points)
        assert json.dumps(resumed.metrics, sort_keys=True) == json.dumps(
            local.metrics, sort_keys=True
        )

    def test_sigkill_mid_run_requeues_and_completes(self):
        spec = tiny_spec(n_instances=3)  # 6 points
        points = expand_points(spec)
        before = shm_segments()
        got = {}
        killed = threading.Event()
        with WorkerPool("spawn://2", deadline=60.0) as pool:

            def on_result(point, metrics, duration_s, snapshot):
                got[point.index] = metrics
                if not killed.is_set():
                    killed.set()
                    os.kill(pool._procs[0].pid, signal.SIGKILL)

            pool.run(points, on_result=on_result)
        assert sorted(got) == [p.index for p in points]
        # The killed worker's in-flight points were re-executed with
        # identical results (identity-derived seeding).
        sample = points[0]
        assert json.dumps(got[sample.index], sort_keys=True) == json.dumps(
            evaluate_point(sample), sort_keys=True
        )
        # No orphaned shared-memory blocks survive the kill.
        assert shm_segments() - before == set()

    def test_busy_pack_is_not_revoked_in_a_spin(self, monkeypatch):
        # One pack keeps one worker busy while the other idles.  A
        # revoke that came back empty must not be re-sent on every
        # scheduler pass: at most one per delivered result, plus one
        # per worker.
        spec = tiny_spec(n_instances=2)  # 4 points
        points = expand_points(spec)
        calls = []
        revoke = WorkerPool._revoke

        def counted(pool, handle, indices):
            calls.append(list(indices))
            return revoke(pool, handle, indices)

        monkeypatch.setattr(WorkerPool, "_revoke", counted)
        got = {}
        with WorkerPool("spawn://2", deadline=60.0) as pool:
            pool.run(
                points,
                packs=[[p.index for p in points]],
                on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
            )
        assert sorted(got) == [p.index for p in points]
        assert len(calls) <= len(points) + 2, f"{len(calls)} revokes"

    def test_bad_spec_fails_before_spawning(self):
        with pytest.raises(WorkerError, match="carrier://1"):
            run_campaign(tiny_spec(), workers="carrier://1")


def spec_points(spec):
    return expand_points(spec)


class TestRemoteWorkerCli:
    def test_serve_cli_matches_in_process(self):
        """``python -m repro.workers serve`` joins a tcp:// pool."""
        spec = tiny_spec()
        points = expand_points(spec)
        local = run_campaign(spec, jobs=1)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [src_root, os.environ.get("PYTHONPATH")])
            ),
        )
        got = {}
        with WorkerPool("tcp://127.0.0.1:0", deadline=60.0) as pool:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.workers",
                    "serve",
                    "--connect",
                    f"127.0.0.1:{listen_port(pool)}",
                ],
                env=env,
            )
            try:
                pool.run(
                    points,
                    on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
                )
                assert len(pool.live_workers()) == 1
            except BaseException:
                proc.kill()
                raise
        assert proc.wait(timeout=30) == 0
        assert json.dumps(
            [got[p.index] for p in points], sort_keys=True
        ) == json.dumps(local.metrics, sort_keys=True)


class TestFakeWorkerScheduling:
    """Failure paths driven by a scripted worker on a raw socket."""

    def run_pool_with_fake(self, pool, points, fake, **run_kwargs):
        """Start *fake(sock)* on the accepted connection, then run."""
        port = listen_port(pool)
        box = {}

        def fake_main():
            sock, reply = fake_worker_hello(port, token=pool.token)
            assert reply["type"] == "welcome"
            try:
                fake(sock)
            finally:
                box["sock"] = sock

        thread = threading.Thread(target=fake_main, daemon=True)
        thread.start()
        got = {}
        try:
            pool.run(
                points,
                on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
                **run_kwargs,
            )
        finally:
            thread.join(timeout=10)
        return got

    def test_point_error_raises_point_failure(self):
        points = expand_points(tiny_spec(rates=["2.4 Gbps"]))

        def fake(sock):
            while True:
                envelope, _frames = recv_message(sock)
                if envelope["type"] == "batch":
                    send_message(
                        sock,
                        {
                            "type": "point_error",
                            "index": envelope["points"][0]["index"],
                            "error": "ValueError: synthetic failure",
                        },
                    )
                    return
                if envelope["type"] == "ping":
                    send_message(
                        sock, {"type": "pong", "seq": envelope.get("seq")}
                    )

        with WorkerPool("tcp://127.0.0.1:0") as pool:
            with pytest.raises(PointFailure, match="synthetic failure"):
                self.run_pool_with_fake(pool, points, fake)

    def test_point_failure_surfaces_as_campaign_error(self, monkeypatch):
        # The runner maps a worker-side point failure onto the same
        # CampaignError shape the --jobs pool raises.
        spec = tiny_spec(rates=["2.4 Gbps"])

        def fake_run(self, points, *, collect, on_result):
            raise PointFailure(points[0], "RuntimeError: boom")

        monkeypatch.setattr(WorkerPool, "run", fake_run)
        monkeypatch.setattr(
            WorkerPool, "start", lambda self: self, raising=True
        )
        with pytest.raises(CampaignError, match="boom"):
            run_campaign(spec, workers="tcp://127.0.0.1:0")

    def test_silent_worker_hits_deadline_and_points_requeue(self):
        # One real spawned worker plus one fake worker that accepts a
        # batch and then goes silent: the heartbeat deadline must
        # declare it dead and its points must finish on the survivor.
        spec = tiny_spec(n_instances=2)  # 4 points
        points = expand_points(spec)
        with WorkerPool(
            "spawn://1,tcp://127.0.0.1:0", heartbeat=0.2, deadline=1.5
        ) as pool:
            port = listen_port(pool)
            pool.wait_for_workers(timeout=30)

            hold = threading.Event()

            def fake_main():
                sock, reply = fake_worker_hello(port)
                assert reply["type"] == "welcome"
                hold.wait(timeout=30)  # never answer a ping
                sock.close()

            thread = threading.Thread(target=fake_main, daemon=True)
            thread.start()
            # Give the fake a moment to join so it gets a batch.
            deadline = time.monotonic() + 10
            while len(pool.live_workers()) < 2:
                if time.monotonic() > deadline:
                    pytest.fail("fake worker never joined")
                time.sleep(0.02)
            got = {}
            pool.run(
                points,
                on_result=lambda p, m, d, s: got.__setitem__(p.index, m),
            )
            hold.set()
        assert sorted(got) == [p.index for p in points]

    def test_all_workers_dead_raises(self):
        points = expand_points(tiny_spec(rates=["2.4 Gbps"]))

        def fake(sock):
            envelope, _frames = recv_message(sock)  # first batch
            sock.close()  # die without answering

        with WorkerPool(
            "tcp://127.0.0.1:0", heartbeat=0.2, deadline=1.0
        ) as pool:
            with pytest.raises(WorkerError, match="all workers died"):
                self.run_pool_with_fake(pool, points, fake)

    def test_requeue_cap_gives_up(self):
        points = expand_points(tiny_spec(rates=["2.4 Gbps"]))

        def crash_on_batch(sock):
            # Stay live (answer pings) until handed a point, then die
            # holding it.  Three of these keep at least one worker
            # alive at every moment, so the run fails on the requeue
            # cap, never on "all workers died".
            while True:
                envelope, _frames = recv_message(sock)
                if envelope["type"] == "batch":
                    sock.close()
                    return
                if envelope["type"] == "ping":
                    send_message(
                        sock, {"type": "pong", "seq": envelope.get("seq")}
                    )
                elif envelope["type"] == "shutdown":
                    return

        with WorkerPool(
            "tcp://127.0.0.1:0",
            heartbeat=0.2,
            deadline=10.0,
            max_requeues=1,
        ) as pool:
            port = listen_port(pool)
            threads = []

            def fake_main():
                sock, reply = fake_worker_hello(port)
                if reply.get("type") == "welcome":
                    try:
                        crash_on_batch(sock)
                    except OSError:
                        pass

            for _ in range(3):
                thread = threading.Thread(target=fake_main, daemon=True)
                thread.start()
                threads.append(thread)
            deadline = time.monotonic() + 10
            while len(pool.live_workers()) < 3:
                if time.monotonic() > deadline:
                    pytest.fail("fake workers never joined")
                time.sleep(0.02)
            with pytest.raises(WorkerError, match="requeued"):
                pool.run(points, on_result=lambda *a: None)
            for thread in threads:
                thread.join(timeout=10)
