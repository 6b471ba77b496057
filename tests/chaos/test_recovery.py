"""Coordinator crash recovery: control-plane replay, lease
re-admission, the worker result spool and result acks, SIGTERM drain,
and the heartbeat-thread lifecycle.

These are the survivable-coordinator guarantees: a SIGKILLed
coordinator restarted with ``--resume`` rebuilds its lease table,
dedup set, and suspicion benches from the journal; reconnecting
workers re-claim leases they still hold and replay spooled results;
and no helper thread ever outlives the connection it served.
"""

import socket
import threading
import time

import pytest

from repro.__main__ import _resume_command
from repro.errors import ResilienceError
from repro.resilience import (
    CampaignJournal,
    ControlPlaneState,
    FabricConfig,
    FabricCoordinator,
    FrameConnection,
    RecoveredLease,
    ResultSpool,
    TransportClosed,
    WorkerStats,
    connect_framed,
    recover_control_state,
    run_worker,
    scan_journal,
    serve_connection,
)

#: Tight timings so recovery-path tests stay fast.
FAST_FABRIC = FabricConfig(
    lease_s=0.3,
    heartbeat_s=0.05,
    register_grace_s=1.0,
    degrade_after_s=1.0,
    max_redispatch=1,
)


class TestControlPlaneRecovery:
    def _journal(self, tmp_path):
        return CampaignJournal(tmp_path / "j.jsonl").open(
            {"campaign": "t", "fingerprint": "fp", "cells": 4}
        )

    def _cell(self, journal, index):
        verdict = {"outcome": "ok", "detail": "", "steps": 1, "attempts": 1}
        journal.append_cell(index, verdict, {"seed": index})

    def test_outstanding_lease_survives_recovery(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.append_event(
                {
                    "kind": "lease",
                    "index": 0,
                    "worker": "w1",
                    "deadline_unix": 1234.5,
                }
            )
        state = recover_control_state(scan_journal(tmp_path / "j.jsonl"))
        assert state.completed == set()
        assert state.leases == {0: RecoveredLease(0, "w1", 1234.5)}

    def test_cell_record_settles_its_lease(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.append_event(
                {"kind": "lease", "index": 0, "worker": "w1"}
            )
            self._cell(journal, 0)
        state = recover_control_state(scan_journal(tmp_path / "j.jsonl"))
        assert state.completed == {0}
        assert state.leases == {}

    def test_expiry_settles_its_lease(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.append_event(
                {"kind": "lease", "index": 0, "worker": "w1"}
            )
            journal.append_event(
                {"kind": "expiry", "index": 0, "worker": "w1"}
            )
            journal.append_event(
                {"kind": "lease", "index": 1, "worker": "w2"}
            )
        state = recover_control_state(scan_journal(tmp_path / "j.jsonl"))
        assert set(state.leases) == {1}

    def test_last_bench_wins_and_zero_clears(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.append_event(
                {
                    "kind": "bench",
                    "worker": "w1",
                    "suspicion": 2,
                    "penalty_until_unix": 99.0,
                }
            )
            journal.append_event(
                {
                    "kind": "bench",
                    "worker": "w2",
                    "suspicion": 1,
                    "penalty_until_unix": 50.0,
                }
            )
            journal.append_event(
                {
                    "kind": "bench",
                    "worker": "w1",
                    "suspicion": 0,
                    "penalty_until_unix": 0.0,
                }
            )
        state = recover_control_state(scan_journal(tmp_path / "j.jsonl"))
        assert state.suspicion == {"w2": (1, 50.0)}

    def test_grant_after_completion_is_ignored(self, tmp_path):
        # A recovered-as-complete cell must never resurface as a lease
        # (that would be the recompute the drill checks for).
        with self._journal(tmp_path) as journal:
            self._cell(journal, 0)
            journal.append_event(
                {"kind": "lease", "index": 0, "worker": "w1"}
            )
        state = recover_control_state(scan_journal(tmp_path / "j.jsonl"))
        assert state.completed == {0}
        assert state.leases == {}

    def test_events_accessor_filters_by_kind(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.append_event(
                {"kind": "lease", "index": 0, "worker": "w1"}
            )
            self._cell(journal, 0)
            journal.append_event(
                {"kind": "spool", "index": 0, "worker": "w1"}
            )
        scan = scan_journal(tmp_path / "j.jsonl")
        assert [e["kind"] for e in scan.events()] == ["lease", "spool"]
        assert [e["kind"] for e in scan.events("spool")] == ["spool"]


class TestCoordinatorRecoveryProtocol:
    def _run_collecting(self, coordinator, jobs, recovered):
        results = {}

        def record(index, message):
            results[index] = message

        leftover = coordinator.run(
            jobs, record, fingerprint="fp", recovered=recovered
        )
        return results, leftover

    def test_holder_readmits_lease_and_replays_spooled_result(self):
        # The crash scenario: cell 0's lease was outstanding when the
        # coordinator died, its holder finished the cell during the
        # outage and spooled the result.  On reconnect the worker
        # re-claims the lease and the spooled result completes the
        # cell with zero redispatches.
        recovered = ControlPlaneState(
            completed=set(),
            leases={0: RecoveredLease(0, "holder", time.time() + 30.0)},
        )
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address

            def holder():
                with connect_framed(host, port) as conn:
                    conn.send(
                        {
                            "type": "register",
                            "name": "holder",
                            "held_leases": [0],
                        }
                    )
                    assert conn.recv(timeout=5.0)["type"] == "welcome"
                    conn.send(
                        {
                            "type": "result",
                            "index": 0,
                            "outcome": "ok",
                            "detail": "from-the-spool",
                            "steps": 1,
                            "attempts": 1,
                            "spooled": True,
                            "worker": "holder",
                        }
                    )
                    while True:
                        message = conn.recv(timeout=5.0)
                        if message is None or (
                            message["type"] == "shutdown"
                        ):
                            return

            thread = threading.Thread(target=holder, daemon=True)
            thread.start()
            results, leftover = self._run_collecting(
                coordinator, [(0, {"tag": 0})], recovered
            )
        thread.join(timeout=5.0)
        assert leftover == set()
        assert results[0]["detail"] == "from-the-spool"
        assert coordinator.stats.resumed
        assert coordinator.stats.recovered_leases == 1
        assert coordinator.stats.readmitted_leases == 1
        assert coordinator.stats.spooled_results == 1
        assert coordinator.stats.dispatches == 0  # never redispatched

    def test_vanished_holder_expires_into_redispatch(self):
        # The holder never comes back: after one lease window of grace
        # the recovered lease expires and the cell goes to whoever is
        # actually here.
        recovered = ControlPlaneState(
            leases={0: RecoveredLease(0, "ghost", time.time() + 30.0)},
        )
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address

            def bystander():
                with connect_framed(host, port) as conn:
                    conn.send({"type": "register", "name": "bystander"})
                    assert conn.recv(timeout=5.0)["type"] == "welcome"
                    while True:
                        message = conn.recv(timeout=5.0)
                        if message is None:
                            continue
                        if message["type"] == "shutdown":
                            return
                        if message["type"] == "lease":
                            conn.send(
                                {
                                    "type": "result",
                                    "index": message["index"],
                                    "outcome": "ok",
                                    "detail": "recomputed",
                                    "steps": 1,
                                    "attempts": 1,
                                }
                            )

            thread = threading.Thread(target=bystander, daemon=True)
            thread.start()
            results, leftover = self._run_collecting(
                coordinator, [(0, {"tag": 0})], recovered
            )
        thread.join(timeout=5.0)
        assert leftover == set()
        assert results[0]["detail"] == "recomputed"
        assert coordinator.stats.lease_expiries >= 1
        assert coordinator.stats.readmitted_leases == 0
        assert coordinator.stats.dispatches == 1

    def test_recovered_suspicion_benches_the_returning_worker(self):
        # The journal remembers who was benched: the tainted worker
        # re-registers mid-penalty and must not attract the lease while
        # a clean worker is available.
        recovered = ControlPlaneState(
            suspicion={"tainted": (3, time.time() + 30.0)},
        )
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address
            stop = threading.Event()

            def worker(name):
                with connect_framed(host, port) as conn:
                    conn.send({"type": "register", "name": name})
                    # The welcome is deferred until run() starts.
                    welcome = None
                    while welcome is None and not stop.is_set():
                        welcome = conn.recv(timeout=1.0)
                    while not stop.is_set():
                        message = conn.recv(timeout=1.0)
                        if message is None:
                            continue
                        if message["type"] == "shutdown":
                            return
                        if message["type"] == "lease":
                            conn.send(
                                {
                                    "type": "result",
                                    "index": message["index"],
                                    "outcome": "ok",
                                    "detail": f"served-by:{name}",
                                    "steps": 1,
                                    "attempts": 1,
                                }
                            )

            threads = [
                threading.Thread(target=worker, args=(n,), daemon=True)
                for n in ("tainted", "clean")
            ]
            threads[0].start()
            # The tainted worker registers first (and would win the
            # lease if its bench were forgotten); registrations park
            # in wait_for_workers until run() replays them in order.
            assert coordinator.wait_for_workers(1, timeout_s=5.0) == 1
            threads[1].start()
            assert coordinator.wait_for_workers(2, timeout_s=5.0) == 2
            try:
                results, leftover = self._run_collecting(
                    coordinator, [(0, {"tag": 0})], recovered
                )
            finally:
                stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert leftover == set()
        assert results[0]["detail"] == "served-by:clean"


class TestResultAcks:
    """A result is delivered when the coordinator acks it, not when the
    worker's send returns: a send into a coordinator that dies before
    reading it usually succeeds."""

    def test_unacked_result_is_replayed_not_recomputed(self):
        # Coordinator 1 leases cell 0, reads its result frame and dies
        # without acking.  The worker must hand the same result,
        # flagged spooled, to coordinator 2, having run the cell once.
        executed = []
        seen = {}

        def execute(cell, strict):
            executed.append(cell["tag"])
            return {"type": "result", "outcome": "ok", "detail": "once"}

        def next_of(conn, kind):
            while True:
                message = conn.recv(timeout=10.0)
                assert message is not None, f"no {kind} frame"
                if message["type"] == kind:
                    return message

        def welcome(conn):
            conn.send(
                {"type": "welcome", "fingerprint": "fp", "heartbeat_s": 0.05}
            )

        def coordinators(server):
            sock, _ = server.accept()
            with FrameConnection(sock) as first:
                next_of(first, "register")
                welcome(first)
                first.send({"type": "lease", "index": 0, "cell": {"tag": 0}})
                seen["first"] = next_of(first, "result")
            sock, _ = server.accept()
            with FrameConnection(sock) as second:
                seen["register"] = next_of(second, "register")
                welcome(second)
                seen["second"] = next_of(second, "result")
                second.send({"type": "ack", "index": 0})
                second.send({"type": "shutdown"})

        stats = WorkerStats()
        exit_code = []
        with socket.create_server(("127.0.0.1", 0)) as server:
            server.settimeout(10.0)
            thread = threading.Thread(
                target=lambda: exit_code.append(
                    run_worker(
                        *server.getsockname(),
                        name="w1",
                        max_attempts=3,
                        stats=stats,
                        execute=execute,
                    )
                ),
                daemon=True,
            )
            thread.start()
            coordinators(server)
            thread.join(timeout=10.0)
        assert exit_code == [0]
        assert executed == [0]
        assert seen["first"].get("spooled") is None
        assert seen["register"]["held_leases"] == [0]
        assert seen["second"]["index"] == 0
        assert seen["second"]["detail"] == "once"
        assert seen["second"]["spooled"] is True
        assert (stats.results_spooled, stats.spool_replayed) == (1, 1)

    def test_coordinator_acks_every_result_duplicates_included(self):
        # Cell 0's result arrives twice (a redelivery) before cell 1's:
        # the run records it once and acks all three frames.
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address
            acks = []

            def worker():
                with connect_framed(host, port) as conn:
                    conn.send({"type": "register", "name": "w"})
                    while True:
                        message = conn.recv(timeout=5.0)
                        if message is None or message["type"] == "shutdown":
                            return
                        if message["type"] == "ack":
                            acks.append(message["index"])
                        if message["type"] != "lease":
                            continue
                        result = {
                            "type": "result",
                            "index": message["index"],
                            "outcome": "ok",
                            "detail": "",
                            "steps": 1,
                            "attempts": 1,
                        }
                        for _ in range(2 - message["index"]):
                            conn.send(result)

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            recorded = []
            leftover = coordinator.run(
                [(0, {"tag": 0}), (1, {"tag": 1})],
                lambda index, message: recorded.append(index),
                fingerprint="fp",
            )
        thread.join(timeout=5.0)
        assert leftover == set()
        assert sorted(recorded) == [0, 1]
        assert sorted(acks) == [0, 0, 1]
        assert coordinator.stats.duplicates_dropped == 1


class TestResultSpool:
    def _result(self, index):
        return {
            "type": "result",
            "index": index,
            "outcome": "ok",
            "detail": f"r{index}",
            "steps": 1,
            "attempts": 1,
        }

    def test_bound_drops_the_oldest(self):
        spool = ResultSpool(max_records=2)
        for index in range(4):
            spool.put("fp", self._result(index))
        assert len(spool) == 2
        assert spool.dropped == 2
        assert spool.indices("fp") == [2, 3]

    def test_disk_spool_survives_a_new_incarnation(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        spool = ResultSpool(path)
        spool.put("fp", self._result(0))
        spool.put("fp", self._result(1))
        heir = ResultSpool(path)
        assert heir.indices("fp") == [0, 1]

    def test_torn_tail_in_the_spool_is_skipped(self, tmp_path):
        path = tmp_path / "spool.jsonl"
        spool = ResultSpool(path)
        spool.put("fp", self._result(0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "fp", "result": {"ind')
        heir = ResultSpool(path)
        assert heir.indices("fp") == [0]

    def test_replay_flags_and_clears(self, tmp_path):
        left, right = socket.socketpair()
        sender = FrameConnection(left)
        receiver = FrameConnection(right)
        try:
            spool = ResultSpool(tmp_path / "spool.jsonl")
            spool.put("fp", self._result(0))
            spool.put("other-campaign", self._result(1))
            sent = spool.replay(sender, "fp", worker="w1")
            assert sent == 1
            message = receiver.recv(timeout=5.0)
            assert message["index"] == 0
            assert message["spooled"] is True
            assert message["worker"] == "w1"
            # Replay clears everything, stale campaigns included.
            assert len(spool) == 0
            assert ResultSpool(tmp_path / "spool.jsonl").indices() == []
        finally:
            sender.close()
            receiver.close()

    def test_replay_link_death_keeps_the_records(self, tmp_path):
        left, right = socket.socketpair()
        sender = FrameConnection(left)
        right.close()
        try:
            spool = ResultSpool(tmp_path / "spool.jsonl")
            spool.put("fp", self._result(0))
            spool.put("fp", self._result(1))
            with pytest.raises(TransportClosed):
                spool.replay(sender, "fp")
            assert len(spool) == 2  # nothing lost; resent next welcome
        finally:
            sender.close()


class TestServeConnectionLifecycle:
    def _welcome(self, conn, **extra):
        conn.send(
            {
                "type": "welcome",
                "fingerprint": "fp",
                "heartbeat_s": 0.05,
                **extra,
            }
        )

    def _heartbeat_threads(self):
        return [
            t
            for t in threading.enumerate()
            if t.name == "fabric-heartbeat" and t.is_alive()
        ]

    def test_drain_returns_after_the_welcome(self):
        left, right = socket.socketpair()
        worker_conn = FrameConnection(left)
        coord_conn = FrameConnection(right)
        drain = threading.Event()
        drain.set()
        try:
            self._welcome(coord_conn)
            reason, fingerprint = serve_connection(
                worker_conn,
                WorkerStats(),
                execute=lambda cell, strict: {},
                drain=drain,
            )
            assert (reason, fingerprint) == ("drain", "fp")
        finally:
            worker_conn.close()
            coord_conn.close()
        assert self._heartbeat_threads() == []

    def test_shutdown_leaves_no_heartbeat_thread(self):
        left, right = socket.socketpair()
        worker_conn = FrameConnection(left)
        coord_conn = FrameConnection(right)
        try:
            self._welcome(coord_conn)
            coord_conn.send({"type": "shutdown"})
            reason, _ = serve_connection(
                worker_conn,
                WorkerStats(),
                execute=lambda cell, strict: {},
            )
            assert reason == "shutdown"
        finally:
            worker_conn.close()
            coord_conn.close()
        assert self._heartbeat_threads() == []

    def test_wedged_heartbeater_cannot_outlive_the_connection(self):
        # Regression: a heartbeat thread blocked in ``sendall`` against
        # a peer that stopped reading (a hung socket — what a full
        # partition looks like from the send side) used to outlive its
        # connection.  serve_connection's teardown must force the
        # socket shut and collect the thread.
        left, right = socket.socketpair()
        left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 2048)
        right.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
        worker_conn = FrameConnection(left)
        coord_conn = FrameConnection(right)

        def execute(cell, strict):
            # Wedge the link: fill the send buffer so the heartbeater's
            # next renewal blocks in sendall (the peer never reads),
            # then crash the cell.  Teardown has to cope with both.
            left.setblocking(False)
            try:
                for chunk in (b"\x00" * 4096, b"\x00"):
                    while True:
                        try:
                            left.send(chunk)
                        except (BlockingIOError, OSError):
                            break
            finally:
                left.setblocking(True)
            time.sleep(0.3)  # let a heartbeat attempt wedge
            raise RuntimeError("cell crashed while the link was hung")

        try:
            self._welcome(coord_conn)
            coord_conn.send(
                {"type": "lease", "index": 0, "cell": {}, "lease_s": 1.0}
            )
            with pytest.raises(RuntimeError, match="hung"):
                serve_connection(
                    worker_conn, WorkerStats(), execute=execute
                )
            assert self._heartbeat_threads() == []
        finally:
            worker_conn.close()
            coord_conn.close()


class TestResumeCommand:
    def test_strips_stale_options_and_appends_resume(self):
        command = _resume_command(
            ["chaos", "run", "--smoke", "--journal", "old.jsonl"],
            "j.jsonl",
        )
        assert command == (
            "python -m repro chaos run --smoke --resume j.jsonl"
        )

    def test_pins_listen_to_the_bound_address(self):
        command = _resume_command(
            [
                "chaos",
                "run",
                "--backend",
                "fabric",
                "--listen",
                "127.0.0.1:0",
                "--resume",
                "old.jsonl",
            ],
            "j.jsonl",
            listen="127.0.0.1:45678",
        )
        assert "--listen 127.0.0.1:45678" in command
        assert "127.0.0.1:0" not in command
        assert command.endswith("--resume j.jsonl")
        assert "old.jsonl" not in command

    def test_cli_prints_pinned_resume_command_on_exit_75(self, tmp_path):
        # A SIGTERMed fabric run must hand back the exact command that
        # continues it — with --listen pinned to the port that was
        # actually bound, not the ephemeral-port 0 the user typed.
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        journal = str(tmp_path / "j.jsonl")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "chaos", "run",
                "--smoke",
                "--backend", "fabric",
                "--listen", "127.0.0.1:0",
                "--journal", journal,
                "--register-grace-s", "30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        time.sleep(2.0)  # let it bind and enter the register grace
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 75
        resume_lines = [
            line
            for line in out.splitlines()
            if line.startswith("resume with: ")
        ]
        assert resume_lines, out
        command = resume_lines[0]
        assert f"--resume {journal}" in command
        assert "--journal" not in command
        assert "--listen 127.0.0.1:0" not in command  # pinned port
        assert "--listen 127.0.0.1:" in command

    def test_resume_header_mismatch_is_refused(self, tmp_path):
        # The fingerprint pin still guards fabric recovery: a journal
        # from a different campaign must be refused, not recovered.
        from repro.chaos import run_campaign, smoke_campaign

        journal = str(tmp_path / "j.jsonl")
        run_campaign(smoke_campaign(), limit=2, journal=journal)
        with pytest.raises(ResilienceError, match="fingerprint"):
            run_campaign(
                smoke_campaign(seed=1),
                limit=2,
                resume=journal,
                backend="fabric",
                fabric=FabricConfig(register_grace_s=0.2),
            )
