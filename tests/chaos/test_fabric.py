"""The campaign fabric: lease-based dispatch, dedup, degraded mode,
the chaos proxy, and the ``chaos run`` exit-code contract.

Coordinator-level tests speak the wire protocol directly through fake
workers (a plain framed connection driven by the test), so every
failure mode — silence, disconnection, duplicate results — is exact
and timing-controlled.  End-to-end byte-identity runs real
:func:`~repro.resilience.worker.run_worker` loops in threads.
"""

import pickle
import threading
import time

import pytest

from repro.__main__ import EXIT_QUARANTINED, chaos_exit_code, main
from repro.chaos import OUTCOME_PARTITION, run_campaign, smoke_campaign
from repro.resilience import (
    ChaosProxy,
    FabricConfig,
    FabricCoordinator,
    FaultPlan,
    WorkerStats,
    connect_framed,
    encode_frame,
    reconnect_delay_s,
    run_worker,
)

#: Tight timings so failure-path tests stay fast: leases expire in
#: 0.2s, degraded mode kicks in well under a second.
FAST_FABRIC = FabricConfig(
    lease_s=0.2,
    heartbeat_s=0.05,
    register_grace_s=0.5,
    degrade_after_s=0.5,
    max_redispatch=1,
)

#: Pickled-size ceiling of a verdict-only campaign record (a record
#: carrying its traced run is hundreds of KB).
LEAN_RECORD_BYTES = 2048


def _stub_execute(cell_json, strict_traces):
    """Worker-side execute stub: deterministic, instant."""
    return {
        "type": "result",
        "index": -1,
        "outcome": "ok",
        "detail": f"stub:{cell_json.get('tag', '')}",
        "steps": 1,
        "attempts": 1,
    }


def _thread_worker(host, port, name, **kwargs):
    stats = WorkerStats()
    thread = threading.Thread(
        target=run_worker,
        args=(host, port),
        kwargs={"name": name, "stats": stats, **kwargs},
        daemon=True,
    )
    thread.start()
    return thread, stats


class TestCoordinatorProtocol:
    def _run_collecting(self, coordinator, jobs):
        results = {}

        def record(index, message):
            assert index not in results  # finish() must dedup
            results[index] = message

        leftover = coordinator.run(jobs, record, fingerprint="fp")
        return results, leftover

    def test_duplicate_results_dropped(self):
        jobs = [(i, {"tag": i}) for i in range(3)]
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address

            def fake_worker():
                with connect_framed(host, port) as conn:
                    conn.send({"type": "register", "name": "dup"})
                    assert conn.recv(timeout=5.0)["type"] == "welcome"
                    served = 0
                    while served < len(jobs):
                        message = conn.recv(timeout=5.0)
                        if message is None or message["type"] != "lease":
                            continue
                        reply = {
                            "type": "result",
                            "index": message["index"],
                            "outcome": "ok",
                            "detail": "",
                            "steps": 1,
                            "attempts": 1,
                        }
                        conn.send(reply)
                        conn.send(reply)  # at-least-once made literal
                        served += 1
                    # Hold the link until shutdown so dupes arrive.
                    while True:
                        message = conn.recv(timeout=5.0)
                        if message is None or (
                            message["type"] == "shutdown"
                        ):
                            return

            thread = threading.Thread(target=fake_worker, daemon=True)
            thread.start()
            results, leftover = self._run_collecting(coordinator, jobs)
        thread.join(timeout=5.0)
        assert sorted(results) == [0, 1, 2]
        assert leftover == set()
        # The last cell's duplicate may still be in flight when the
        # run loop exits, so only the first two are guaranteed seen.
        assert coordinator.stats.duplicates_dropped >= 2
        assert coordinator.stats.results == 3

    def test_silent_worker_expires_lease_then_quarantines(self):
        config = FabricConfig(
            lease_s=0.15,
            heartbeat_s=0.05,
            register_grace_s=2.0,
            degrade_after_s=5.0,
            max_redispatch=1,
        )
        stop = threading.Event()
        with FabricCoordinator(config) as coordinator:
            host, port = coordinator.address

            def mute_worker():
                # Registers, accepts every lease, never answers, never
                # heartbeats: a blackholed worker as seen by the
                # coordinator.
                with connect_framed(host, port) as conn:
                    conn.send({"type": "register", "name": "mute"})
                    while not stop.is_set():
                        conn.recv(timeout=0.2)

            thread = threading.Thread(target=mute_worker, daemon=True)
            thread.start()
            try:
                results, leftover = self._run_collecting(
                    coordinator, [(0, {"tag": 0})]
                )
            finally:
                stop.set()
        thread.join(timeout=5.0)
        assert leftover == set()
        assert results[0]["outcome"] == OUTCOME_PARTITION
        assert coordinator.stats.lease_expiries >= 1
        assert coordinator.stats.partition_quarantines == 1
        # The quarantine is completion, not success.
        assert coordinator.stats.results == 0

    def test_disconnect_requeues_for_local_execution(self):
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address

            def vanishing_worker():
                conn = connect_framed(host, port)
                conn.send({"type": "register", "name": "ghost"})
                assert conn.recv(timeout=5.0)["type"] == "welcome"
                while True:
                    message = conn.recv(timeout=5.0)
                    if message and message["type"] == "lease":
                        conn.close()  # crash holding the lease
                        return

            thread = threading.Thread(
                target=vanishing_worker, daemon=True
            )
            thread.start()
            results, leftover = self._run_collecting(
                coordinator, [(0, {"tag": 0})]
            )
        thread.join(timeout=5.0)
        # Nobody left to serve it: the cell comes back to the caller.
        assert leftover == {0}
        assert coordinator.stats.disconnect_requeues >= 1
        assert coordinator.stats.degraded

    def test_garbage_on_the_wire_is_a_crash_not_an_error(self):
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address

            def garbage_worker():
                conn = connect_framed(host, port)
                conn.send({"type": "register", "name": "noise"})
                assert conn.recv(timeout=5.0)["type"] == "welcome"
                conn.sock.sendall(b"\xff" * 64)  # not a frame
                time.sleep(0.2)
                conn.close()

            thread = threading.Thread(target=garbage_worker, daemon=True)
            thread.start()
            results, leftover = self._run_collecting(
                coordinator, [(0, {"tag": 0})]
            )
        thread.join(timeout=5.0)
        assert leftover == {0}  # degraded, never wedged or raised

    def test_wait_for_workers_defers_welcome_until_run(self):
        with FabricCoordinator(FAST_FABRIC) as coordinator:
            host, port = coordinator.address
            thread, stats = _thread_worker(
                host, port, "warm", execute=_stub_execute
            )
            assert coordinator.wait_for_workers(1, timeout_s=5.0) == 1
            results, leftover = self._run_collecting(
                coordinator, [(0, {"tag": 0}), (1, {"tag": 1})]
            )
        thread.join(timeout=5.0)
        assert leftover == set()
        assert results[0]["detail"] == "stub:0"
        assert coordinator.stats.workers_registered == 1


class TestFabricBackend:
    def test_loopback_campaign_byte_identical(self):
        spec = smoke_campaign()
        serial = run_campaign(spec, limit=4)
        coordinator = FabricCoordinator(
            FabricConfig(lease_s=30.0, heartbeat_s=0.5)
        )
        host, port = coordinator.address
        threads = [
            _thread_worker(host, port, f"w{i}")[0] for i in range(2)
        ]
        fabric = run_campaign(
            spec, limit=4, backend="fabric", fabric=coordinator
        )
        for thread in threads:
            thread.join(timeout=10.0)
        assert fabric.render() == serial.render()
        assert fabric.fabric is not None
        assert not fabric.fabric.degraded
        assert fabric.fabric.results == 4
        for record in fabric.records:
            assert record.result is None
            assert len(pickle.dumps(record)) < LEAN_RECORD_BYTES

    def test_no_workers_degrades_to_local_pool(self):
        spec = smoke_campaign()
        serial = run_campaign(spec, limit=2)
        fabric = run_campaign(
            spec,
            limit=2,
            backend="fabric",
            fabric=FabricConfig(register_grace_s=0.2),
        )
        assert fabric.render() == serial.render()
        assert fabric.fabric.degraded
        assert fabric.fabric.locally_executed == 2

    def test_listener_death_mid_campaign_degrades(self):
        # The coordinator's listener socket dies mid-campaign (fd
        # exhaustion, a stray close): already-connected workers keep
        # serving until they drop, nobody can reconnect, and the
        # campaign must finish by degrading to local execution — with
        # the report still byte-identical.
        import socket as socketlib

        spec = smoke_campaign()
        serial = run_campaign(spec, limit=6)
        coordinator = FabricCoordinator(
            FabricConfig(
                lease_s=0.5,
                heartbeat_s=0.05,
                register_grace_s=5.0,
                degrade_after_s=0.3,
                max_redispatch=1,
            )
        )
        host, port = coordinator.address
        thread, stats = _thread_worker(host, port, "w0", max_attempts=3)
        completed = 0

        def kill_listener_after_two(record):
            nonlocal completed
            completed += 1
            if completed != 2:
                return
            # Called from inside the run loop: kill the listener and
            # hang up on every worker.  shutdown() (not close()) so
            # the selector still reports the EOF and the coordinator
            # takes its normal drop path.
            coordinator._listener.close()
            for conn in list(coordinator._conns):
                conn.sock.shutdown(socketlib.SHUT_RDWR)

        fabric = run_campaign(
            spec,
            limit=6,
            backend="fabric",
            fabric=coordinator,
            on_cell=kill_listener_after_two,
        )
        thread.join(timeout=10.0)
        assert fabric.render() == serial.render()
        assert fabric.fabric.degraded
        assert fabric.fabric.results >= 2
        assert fabric.fabric.locally_executed >= 1
        assert (
            fabric.fabric.results + fabric.fabric.locally_executed >= 6
        )

    def test_unknown_backend_rejected(self):
        from repro.errors import ResilienceError

        with pytest.raises(ResilienceError, match="backend"):
            run_campaign(smoke_campaign(), limit=1, backend="carrier")


class TestChaosProxy:
    def _echo_server(self):
        import socket

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)

        def serve():
            while True:
                try:
                    sock, _ = listener.accept()
                except OSError:
                    return
                try:
                    while True:
                        data = sock.recv(65536)
                        if not data:
                            break
                        sock.sendall(data)
                except OSError:
                    pass
                finally:
                    sock.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, listener.getsockname()[:2]

    def test_passthrough_forwards_frames(self):
        listener, target = self._echo_server()
        try:
            with ChaosProxy(target, FaultPlan(kind="none")) as proxy:
                host, port = proxy.address
                with connect_framed(host, port) as conn:
                    conn.send({"n": 42})
                    assert conn.recv(timeout=5.0) == {"n": 42}
                assert proxy.stats.faults_injected == 0
                # The pipe bumps its counter after sendall, so the
                # echoed frame can land before the bump: poll briefly.
                deadline = time.monotonic() + 1.0
                while (
                    proxy.stats.frames_forwarded < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert proxy.stats.frames_forwarded >= 2
        finally:
            listener.close()

    def test_drop_everything_drops(self):
        listener, target = self._echo_server()
        try:
            plan = FaultPlan(kind="drop", rate=1.0, after_frames=0)
            with ChaosProxy(target, plan) as proxy:
                host, port = proxy.address
                with connect_framed(host, port) as conn:
                    conn.send({"n": 1})
                    assert conn.recv(timeout=0.3) is None
                assert proxy.stats.frames_dropped >= 1
        finally:
            listener.close()

    def test_duplicate_everything_duplicates(self):
        listener, target = self._echo_server()
        try:
            plan = FaultPlan(kind="duplicate", rate=1.0)
            with ChaosProxy(target, plan) as proxy:
                host, port = proxy.address
                with connect_framed(host, port) as conn:
                    conn.send({"n": 7})
                    # Up-pipe doubles it, echo returns two, down-pipe
                    # doubles each: four copies arrive.
                    got = [conn.recv(timeout=5.0) for _ in range(4)]
                assert got == [{"n": 7}] * 4
        finally:
            listener.close()

    def test_full_partition_blackholes_both_directions(self):
        # direction="both" is the hung-socket fault: the link stays
        # up but nothing crosses in either direction.
        listener, target = self._echo_server()
        try:
            plan = FaultPlan(
                kind="partition", direction="both", after_frames=0
            )
            with ChaosProxy(target, plan) as proxy:
                host, port = proxy.address
                with connect_framed(host, port) as conn:
                    conn.send({"n": 1})
                    assert conn.recv(timeout=0.3) is None
                assert proxy.stats.partitioned_frames >= 1
        finally:
            listener.close()

    def test_bad_plan_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultPlan(kind="gremlins")
        with pytest.raises(ValueError, match="direction"):
            FaultPlan(kind="partition", direction="sideways")


class TestReconnectBackoff:
    def test_deterministic_and_capped(self):
        delays = [reconnect_delay_s(7, "w1", a) for a in range(1, 12)]
        again = [reconnect_delay_s(7, "w1", a) for a in range(1, 12)]
        assert delays == again
        assert all(d <= 5.0 * 1.5 for d in delays)  # cap * max jitter

    def test_distinct_workers_decorrelate(self):
        assert reconnect_delay_s(7, "w1", 3) != reconnect_delay_s(
            7, "w2", 3
        )


class TestExitCodeContract:
    class _Report:
        def __init__(self, ok, complete):
            self.ok = ok
            self.complete = complete

    def test_mapping(self):
        assert chaos_exit_code(self._Report(True, True)) == 0
        assert chaos_exit_code(self._Report(False, True)) == 1
        assert chaos_exit_code(self._Report(False, False)) == 1
        assert (
            chaos_exit_code(self._Report(True, False)) == EXIT_QUARANTINED
        )

    def test_quarantined_campaign_exits_3(self, capsys):
        # A 1-cell campaign whose cell blows a microscopic deadline is
        # quarantined (timeout), so coverage was lost: exit 3, not 0.
        code = main(
            [
                "chaos",
                "run",
                "--smoke",
                "--cells",
                "1",
                "--deadline-s",
                "0.001",
                "--retries",
                "0",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_QUARANTINED

    def test_clean_smoke_cell_exits_0(self, capsys):
        code = main(["chaos", "run", "--smoke", "--cells", "1"])
        capsys.readouterr()
        assert code == 0

    def test_inproc_budget_is_a_usage_error(self, capsys):
        # In-process cells run no watchdog, so the campaign refuses a
        # deadline: one line on stderr and exit 2, not a traceback.
        code = main(
            [
                "chaos", "run", "--smoke", "--backend", "inproc",
                "--deadline-s", "1",
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("chaos run: backend='inproc'")
        assert "budget" in err and "Traceback" not in err

    def test_fabric_compiled_kernel_is_a_usage_error(self, capsys):
        import socket

        code = main(
            [
                "chaos", "run", "--smoke", "--backend", "fabric",
                "--kernel", "compiled",
            ]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert lines[-1].startswith("chaos run: backend='fabric'")
        assert "kernel='compiled'" in lines[-1]
        # The coordinator bound before the refusal and was closed: its
        # port can be bound again.
        address = lines[0].split("listening on ")[1].split()[0]
        host, port = address.rsplit(":", 1)
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind((host, int(port)))
        finally:
            probe.close()

    def test_worker_rejects_malformed_endpoint(self, capsys):
        for endpoint, message in [
            ("nonsense", "HOST:PORT"),
            ("127.0.0.1:99999", "port must be in 0-65535"),
            ("127.0.0.1:-1", "port must be in 0-65535"),
        ]:
            argv = ["worker", "--connect", endpoint, "--max-attempts", "1"]
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "run", "--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "75" in out and "3 = " in out and "2 = usage error" in out
