"""Fabric worker agent: ``python -m repro worker --connect HOST:PORT``.

A worker is the fabric's crash-prone helper: it dials the coordinator,
registers, and then serves leases — receive a cell, execute it, send
the result, heartbeat the lease the whole time.  Everything about it
is built for an unreliable link:

* **Reconnect with capped exponential backoff + deterministic
  jitter.**  The delay schedule is a pure function of ``(seed, worker
  name, attempt)`` — the same :class:`~repro.resilience.supervisor.
  RetryPolicy` arithmetic the supervised pool uses — so reconnect
  storms decorrelate across workers without losing reproducibility.
* **Heartbeats from a side thread.**  Cell execution is synchronous in
  the main loop (at most one lease is ever in flight per worker), and
  a daemon thread renews the lease every ``heartbeat_s`` so a
  long-running cell is never mistaken for a lost one.  The framed
  connection serializes sends, so the two threads share the socket
  safely; on disconnect the thread is joined (with a forced socket
  shutdown as the wake-up of last resort), so a lease-holding
  heartbeat can never outlive its connection.
* **Results are never lost, only late.**  The worker keeps every
  result it sends until the coordinator acks it, which the coordinator
  does once the result is recorded and journaled.  If the link dies
  first, each unacked result goes into a local bounded spool
  (:class:`ResultSpool`, optionally disk-backed) and is replayed —
  flagged ``"spooled": true`` — right after the next welcome.  A send
  into a freshly killed coordinator's socket usually succeeds, so only
  the ack tells delivery apart from loss.  The coordinator's
  first-result-wins dedup makes the replay idempotent, so a
  coordinator outage loses zero completed work.
* **Graceful drain on SIGTERM.**  With a ``drain`` event set (the CLI
  wires SIGTERM to it), the worker finishes its in-flight cell, waits
  up to one lease period for the acks of the results it sent, flushes
  the spool, and exits 0.

The agent is deliberately stateless across connections: the campaign
fingerprint in the coordinator's welcome is remembered only to refuse
cross-campaign confusion after a reconnect lands on a *different*
coordinator behind the same address.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .supervisor import RetryPolicy
from .transport import (
    FrameConnection,
    TransportClosed,
    TransportError,
    connect_framed,
)

#: Reconnect backoff: same deterministic-jitter arithmetic as job
#: retries, but sized for link flaps rather than cell re-runs.
RECONNECT_POLICY = RetryPolicy(
    max_retries=0,  # unused for reconnects; delay_s() is what we share
    backoff_base_s=0.1,
    backoff_factor=2.0,
    backoff_cap_s=5.0,
    jitter=0.5,
)

#: Extra reconnect attempts granted to a draining worker whose spool is
#: not yet empty: enough to ride out a coordinator restart, small
#: enough that SIGTERM still means "exit soon".
DRAIN_FLUSH_ATTEMPTS = 5


def reconnect_delay_s(seed: int, name: str, attempt: int) -> float:
    """Delay before reconnect ``attempt`` — a pure function of
    ``(seed, worker name, attempt)``, capped exponential with
    deterministic jitter (tested across process boundaries)."""
    policy = dataclasses.replace(RECONNECT_POLICY, seed=seed)
    # RetryPolicy.delay_s seeds its jitter on (seed, job, attempt);
    # reuse it with a stable per-name pseudo-index so distinct workers
    # get distinct-but-reproducible schedules.
    job_index = sum(name.encode("utf-8")) % 1_000_003
    return policy.delay_s(job_index, min(attempt, 16))


@dataclass
class WorkerStats:
    """Counters mirrored by tests and the chaos drill."""

    connects: int = 0
    reconnects: int = 0
    cells_executed: int = 0
    results_sent: int = 0
    results_lost: int = 0
    results_spooled: int = 0
    spool_replayed: int = 0


class ResultSpool:
    """Bounded buffer of completed-but-undelivered result messages.

    Disk-backed when given a ``path`` (JSONL, fsynced per append, so a
    worker that is itself SIGKILLed mid-outage hands its finished work
    to its successor), in-memory otherwise.  Each record is tagged with
    the campaign fingerprint it belongs to; :meth:`replay` only
    resends records for the campaign the new welcome names and then
    clears the spool — stale records from dead campaigns are dropped
    with it.  The bound drops the *oldest* record on overflow (the
    coordinator has had the longest to redispatch it)."""

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        max_records: int = 1024,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.max_records = max(1, max_records)
        self.dropped = 0
        self._records: list[dict[str, Any]] = []
        if self.path is not None and self.path.exists():
            self._records = self._load()

    def _load(self) -> list[dict[str, Any]]:
        records: list[dict[str, Any]] = []
        assert self.path is not None
        for raw in self.path.read_bytes().splitlines():
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue  # torn tail from a crashed predecessor
            if isinstance(record, dict) and "result" in record:
                records.append(record)
        return records[-self.max_records:]

    def _persist(self) -> None:
        if self.path is None:
            return
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(
                    json.dumps(
                        record, ensure_ascii=False, separators=(",", ":")
                    )
                    + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self._records)

    def results(self, fingerprint: str | None = None) -> list[dict[str, Any]]:
        """The spooled result messages (optionally restricted to one
        campaign), oldest first."""
        return [
            dict(record["result"])
            for record in self._records
            if fingerprint is None
            or record.get("fingerprint", "") == fingerprint
        ]

    def indices(self, fingerprint: str | None = None) -> list[int]:
        """Cell indices with a spooled result (optionally restricted
        to one campaign) — what a re-registering worker claims as
        ``held_leases``."""
        return sorted(
            int(result.get("index", -1))
            for result in self.results(fingerprint)
        )

    def put(self, fingerprint: str, result: Mapping[str, Any]) -> None:
        """Durably buffer one undelivered result."""
        self._records.append(
            {"fingerprint": fingerprint, "result": dict(result)}
        )
        while len(self._records) > self.max_records:
            self._records.pop(0)
            self.dropped += 1
        self._persist()

    def replay(
        self,
        conn: FrameConnection,
        fingerprint: str,
        *,
        worker: str = "",
    ) -> int:
        """Resend every spooled result for ``fingerprint`` (flagged
        ``"spooled": true`` so the coordinator can count deliveries),
        then clear the spool.  Raises :class:`TransportClosed` if the
        link dies mid-replay — records are kept, and the resend after
        the next reconnect is deduplicated coordinator-side."""
        sent = 0
        for message in self.results(fingerprint):
            message["spooled"] = True
            if worker:
                message["worker"] = worker
            conn.send(message)
            sent += 1
        self.clear()
        return sent

    def clear(self) -> None:
        self._records = []
        self._persist()


class _Heartbeater:
    """Daemon thread renewing the in-flight lease every period."""

    def __init__(self, conn: FrameConnection, period_s: float) -> None:
        self._conn = conn
        self._period_s = max(0.05, period_s)
        self._lock = threading.Lock()
        self._leases: set[int] = set()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, name="fabric-heartbeat", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def hold(self, index: int) -> None:
        with self._lock:
            self._leases.add(index)

    def release(self, index: int) -> None:
        with self._lock:
            self._leases.discard(index)

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float) -> bool:
        """Wait for the beat thread to exit; True when it did."""
        if not self._thread.is_alive():
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def _beat(self) -> None:
        while not self._stop.wait(self._period_s):
            with self._lock:
                leases = sorted(self._leases)
            if not leases:
                # Idle workers stay silent: leases are what heartbeats
                # renew, and unread idle chatter in the coordinator's
                # buffer can turn its close into a RST that destroys
                # the queued shutdown frame.
                continue
            try:
                self._conn.send({"type": "heartbeat", "leases": leases})
            except TransportClosed:
                return  # main loop notices on its next recv


def _execute_cell(
    cell_json: Mapping[str, Any], strict_traces: bool
) -> dict[str, Any]:
    """Run one cell to a result message: the campaign job's verdict
    (imports deferred so the resilience layer keeps no import-time
    dependency on the chaos engine).  A lease of a stabilization
    family member carries its siblings' query logs under ``"seen"``
    and whether to log its own queries under ``"log"``; the result
    then carries the cell's own log (see
    :func:`~repro.chaos.campaign._run_cell_guarded`)."""
    from ..chaos.campaign import CellSpec, _run_cell_guarded

    verdict = _run_cell_guarded(
        (
            CellSpec.from_json(cell_json),
            strict_traces,
            "interp",
            cell_json.get("seen"),
            bool(cell_json.get("log")),
        )
    )
    return {"type": "result", "index": -1, **verdict}  # caller sets index


def serve_connection(
    conn: FrameConnection,
    stats: WorkerStats,
    *,
    execute: Callable[[Mapping[str, Any], bool], dict[str, Any]] =
        _execute_cell,
    expected_fingerprint: str | None = None,
    spool: ResultSpool | None = None,
    drain: threading.Event | None = None,
    worker_name: str = "",
) -> tuple[str, str]:
    """Serve leases on one established connection until shutdown, link
    death, or drain.  Returns ``(reason, campaign fingerprint)`` where
    ``reason`` is ``"shutdown"`` (the coordinator said we are done) or
    ``"drain"`` (our SIGTERM said so; the worker takes no new lease and
    waits up to one lease period for the acks of results it sent).

    Every result sent here, replayed ones included, is held until its
    ack arrives.  When the link dies, the unacked results go to the
    spool (with no spool they are counted lost, and the coordinator
    redispatches their cells)."""
    welcome = conn.recv(timeout=10.0)
    if welcome is None or welcome.get("type") != "welcome":
        raise TransportClosed("no welcome from coordinator")
    fingerprint = str(welcome.get("fingerprint", ""))
    if expected_fingerprint is not None and fingerprint and (
        fingerprint != expected_fingerprint
    ):
        raise TransportError(
            "coordinator fingerprint changed across reconnect "
            "(different campaign behind the same address)"
        )
    strict_traces = bool(welcome.get("strict_traces", False))
    heartbeat_s = float(welcome.get("heartbeat_s", 1.0))
    lease_s = float(welcome.get("lease_s", 5.0))
    unacked: dict[int, dict[str, Any]] = {}
    heartbeater = _Heartbeater(conn, heartbeat_s)
    try:
        if spool is not None and len(spool):
            # Flush finished work from the last outage before taking
            # new leases; the coordinator dedups, so this is safe to
            # repeat.  A replay cut short keeps its records in the
            # spool, so only a complete one is held for acks.
            replayed = spool.results(fingerprint)
            stats.spool_replayed += spool.replay(
                conn, fingerprint, worker=worker_name
            )
            unacked.update((int(r["index"]), r) for r in replayed)
        heartbeater.start()
        drain_by: float | None = None
        while True:
            if drain is not None and drain.is_set():
                if drain_by is None:
                    drain_by = time.monotonic() + lease_s
                if not unacked or time.monotonic() >= drain_by:
                    return "drain", fingerprint
            message = conn.recv(timeout=heartbeat_s)
            if message is None:
                continue  # idle tick; heartbeater keeps us visible
            kind = message.get("type")
            if kind == "ack":
                unacked.pop(int(message.get("index", -1)), None)
                continue
            if kind == "shutdown":
                return "shutdown", fingerprint
            if kind != "lease" or drain_by is not None:
                continue
            index = int(message["index"])
            heartbeater.hold(index)
            try:
                result = execute(message["cell"], strict_traces)
            finally:
                heartbeater.release(index)
            result["index"] = index
            stats.cells_executed += 1
            unacked[index] = result
            conn.send(result)
            stats.results_sent += 1
    except (TransportClosed, TransportError):
        # The execution is not wasted science: spool what the
        # coordinator never acked, for replay after the next welcome
        # (or, with no spool, rely on the coordinator redispatching the
        # deterministic cells).  Either way this link is done.
        for result in unacked.values():
            if spool is not None:
                spool.put(fingerprint, result)
                stats.results_spooled += 1
            else:
                stats.results_lost += 1
        raise
    finally:
        # The heartbeat must never outlive the connection: a zombie
        # beater holding a lease would keep renewing it against a
        # *future* connection's campaign.  stop() covers the sleeping
        # thread; the forced shutdown covers one wedged in sendall
        # against a blackholed peer.
        heartbeater.stop()
        if not heartbeater.join(timeout=2.0):
            conn.shutdown()
            heartbeater.join(timeout=2.0)


def run_worker(
    host: str,
    port: int,
    *,
    name: str | None = None,
    seed: int = 0,
    max_attempts: int = 30,
    stats: WorkerStats | None = None,
    execute: Callable[[Mapping[str, Any], bool], dict[str, Any]] =
        _execute_cell,
    log: Callable[[str], None] | None = None,
    spool: ResultSpool | None = None,
    spool_path: str | Path | None = None,
    drain: threading.Event | None = None,
) -> int:
    """Worker main loop: connect/serve/reconnect until the coordinator
    shuts us down, SIGTERM drains us (both exit 0), or
    ``max_attempts`` consecutive failed connection attempts (exit 1).

    The spool (disk-backed when ``spool_path`` is given, in-memory
    otherwise) survives link outages; a draining worker with a
    non-empty spool gets :data:`DRAIN_FLUSH_ATTEMPTS` reconnect
    attempts to deliver it before exiting anyway (a disk spool then
    hands the results to the next worker on the same path).
    """
    stats = stats if stats is not None else WorkerStats()
    name = name or f"worker-{os.getpid()}"
    say = log or (lambda message: None)
    spool = spool if spool is not None else ResultSpool(spool_path)
    incarnation = 0
    failures = 0
    drain_failures = 0
    fingerprint: str | None = None

    def drained() -> bool:
        return drain is not None and drain.is_set()

    while True:
        if drained() and not len(spool):
            say(f"{name}: drained (spool empty); exiting")
            return 0
        try:
            conn = connect_framed(host, port, timeout=5.0)
        except OSError as exc:
            if drained():
                drain_failures += 1
                if drain_failures >= DRAIN_FLUSH_ATTEMPTS:
                    say(
                        f"{name}: draining with {len(spool)} spooled "
                        f"result(s) undeliverable after "
                        f"{drain_failures} attempts; exiting"
                    )
                    return 0
            failures += 1
            if failures >= max_attempts:
                say(
                    f"{name}: giving up after {failures} failed "
                    f"connection attempts ({exc})"
                )
                return 1
            delay = reconnect_delay_s(seed, name, failures)
            say(
                f"{name}: connect to {host}:{port} failed ({exc}); "
                f"retrying in {delay:.2f}s"
            )
            time.sleep(delay)
            continue
        failures = 0
        stats.connects += 1
        if incarnation > 0:
            stats.reconnects += 1
        try:
            with conn:
                conn.send(
                    {
                        "type": "register",
                        "name": name,
                        "incarnation": incarnation,
                        "pid": os.getpid(),
                        # Spooled results are leases we still hold:
                        # claiming them stops the coordinator from
                        # redispatching cells whose results arrive in
                        # the replay right after this welcome.
                        "held_leases": spool.indices(fingerprint),
                    }
                )
                reason, fingerprint = serve_connection(
                    conn,
                    stats,
                    execute=execute,
                    expected_fingerprint=fingerprint,
                    spool=spool,
                    drain=drain,
                    worker_name=name,
                )
                if reason == "shutdown":
                    say(
                        f"{name}: coordinator shutdown after "
                        f"{stats.cells_executed} cell(s)"
                    )
                    return 0
                if reason == "drain":
                    say(
                        f"{name}: drained after "
                        f"{stats.cells_executed} cell(s) "
                        f"(spool flushed); exiting"
                    )
                    return 0
        except TransportClosed as exc:
            say(f"{name}: link lost ({exc}); reconnecting")
        except TransportError as exc:
            say(f"{name}: protocol error ({exc}); reconnecting fresh")
            fingerprint = None
        incarnation += 1
        time.sleep(reconnect_delay_s(seed, name, 1))
