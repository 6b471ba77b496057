"""Fault-tolerant campaign fabric: lease-based dispatch over sockets.

This is the multi-host sibling of :class:`~repro.resilience.supervisor.
SupervisedPool`: a coordinator shards campaign cells across remote
worker agents (:mod:`repro.resilience.worker`) over the framed
transport (:mod:`repro.resilience.transport`), and the whole exchange
is engineered so that *message loss, delay, duplication, torn frames,
one-way partitions, and worker crashes are all survivable* — the
report a faulted fabric run renders is byte-identical to a serial
in-process run.  That is the same discipline the paper demands of
C-processes computing with crash-prone S-process advice: the
computation (here, the campaign verdict) must not be able to tell
whether its helpers misbehaved.

The mechanism is **at-least-once dispatch with lease-based ownership**:

* Every cell is *leased* to exactly one worker with a deadline.  The
  worker's heartbeats renew the lease; a lease that expires (lost
  dispatch frame, partitioned worker, wedged host) silently returns
  the cell to the pending queue for redispatch.
* A worker disconnect (crash, torn frame, network reset) immediately
  requeues its leased cells — faster than waiting out the deadline.
* Results are **deduplicated idempotently**: cells are pure functions
  of their spec, so the first result for an index wins, later
  duplicates (a retried cell whose first result frame was only
  delayed, not lost) are counted and dropped, and the journal layer's
  :meth:`~repro.resilience.journal.CampaignJournal.append_idempotent`
  keeps the durable record single-entry too.
* Every result frame is **acked** (``{"type": "ack", "index": i}``)
  once the result is recorded and journaled, duplicates included.  A
  worker holds each result until its ack and spools the unacked ones
  when the link dies, so a coordinator killed between reading a
  result and journaling it gets the result replayed after its
  restart instead of redispatching the cell.
* A cell redispatched more than ``max_redispatch`` times without ever
  producing a result is *quarantined* with outcome ``"partition"``
  instead of looping forever — surfaced in the campaign report like
  every other quarantine kind, never a hang.

Degraded mode: a fabric with no workers is just a slow way to spell
"local".  If no worker registers within ``register_grace_s``, or every
worker vanishes mid-campaign for ``degrade_after_s``, the coordinator
returns the unfinished cells to the caller, which runs them through
the local :class:`~repro.resilience.supervisor.SupervisedPool` — the
campaign completes either way, and ``FabricStats.degraded`` records
that it happened.

Crash recovery: when :meth:`FabricCoordinator.run` is given a journal,
every lease grant, lease expiry, and bench decision is appended to it
as a control-plane event alongside the cell outcomes.  A coordinator
that is SIGKILLed mid-campaign can therefore be restarted with
``run_campaign(..., resume=J)``: :func:`~repro.resilience.journal.
recover_control_state` rebuilds the lease table and suspicion state
from the log, journaled cells are never redispatched, and leases that
were outstanding at the crash get a grace window in which their
holders may reconnect (``register`` with ``held_leases``) and either
be re-admitted or deliver the finished result from their local spool
(:class:`~repro.resilience.worker.ResultSpool`) — so a coordinator
outage loses zero completed work.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..errors import ResilienceError
from .journal import CampaignJournal, ControlPlaneState
from .transport import FrameDecoder, TransportError, encode_frame

#: Quarantine outcome for a cell that was redispatched past the budget
#: without any worker ever returning a result (see OUTCOME_PARTITION in
#: :mod:`repro.chaos.campaign`, which re-exports the triage).
PARTITION_KIND = "partition"


@dataclass(frozen=True)
class FabricConfig:
    """Tuning knobs of one coordinator.

    Attributes:
        host: listen address (loopback by default; bind ``0.0.0.0`` to
            accept remote workers).
        port: listen port; 0 picks an ephemeral port (see
            :attr:`FabricCoordinator.address`).
        lease_s: ownership deadline per dispatched cell.  Heartbeats
            renew it, so it bounds *silence*, not cell runtime; it only
            expires when the dispatch or every subsequent heartbeat was
            lost.
        heartbeat_s: period at which workers are told to heartbeat.
            Keep several heartbeats inside one lease so a single lost
            frame never expires a healthy lease.
        register_grace_s: how long to wait for the first worker before
            degrading to local execution.
        degrade_after_s: mid-campaign all-workers-gone window after
            which the remaining cells are returned for local execution.
        max_redispatch: redispatch budget per cell before it is
            quarantined as ``"partition"``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    lease_s: float = 5.0
    heartbeat_s: float = 1.0
    register_grace_s: float = 5.0
    degrade_after_s: float = 15.0
    max_redispatch: int = 8


@dataclass
class FabricStats:
    """What the fault machinery actually absorbed during one run.

    The report stays byte-identical under faults *by design*, so the
    evidence that faults happened (and were survived) lives here; the
    chaos drill asserts on these counters.
    """

    workers_registered: int = 0
    reconnects: int = 0
    dispatches: int = 0
    results: int = 0
    duplicates_dropped: int = 0
    lease_expiries: int = 0
    disconnect_requeues: int = 0
    partition_quarantines: int = 0
    degraded: bool = False
    locally_executed: int = 0
    resumed: bool = False
    recovered_cells: int = 0
    recovered_leases: int = 0
    readmitted_leases: int = 0
    spooled_results: int = 0

    def summary(self) -> str:
        mode = "degraded to local pool" if self.degraded else "fabric"
        if self.resumed:
            mode += (
                f" (resumed: {self.recovered_cells} journaled cell(s) "
                f"recovered, {self.recovered_leases} lease(s) "
                f"outstanding, {self.readmitted_leases} readmitted)"
            )
        return (
            f"{mode}: {self.results} results from "
            f"{self.workers_registered} worker registration(s) "
            f"({self.reconnects} reconnect(s)), "
            f"{self.dispatches} dispatches, "
            f"{self.lease_expiries} lease expiries, "
            f"{self.disconnect_requeues} disconnect requeues, "
            f"{self.duplicates_dropped} duplicate result(s) dropped, "
            f"{self.partition_quarantines} partition quarantine(s), "
            f"{self.spooled_results} spool-replayed result(s), "
            f"{self.locally_executed} cell(s) executed locally"
        )


@dataclass
class _Lease:
    index: int
    conn: "_WorkerConn"
    expires_at: float


class _WorkerConn:
    """Coordinator-side state of one accepted connection.

    ``suspicion``/``penalty_until`` are the coordinator's own little
    failure detector: a worker whose lease expires is benched for an
    exponentially growing window before it may hold leases again, so a
    one-way-partitioned worker (always "idle", never delivering) stops
    attracting redispatches and the healthy workers absorb the load.
    A delivered result rehabilitates it instantly — eventually-accurate
    in the detector sense: suspicion is temporary, wrongly-suspected
    workers get their work back.
    """

    __slots__ = (
        "sock",
        "decoder",
        "name",
        "registered",
        "leases",
        "peer",
        "suspicion",
        "penalty_until",
    )

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.name: str | None = None
        self.registered = False
        self.leases: set[int] = set()
        self.peer = peer
        self.suspicion = 0
        self.penalty_until = 0.0

    def penalize(self, now: float, lease_s: float) -> None:
        self.suspicion += 1
        self.penalty_until = now + lease_s * min(
            2.0 ** (self.suspicion - 1), 16.0
        )

    def rehabilitate(self) -> None:
        self.suspicion = 0
        self.penalty_until = 0.0

    def send(self, message: Mapping[str, Any]) -> bool:
        """Best-effort framed send; False means the peer is dead (the
        reader side will reap it)."""
        try:
            self.sock.sendall(encode_frame(message))
            return True
        except (OSError, TransportError):
            return False


@dataclass
class _CellState:
    index: int
    payload: Mapping[str, Any]  # the lease's cell payload
    dispatches: int = 0


@dataclass
class _AwaitingLease:
    """A lease recovered from the journal whose holder has not yet
    reconnected.  The cell is withheld from dispatch until the grace
    deadline: its owner may still be computing it and will either
    re-register with ``held_leases`` (re-binding the lease) or deliver
    the finished result from its spool."""

    worker: str
    expires_at: float  # monotonic


class FabricCoordinator:
    """Shard a list of campaign cells across socket-connected workers.

    Bind happens in the constructor so callers (drills, benches, the
    CLI) can learn :attr:`address` and point workers or a chaos proxy
    at it before :meth:`run` starts serving.
    """

    def __init__(self, config: FabricConfig | None = None) -> None:
        self.config = config or FabricConfig()
        self.stats = FabricStats()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        try:
            self._listener.bind((self.config.host, self.config.port))
        except OSError as exc:
            self._listener.close()
            raise ResilienceError(
                f"fabric cannot bind "
                f"{self.config.host}:{self.config.port}: {exc}"
            ) from exc
        self._listener.listen(16)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._conns: list[_WorkerConn] = []
        self._seen_names: set[str] = set()
        self._welcome: dict[str, Any] = {"type": "welcome"}
        self._deferred: list[tuple[_WorkerConn, Mapping[str, Any]]] = []
        self._closed = False
        self._journal: CampaignJournal | None = None
        self._recovered_suspicion: dict[str, tuple[int, float]] = {}

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            conn.send({"type": "shutdown", "reason": "coordinator closed"})
        # Drain before closing: closing a socket with unread received
        # bytes (a heartbeat that raced the shutdown) sends RST, which
        # destroys the queued shutdown frame — and the worker would
        # treat the campaign's end as a link fault and reconnect-spin.
        deadline = time.monotonic() + 0.25
        while self._conns and time.monotonic() < deadline:
            for key, _ in self._selector.select(timeout=0.05):
                if key.fileobj is self._listener:
                    continue
                conn = key.data
                try:
                    if not conn.sock.recv(65536):
                        self._drop(conn, requeue_into=None)
                except OSError:
                    self._drop(conn, requeue_into=None)
        for conn in list(self._conns):
            self._drop(conn, requeue_into=None)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):  # pragma: no cover
            pass
        self._listener.close()
        self._selector.close()

    def __enter__(self) -> "FabricCoordinator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def wait_for_workers(self, count: int, timeout_s: float = 30.0) -> int:
        """Block until ``count`` workers have dialed in and sent their
        registration (or ``timeout_s`` passes); returns how many did.

        Registrations collected here are *deferred* — the welcome is
        only sent at the start of :meth:`run`, which knows the campaign
        metadata (fingerprint, ``strict_traces``) the welcome must
        carry.  This is a warm-up hook: benches and drills use it to
        keep worker interpreter start-up out of their timed region.
        Workers wait up to 10s for their welcome, so call :meth:`run`
        promptly afterwards.
        """
        deadline = time.monotonic() + timeout_s

        def registered() -> int:
            return sum(
                1
                for _, message in self._deferred
                if message.get("type") == "register"
            )

        while registered() < count and time.monotonic() < deadline:
            for key, _ in self._selector.select(timeout=0.05):
                if key.fileobj is self._listener:
                    self._accept()
                    continue
                conn: _WorkerConn = key.data
                try:
                    data = conn.sock.recv(65536)
                except BlockingIOError:  # pragma: no cover
                    continue
                except OSError:
                    data = b""
                if not data:
                    self._drop(conn, requeue_into=None)
                    continue
                try:
                    messages = conn.decoder.feed(data)
                except TransportError:
                    self._drop(conn, requeue_into=None)
                    continue
                self._deferred.extend(
                    (conn, message) for message in messages
                )
        return registered()

    # -- the dispatch loop -----------------------------------------------

    def run(
        self,
        jobs: Sequence[tuple[int, Mapping[str, Any]]],
        record_result: Callable[[int, Mapping[str, Any]], None],
        *,
        campaign: str = "",
        fingerprint: str = "",
        strict_traces: bool = False,
        journal: CampaignJournal | None = None,
        recovered: ControlPlaneState | None = None,
    ) -> set[int]:
        """Drive ``jobs`` (``(index, cell payload)`` pairs) to
        completion; ``record_result`` fires once per index with the
        worker's result message (idempotent dedup is done here).

        A cell payload is what the lease frame carries under
        ``"cell"``: the cell spec's JSON, plus, for a member of a
        stabilization family, its siblings' query logs under
        ``"seen"`` and whether to log its own under ``"log"`` (see
        :func:`~repro.chaos.campaign.run_campaign`).  A payload is
        encoded when its lease is sent, so a list it holds carries
        whatever the caller had appended to it by then; jobs are
        leased in the order given.

        When ``journal`` is given, lease grants/expiries and bench
        decisions are appended to it as control-plane events, making
        this run crash-recoverable.  ``recovered`` (from
        :func:`~repro.resilience.journal.recover_control_state`) starts
        the run in recovery mode: leases that were outstanding at the
        crash get one fresh lease window of grace in which their
        holders may reconnect and re-claim them (``held_leases``) or
        deliver spooled results before the cells are requeued.

        Returns the indices that were **not** completed because the
        fabric degraded (no workers, or all workers lost past the
        window) — the caller is expected to run those locally.  Cells
        quarantined as ``"partition"`` *are* completed (their record
        is the quarantine) and are not returned.
        """
        cfg = self.config
        cells = {
            index: _CellState(index, payload) for index, payload in jobs
        }
        leases: dict[int, _Lease] = {}
        done: set[int] = set()
        self._journal = journal
        awaiting: dict[int, _AwaitingLease] = {}
        if recovered is not None:
            self.stats.resumed = True
            self.stats.recovered_cells = len(recovered.completed)
            grace = time.monotonic() + cfg.lease_s
            for index, note in recovered.leases.items():
                if index in cells:
                    awaiting[index] = _AwaitingLease(note.worker, grace)
            self.stats.recovered_leases = len(awaiting)
            self._recovered_suspicion = dict(recovered.suspicion)
        pending: deque[int] = deque(
            index for index, _ in jobs if index not in awaiting
        )
        self._welcome = {
            "type": "welcome",
            "campaign": campaign,
            "fingerprint": fingerprint,
            "strict_traces": strict_traces,
            "heartbeat_s": cfg.heartbeat_s,
            "lease_s": cfg.lease_s,
        }

        def finish(index: int, message: Mapping[str, Any]) -> bool:
            """Idempotent result sink: first result wins, duplicates
            (redispatched cells whose original result was delayed, not
            lost) are counted and dropped.  True when ``message`` was
            the index's first result."""
            if message.get("spooled"):
                # Counted before dedup: the vacuity check is "zero
                # spooled results *lost*", and a spool replay that
                # arrives after a redispatch already finished the cell
                # was still delivered, not lost.
                self.stats.spooled_results += 1
                self._journal_event(
                    {
                        "kind": "spool",
                        "index": index,
                        "worker": str(message.get("worker", "")),
                    }
                )
            if index in done:
                self.stats.duplicates_dropped += 1
                return False
            done.add(index)
            awaiting.pop(index, None)
            lease = leases.pop(index, None)
            if lease is not None:
                lease.conn.leases.discard(index)
            record_result(index, message)
            return True

        # Replay registrations parked by wait_for_workers(), now that
        # the welcome carries the real campaign metadata.
        deferred, self._deferred = self._deferred, []
        for conn, message in deferred:
            if conn in self._conns:
                self._handle(conn, message, cells, leases, awaiting, finish)

        started_at = time.monotonic()
        last_worker_at: float | None = None
        while len(done) < len(cells):
            now = time.monotonic()
            if self._workers():
                last_worker_at = now

            # Degrade rather than hang: nobody ever came, or everybody
            # left and stayed gone.
            if last_worker_at is None:
                if now - started_at >= cfg.register_grace_s:
                    break
            elif (
                not self._workers()
                and now - last_worker_at >= cfg.degrade_after_s
            ):
                break

            # Lease sweep: silence past the deadline returns the cell
            # and benches the silent worker (suspicion grows, so a
            # blackholed worker stops attracting redispatches).
            for index, lease in list(leases.items()):
                if lease.expires_at > now:
                    continue
                self.stats.lease_expiries += 1
                lease.conn.leases.discard(index)
                name = lease.conn.name or lease.conn.peer
                self._journal_event(
                    {"kind": "expiry", "index": index, "worker": name}
                )
                lease.conn.penalize(now, cfg.lease_s)
                self._journal_event(
                    {
                        "kind": "bench",
                        "worker": name,
                        "suspicion": lease.conn.suspicion,
                        "penalty_until_unix": time.time()
                        + (lease.conn.penalty_until - now),
                    }
                )
                del leases[index]
                self._requeue(cells[index], pending, finish)

            # Recovered-lease sweep: an awaiting holder that never came
            # back within its grace window forfeits the cell.
            for index, note in list(awaiting.items()):
                if note.expires_at > now or index in done:
                    continue
                del awaiting[index]
                self.stats.lease_expiries += 1
                self._journal_event(
                    {
                        "kind": "expiry",
                        "index": index,
                        "worker": note.worker,
                    }
                )
                self._requeue(cells[index], pending, finish)

            self._dispatch(cells, pending, leases, done, now)
            self._pump(cells, pending, leases, awaiting, finish, timeout=0.05)

        leftover = {
            index
            for index in cells
            if index not in done
        }
        if leftover:
            self.stats.degraded = True
            self.stats.locally_executed = len(leftover)
        return leftover

    # -- helpers -----------------------------------------------------------

    def _workers(self) -> list[_WorkerConn]:
        return [conn for conn in self._conns if conn.registered]

    def _journal_event(self, record: Mapping[str, Any]) -> None:
        """Durably log one control-plane event, when journaling."""
        if self._journal is not None:
            self._journal.append_event(record)

    def _requeue(
        self,
        cell: _CellState,
        pending: deque[int],
        finish: Callable[[int, Mapping[str, Any]], bool],
    ) -> None:
        """Return a lost cell to the queue, or quarantine it once the
        redispatch budget is spent (a cell that never comes back is a
        partitioned/blackholed cell, and the report must say so rather
        than the campaign hanging)."""
        if cell.dispatches > self.config.max_redispatch:
            self.stats.partition_quarantines += 1
            finish(
                cell.index,
                {
                    "type": "result",
                    "index": cell.index,
                    "outcome": PARTITION_KIND,
                    "detail": (
                        f"leased {cell.dispatches} times without a "
                        f"result (lost to partition or blackholed "
                        f"workers); redispatch budget "
                        f"{self.config.max_redispatch} exhausted"
                    ),
                    "steps": 0,
                    "attempts": cell.dispatches,
                },
            )
        else:
            pending.append(cell.index)

    def _dispatch(
        self,
        cells: Mapping[int, _CellState],
        pending: deque[int],
        leases: dict[int, _Lease],
        done: set[int],
        now: float,
    ) -> None:
        """Hand each idle, unsuspected registered worker one cell."""
        idle = deque(
            conn
            for conn in self._workers()
            if not conn.leases and conn.penalty_until <= now
        )
        while idle and pending:
            index = pending.popleft()
            if index in done or index in leases:
                continue
            conn = idle.popleft()
            cell = cells[index]
            cell.dispatches += 1
            self.stats.dispatches += 1
            # Journal the grant *before* the send: recovery must never
            # under-count outstanding leases, only over-count (an
            # over-counted lease merely waits out its grace window).
            self._journal_event(
                {
                    "kind": "lease",
                    "index": index,
                    "worker": conn.name or conn.peer,
                    "deadline_unix": time.time() + self.config.lease_s,
                }
            )
            sent = conn.send(
                {
                    "type": "lease",
                    "index": index,
                    "cell": dict(cell.payload),
                    "lease_s": self.config.lease_s,
                }
            )
            # Lease it even when the send failed: the reaper will
            # requeue on disconnect, and the lease keeps accounting
            # single-owner in the meantime.
            conn.leases.add(index)
            leases[index] = _Lease(index, conn, now + self.config.lease_s)
            if not sent:
                idle = deque(c for c in idle if c is not conn)

    def _pump(
        self,
        cells: Mapping[int, _CellState],
        pending: deque[int],
        leases: dict[int, _Lease],
        awaiting: dict[int, _AwaitingLease],
        finish: Callable[[int, Mapping[str, Any]], bool],
        *,
        timeout: float,
    ) -> None:
        """One selector tick: accept, read, route messages."""
        for key, _ in self._selector.select(timeout):
            if key.fileobj is self._listener:
                self._accept()
                continue
            conn: _WorkerConn = key.data
            try:
                data = conn.sock.recv(65536)
            except BlockingIOError:  # pragma: no cover - spurious wake
                continue
            except OSError:
                data = b""
            if not data:
                self._drop(conn, requeue_into=(cells, pending, finish))
                continue
            try:
                messages = conn.decoder.feed(data)
            except TransportError:
                # Garbage on the wire (torn/corrupt frame): treat the
                # connection as crashed; the worker will reconnect.
                self._drop(conn, requeue_into=(cells, pending, finish))
                continue
            for message in messages:
                self._handle(conn, message, cells, leases, awaiting, finish)

    def _accept(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConn(sock, f"{peer[0]}:{peer[1]}")
            self._conns.append(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drop(
        self,
        conn: _WorkerConn,
        *,
        requeue_into: (
            tuple[
                Mapping[int, _CellState],
                deque[int],
                Callable[[int, Mapping[str, Any]], bool],
            ]
            | None
        ),
    ) -> None:
        """Reap a dead connection; requeue its leased cells at once."""
        if conn not in self._conns:
            return
        self._conns.remove(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if requeue_into is None:
            return
        cells, pending, finish = requeue_into
        for index in sorted(conn.leases):
            self.stats.disconnect_requeues += 1
            # Release the grant in the log too: recovery treats an
            # unmatched grant as still-outstanding.
            self._journal_event(
                {
                    "kind": "expiry",
                    "index": index,
                    "worker": conn.name or conn.peer,
                }
            )
            self._requeue(cells[index], pending, finish)
        conn.leases.clear()

    def _handle(
        self,
        conn: _WorkerConn,
        message: Mapping[str, Any],
        cells: Mapping[int, _CellState],
        leases: dict[int, _Lease],
        awaiting: dict[int, _AwaitingLease],
        finish: Callable[[int, Mapping[str, Any]], bool],
    ) -> None:
        kind = message.get("type")
        if kind == "register":
            conn.registered = True
            conn.name = str(message.get("name", conn.peer))
            self.stats.workers_registered += 1
            if (
                int(message.get("incarnation", 0)) > 0
                or conn.name in self._seen_names
            ):
                self.stats.reconnects += 1
            self._seen_names.add(conn.name)
            # A pre-crash bench follows the worker across the restart:
            # the journal remembers who was suspected, for how long.
            recovered = self._recovered_suspicion.pop(conn.name, None)
            if recovered is not None:
                suspicion, penalty_until_unix = recovered
                remaining = penalty_until_unix - time.time()
                if suspicion > 0 and remaining > 0:
                    conn.suspicion = suspicion
                    conn.penalty_until = time.monotonic() + remaining
            # Re-admission: a reconnecting worker that still holds a
            # recovered lease keeps it — the cell is mid-computation on
            # that worker, redispatching it would be wasted work.
            now = time.monotonic()
            for raw in message.get("held_leases", ()):
                index = int(raw)
                note = awaiting.get(index)
                if note is None or note.worker != conn.name:
                    continue
                del awaiting[index]
                conn.leases.add(index)
                leases[index] = _Lease(
                    index, conn, now + self.config.lease_s
                )
                self.stats.readmitted_leases += 1
                self._journal_event(
                    {
                        "kind": "lease",
                        "index": index,
                        "worker": conn.name,
                        "deadline_unix": time.time()
                        + self.config.lease_s,
                        "readmitted": True,
                    }
                )
            conn.send(self._welcome)
        elif kind == "heartbeat":
            now = time.monotonic()
            for raw in message.get("leases", ()):
                index = int(raw)
                lease = leases.get(index)
                if lease is not None and lease.conn is conn:
                    lease.expires_at = now + self.config.lease_s
                    continue
                # A heartbeat can also keep a *recovered* lease alive
                # while the holder finishes re-registering.
                note = awaiting.get(index)
                if note is not None and note.worker == conn.name:
                    note.expires_at = now + self.config.lease_s
        elif kind == "result":
            index = int(message.get("index", -1))
            if index in cells:
                conn.leases.discard(index)
                if conn.suspicion:
                    self._journal_event(
                        {
                            "kind": "bench",
                            "worker": conn.name or conn.peer,
                            "suspicion": 0,
                            "penalty_until_unix": 0.0,
                        }
                    )
                conn.rehabilitate()
                if finish(index, message):
                    self.stats.results += 1
            # The ack releases the worker's copy.  ``finish`` has
            # recorded and journaled the result (or it was a duplicate);
            # an index this run does not hold was completed before a
            # restart, or belongs to no cell at all.
            conn.send({"type": "ack", "index": index})
        # Unknown message types are ignored (forward compatibility).
