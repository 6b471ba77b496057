"""The run loop: executes a :class:`~repro.core.system.System` under a
scheduler, producing a :class:`~repro.core.run.RunResult`.

Step semantics (paper Section 2.1): the k-th step of the run belongs to
the process the schedule names; an S-process can be scheduled only while
alive in the failure pattern; a failure-detector query at time ``t``
returns ``H(q, t)``.  Time equals the step index.

Mechanics: each automaton is a generator.  At every scheduled step the
executor atomically performs the operation the generator most recently
yielded, then resumes the generator with the result so it can compute
(locally, in zero time) the operation for its *next* step.  The first
step of a C-process writes its task input to ``inp/<i>``, exactly as the
paper stipulates, before the automaton's own operations begin.

Performance notes
-----------------
The schedulable set is maintained *incrementally*.  Membership only ever
shrinks during a run — a C-process leaves when it decides or its
generator halts, an S-process when its generator halts or its crash time
(precomputed by :meth:`FailurePattern.crash_transitions`) is reached —
so the executor keeps a sorted candidate list and retires processes from
it instead of re-deriving and re-sorting the whole set three times per
step.  ``started_c``/``decided_c`` frozensets are cached and
invalidated only when they actually change, trace events are only
allocated when tracing is on, and :meth:`run` drives steps through the
trusted :meth:`step_trusted` path, skipping the schedulability
re-validation it performed itself.

For checkpointed exploration (:mod:`repro.checker.explorer`), an
executor constructed with ``record_results=True`` keeps each process's
sequence of operation results; :meth:`checkpoint` captures the full
execution state (memory via an O(1) copy-on-write clone) and
:meth:`restore` rebuilds an equivalent executor by replaying each
generator against its recorded results — pure local computation, far
cheaper than re-running the schedule through the full step machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable

from ..core.process import ProcessId, c_process, s_process
from ..core.run import RunResult
from ..core.system import System, input_register
from ..errors import ProtocolError, SchedulingError
from ..memory.registers import RegisterFile
from . import ops
from .scheduler import Scheduler, SchedulerView
from .trace import Trace, TraceEvent


class _ProcessSlot:
    """Runtime state of one process."""

    __slots__ = (
        "pid", "generator", "pending", "halted", "started", "steps",
        "result_log", "op_log",
    )

    def __init__(self, pid: ProcessId, generator) -> None:
        self.pid = pid
        self.generator = generator
        self.pending: Any = None
        self.halted = False
        self.started = False
        self.steps = 0
        self.result_log: list[Any] | None = None
        #: operations the automaton actually executed, in order
        #: (``record_ops`` only; the mandated input write is implied by
        #: ``started`` and is not recorded).  Symmetry reduction compares
        #: these logs to decide whether two processes are interchangeable.
        self.op_log: list[Any] | None = None

    def prime(self) -> None:
        """Obtain the first operation (local computation, takes no step)."""
        try:
            self.pending = next(self.generator)
        except StopIteration:
            self.halted = True

    def resume(self, result: Any) -> None:
        try:
            self.pending = self.generator.send(result)
        except StopIteration:
            self.halted = True
            self.pending = None


@dataclass(frozen=True)
class ExecutorCheckpoint:
    """Restorable execution state captured by :meth:`Executor.checkpoint`.

    Generators cannot be forked, so a checkpoint stores what *determines*
    them instead: per-process result logs.  :meth:`Executor.restore`
    rebuilds fresh generators and fast-forwards each one by replaying its
    log — deterministic local computation that never touches shared
    memory, the detector, or the scheduler.
    """

    time: int
    memory: RegisterFile
    decisions: tuple[tuple[int, Any], ...]
    #: per process: (pid, started, halted, steps, log ref, log length,
    #: op-log ref, op-log length).  The log references alias the live
    #: executor's append-only logs; only their first ``length`` entries
    #: belong to this checkpoint.  Appends never invalidate a captured
    #: prefix, which is what makes taking a checkpoint O(#processes)
    #: rather than O(steps).  The op-log pair is ``(None, 0)`` unless the
    #: executor records operations.
    slots: tuple[
        tuple[ProcessId, bool, bool, int, list[Any], int, Any, int], ...
    ]
    #: derived state captured so :meth:`Executor.restore` does not have
    #: to recompute it: the schedulable list, the crash-queue position,
    #: and the decided output vector.
    schedulable: tuple[ProcessId, ...]
    crash_pos: int
    decided_vector: tuple[Any, ...]


class Executor:
    """Drives one system to completion.

    Args:
        system: the system to execute.
        scheduler: picks the process for each step.
        max_steps: liveness budget; executions stop with reason
            ``"budget"`` when it is exhausted.
        trace: record a full :class:`~repro.runtime.trace.Trace`.
        stop_when: optional predicate over the executor; when it returns
            true the run stops with reason ``"predicate"``.  Used by
            reduction algorithms that never "decide".
        record_results: keep per-process operation-result logs so the
            executor can be checkpointed (see :meth:`checkpoint`).
        record_ops: additionally keep per-process logs of the operations
            actually executed (requires ``record_results``); the
            explorer's symmetry reduction compares these to recognize
            interchangeable processes.
    """

    def __init__(
        self,
        system: System,
        scheduler: Scheduler,
        *,
        max_steps: int = 200_000,
        trace: bool = False,
        stop_when: Callable[["Executor"], bool] | None = None,
        record_results: bool = False,
        record_ops: bool = False,
    ) -> None:
        if record_ops and not record_results:
            raise ProtocolError("record_ops requires record_results")
        self.system = system
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.stop_when = stop_when
        self.memory = RegisterFile()
        self.trace = Trace(enabled=trace)
        self.time = 0
        self.decisions: dict[int, Any] = {}
        self.record_results = record_results
        self.record_ops = record_ops
        self._slots: dict[ProcessId, _ProcessSlot] = {}
        # Insertion order is the canonical sorted order (all C before S,
        # then by index), which keeps the schedulable list sorted for free.
        for i in range(system.n_c):
            pid = c_process(i)
            slot = _ProcessSlot(
                pid, system.c_factories[i](system.context_for(pid))
            )
            self._slots[pid] = slot
        for i in range(system.n_s):
            pid = s_process(i)
            slot = _ProcessSlot(
                pid, system.s_factories[i](system.context_for(pid))
            )
            slot.prime()
            self._slots[pid] = slot
        if record_results:
            for slot in self._slots.values():
                slot.result_log = []
                if record_ops:
                    slot.op_log = []
        # -- incremental schedulability state --------------------------
        self._started: set[int] = set()
        self._started_frozen: frozenset[int] | None = frozenset()
        self._decided_frozen: frozenset[int] | None = frozenset()
        self._decided_vector: tuple[Any, ...] | None = None
        self._undecided: set[int] = set(system.participants)
        self._crash_queue = system.pattern.crash_transitions
        self._crash_pos = 0
        self._schedulable: list[ProcessId] = []
        self._schedulable_tuple: tuple[ProcessId, ...] | None = None
        self._rebuild_schedulable()

    # -- observation ----------------------------------------------------

    @property
    def started_c(self) -> frozenset[int]:
        if self._started_frozen is None:
            self._started_frozen = frozenset(self._started)
        return self._started_frozen

    @property
    def decided_c(self) -> frozenset[int]:
        if self._decided_frozen is None:
            self._decided_frozen = frozenset(self.decisions)
        return self._decided_frozen

    def decided_vector(self) -> tuple:
        """The output vector so far (``None`` for undecided processes),
        cached between decide steps — decisions are the rarest event in
        a run, so per-node safety verdicts can key caches on this."""
        if self._decided_vector is None:
            decisions = self.decisions
            self._decided_vector = tuple(
                decisions.get(i) for i in range(self.system.n_c)
            )
        return self._decided_vector

    def peek(self, pid: ProcessId) -> Any:
        """The operation ``pid`` would perform on its next step, without
        stepping — its read/write/query footprint for partial-order
        reduction.

        For a C-process that has not started, this is the mandated
        first-step write of its task input.  For a lazily-restored slot
        that never stepped, the generator is materialized here (pure
        local computation; see :meth:`restore`).  Returns ``None`` for a
        halted process.
        """
        slot = self._slots[pid]
        if pid.is_computation and not slot.started:
            return ops.Write(
                input_register(pid.index), self.system.inputs[pid.index]
            )
        if slot.generator is None and not slot.halted:
            self._materialize(slot)
        return slot.pending

    def slot_view(self, pid: ProcessId) -> tuple:
        """Snapshot of one process's execution history, for symmetry
        comparisons: ``(started, halted, steps, result log, op log)``.
        The logs are the live lists — callers must not mutate them."""
        slot = self._slots[pid]
        return (
            slot.started, slot.halted, slot.steps,
            slot.result_log, slot.op_log,
        )

    def crashes_pending(self) -> bool:
        """Whether the failure pattern still holds crash transitions at
        or after the current time.  While it does, step reordering is
        unsound (which S-steps a crash boundary cuts off depends on the
        order), so the explorer's POR layer disables itself."""
        return self._crash_pos < len(self._crash_queue)

    def schedulable(self) -> tuple[ProcessId, ...]:
        """Processes that may legally take the next step, in canonical
        sorted order (all C-processes before all S-processes)."""
        if self._schedulable_tuple is None:
            self._schedulable_tuple = tuple(self._schedulable)
        return self._schedulable_tuple

    def view(self) -> SchedulerView:
        # Positional: the interpreter builds one view per step.
        return SchedulerView(
            self.time,
            self.schedulable(),
            self.started_c,
            self.decided_c,
            self.system.participants,
        )

    # -- incremental schedulability maintenance -------------------------

    def _rebuild_schedulable(self) -> None:
        """Recompute the candidate list from scratch (construction only;
        steps maintain it incrementally and checkpoints carry it)."""
        self._crash_pos = bisect_right(
            self._crash_queue, (self.time, float("inf"))
        )
        crashed = {
            index
            for when, index in self._crash_queue[: self._crash_pos]
        }
        out: list[ProcessId] = []
        for pid, slot in self._slots.items():  # already in sorted order
            if slot.halted:
                continue
            if pid.is_computation:
                if self.system.inputs[pid.index] is None:
                    continue  # non-participant: takes no steps
                if pid.index in self.decisions:
                    continue  # remaining steps would be null steps
            elif pid.index in crashed:
                continue
            out.append(pid)
        self._schedulable = out
        self._schedulable_tuple = None

    def _retire(self, pid: ProcessId) -> None:
        """Remove ``pid`` from the schedulable list (it never returns:
        candidates only ever leave the set during a run)."""
        try:
            self._schedulable.remove(pid)
        except ValueError:
            pass
        self._schedulable_tuple = None

    def _advance_time(self) -> None:
        self.time += 1
        queue = self._crash_queue
        pos = self._crash_pos
        while pos < len(queue) and queue[pos][0] <= self.time:
            self._retire(s_process(queue[pos][1]))
            pos += 1
        self._crash_pos = pos

    # -- stepping ---------------------------------------------------------

    def step(self, pid: ProcessId) -> None:
        """Execute one step of ``pid`` (must currently be schedulable)."""
        slot = self._slots.get(pid)
        if slot is None:
            raise SchedulingError(f"unknown process {pid}")
        if pid not in self._schedulable:
            raise SchedulingError(f"{pid} is not schedulable at t={self.time}")
        self._step(pid, slot)

    def step_trusted(self, pid: ProcessId) -> None:
        """Trusted-caller step path: the caller guarantees ``pid`` is
        currently schedulable (e.g. it was just taken from
        :meth:`schedulable`, as :meth:`run` and the exhaustive explorer
        do), so the membership re-check is skipped."""
        self._step(pid, self._slots[pid])

    def _materialize(self, slot: _ProcessSlot) -> None:
        """Build the generator of a lazily-restored, never-stepped slot
        (see :meth:`restore`).  Deterministic: the slot took no steps in
        the checkpointed run, so a fresh generator is in the same state
        its original was in."""
        pid = slot.pid
        system = self.system
        if pid.is_computation:
            slot.generator = system.c_factories[pid.index](
                system.context_for(pid)
            )
        else:
            slot.generator = system.s_factories[pid.index](
                system.context_for(pid)
            )
            slot.prime()
            if slot.halted:  # unreachable for replayed slots; keep sane
                self._retire(pid)

    def _step(self, pid: ProcessId, slot: _ProcessSlot) -> None:
        if slot.generator is None:
            self._materialize(slot)
        if pid.is_computation and not slot.started:
            # The paper: the first step of a C-process writes its input.
            slot.started = True
            self._started.add(pid.index)
            self._started_frozen = None
            value = self.system.inputs[pid.index]
            self.memory.write(input_register(pid.index), value)
            slot.prime()
            if slot.halted:
                self._retire(pid)
            if self.trace.enabled:
                self.trace.record(
                    TraceEvent(
                        self.time,
                        pid,
                        ops.Write(input_register(pid.index), value),
                        None,
                    )
                )
        else:
            op = slot.pending
            op_type = type(op)
            # Exact-type dispatch, most frequent operations first; the
            # final branch falls back to the generic path.
            if op_type is ops.Write:
                self.memory.write(op.register, op.value)
                result = None
            elif op_type is ops.Read:
                result = self.memory.read(op.register)
            elif op_type is ops.Snapshot:
                result = self.memory.snapshot(op.prefix)
            elif op_type is ops.Nop:
                result = None
            elif op_type is ops.QueryFD:
                if pid.is_computation:
                    raise ProtocolError(
                        "C-processes cannot query the detector"
                    )
                result = self.system.history.value(pid.index, self.time)
            elif op_type is ops.CompareAndSwap:
                result = self.memory.compare_and_swap(
                    op.register, op.expected, op.new
                )
            elif op_type is ops.Decide:
                self._decide(pid, slot, op)
                return
            else:
                result = self._perform(pid, op)
            if self.trace.enabled:
                self.trace.record(TraceEvent(self.time, pid, op, result))
            if slot.result_log is not None:
                slot.result_log.append(result)
                if slot.op_log is not None:
                    slot.op_log.append(op)
            slot.resume(result)
            if slot.halted:
                self._retire(pid)
        slot.steps += 1
        self._advance_time()

    def _decide(self, pid: ProcessId, slot: _ProcessSlot, op: Any) -> None:
        if pid.is_synchronization:
            raise ProtocolError("S-processes cannot decide")
        self.decisions[pid.index] = op.value
        self._decided_frozen = None
        self._decided_vector = None
        self._undecided.discard(pid.index)
        if self.trace.enabled:
            self.trace.record(TraceEvent(self.time, pid, op, None))
        slot.halted = True
        self._retire(pid)
        slot.steps += 1
        self._advance_time()

    def _perform(self, pid: ProcessId, op: Any) -> Any:
        """Generic operation path (kept for unusual operation objects;
        the hot loop dispatches on exact types inline)."""
        if op is None:
            raise ProtocolError(f"{pid} has no pending operation")
        if isinstance(op, ops.QueryFD):
            if pid.is_computation:
                raise ProtocolError("C-processes cannot query the detector")
            return self.system.history.value(pid.index, self.time)
        if isinstance(op, ops.Read):
            return self.memory.read(op.register)
        if isinstance(op, ops.Write):
            self.memory.write(op.register, op.value)
            return None
        if isinstance(op, ops.Snapshot):
            return self.memory.snapshot(op.prefix)
        if isinstance(op, ops.CompareAndSwap):
            return self.memory.compare_and_swap(
                op.register, op.expected, op.new
            )
        if isinstance(op, ops.Nop):
            return None
        raise ProtocolError(f"{pid} yielded a non-operation: {op!r}")

    # -- checkpoint / restore ---------------------------------------------

    def checkpoint(self) -> ExecutorCheckpoint:
        """Capture restorable execution state (requires
        ``record_results=True``; memory is captured as an O(1)
        copy-on-write clone)."""
        if not self.record_results:
            raise ProtocolError(
                "checkpoint() requires an executor constructed with "
                "record_results=True"
            )
        return ExecutorCheckpoint(
            time=self.time,
            memory=self.memory.copy(),
            decisions=tuple(self.decisions.items()),
            slots=tuple(
                (
                    pid,
                    slot.started,
                    slot.halted,
                    slot.steps,
                    slot.result_log,
                    len(slot.result_log),
                    slot.op_log,
                    0 if slot.op_log is None else len(slot.op_log),
                )
                for pid, slot in self._slots.items()
            ),
            schedulable=self.schedulable(),
            crash_pos=self._crash_pos,
            decided_vector=self.decided_vector(),
        )

    @classmethod
    def restore(
        cls,
        system: System,
        scheduler: Scheduler,
        checkpoint: ExecutorCheckpoint,
        *,
        max_steps: int = 200_000,
        stop_when: Callable[["Executor"], bool] | None = None,
        record_results: bool = True,
    ) -> "Executor":
        """Rebuild an executor equivalent to the one that produced
        ``checkpoint``.

        ``system`` must be a fresh, identical system (same builder and
        seed as the checkpointed run).  Each generator is fast-forwarded
        by replaying its recorded results — no shared-memory traffic, no
        scheduling.  Restored executors are untraced (exploration never
        traces); the memory clone is copy-on-write, so restoring is
        cheap until the replayed run first writes.

        The executor is assembled by hand rather than through
        ``__init__``: a halted process never runs again, so its
        generator is not even created, and none of the constructor's
        fresh-run state (empty memory, initial priming, initial
        schedulable set) is built only to be thrown away.
        """
        ex = cls.__new__(cls)
        ex.system = system
        ex.scheduler = scheduler
        ex.max_steps = max_steps
        ex.stop_when = stop_when
        ex.memory = checkpoint.memory.copy()
        ex.trace = Trace(enabled=False)
        ex.time = checkpoint.time
        ex.decisions = dict(checkpoint.decisions)
        ex.record_results = record_results
        ex.record_ops = any(
            op_ref is not None for *_ignored, op_ref, _op_len in checkpoint.slots
        )
        ex._slots = {}
        started_set: set[int] = set()
        for (
            pid, started, halted, steps, log_ref, log_len, op_ref, op_len
        ) in checkpoint.slots:
            log = log_ref[:log_len]
            if halted or steps == 0:
                # Halted processes never run again; never-stepped ones
                # are rebuilt lazily by :meth:`_materialize` on first
                # use (non-participants and filtered-out S-processes
                # never pay for a generator at all).
                slot = _ProcessSlot(pid, None)
            elif pid.is_computation:
                slot = _ProcessSlot(
                    pid, system.c_factories[pid.index](system.context_for(pid))
                )
                if started:
                    slot.prime()
                    for result in log:
                        slot.resume(result)
            else:
                slot = _ProcessSlot(
                    pid, system.s_factories[pid.index](system.context_for(pid))
                )
                slot.prime()
                for result in log:
                    slot.resume(result)
            slot.started = started
            slot.halted = halted
            slot.steps = steps
            if record_results:
                slot.result_log = log
                if op_ref is not None:
                    slot.op_log = op_ref[:op_len]
            if started and pid.is_computation:
                started_set.add(pid.index)
            ex._slots[pid] = slot
        ex._started = started_set
        ex._started_frozen = None
        ex._decided_frozen = None
        ex._decided_vector = checkpoint.decided_vector
        ex._undecided = set(system.participants) - set(ex.decisions)
        ex._crash_queue = system.pattern.crash_transitions
        ex._crash_pos = checkpoint.crash_pos
        ex._schedulable = list(checkpoint.schedulable)
        ex._schedulable_tuple = checkpoint.schedulable
        return ex

    def fingerprint(self) -> bytes:
        """Digest of the full execution state, for state deduplication.

        Two executors with equal fingerprints have identical futures:
        the per-process result logs determine every generator's state
        (automata are deterministic), and memory, decisions, and time
        determine everything else.  Requires ``record_results=True``.
        """
        if not self.record_results:
            raise ProtocolError(
                "fingerprint() requires an executor constructed with "
                "record_results=True"
            )
        from hashlib import blake2b

        state = (
            self.time,
            sorted(
                (name, repr(value))
                for name, value in self.memory.snapshot("").items()
            ),
            sorted(self.decisions.items()),
            [
                (slot.started, slot.halted, repr(slot.result_log))
                for slot in self._slots.values()
            ],
        )
        return blake2b(repr(state).encode(), digest_size=16).digest()

    # -- driving -----------------------------------------------------------

    def run(self) -> RunResult:
        """Run under the scheduler until everyone decided, the stop
        predicate fires, the budget is exhausted, nothing remains
        schedulable (``"halted"``), or the scheduler itself gives up
        while candidates remain (``"schedule_exhausted"``, e.g. a strict
        explicit schedule running out of entries)."""
        reason = "budget"
        while self.time < self.max_steps:
            if not self._undecided:
                reason = "all_decided"
                break
            if self.stop_when is not None and self.stop_when(self):
                reason = "predicate"
                break
            if not self._schedulable:
                reason = "halted"
                break
            try:
                pid = self.scheduler.next(self.view())
            except SchedulingError:
                reason = "schedule_exhausted"
                break
            self.step_trusted(pid)
        return self.result(reason)

    def _budget_digest(self) -> str:
        """One-line per-process account of a budget-exhausted run."""
        undecided = sorted(self.system.participants - self.decided_c)
        per_process = (
            ", ".join(
                f"p{i + 1}({self._slots[c_process(i)].steps} steps)"
                for i in undecided
            )
            or "none"
        )
        s_steps = sum(
            slot.steps
            for pid, slot in self._slots.items()
            if pid.is_synchronization
        )
        return (
            f"budget {self.max_steps} exhausted: "
            f"decided {len(self.decided_c)}/{len(self.system.participants)} "
            f"participants; undecided: {per_process}; "
            f"S-process steps: {s_steps}"
        )

    def result(self, reason: str) -> RunResult:
        """Package the current execution state as a
        :class:`~repro.core.run.RunResult` with the given stop reason."""
        outputs = self.decided_vector()
        extras: dict[str, Any] = {}
        if reason == "budget":
            extras["budget_digest"] = self._budget_digest()
        return RunResult(
            inputs=self.system.inputs,
            outputs=outputs,
            participants=self.started_c,
            steps=self.time,
            step_counts={
                pid: slot.steps for pid, slot in self._slots.items()
            },
            reason=reason,
            pattern=self.system.pattern,
            memory=self.memory,
            trace=self.trace if self.trace.enabled else None,
            extras=extras,
        )

    def _result(self, reason: str) -> RunResult:
        """Deprecated alias of :meth:`result` (kept for old callers)."""
        return self.result(reason)


def execute(
    system: System,
    scheduler: Scheduler,
    *,
    max_steps: int = 200_000,
    trace: bool = False,
    stop_when: Callable[[Executor], bool] | None = None,
) -> RunResult:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(
        system,
        scheduler,
        max_steps=max_steps,
        trace=trace,
        stop_when=stop_when,
    ).run()
