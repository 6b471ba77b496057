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
invalidated only when they actually change, and trace events are only
allocated when tracing is on.

:meth:`run` is one fused loop with its state in locals.  Under exactly
:class:`RoundRobinScheduler` or :class:`SeededRandomScheduler` it picks
inline over the sorted candidate list — the same pick, from the same
cursor or RNG stream, as the scheduler's own ``next()`` (see
:meth:`run`) — and builds no :class:`SchedulerView`; every other
scheduler hands it segments of picks (:meth:`Scheduler.segment`), one
view per segment.  The common operations are performed and the generator
resumed inline; a C-process's first step, a decision and any unusual
operation take the step-by-step path (:meth:`_step`, which
:meth:`step` uses), so the loop's operation dispatch duplicates only
:meth:`_step`'s hot branches.

The explorer steps a subclass,
:class:`~repro.runtime.history_trie.ExploringExecutor`, which walks
history tries instead of owning generators and can undo its steps.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable

from ..core.process import ProcessId, c_process, s_process
from ..core.run import RunResult
from ..core.system import System, input_register
from ..errors import ProtocolError, SchedulingError
from ..memory.registers import RegisterFile
from . import ops
from .scheduler import (
    FIXED,
    ROUND_ROBIN,
    RoundRobinScheduler,
    Scheduler,
    SchedulerView,
    SeededRandomScheduler,
)
from .trace import Trace, TraceEvent


class _ProcessSlot:
    """Runtime state of one process driven by its own generator."""

    __slots__ = ("pid", "generator", "pending", "halted", "started", "steps")

    def __init__(self, pid: ProcessId, generator) -> None:
        self.pid = pid
        self.generator = generator
        self.pending: Any = None
        self.halted = False
        self.started = False
        self.steps = 0

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
    """

    #: the register file class :meth:`__init__` builds
    _memory_type = RegisterFile

    def __init__(
        self,
        system: System,
        scheduler: Scheduler,
        *,
        max_steps: int = 200_000,
        trace: bool = False,
        stop_when: Callable[["Executor"], bool] | None = None,
    ) -> None:
        self.system = system
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.stop_when = stop_when
        self.memory: RegisterFile = self._memory_type()
        self.trace = Trace(enabled=trace)
        self.time = 0
        self.decisions: dict[int, Any] = {}
        self._slots: dict[ProcessId, Any] = {}
        self._decided_vector: tuple[Any, ...] | None = None
        # Insertion order is the canonical sorted order (all C before S,
        # then by index), which keeps the schedulable list sorted for free.
        for pid in system.all_pids():
            slot = self._new_slot(pid)
            if not pid.is_computation:
                slot.prime()
            self._slots[pid] = slot
        # -- incremental schedulability state --------------------------
        self._started: set[int] = set()
        self._started_frozen: frozenset[int] | None = frozenset()
        self._decided_frozen: frozenset[int] | None = frozenset()
        self._undecided: set[int] = set(system.participants)
        self._crash_queue = system.pattern.crash_transitions
        self._crash_pos = 0
        self._schedulable: list[ProcessId] = []
        self._schedulable_tuple: tuple[ProcessId, ...] | None = None
        self._rebuild_schedulable()

    def _new_slot(self, pid: ProcessId) -> _ProcessSlot:
        """The runtime state of ``pid``: a fresh generator of its
        automaton."""
        system = self.system
        factories = (
            system.c_factories if pid.is_computation else system.s_factories
        )
        return _ProcessSlot(pid, factories[pid.index](system.context_for(pid)))

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
        cached between decisions, so per-node safety verdicts can key
        caches on this."""
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
        first-step write of its task input.  Returns ``None`` for a
        process whose automaton returned.
        """
        slot = self._slots[pid]
        if pid.is_computation and not slot.started:
            return ops.Write(
                input_register(pid.index), self.system.inputs[pid.index]
            )
        return slot.pending

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
        """What the scheduler sees now (:meth:`run` builds its views
        inline, from the same fields)."""
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
        steps maintain it incrementally)."""
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
        self._retire_crashed(self.time)

    def _retire_crashed(self, time: int) -> None:
        """Retire every S-process whose crash time is at or before
        ``time``."""
        queue = self._crash_queue
        pos = self._crash_pos
        while pos < len(queue) and queue[pos][0] <= time:
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
        :meth:`schedulable`, as the exhaustive explorer does), so the
        membership re-check is skipped."""
        self._step(pid, self._slots[pid])

    def _step(self, pid: ProcessId, slot: _ProcessSlot) -> None:
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

    # -- driving -----------------------------------------------------------

    def run(self) -> RunResult:
        """Run under the scheduler until everyone decided, the stop
        predicate fires, the budget is exhausted, nothing remains
        schedulable (``"halted"``), or the scheduler itself gives up
        while candidates remain (``"schedule_exhausted"``, e.g. a strict
        explicit schedule running out of entries).

        Each step is the step :meth:`step` would take with the
        scheduler's own pick, and a ``stop_when`` predicate sees the
        same executor state.  Under exactly :class:`RoundRobinScheduler`
        the pick is ``schedulable[cursor % n]``: its ``next()`` indexes
        ``sorted(candidates)`` the same way, and the maintained list is
        already sorted.  Under exactly :class:`SeededRandomScheduler`
        it draws ``getrandbits(n.bit_length())`` until the draw lands
        below ``n``: ``random.Random.choice`` picks
        ``seq[_randbelow(len(seq))]`` with exactly those draws, so the
        inline pick consumes the identical RNG stream.  The cursor is
        written back when the loop ends.  Every other scheduler hands
        out segments, which each resync (the view may change) cuts;
        ``advance`` reports the picks taken before the next segment.
        """
        slots = self._slots
        schedulable = self._schedulable
        undecided = self._undecided
        memory = self.memory
        read = memory.read
        write = memory.write
        snapshot = memory.snapshot
        compare_and_swap = memory.compare_and_swap
        fd_value = self.system.history.value
        participants = self.system.participants
        events = self.trace.events if self.trace.enabled else None
        stop_when = self.stop_when
        max_steps = self.max_steps
        queue = self._crash_queue
        scheduler = self.scheduler
        kind = type(scheduler)
        round_robin = kind is RoundRobinScheduler
        cursor = scheduler._cursor if round_robin else 0
        getrandbits = (
            scheduler._rng.getrandbits if kind is SeededRandomScheduler else None
        )
        segment = scheduler.segment
        # The open segment: ``left`` of its ``length`` picks remain (a
        # cut sets ``length`` to the picks taken and ``left`` to 0).
        length = left = seg_n = seg_k = 0
        seg_kind = FIXED
        seg_pool = seg_state = seg_slot = None
        seg_slots: list[_ProcessSlot] = []
        Read, Write, Snapshot = ops.Read, ops.Write, ops.Snapshot
        Nop, QueryFD, CompareAndSwap = ops.Nop, ops.QueryFD, ops.CompareAndSwap
        # What the loop reads of the executor's own state, re-read at
        # ``resync_at``: the next crash time, or at once after a step that
        # may have retired a process or started or decided one.
        live: list[_ProcessSlot] = []  # the slots of ``schedulable``
        n = k = 0
        cands = started_c = decided_c = None
        resync_at = 0
        reason = "budget"
        time = self.time
        try:
            while time < max_steps:
                if time >= resync_at:
                    length -= left
                    left = 0
                    self._retire_crashed(time)
                    resync_at = (
                        queue[self._crash_pos][0]
                        if self._crash_pos < len(queue)
                        else max_steps
                    )
                    live = [slots[pid] for pid in schedulable]
                    n = len(live)
                    k = n.bit_length()
                    # Cached: the same objects until they change, which
                    # keeps the schedulers' identity caches warm.
                    cands = self.schedulable()
                    started_c = self.started_c
                    decided_c = self.decided_c
                if not undecided:
                    reason = "all_decided"
                    break
                if stop_when is not None:
                    self.time = time
                    if stop_when(self):
                        reason = "predicate"
                        break
                if not n:
                    reason = "halted"
                    break
                if round_robin:
                    slot = live[cursor % n]
                    pid = slot.pid
                    cursor += 1
                elif getrandbits is not None:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    slot = live[r]
                    pid = slot.pid
                else:
                    if not left:
                        if length:
                            scheduler.advance(length)
                            length = 0
                        try:
                            left, seg_kind, picks, seg_state = segment(
                                SchedulerView(
                                    time, cands, started_c, decided_c,
                                    participants,
                                )
                            )
                        except SchedulingError:
                            reason = "schedule_exhausted"
                            break
                        length = left
                        if seg_kind == FIXED:
                            seg_slot = slots[picks]
                        elif picks is not seg_pool:
                            seg_pool = picks
                            seg_slots = [slots[pid] for pid in picks]
                            seg_n = len(seg_slots)
                            seg_k = seg_n.bit_length()
                    left -= 1
                    if seg_kind == FIXED:
                        slot = seg_slot
                    elif seg_kind == ROUND_ROBIN:
                        slot = seg_slots[seg_state % seg_n]
                        seg_state += 1
                    else:
                        r = seg_state(seg_k)
                        while r >= seg_n:
                            r = seg_state(seg_k)
                        slot = seg_slots[r]
                    pid = slot.pid
                op = slot.pending
                op_type = type(op)
                # _step's exact-type dispatch, minus its cold branches;
                # reads first, the most frequent operation in campaigns.
                if op_type is Read:
                    result = read(op.register)
                elif op_type is Write:
                    write(op.register, op.value)
                    result = None
                elif op_type is Snapshot:
                    result = snapshot(op.prefix)
                elif op_type is Nop:
                    result = None
                elif op_type is QueryFD:
                    if pid.is_computation:
                        raise ProtocolError(
                            "C-processes cannot query the detector"
                        )
                    result = fd_value(pid.index, time)
                elif op_type is CompareAndSwap:
                    result = compare_and_swap(op.register, op.expected, op.new)
                else:
                    # A C-process's first step, a decision, or an
                    # unusual operation.
                    self.time = time
                    self._step(pid, slot)
                    time = resync_at = self.time
                    continue
                if events is not None:
                    events.append(TraceEvent(time, pid, op, result))
                try:
                    slot.pending = slot.generator.send(result)
                except StopIteration:
                    slot.halted = True
                    slot.pending = None
                    self._retire(pid)
                    resync_at = 0
                slot.steps += 1
                time += 1
        finally:
            self.time = time
            self._retire_crashed(time)
            if round_robin:
                scheduler._cursor = cursor
            elif length:
                scheduler.advance(length - left)
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
