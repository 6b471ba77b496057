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

An executor constructed with ``record_results=True`` explores
(:mod:`repro.checker.explorer`): instead of one generator per process it
walks a per-process history trie (:mod:`repro.runtime.history_trie`),
and a step that meets a known result just follows the edge.
:meth:`step`, :meth:`step_trusted` and :meth:`run` of an exploring
executor all take one step path, :meth:`_explore_step`, which performs
every operation inline and re-derives nothing its trie node fixes.  A
``Write`` node caches its register's digest term.  A ``Snapshot`` of
a prefix that is exactly one bucket's key, with no other bucket
extending it, keys its edge by the bucket's content digest
(:meth:`~repro.memory.registers.DigestedRegisterFile.snapshot_digest`),
so the snapshot dict is built and ``repr``'d only when that edge is
new; every other prefix (a partial leaf, ``""``, one that spans
buckets) keys its edge by the snapshot's ``repr``.  Both keys lead to
the same child: equal ``(name, repr(value))`` sets give equal digests,
and distinct ones collide with probability about 2^-128, the argument
the memory digest rests on.

An exploring executor backtracks by undoing steps.  Each of its steps
pushes one undo record — the stepped slot's previous trie node,
counters and fingerprint term, the previous sum of slot terms, the
prior state of the one register the step may write, the schedulable
tuple and crash-queue position before the step, and whether the step
started a C-process or the decided state a decision replaced — and
:meth:`undo_to` pops records back to an earlier time, reverting each
step in O(1), by assignment, and running no automaton code.
:meth:`fingerprint` is a sum of terms (:mod:`repro.runtime.history_trie`):
the time's, cached; the decided vector's, which decisions and undos
keep with the vector; the memory digest, which the
:class:`~repro.memory.registers.DigestedRegisterFile` keeps current on
every write and undo; and the slot terms' sum, which every step and
undo keep current.  So a fingerprint reads no memory and hashes only a
time not seen before.  A plain executor keeps no undo records and no
terms.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Callable

from ..core.process import ProcessId, c_process, s_process
from ..core.run import RunResult
from ..core.system import System, input_register
from ..errors import ProtocolError, SchedulingError
from ..memory.registers import (
    DIGEST_MASK,
    DigestedRegisterFile,
    RegisterFile,
    register_term,
)
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

if TYPE_CHECKING:
    from .history_trie import HistoryNode, TrieSlot



class _ProcessSlot:
    """Runtime state of one process driven by its own generator."""

    __slots__ = ("pid", "generator", "pending", "halted", "started", "steps")

    #: a generator-driven slot has no history-trie position
    node: "HistoryNode | None" = None

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


#: Undo-record event: the step started a C-process (a decision's event
#: is the decided state it replaced).
_STARTED = 1


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
        record_results: make this an exploring executor: it walks the
            system's per-process history tries instead of owning
            generators, and every step can be undone (:meth:`undo`) and
            the state fingerprinted (:meth:`fingerprint`).
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
    ) -> None:
        self.system = system
        self.scheduler = scheduler
        self.max_steps = max_steps
        self.stop_when = stop_when
        self.memory: RegisterFile = (
            DigestedRegisterFile() if record_results else RegisterFile()
        )
        self.trace = Trace(enabled=trace)
        self.time = 0
        self.decisions: dict[int, Any] = {}
        self.record_results = record_results
        #: one record per step of an exploring executor (see :meth:`undo`)
        self._undo: list[tuple] | None = [] if record_results else None
        self._slots: dict[ProcessId, _ProcessSlot | TrieSlot] = {}
        self._decided_vector: tuple[Any, ...] | None = None
        if record_results:
            # Plain runs never import the tries (nor, without cached
            # bytecode, compile them).
            from . import history_trie
            from .history_trie import TrieSlot, trie_of

            #: the module defining the fingerprint's terms
            self._terms = history_trie
            #: ``time_term(t)`` for every time ``t`` fingerprinted so far
            self._time_terms: list[int] = []
            self._decided_vector = vector = (None,) * system.n_c
            self._decided_term = history_trie.decided_term(vector)
        # Insertion order is the canonical sorted order (all C before S,
        # then by index), which keeps the schedulable list sorted for free.
        for pid in system.all_pids():
            if record_results:
                slot: _ProcessSlot | TrieSlot = TrieSlot(
                    pid, trie_of(system, pid)
                )
            else:
                factories = (
                    system.c_factories
                    if pid.is_computation
                    else system.s_factories
                )
                slot = _ProcessSlot(
                    pid, factories[pid.index](system.context_for(pid))
                )
            if not pid.is_computation:
                slot.prime()
            self._slots[pid] = slot
        #: the sum of an exploring executor's slot terms, kept current by
        #: every step and undo
        self._slot_sum = (
            sum(slot.term for slot in self._slots.values())
            if record_results
            else 0
        )
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
        cached between decisions, and kept through decisions and undos
        by an exploring executor, so per-node safety verdicts can key
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

    def slot_view(self, pid: ProcessId) -> tuple:
        """One process's execution history, for symmetry comparisons:
        ``(started, halted, steps, digest)``.  The digest covers every
        operation the process performed and every result it received
        (all zero bytes before a C-process starts).  Requires
        ``record_results=True``."""
        if not self.record_results:
            raise ProtocolError(
                "slot_view() requires an executor constructed with "
                "record_results=True"
            )
        slot = self._slots[pid]
        node = slot.node
        return (
            slot.started,
            slot.halted,
            slot.steps,
            self._terms.NO_HISTORY if node is None else node.digest,
        )

    def history_node(self, pid: ProcessId) -> HistoryNode | None:
        """The history-trie node ``pid`` is at: ``None`` before a
        C-process starts, and always for a plain executor.  A started
        process's next step depends only on its node."""
        return self._slots[pid].node

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
        steps maintain it incrementally and undo records carry it)."""
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
        if self._undo is None:
            self._step(pid, slot)
        else:
            self._explore_step(pid, slot)

    def step_trusted(self, pid: ProcessId) -> None:
        """Trusted-caller step path: the caller guarantees ``pid`` is
        currently schedulable (e.g. it was just taken from
        :meth:`schedulable`, as the exhaustive explorer does), so the
        membership re-check is skipped."""
        if self._undo is None:
            self._step(pid, self._slots[pid])
        else:
            self._explore_step(pid, self._slots[pid])

    def _explore_step(self, pid: ProcessId, slot: TrieSlot) -> None:
        """The step of an exploring executor: :meth:`_step`'s step over
        the process's history trie, with every operation performed
        inline, plus the undo record :meth:`undo_to` pops.

        A known edge is followed without running automaton code, a
        ``Write`` applies the term cached on its node, and a one-bucket
        ``Snapshot`` looks its edge up by the bucket's digest, so the
        snapshot is built (and ``repr``'d) only when that edge is new.
        On such a hit the trace records the child's stored result."""
        memory = self.memory
        schedulable = self._schedulable_tuple
        if schedulable is None:
            schedulable = self._schedulable_tuple = tuple(self._schedulable)
        node = slot.node
        pending = slot.pending
        started = slot.started
        halted = slot.halted
        steps = slot.steps
        prior_term = slot.term
        slot_sum = self._slot_sum
        crash_pos = self._crash_pos
        time = self.time
        events = self.trace.events if self.trace.enabled else None
        write = event = None
        if node is None:
            # The paper: the first step of a C-process writes its input.
            index = pid.index
            name = input_register(index)
            value = self.system.inputs[index]
            memory.write(name, value)
            write = memory.last_write
            event = _STARTED
            slot.started = True
            self._started.add(index)
            self._started_frozen = None
            child = slot.trie.root()
            if events is not None:
                events.append(
                    TraceEvent(time, pid, ops.Write(name, value), None)
                )
        else:
            op = node.pending
            op_type = type(op)
            children = node.children
            # Exact-type dispatch, most frequent operations first.
            if op_type is ops.Write:
                term = node.term
                if term is None:
                    term = node.term = register_term(op.register, op.value)
                memory.write_term(op.register, op.value, term)
                write = memory.last_write
                result = None
                child = children.get("None") or slot.trie.child(
                    node, "None", None
                )
            elif op_type is ops.Snapshot:
                digest = memory.snapshot_digest(op.prefix)
                edges = node.snapshot_children
                child = (
                    None
                    if digest is None or edges is None
                    else edges.get(digest)
                )
                if child is None:
                    result = memory.snapshot(op.prefix)
                    key = repr(result)
                    child = children.get(key) or slot.trie.child(
                        node, key, result
                    )
                    if digest is not None:
                        if edges is None:
                            edges = node.snapshot_children = {}
                        edges[digest] = child
                else:
                    result = child.result
            elif op_type is ops.Decide:
                if pid.is_synchronization:
                    raise ProtocolError("S-processes cannot decide")
                index = pid.index
                vector = self._decided_vector
                decided = self._decided_term
                event = (vector, decided, self._decided_frozen)
                self._decided_vector, self._decided_term = slot.trie.decide(
                    node, vector, decided
                )
                self.decisions[index] = op.value
                self._decided_frozen = None
                self._undecided.discard(index)
                result = None
                child = node
                slot.halted = True
                self._retire(pid)
            else:
                if op_type is ops.Nop:
                    result = None
                elif op_type is ops.Read:
                    result = memory.read(op.register)
                elif op_type is ops.QueryFD:
                    if pid.is_computation:
                        raise ProtocolError(
                            "C-processes cannot query the detector"
                        )
                    result = self.system.history.value(pid.index, time)
                else:  # CompareAndSwap, or an unusual operation
                    memory.last_write = None
                    if op_type is ops.CompareAndSwap:
                        result = memory.compare_and_swap(
                            op.register, op.expected, op.new
                        )
                    else:
                        result = self._perform(pid, op)
                    write = memory.last_write
                key = repr(result)
                child = children.get(key) or slot.trie.child(
                    node, key, result
                )
            if events is not None:
                events.append(TraceEvent(time, pid, op, result))
        if child is not node:
            slot.node = child
            slot.pending = child.pending
            if child.halted:
                slot.halted = True
                self._retire(pid)
            new_term = child.slot_term
        else:
            # A decision: the process halts at the node it sits at.
            new_term = slot.trie.halted_term(node)
        slot.term = new_term
        self._slot_sum = slot_sum - prior_term + new_term
        slot.steps = steps + 1
        time += 1
        self.time = time
        queue = self._crash_queue
        if crash_pos < len(queue) and queue[crash_pos][0] <= time:
            self._retire_crashed(time)
        self._undo.append(
            (
                slot, node, pending, started, halted, steps, prior_term,
                slot_sum, write, schedulable, crash_pos, event,
            )
        )

    def undo(self) -> None:
        """Revert the last step of an exploring executor
        (``record_results=True``): ``undo_to(time - 1)``."""
        self.undo_to(self.time - 1)

    def undo_to(self, time: int) -> None:
        """Revert an exploring executor's (``record_results=True``)
        steps back to ``time``, in O(1) per step: every state this
        executor exposes — time, memory, decisions, the schedulable set,
        each process's trie position — returns to what it was at
        ``time``, and no automaton code runs."""
        records = self._undo
        if records is None or not 0 <= time <= self.time:
            raise ProtocolError(
                f"undo_to({time}) needs an exploring executor "
                f"(record_results=True) that has taken a step since then "
                f"(it is at time {self.time})"
            )
        if time == self.time:
            return
        pop = records.pop
        revert = self.memory.revert
        events = self.trace.events if self.trace.enabled else None
        for _ in range(self.time - time):
            (
                slot, slot.node, slot.pending, slot.started, slot.halted,
                slot.steps, slot.term, slot_sum, write, schedulable,
                crash_pos, event,
            ) = pop()
            if write is not None:
                revert(*write)
            if event is not None:
                index = slot.pid.index
                if event == _STARTED:
                    self._started.discard(index)
                    self._started_frozen = None
                else:
                    del self.decisions[index]
                    self._undecided.add(index)
                    (
                        self._decided_vector,
                        self._decided_term,
                        self._decided_frozen,
                    ) = event
            if events is not None:
                events.pop()
        self.time = time
        self._slot_sum = slot_sum
        self._crash_pos = crash_pos
        if schedulable is not self._schedulable_tuple:
            self._schedulable = list(schedulable)
            self._schedulable_tuple = schedulable

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

    # -- state identity ---------------------------------------------------

    def fingerprint(self) -> bytes:
        """Digest of the full execution state, for state deduplication.

        Two executors with equal fingerprints have identical futures:
        each process's history digest determines its automaton's state
        (see the module docstring), and memory, decisions, and time
        determine everything else.  It is their terms' sum mod 2^128,
        as 16 bytes.  Requires ``record_results=True``.
        """
        if not self.record_results:
            raise ProtocolError(
                "fingerprint() requires an executor constructed with "
                "record_results=True"
            )
        terms = self._terms
        time = self.time
        time_terms = self._time_terms
        if time >= len(time_terms):
            time_terms.extend(
                map(terms.time_term, range(len(time_terms), time + 1))
            )
        decided = self._decided_term
        return (
            (time_terms[time] + decided + self.memory.digest + self._slot_sum)
            & DIGEST_MASK
        ).to_bytes(16, "little")

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
        # History-trie slots resume through their trie: every step of an
        # exploring executor takes :meth:`_explore_step`.
        exploring = self.record_results
        step = self._explore_step if exploring else self._step
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
                op_type = None if exploring else type(op)
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
                    # A C-process's first step, a decision, an unusual
                    # operation, or a history-trie slot.
                    self.time = time
                    step(pid, slot)
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
