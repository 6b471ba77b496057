"""Per-process history tries, and the executor that explores over them
(:class:`ExploringExecutor`, which :mod:`repro.checker.explorer` steps).

Instead of one generator per process, an exploring executor walks a
per-process *history trie* that the system owns
(``System.history_tries``) and every exploring executor over it shares.
A trie node is one sequence of results the process has received; it
stores the operation the process yields next, whether it halted, and a
content digest (blake2b over the parent's digest, ``repr(op)`` and
``repr(result)``: no Python ``hash`` enters it, so it does not change
with ``PYTHONHASHSEED``).  Each node is computed once — by the single
generator each trie keeps parked, or by a replay along the trie path
when that generator sits elsewhere — and a step that meets a known
result just follows the edge.  A node also caches what its fixed
pending operation lets the executor skip re-deriving: a ``Write``'s
digest term, a ``Decide``'s halted slot term, a ``Snapshot``'s edges
keyed by bucket digest, and the step's POR footprint.

This rests on one assumption about automata, which every automaton in
this repository meets: a process's next operation is a function of the
results it has received (results being identified by their ``repr``).
A trie checks it whenever it replays a path: a replayed generator that
yields another operation than the one recorded, or returns early,
raises :class:`~repro.errors.ProtocolError`.

The exploring step (:meth:`ExploringExecutor._step`) performs every
operation inline and re-derives nothing its trie node fixes.  A
``Snapshot`` of a prefix that is exactly one bucket's key, with no
other bucket extending it, keys its edge by the bucket's content digest
(:meth:`~repro.memory.registers.DigestedRegisterFile.snapshot_digest`),
so the snapshot dict is built and ``repr``'d only when that edge is
new; every other prefix (a partial leaf, ``""``, one that spans
buckets) keys its edge by the snapshot's ``repr``.  Both keys lead to
the same child: equal ``(name, repr(value))`` sets give equal digests,
and distinct ones collide with probability about 2^-128, the argument
the memory digest rests on.

An exploring executor backtracks by undoing steps.  Each step pushes
one undo record — the stepped slot's previous trie node, counters and
fingerprint term, the previous sum of slot terms, the prior state of
the one register the step may write, the schedulable tuple and
crash-queue position before the step, and whether the step started a
C-process or the decided state a decision replaced — and
:meth:`~ExploringExecutor.undo_to` pops records back to an earlier
time, reverting each step in O(1), by assignment, and running no
automaton code.

The fingerprint (:meth:`ExploringExecutor.fingerprint`) is a sum mod
2^128 of terms this module defines: the term of the time, cached per
time; the term of the decided vector, which decisions and undos keep
with the vector; the memory digest (one
:func:`~repro.memory.registers.register_term` per written register),
which the :class:`~repro.memory.registers.DigestedRegisterFile` keeps
current on every write and undo; and one slot term per process, over
the process's slot position, its started and halted flags and its
node's digest, whose sum every step and undo keep current.  So a
fingerprint reads no memory and hashes only a time not seen before.
Every node caches the slot term of a process sitting at it, and a node
where a process decides (and halts, keeping its node) also caches the
term of the process halted there, computed on the first such decision.
A trie memoizes the decided vector's term after each decision at its
nodes, per prior decided term (:meth:`HistoryTrie.decide`).  Each term
is a blake2b digest of an input that opens with a tag byte no ``repr``
starts with, so no term input equals a ``register_term`` input (a
``repr``) or another kind's: two distinct multisets of terms sum to
the same fingerprint with probability about 2^-128, the argument the
memory digest rests on.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any

from ..core.process import ProcessId
from ..core.run import RunResult
from ..core.system import System, input_register
from ..errors import ProtocolError
from ..memory.registers import DIGEST_MASK, DigestedRegisterFile, register_term
from . import ops
from .executor import Executor
from .trace import TraceEvent

#: Digest of the empty history (a primed process that received nothing).
_ROOT_DIGEST = blake2b(b"", digest_size=16).digest()
#: Stand-in node digest of a C-process that has not started.
NO_HISTORY = bytes(16)


def _term(data: bytes) -> int:
    return int.from_bytes(blake2b(data, digest_size=16).digest(), "little")


def time_term(time: int) -> int:
    """The fingerprint term of the time ``time`` (the executor caches it
    per time)."""
    return _term(b"\x01%d" % time)


def decided_term(vector: tuple) -> int:
    """The fingerprint term of a decided vector (an exploring executor
    keeps it with the vector; see :meth:`HistoryTrie.decide`)."""
    return _term(b"\x02" + repr(vector).encode())


def slot_term(position: int, started: bool, halted: bool, digest: bytes) -> int:
    """The fingerprint term of the process at slot ``position`` with
    these flags, sitting at a node with this digest (:data:`NO_HISTORY`
    before a C-process starts)."""
    return _term(b"\x03%d:%d:" % (position, 2 * started + halted) + digest)


class HistoryNode:
    """One history of a process: the results it received, in order."""

    __slots__ = (
        "parent", "result", "pending", "halted", "digest", "children",
        "snapshot_children", "term", "footprint", "slot_term",
    )

    def __init__(
        self, parent: "HistoryNode | None", result: Any, digest: bytes
    ) -> None:
        self.parent = parent
        #: the result on the edge from ``parent`` (kept for replays, and
        #: for the trace of a step that follows a snapshot edge)
        self.result = result
        self.pending: Any = None
        self.halted = False
        self.digest = digest
        #: ``repr(result)`` -> child
        self.children: dict[str, HistoryNode] = {}
        #: for a pending ``Snapshot`` of one bucket, once it is taken: the
        #: bucket's digest (:meth:`~repro.memory.registers.
        #: DigestedRegisterFile.snapshot_digest`) -> the child its
        #: snapshot leads to, which ``children`` holds under the
        #: snapshot's ``repr``
        self.snapshot_children: dict[int, HistoryNode] | None = None
        #: the fingerprint term the step at this node contributes,
        #: computed once: for a pending ``Write``, its ``register_term``;
        #: for a pending ``Decide``, the slot term of the process halted
        #: here by deciding (:meth:`HistoryTrie.halted_term`)
        self.term: int | None = None
        #: the step footprint of ``pending``, cached by
        #: :func:`repro.checker.independence.step_footprint`
        self.footprint: Any = None
        #: the fingerprint term of the process sitting at this node
        #: (:func:`slot_term`), set by the trie once ``halted`` is known;
        #: a process that halted here by deciding has ``term`` instead
        self.slot_term = 0


class HistoryTrie:
    """Every history one process has reached in a system's explorations.

    One generator is kept parked at the node it last computed; a child
    of any other node is computed by replaying a fresh generator along
    the trie path.  Parking one generator per node instead would grow
    with the number of distinct histories.
    """

    __slots__ = (
        "factory", "context", "position", "started", "root_node", "live",
        "live_at", "decided_terms",
    )

    def __init__(self, factory, context, position: int) -> None:
        self.factory = factory
        self.context = context
        #: the process's slot position (``system.all_pids()`` order)
        self.position = position
        #: the started flag of a process at a node: a C-process starts
        #: when it reaches the root, an S-process never does
        self.started = context.pid.is_computation
        self.root_node: HistoryNode | None = None
        self.live: Any = None
        self.live_at: HistoryNode | None = None
        #: ``(prior decided term, deciding node)`` -> the decided term
        #: after that decision (see :meth:`decide`)
        self.decided_terms: dict[tuple[int, HistoryNode], int] = {}

    def root(self) -> HistoryNode:
        if self.root_node is None:
            node = HistoryNode(None, None, _ROOT_DIGEST)
            self._compute(node, self.factory(self.context), None)
            self.root_node = node
        return self.root_node

    def child(self, node: HistoryNode, key: str, result: Any) -> HistoryNode:
        """``node``'s child along the edge ``key`` (``repr(result)``),
        computed if it is new."""
        child = node.children.get(key)
        if child is None:
            if self.live_at is node:
                generator = self.live
            else:
                generator = self._replay(node)
            op = repr(node.pending).encode()
            digest = blake2b(node.digest, digest_size=16)
            digest.update(b"%d:" % len(op))
            digest.update(op)
            digest.update(key.encode())
            child = HistoryNode(node, result, digest.digest())
            self._compute(child, generator, result)
            node.children[key] = child
        return child

    def decide(
        self, node: HistoryNode, vector: tuple, term: int
    ) -> tuple[tuple, int]:
        """The decided vector and its term once the process decides at
        ``node`` (whose pending operation is a ``Decide``), given the
        prior decided ``vector`` and its ``term``: ``vector`` with the
        process's entry replaced by the decided value.  The term is
        memoized by ``(term, node)``: the prior term fixes the prior
        vector and the node the value, so blake2b runs only for a pair
        not seen before."""
        index = self.context.pid.index
        vector = vector[:index] + (node.pending.value,) + vector[index + 1 :]
        key = (term, node)
        term = self.decided_terms.get(key)
        if term is None:
            term = self.decided_terms[key] = decided_term(vector)
        return vector, term

    def halted_term(self, node: HistoryNode) -> int:
        """The slot term of a process that halted at ``node`` by
        deciding, cached in ``node.term`` (the node's ``slot_term`` stays
        that of a process that sits at it undecided)."""
        term = node.term
        if term is None:
            term = node.term = slot_term(
                self.position, self.started, True, node.digest
            )
        return term

    def _compute(self, node: HistoryNode, generator, result: Any) -> None:
        """Fill in ``node`` by sending ``result`` to ``generator`` (which
        sits at the node's parent; a fresh one, sent ``None``, for the
        root), then park the generator at it."""
        self.live_at = None  # a raising automaton leaves nothing parked
        try:
            node.pending = generator.send(result)
        except StopIteration:
            node.halted = True
            self.live = None
        else:
            self.live = generator
            self.live_at = node
        node.slot_term = slot_term(
            self.position, self.started, node.halted, node.digest
        )

    def _replay(self, node: HistoryNode) -> Any:
        """A fresh generator brought to ``node`` along the trie path,
        checked against every node on the way (see the module
        docstring)."""
        path = []
        while node.parent is not None:
            path.append(node)
            node = node.parent
        path.append(node)
        generator = self.factory(self.context)
        for received, step in enumerate(reversed(path)):
            try:
                op = generator.send(step.result)
            except StopIteration:
                replayed = "returned"
            else:
                replayed = f"yielded {op!r}"
                if not step.halted and repr(op) == repr(step.pending):
                    continue
            first = "returned" if step.halted else f"yielded {step.pending!r}"
            raise ProtocolError(
                f"{self.context.pid} is not deterministic: at its automaton "
                f"step {received}, after the same {received} result(s), it "
                f"first {first} but a replay {replayed}"
            )
        return generator


def trie_of(system: System, pid: ProcessId) -> HistoryTrie:
    """The system's history trie of ``pid``, created on first use."""
    trie = system.history_tries.get(pid)
    if trie is None:
        factories = (
            system.c_factories if pid.is_computation else system.s_factories
        )
        trie = HistoryTrie(
            factories[pid.index],
            system.context_for(pid),
            system.all_pids().index(pid),
        )
        system.history_tries[pid] = trie
    return trie


class TrieSlot:
    """Runtime state of one process of an exploring executor: a
    position in the process's history trie (``None`` until a C-process
    starts) instead of a generator, and the process's fingerprint
    term."""

    __slots__ = (
        "pid", "trie", "node", "term", "pending", "halted", "started",
        "steps",
    )

    def __init__(self, pid: ProcessId, trie: HistoryTrie) -> None:
        self.pid = pid
        self.trie = trie
        self.node: HistoryNode | None = None
        #: the slot's fingerprint term, kept current by every step and
        #: undo
        self.term = slot_term(trie.position, False, False, NO_HISTORY)
        self.pending: Any = None
        self.halted = False
        self.started = False
        self.steps = 0

    def prime(self) -> None:
        node = self.node = self.trie.root()
        self.pending = node.pending
        self.halted = node.halted
        self.term = node.slot_term


#: Undo-record event: the step started a C-process (a decision's event
#: is the decided state it replaced).
_STARTED = 1


class ExploringExecutor(Executor):
    """An executor over the system's history tries, for exhaustive
    exploration (:mod:`repro.checker.explorer`): every step can be
    undone (:meth:`undo_to`) and the state fingerprinted
    (:meth:`fingerprint`).  It is stepped (:meth:`step`,
    :meth:`step_trusted`) and never run, so it has no scheduler."""

    _memory_type = DigestedRegisterFile

    def __init__(self, system: System, *, trace: bool = False) -> None:
        super().__init__(system, None, trace=trace)
        #: one record per step (see :meth:`undo_to`)
        self._undo: list[tuple] = []
        #: ``time_term(t)`` for every time ``t`` fingerprinted so far
        self._time_terms: list[int] = []
        self._decided_vector = vector = (None,) * system.n_c
        self._decided_term = decided_term(vector)
        #: the sum of the slot terms, kept current by every step and undo
        self._slot_sum = sum(slot.term for slot in self._slots.values())

    def _new_slot(self, pid: ProcessId) -> TrieSlot:
        return TrieSlot(pid, trie_of(self.system, pid))

    def run(self) -> RunResult:
        raise ProtocolError(
            "an exploring executor is never run: drive it with step()"
        )

    def slot_view(self, pid: ProcessId) -> tuple:
        """One process's execution history, for symmetry comparisons:
        ``(started, halted, steps, digest)``.  The digest covers every
        operation the process performed and every result it received
        (all zero bytes before a C-process starts)."""
        slot = self._slots[pid]
        node = slot.node
        return (
            slot.started,
            slot.halted,
            slot.steps,
            NO_HISTORY if node is None else node.digest,
        )

    def history_node(self, pid: ProcessId) -> HistoryNode | None:
        """The history-trie node ``pid`` is at (``None`` before a
        C-process starts).  A started process's next step depends only
        on its node."""
        return self._slots[pid].node

    def _step(self, pid: ProcessId, slot: TrieSlot) -> None:
        """:meth:`Executor._step`'s step over the process's history trie,
        with every operation performed inline, plus the undo record
        :meth:`undo_to` pops.

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
        """Revert the last step: ``undo_to(time - 1)``."""
        self.undo_to(self.time - 1)

    def undo_to(self, time: int) -> None:
        """Revert the steps back to ``time``, in O(1) per step: every
        state this executor exposes — time, memory, decisions, the
        schedulable set, each process's trie position — returns to what
        it was at ``time``, and no automaton code runs."""
        if not 0 <= time <= self.time:
            raise ProtocolError(
                f"cannot undo_to({time}): the executor is at time {self.time}"
            )
        if time == self.time:
            return
        pop = self._undo.pop
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

    def fingerprint(self) -> bytes:
        """Digest of the full execution state, for state deduplication.

        Two executors with equal fingerprints have identical futures:
        each process's history digest determines its automaton's state
        (see the module docstring), and memory, decisions, and time
        determine everything else.  It is their terms' sum mod 2^128,
        as 16 bytes.
        """
        time = self.time
        time_terms = self._time_terms
        if time >= len(time_terms):
            time_terms.extend(
                map(time_term, range(len(time_terms), time + 1))
            )
        decided = self._decided_term
        return (
            (time_terms[time] + decided + self.memory.digest + self._slot_sum)
            & DIGEST_MASK
        ).to_bytes(16, "little")
