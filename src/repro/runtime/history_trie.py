"""Per-process history tries: how an exploring executor
(``record_results=True``, :mod:`repro.runtime.executor`) runs automata.

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

This module also defines the fingerprint terms of an exploring
executor (:meth:`~repro.runtime.executor.Executor.fingerprint`), whose
fingerprint is a sum mod 2^128: the term of its time, of its decided
vector, its memory digest (one
:func:`~repro.memory.registers.register_term` per written register),
and one slot term per process, over the process's slot position, its
started and halted flags and its node's digest.  Every node caches the
slot term of a process sitting at it, and a node where a process
decides (and halts, keeping its node) also caches the term of the
process halted there, computed on the first such decision.  A trie
memoizes the decided vector's term after each decision at its nodes,
per prior decided term (:meth:`HistoryTrie.decide`).  Each term is a
blake2b digest of an input that opens with a tag byte no ``repr``
starts with, so no term input equals a ``register_term`` input (a
``repr``) or another kind's: two distinct multisets of terms sum to
the same fingerprint with probability about 2^-128, the argument the
memory digest rests on.

This rests on one assumption about automata, which every automaton in
this repository meets: a process's next operation is a function of the
results it has received (results being identified by their ``repr``).
A trie checks it whenever it replays a path: a replayed generator that
yields another operation than the one recorded, or returns early,
raises :class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Any

from ..core.process import ProcessId
from ..core.system import System
from ..errors import ProtocolError

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
