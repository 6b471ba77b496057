"""Deterministic local simulation of a set of automata.

Both central simulations of the paper need to run a whole algorithm
*inside* a process:

* Figure 2's simulators locally replay the agreed step log of the
  simulated k-process algorithm ``B``;
* Figure 1's extraction locally executes runs of ``A_sim`` (C-automata
  plus DAG-fed S-automata) under explicitly enumerated schedules.

A :class:`SimulatedWorld` holds its own register file and generator
states and advances one named process at a time.  Determinism is total:
the same construction arguments and the same step sequence produce the
same state, which is what lets independent simulators stay in agreement
by agreeing only on the step *log*.

Failure-detector queries of simulated S-processes are resolved through a
pluggable ``fd_source``; it may report that no suitable sample is
available yet (:data:`STUCK`), in which case the step does not happen
and the process stays blocked until a later attempt succeeds — exactly
the "not enough values in the DAG" behaviour of Figure 1.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core.process import ProcessContext, ProcessId, c_process, s_process
from ..core.system import input_register
from ..errors import ProtocolError
from ..memory.registers import RegisterFile, apply_operation
from . import ops

#: Sentinel returned by an ``fd_source`` that cannot serve the query yet.
STUCK = object()

#: fd_source(s_index, query_count) -> detector value or STUCK.
FDSource = Callable[[int, int], Any]


class SimulatedWorld:
    """A self-contained executable copy of a system.

    Args:
        inputs: task inputs of the simulated C-processes.
        c_factories: automaton factories for the C-processes.
        s_factories: automaton factories for the S-processes (optional).
        fd_source: resolves simulated failure-detector queries; required
            if any S-automaton queries the detector.
    """

    def __init__(
        self,
        *,
        inputs: Sequence[Any],
        c_factories: Sequence[Any],
        s_factories: Sequence[Any] = (),
        fd_source: FDSource | None = None,
    ) -> None:
        self.inputs = tuple(inputs)
        self.n_c = len(self.inputs)
        self.n_s = len(s_factories)
        self.memory = RegisterFile()
        self.decisions: dict[int, Any] = {}
        self.steps_taken = 0
        self._fd_source = fd_source
        self._query_counts: dict[int, int] = {}
        self._gens: dict[ProcessId, Any] = {}
        self._pending: dict[ProcessId, Any] = {}
        self._halted: set[ProcessId] = set()
        self._started: set[ProcessId] = set()
        self.step_counts: dict[ProcessId, int] = {}
        for i, factory in enumerate(c_factories):
            pid = c_process(i)
            ctx = ProcessContext(
                pid=pid,
                n_computation=self.n_c,
                n_synchronization=self.n_s,
                input_value=self.inputs[i],
            )
            self._gens[pid] = factory(ctx)
            self.step_counts[pid] = 0
        for i, factory in enumerate(s_factories):
            pid = s_process(i)
            ctx = ProcessContext(
                pid=pid,
                n_computation=self.n_c,
                n_synchronization=self.n_s,
                input_value=None,
            )
            self._gens[pid] = factory(ctx)
            self._prime(pid)
            self.step_counts[pid] = 0

    # -- bookkeeping ------------------------------------------------------

    def _prime(self, pid: ProcessId) -> None:
        try:
            self._pending[pid] = next(self._gens[pid])
        except StopIteration:
            self._halted.add(pid)

    def is_halted(self, pid: ProcessId) -> bool:
        return pid in self._halted or (
            pid.is_computation and pid.index in self.decisions
        )

    def participates(self, pid: ProcessId) -> bool:
        return not pid.is_computation or self.inputs[pid.index] is not None

    @property
    def decided(self) -> frozenset[int]:
        return frozenset(self.decisions)

    # -- stepping -----------------------------------------------------------

    def can_step(self, pid: ProcessId) -> bool:
        """Whether a step of ``pid`` would currently succeed."""
        if self.is_halted(pid) or not self.participates(pid):
            return False
        if pid.is_computation and pid not in self._started:
            return True
        op = self._pending.get(pid)
        if isinstance(op, ops.QueryFD):
            if self._fd_source is None:
                return False
            count = self._query_counts.get(pid.index, 0)
            return self._fd_source(pid.index, count) is not STUCK
        return op is not None

    def step(self, pid: ProcessId) -> bool:
        """Advance ``pid`` by one step.  Returns ``False`` (and does
        nothing) when the process is halted or its detector query cannot
        be served yet."""
        if self.is_halted(pid) or not self.participates(pid):
            return False
        if pid.is_computation and pid not in self._started:
            self._started.add(pid)
            self.memory.write(
                input_register(pid.index), self.inputs[pid.index]
            )
            self._prime(pid)
            self._count(pid)
            return True
        op = self._pending.get(pid)
        if op is None:
            return False
        if isinstance(op, ops.QueryFD):
            if pid.is_computation:
                raise ProtocolError("C-processes cannot query the detector")
            if self._fd_source is None:
                return False
            count = self._query_counts.get(pid.index, 0)
            value = self._fd_source(pid.index, count)
            if value is STUCK:
                return False
            self._query_counts[pid.index] = count + 1
            result = value
        elif isinstance(op, ops.Decide):
            if pid.is_synchronization:
                raise ProtocolError("S-processes cannot decide")
            self.decisions[pid.index] = op.value
            self._halted.add(pid)
            self._count(pid)
            return True
        else:
            result = apply_operation(self.memory, op)
        try:
            self._pending[pid] = self._gens[pid].send(result)
        except StopIteration:
            self._halted.add(pid)
            self._pending[pid] = None
        self._count(pid)
        return True

    def _count(self, pid: ProcessId) -> None:
        self.steps_taken += 1
        self.step_counts[pid] = self.step_counts.get(pid, 0) + 1

    def run_schedule(self, schedule: Sequence[ProcessId]) -> int:
        """Attempt the steps of ``schedule`` in order; returns how many
        actually happened (blocked/halted steps are skipped)."""
        done = 0
        for pid in schedule:
            if self.step(pid):
                done += 1
        return done

    def outputs(self) -> tuple[Any, ...]:
        return tuple(self.decisions.get(i) for i in range(self.n_c))
