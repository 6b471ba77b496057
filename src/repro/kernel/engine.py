"""The compiled run engine: drives a system through compiled step
functions, falling back per-automaton to generator interpretation.

:class:`CompiledRun` replicates :class:`repro.runtime.executor.Executor`
semantics *exactly* — same scheduling decisions, same trace events, same
stop reasons, same :class:`~repro.core.run.RunResult` — while paying
neither generator resumption nor operation-object allocation on the
untraced hot path.  The differential harness
(:mod:`repro.kernel.differential`) is the enforcement mechanism for that
claim; read it before changing anything here.

Structure of a run:

* shared memory is a plain dict plus the same prefix-keyed snapshot
  cache :class:`~repro.memory.registers.RegisterFile` maintains (the
  final ``RunResult.memory`` is rebuilt as a real ``RegisterFile`` in
  write order);
* each process is an *entry* ``[pid, count_index, step_fn]`` where
  ``step_fn(time)`` performs the pending operation and returns a status:
  ``0`` continue, ``1`` halted, ``2`` decided (value in ``out[0]``).
  Compiled automata get the closures produced by
  :func:`~repro.kernel.compiler.compile_automaton`; unsupported ones get
  a wrapper that drives their generator with the interpreter's exact
  dispatch;
* the advance loop is specialized per scheduler: round-robin and
  seeded-random runs skip :class:`SchedulerView` construction entirely
  (their picks are provably identical over the maintained candidate
  list), every other scheduler — and every traced run — goes through
  the general view-building loop.

``advance(limit)`` steps at most ``limit`` scheduler turns, which is
what lets :mod:`repro.kernel.lanes` interleave many runs in lockstep.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable

from ..core.process import ProcessId, c_process, s_process
from ..core.run import RunResult
from ..core.system import System, input_register
from ..errors import ProtocolError, SchedulingError
from ..memory.registers import RegisterFile
from ..runtime import ops
from ..runtime.executor import Executor, execute
from ..runtime.scheduler import (
    RoundRobinScheduler,
    Scheduler,
    SchedulerView,
    SeededRandomScheduler,
)
from ..runtime.trace import Trace, TraceEvent
from .compiler import CompiledProgram, UnsupportedAutomaton, compile_automaton

__all__ = ["CompiledRun", "LaneState", "execute_compiled"]


class LaneState:
    """Shared copy-on-write state for lanes of one system *shape*.

    Many-seed sweeps run the same task/algorithm/pattern under different
    seeds; every lane starts from the identical (empty) register file —
    a common prefix.  A ``LaneState`` is created per shape by
    :mod:`repro.kernel.lanes` and handed to each lane's
    :class:`CompiledRun`:

    * ``snap0`` — the epoch-0 snapshot cache, shared by every lane in
      the group *until its first write*.  A lane's first write bumps its
      private epoch (invalidating its view of the shared cache) and all
      later snapshots go through the lane-local cache; the shared cache
      itself is never invalidated, because one lane's writes are
      invisible to its siblings.

    Correctness is enforced end-to-end by the campaign differential
    (:func:`repro.kernel.differential.campaign_differential`): reports
    rendered from shared-snapshot lanes must stay byte-identical to the
    serial interpreted run.
    """

    __slots__ = ("snap0",)

    def __init__(self) -> None:
        self.snap0: dict[str, dict[str, Any]] = {}


class CompiledRun:
    """One system + scheduler, executable through the compiled kernel.

    Args:
        system: the system to execute.
        scheduler: picks the process for each step.
        max_steps: liveness budget (reason ``"budget"`` on exhaustion).
        trace: record a full trace (byte-identical to the interpreter's).
        program_overrides: optional mapping from automaton factory to a
            :class:`CompiledProgram` to use instead of compiling — the
            differential tests inject deliberately miscompiled programs
            through this to prove the gate fails loudly.
        lane_state: optional :class:`LaneState` shared with sibling
            lanes of the same system shape (see
            :mod:`repro.kernel.lanes`).  ``None`` — the default for
            solo runs — keeps the original single-run fast paths.
    """

    def __init__(
        self,
        system: System,
        scheduler: Scheduler,
        *,
        max_steps: int = 200_000,
        trace: bool = False,
        program_overrides: (
            dict[Callable, CompiledProgram] | None
        ) = None,
        lane_state: LaneState | None = None,
    ) -> None:
        self.system = system
        self.scheduler = scheduler
        self.max_steps = max_steps
        self._traced = trace
        self.time = 0
        self._reason: str | None = None
        self._decisions: dict[int, Any] = {}
        self._undecided: set[int] = set(system.participants)
        self._started: set[int] = set()
        self._started_frozen: frozenset[int] | None = frozenset()
        self._decided_frozen: frozenset[int] | None = frozenset()
        self._events: list[TraceEvent] = []
        self._out: list[Any] = [None]
        self._ev: list[Any] = [None, None]
        self._cells: dict[str, Any] = {}
        self._snap_cache: dict[str, dict[str, Any]] = {}
        self._crash_queue = system.pattern.crash_transitions
        self._crash_pos = bisect_right(
            self._crash_queue, (0, float("inf"))
        )
        crashed = {
            index
            for _when, index in self._crash_queue[: self._crash_pos]
        }

        # Phase 1: compile (or classify as fallback) every automaton.
        overrides = program_overrides or {}
        programs: list[tuple[Callable, CompiledProgram | None]] = []
        for factory in (*system.c_factories, *system.s_factories):
            program = overrides.get(factory)
            if program is None:
                try:
                    program = compile_automaton(factory)
                except UnsupportedAutomaton:
                    program = None
            programs.append((factory, program))
        self.compiled_pids: frozenset[ProcessId] = frozenset()
        self.fallback_pids: frozenset[ProcessId] = frozenset()

        # Phase 2: choose memory hooks.  The snapshot cache (and its
        # invalidation scan on every write) only matters if some step
        # can snapshot; when every automaton compiled and none has a
        # snapshot site, writes go straight into the dict.
        may_snapshot = any(
            program is None
            or any(
                site.kind in ("snapshot", "delegate")
                for site in program.sites
            )
            for _fn, program in programs
        )
        cells = self._cells
        snap_cache = self._snap_cache
        self._lane_state = lane_state
        epoch = [0]
        if may_snapshot:

            def write(name: str, value: Any) -> None:
                cells[name] = value
                if snap_cache:
                    stale = [
                        prefix
                        for prefix in snap_cache
                        if name.startswith(prefix)
                    ]
                    for prefix in stale:
                        del snap_cache[prefix]

            if lane_state is not None:
                base_write = write

                def write(name: str, value: Any) -> None:  # noqa: F811
                    # First write: bump this lane's epoch, detaching it
                    # from the group-shared epoch-0 snapshot cache.
                    epoch[0] = 1
                    base_write(name, value)

        else:
            write = cells.__setitem__

        def snap(prefix: str) -> dict[str, Any]:
            cached = snap_cache.get(prefix)
            if cached is None:
                if prefix:
                    cached = snap_cache[prefix] = dict(
                        sorted(
                            (name, value)
                            for name, value in cells.items()
                            if name.startswith(prefix)
                        )
                    )
                else:
                    cached = snap_cache[prefix] = dict(
                        sorted(cells.items())
                    )
            return dict(cached)

        if lane_state is not None and may_snapshot:
            local_snap = snap
            shared0 = lane_state.snap0

            def snap(prefix: str) -> dict[str, Any]:  # noqa: F811
                if epoch[0]:
                    return local_snap(prefix)
                # Epoch 0: this lane has not written yet, so its view
                # of memory is the group's common prefix — share the
                # snapshot with every sibling still at epoch 0.
                cached = shared0.get(prefix)
                if cached is None:
                    if prefix:
                        cached = shared0[prefix] = dict(
                            sorted(
                                (name, value)
                                for name, value in cells.items()
                                if name.startswith(prefix)
                            )
                        )
                    else:
                        cached = shared0[prefix] = dict(
                            sorted(cells.items())
                        )
                return dict(cached)

        def cas(name: str, expected: Any, new: Any) -> Any:
            prior = cells.get(name)
            if prior == expected:
                write(name, new)
            return prior

        self._write = write
        self._snap = snap
        self._cas = cas

        # Phase 3: instantiate entries in canonical order (C, then S).
        compiled: set[ProcessId] = set()
        fallback: set[ProcessId] = set()
        live: list[list] = []
        entries: list[list] = []
        self._s_entries: dict[int, list] = {}
        n_c = system.n_c
        for i in range(n_c):
            pid = c_process(i)
            factory, program = programs[i]
            inner = self._instantiate(
                pid, factory, program, compiled, fallback
            )
            entry = [pid, i, inner]
            entries.append(entry)
            if system.inputs[i] is not None:
                self._wrap_c_first_step(entry, inner)
                live.append(entry)
        for i in range(system.n_s):
            pid = s_process(i)
            factory, program = programs[n_c + i]
            inner = self._instantiate(
                pid, factory, program, compiled, fallback
            )
            entry = [pid, n_c + i, inner]
            entries.append(entry)
            self._s_entries[i] = entry
            # S-processes are primed at construction: run the prologue
            # to the first suspension (pure local computation, no step).
            if inner(0) == 0 and i not in crashed:
                live.append(entry)
        self._entries = entries
        self._live = live
        self._by_pid = {entry[0]: entry for entry in entries}
        self._counts = [0] * len(entries)
        self.compiled_pids = frozenset(compiled)
        self.fallback_pids = frozenset(fallback)

        if type(scheduler) is RoundRobinScheduler:
            self._advance = self._advance_rr
        elif type(scheduler) is SeededRandomScheduler:
            self._advance = self._advance_seeded
        else:
            self._advance = self._advance_general

    # -- construction helpers -------------------------------------------

    def _query_for(self, pid: ProcessId) -> Callable[[int], Any]:
        if pid.is_computation:

            def query(_time: int) -> Any:
                raise ProtocolError(
                    "C-processes cannot query the detector"
                )

        else:
            value = self.system.history.value
            index = pid.index

            def query(time: int) -> Any:
                return value(index, time)

        return query

    def _instantiate(
        self,
        pid: ProcessId,
        factory: Callable,
        program: CompiledProgram | None,
        compiled: set[ProcessId],
        fallback: set[ProcessId],
    ) -> Callable[[int], int]:
        ctx = self.system.context_for(pid)
        rt = (
            self._cells,
            self._write,
            self._snap,
            self._query_for(pid),
            self._cas,
            self._out,
            self._ev,
        )
        if program is not None:
            try:
                freevals = [
                    cell.cell_contents
                    for cell in factory.__closure__ or ()
                ]
            except ValueError:  # empty cell: stay on the generator
                freevals = None
            if freevals is not None:
                step, step_traced = program.make(ctx, rt, *freevals)
                compiled.add(pid)
                return step_traced if self._traced else step
        fallback.add(pid)
        return self._make_fallback(pid, factory(ctx), rt)

    def _make_fallback(
        self, pid: ProcessId, generator: Any, rt: tuple
    ) -> Callable[[int], int]:
        """Drive an uncompiled automaton's generator with the
        interpreter's exact operation dispatch."""
        (cells, write, snap, query, cas, out, ev) = rt
        mem_get = cells.get
        traced = self._traced
        pending: Any = None
        primed = False

        def generic(op: Any) -> Any:
            # Mirrors Executor._perform for unusual operation objects.
            if op is None:
                raise ProtocolError(f"{pid} has no pending operation")
            if isinstance(op, ops.QueryFD):
                return query(step_time[0])
            if isinstance(op, ops.Read):
                return mem_get(op.register)
            if isinstance(op, ops.Write):
                write(op.register, op.value)
                return None
            if isinstance(op, ops.Snapshot):
                return snap(op.prefix)
            if isinstance(op, ops.CompareAndSwap):
                return cas(op.register, op.expected, op.new)
            if isinstance(op, ops.Nop):
                return None
            raise ProtocolError(f"{pid} yielded a non-operation: {op!r}")

        step_time = [0]

        def step(time: int) -> int:
            nonlocal pending, primed
            if not primed:
                primed = True
                try:
                    pending = next(generator)
                except StopIteration:
                    return 1
                return 0
            op = pending
            op_type = type(op)
            if op_type is ops.Write:
                write(op.register, op.value)
                result = None
            elif op_type is ops.Read:
                result = mem_get(op.register)
            elif op_type is ops.Snapshot:
                result = snap(op.prefix)
            elif op_type is ops.Nop:
                result = None
            elif op_type is ops.QueryFD:
                result = query(time)
            elif op_type is ops.CompareAndSwap:
                result = cas(op.register, op.expected, op.new)
            elif op_type is ops.Decide:
                if traced:
                    ev[0] = op
                    ev[1] = None
                out[0] = op.value
                return 2
            else:
                step_time[0] = time
                result = generic(op)
            if traced:
                ev[0] = op
                ev[1] = result
            try:
                pending = generator.send(result)
            except StopIteration:
                return 1
            return 0

        return step

    def _wrap_c_first_step(self, entry: list, inner: Callable) -> None:
        """Install the mandated first step of a participating C-process:
        write the task input, then run the automaton's prologue (the
        interpreter's ``prime``)."""
        pid: ProcessId = entry[0]
        register = input_register(pid.index)
        value = self.system.inputs[pid.index]
        write = self._write
        started = self._started
        traced = self._traced
        ev = self._ev

        def first_step(time: int) -> int:
            started.add(pid.index)
            self._started_frozen = None
            write(register, value)
            if traced:
                ev[0] = ops.Write(register, value)
                ev[1] = None
            entry[2] = inner
            return inner(time)

        entry[2] = first_step

    # -- advancing -------------------------------------------------------

    def _finish_step(
        self, entry: list, status: int, live: list, time: int
    ) -> None:
        """Post-step bookkeeping shared by the advance loops (cold path:
        only runs when a process halts or decides)."""
        if status == 2:
            pid = entry[0]
            if pid.is_synchronization:
                raise ProtocolError("S-processes cannot decide")
            self._decisions[pid.index] = self._out[0]
            self._undecided.discard(pid.index)
            self._decided_frozen = None
        try:
            live.remove(entry)
        except ValueError:
            pass

    def _retire_crashes(self, live: list, time: int) -> None:
        queue = self._crash_queue
        pos = self._crash_pos
        s_entries = self._s_entries
        while pos < len(queue) and queue[pos][0] <= time:
            entry = s_entries.get(queue[pos][1])
            if entry is not None:
                try:
                    live.remove(entry)
                except ValueError:
                    pass
            pos += 1
        self._crash_pos = pos

    def _advance_rr(self, limit: int | None) -> bool:
        live = self._live
        counts = self._counts
        undecided = self._undecided
        max_steps = self.max_steps
        queue = self._crash_queue
        qlen = len(queue)
        pos = self._crash_pos
        scheduler = self.scheduler
        cursor = scheduler._cursor
        events = self._events if self._traced else None
        ev = self._ev
        time = self.time
        end = max_steps if limit is None else min(max_steps, time + limit)
        next_crash = queue[pos][0] if pos < qlen else max_steps + 1
        n = len(live)
        finished = None
        while True:
            if time >= max_steps:
                finished = "budget"
                break
            if not undecided:
                finished = "all_decided"
                break
            if not n:
                finished = "halted"
                break
            if time >= end:
                break
            entry = live[cursor % n]
            cursor += 1
            status = entry[2](time)
            counts[entry[1]] += 1
            if events is not None:
                events.append(TraceEvent(time, entry[0], ev[0], ev[1]))
            time += 1
            if time >= next_crash:
                self._crash_pos = pos
                self._retire_crashes(live, time)
                pos = self._crash_pos
                next_crash = queue[pos][0] if pos < qlen else max_steps + 1
                n = len(live)
            if status:
                self._finish_step(entry, status, live, time)
                n = len(live)
        scheduler._cursor = cursor
        self._crash_pos = pos
        self.time = time
        if finished is not None:
            self._reason = finished
            return True
        return False

    def _advance_seeded(self, limit: int | None) -> bool:
        live = self._live
        counts = self._counts
        undecided = self._undecided
        max_steps = self.max_steps
        queue = self._crash_queue
        qlen = len(queue)
        pos = self._crash_pos
        # The interpreter picks `rng.choice(sorted(view.candidates))`,
        # and `random.Random.choice(seq)` is `seq[self._randbelow(
        # len(seq))]` with `_randbelow(n)` drawing `getrandbits(
        # n.bit_length())` until the draw lands below n.  `live` *is*
        # that sorted candidate list, so inlining the draw consumes the
        # identical RNG stream and picks the identical process while
        # skipping two Python calls per step; candidate count and bit
        # width are recomputed only when the list actually changes.
        getrandbits = self.scheduler._rng.getrandbits
        events = self._events if self._traced else None
        ev = self._ev
        time = self.time
        end = max_steps if limit is None else min(max_steps, time + limit)
        next_crash = queue[pos][0] if pos < qlen else max_steps + 1
        n = len(live)
        k = n.bit_length()
        finished = None
        while True:
            if time >= max_steps:
                finished = "budget"
                break
            if not undecided:
                finished = "all_decided"
                break
            if not n:
                finished = "halted"
                break
            if time >= end:
                break
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            entry = live[r]
            status = entry[2](time)
            counts[entry[1]] += 1
            if events is not None:
                events.append(TraceEvent(time, entry[0], ev[0], ev[1]))
            time += 1
            if time >= next_crash:
                self._crash_pos = pos
                self._retire_crashes(live, time)
                pos = self._crash_pos
                next_crash = queue[pos][0] if pos < qlen else max_steps + 1
                n = len(live)
                k = n.bit_length()
            if status:
                self._finish_step(entry, status, live, time)
                n = len(live)
                k = n.bit_length()
        self._crash_pos = pos
        self.time = time
        if finished is not None:
            self._reason = finished
            return True
        return False

    def _advance_general(self, limit: int | None) -> bool:
        live = self._live
        counts = self._counts
        undecided = self._undecided
        max_steps = self.max_steps
        scheduler = self.scheduler
        by_pid = self._by_pid
        participants = self.system.participants
        queue = self._crash_queue
        qlen = len(queue)
        pos = self._crash_pos
        events = self._events if self._traced else None
        ev = self._ev
        time = self.time
        end = max_steps if limit is None else min(max_steps, time + limit)
        next_crash = queue[pos][0] if pos < qlen else max_steps + 1
        # ``live`` only ever shrinks (finish/crash), so a length check is
        # enough to keep the candidates tuple fresh across steps.
        cands = tuple(entry[0] for entry in live)
        finished = None
        while True:
            if time >= max_steps:
                finished = "budget"
                break
            if not undecided:
                finished = "all_decided"
                break
            if not live:
                finished = "halted"
                break
            if time >= end:
                break
            if self._started_frozen is None:
                self._started_frozen = frozenset(self._started)
            if self._decided_frozen is None:
                self._decided_frozen = frozenset(self._decisions)
            if len(cands) != len(live):
                cands = tuple(entry[0] for entry in live)
            view = SchedulerView(
                time,
                cands,
                self._started_frozen,
                self._decided_frozen,
                participants,
            )
            try:
                pid = scheduler.next(view)
            except SchedulingError:
                finished = "schedule_exhausted"
                break
            entry = by_pid[pid]
            status = entry[2](time)
            counts[entry[1]] += 1
            if events is not None:
                events.append(TraceEvent(time, entry[0], ev[0], ev[1]))
            time += 1
            if time >= next_crash:
                self._crash_pos = pos
                self._retire_crashes(live, time)
                pos = self._crash_pos
                next_crash = queue[pos][0] if pos < qlen else max_steps + 1
            if status:
                self._finish_step(entry, status, live, time)
        self._crash_pos = pos
        self.time = time
        if finished is not None:
            self._reason = finished
            return True
        return False

    def advance(self, limit: int | None = None) -> bool:
        """Run at most ``limit`` steps (all remaining when ``None``).
        Returns True once the run has finished."""
        if self._reason is not None:
            return True
        return self._advance(limit)

    # -- results ---------------------------------------------------------

    def _budget_digest(self) -> str:
        counts = self._counts
        n_c = self.system.n_c
        undecided = sorted(
            self.system.participants - set(self._decisions)
        )
        per_process = (
            ", ".join(f"p{i + 1}({counts[i]} steps)" for i in undecided)
            or "none"
        )
        s_steps = sum(counts[n_c:])
        return (
            f"budget {self.max_steps} exhausted: "
            f"decided {len(self._decisions)}/"
            f"{len(self.system.participants)} "
            f"participants; undecided: {per_process}; "
            f"S-process steps: {s_steps}"
        )

    def result(self) -> RunResult:
        """Package the finished run as a RunResult (identical to the
        interpreter's for the same system and scheduler)."""
        if self._reason is None:
            raise ProtocolError("result() called before the run finished")
        memory = RegisterFile()
        for name, value in self._cells.items():
            memory.write(name, value)
        extras: dict[str, Any] = {}
        if self._reason == "budget":
            extras["budget_digest"] = self._budget_digest()
        trace = None
        if self._traced:
            trace = Trace(enabled=True)
            trace.events = self._events
        decisions = self._decisions
        return RunResult(
            inputs=self.system.inputs,
            outputs=tuple(
                decisions.get(i) for i in range(self.system.n_c)
            ),
            participants=frozenset(self._started),
            steps=self.time,
            step_counts={
                entry[0]: self._counts[entry[1]]
                for entry in self._entries
            },
            reason=self._reason,
            pattern=self.system.pattern,
            memory=memory,
            trace=trace,
            extras=extras,
        )

    def run(self) -> RunResult:
        self.advance(None)
        return self.result()


def execute_compiled(
    system: System,
    scheduler: Scheduler,
    *,
    max_steps: int = 200_000,
    trace: bool = False,
    stop_when: Callable[[Executor], bool] | None = None,
    program_overrides: dict[Callable, CompiledProgram] | None = None,
) -> RunResult:
    """Compiled-kernel counterpart of :func:`repro.runtime.executor.execute`.

    ``stop_when`` predicates observe a live :class:`Executor`, which the
    compiled engine does not expose — such runs are delegated to the
    interpreter wholesale (correct by construction, just not faster).
    """
    if stop_when is not None:
        return execute(
            system,
            scheduler,
            max_steps=max_steps,
            trace=trace,
            stop_when=stop_when,
        )
    return CompiledRun(
        system,
        scheduler,
        max_steps=max_steps,
        trace=trace,
        program_overrides=program_overrides,
    ).run()
