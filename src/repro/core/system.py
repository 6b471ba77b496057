"""System assembly: processes + shared memory + detector + failures.

A :class:`System` is the static description of one experiment: the
C-process automata (with their task inputs), the S-process automata, the
failure detector, and the failure pattern of the run to be executed.
The :mod:`repro.runtime.executor` turns a system plus a scheduler into a
run.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from ..errors import SpecificationError
from .failures import FailurePattern
from .history import ConstantHistory, History
from .process import (
    AutomatonFactory,
    ProcessContext,
    ProcessId,
    c_process,
    s_process,
)
from .task import Vector

#: Register that the executor fills with C-process ``i``'s input on its
#: first step (the paper: "the first step of each C-process is to write
#: its input value to shared memory").
INPUT_REGISTER_PREFIX = "inp/"


def input_register(c_index: int) -> str:
    """Name of the register holding C-process ``c_index``'s input."""
    return f"{INPUT_REGISTER_PREFIX}{c_index}"


def null_automaton(ctx: ProcessContext):
    """An automaton that takes only null steps (used for the S-part of
    *restricted* algorithms, and for the C-part of reduction algorithms)."""
    from ..runtime.ops import Nop

    while True:
        yield Nop()


class System:
    """One executable system instance.

    Args:
        inputs: the task input vector; ``None`` entries are
            non-participating C-processes (they are never scheduled).
        c_factories: one automaton factory per C-process.
        s_factories: one automaton factory per S-process; ``None`` gives
            null automata (a *restricted* algorithm, Section 2.2).
        detector: the failure detector the S-processes may query;
            ``None`` gives the trivial detector (always bottom).
        pattern: failure pattern of this run; defaults to failure-free.
        seed: seed for the detector's choice of history (detectors map a
            pattern to a *set* of histories; the seed selects one).
    """

    def __init__(
        self,
        *,
        inputs: Vector,
        c_factories: Sequence[AutomatonFactory],
        s_factories: Sequence[AutomatonFactory] | None = None,
        detector: Any = None,
        pattern: FailurePattern | None = None,
        seed: int = 0,
    ) -> None:
        self.inputs = tuple(inputs)
        self.n_c = len(self.inputs)
        if len(c_factories) != self.n_c:
            raise SpecificationError(
                f"{len(c_factories)} C-automata for {self.n_c} inputs"
            )
        self.c_factories = list(c_factories)
        if s_factories is None:
            s_factories = [null_automaton] * self.n_c
        self.s_factories = list(s_factories)
        self.n_s = len(self.s_factories)
        if pattern is None:
            pattern = FailurePattern.all_correct(self.n_s)
        if pattern.n != self.n_s:
            raise SpecificationError(
                f"failure pattern is over {pattern.n} S-processes, "
                f"system has {self.n_s}"
            )
        self.pattern = pattern
        self.detector = detector
        self.seed = seed
        self.history: History = self._build_history()
        #: cached — the executor reads this once per step when building
        #: scheduler views, and inputs are immutable.
        self.participants: frozenset[int] = frozenset(
            i for i, v in enumerate(self.inputs) if v is not None
        )
        self._contexts: dict[ProcessId, ProcessContext] = {}
        #: per-process history tries shared by every exploring executor
        #: over this system (built lazily by :mod:`repro.runtime.executor`)
        self.history_tries: dict[ProcessId, Any] = {}

    def _build_history(self) -> History:
        if self.detector is None:
            return ConstantHistory(None)
        rng = random.Random(self.seed)
        return self.detector.build_history(self.pattern, rng)

    def context_for(self, pid: ProcessId) -> ProcessContext:
        # Memoized: contexts are immutable and every executor (and every
        # history-trie replay) over this system requests them.
        ctx = self._contexts.get(pid)
        if ctx is None:
            input_value = (
                self.inputs[pid.index] if pid.is_computation else None
            )
            ctx = ProcessContext(
                pid=pid,
                n_computation=self.n_c,
                n_synchronization=self.n_s,
                input_value=input_value,
            )
            self._contexts[pid] = ctx
        return ctx

    def all_pids(self) -> tuple[ProcessId, ...]:
        return tuple(
            [c_process(i) for i in range(self.n_c)]
            + [s_process(i) for i in range(self.n_s)]
        )
