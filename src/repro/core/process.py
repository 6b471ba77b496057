"""Process identities and the automaton protocol of the EFD model.

The paper's system (Section 2.1) contains two kinds of processes:

* **C-processes** ``p1 .. pn`` — the computation part.  They receive task
  inputs, read and write shared memory, and must *decide* in a finite
  number of their own steps (wait-freedom).
* **S-processes** ``q1 .. qn`` — the synchronization part.  They may crash,
  may query a failure detector, and exist only to help the C-processes.

A process automaton is represented as a Python generator: the executor
resumes the generator with the result of its previous operation and the
generator yields the next operation it wants to perform (one of the
dataclasses in :mod:`repro.runtime.ops`).  This makes every interleaving
explicitly schedulable, which the adversarial schedulers and the
exhaustive model checker rely on.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Callable, Generator

#: The type of a running automaton: yields operations, receives results.
StepGenerator = Generator[Any, Any, None]

#: A factory that builds the running automaton for one process.
#: It receives a :class:`ProcessContext` describing who the process is.
AutomatonFactory = Callable[["ProcessContext"], StepGenerator]


class ProcessKind(enum.Enum):
    """Which half of the system a process belongs to."""

    COMPUTATION = "C"
    SYNCHRONIZATION = "S"


@dataclass(frozen=True)
class ProcessId:
    """Identity of one process.

    Indices are 0-based internally; :attr:`name` renders the paper's
    1-based convention (``p1``/``q1`` for index 0).  Ordering sorts all
    C-processes before all S-processes, then by index.

    The sort key, hash, and kind predicates are precomputed at
    construction: schedulers and the executor sort, hash, and classify
    candidate ids on every step, so all three are measured hot paths.
    """

    kind: ProcessKind
    index: int

    def __lt__(self, other: "ProcessId") -> bool:
        return self._key < other._key

    def __le__(self, other: "ProcessId") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "ProcessId") -> bool:
        return self._key > other._key

    def __ge__(self, other: "ProcessId") -> bool:
        return self._key >= other._key

    def __hash__(self) -> int:
        return self._hash

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"process index must be non-negative, got {self.index}")
        key = (self.kind.value, self.index)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))
        object.__setattr__(
            self, "is_computation", self.kind is ProcessKind.COMPUTATION
        )
        object.__setattr__(
            self, "is_synchronization", self.kind is ProcessKind.SYNCHRONIZATION
        )

    @property
    def name(self) -> str:
        prefix = "p" if self.kind is ProcessKind.COMPUTATION else "q"
        return f"{prefix}{self.index + 1}"

    def __reduce__(self):
        # Unpickle through the interning constructors: the cached
        # ``_hash`` is only valid within the process that computed it
        # (hash randomization), so a default-pickled id would silently
        # miss dict lookups when a checkpoint or a worker's result is
        # loaded in another process.
        ctor = (
            c_process
            if self.kind is ProcessKind.COMPUTATION
            else s_process
        )
        return (ctor, (self.index,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@functools.lru_cache(maxsize=None)
def c_process(index: int) -> ProcessId:
    """The C-process with the given 0-based index (ids are interned)."""
    return ProcessId(ProcessKind.COMPUTATION, index)


@functools.lru_cache(maxsize=None)
def s_process(index: int) -> ProcessId:
    """The S-process with the given 0-based index (ids are interned)."""
    return ProcessId(ProcessKind.SYNCHRONIZATION, index)


def c_processes(n: int) -> tuple[ProcessId, ...]:
    """All C-processes ``p1 .. pn``."""
    return tuple(c_process(i) for i in range(n))


def s_processes(n: int) -> tuple[ProcessId, ...]:
    """All S-processes ``q1 .. qn``."""
    return tuple(s_process(i) for i in range(n))


@dataclass(frozen=True)
class ProcessContext:
    """Everything an automaton is allowed to know when it starts.

    Attributes:
        pid: the identity of this process.
        n_computation: number of C-processes in the system.
        n_synchronization: number of S-processes in the system.
        input_value: the task input (C-processes only; ``None`` denotes a
            non-participating process, matching the paper's bottom input).
    """

    pid: ProcessId
    n_computation: int
    n_synchronization: int
    input_value: Any = None
