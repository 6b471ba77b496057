"""The EFD model core: processes, failures, histories, tasks, systems, runs."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".adversary": ("Adversary",),
    ".failures": ("Environment", "FailurePattern"),
    ".process": (
        "ProcessContext",
        "ProcessId",
        "ProcessKind",
        "c_process",
        "c_processes",
        "s_process",
        "s_processes",
    ),
    ".run": ("RunResult",),
    ".system": ("System", "input_register", "null_automaton"),
    ".task": ("EnumeratedTask", "Task", "Vector", "is_prefix", "participants"),
}

if TYPE_CHECKING:
    from .adversary import Adversary
    from .failures import Environment, FailurePattern
    from .process import (
        ProcessContext,
        ProcessId,
        ProcessKind,
        c_process,
        c_processes,
        s_process,
        s_processes,
    )
    from .run import RunResult
    from .system import System, input_register, null_automaton
    from .task import EnumeratedTask, Task, Vector, is_prefix, participants
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Adversary",
    "Environment",
    "FailurePattern",
    "ProcessContext",
    "ProcessId",
    "ProcessKind",
    "c_process",
    "c_processes",
    "s_process",
    "s_processes",
    "RunResult",
    "System",
    "input_register",
    "null_automaton",
    "EnumeratedTask",
    "Task",
    "Vector",
    "is_prefix",
    "participants",
]
