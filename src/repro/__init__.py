"""repro — executable reproduction of *Wait-Freedom with Advice*
(Delporte-Gallet, Fauconnier, Gafni, Kuznetsov; PODC 2012).

The package implements the paper's external-failure-detection (EFD)
model — computation processes solving tasks wait-free with advice from
failure-detector-equipped synchronization processes — together with
every algorithm the paper presents (Figures 1-4, the Theorem 7 and
Theorem 9 constructions) and the substrates those algorithms rely on
(BG simulation, safe agreement, leader-based shared-memory consensus,
atomic snapshots), plus an exact 2-process solvability checker for the
paper's impossibility results and a classifier that regenerates the
Theorem 10 task hierarchy.  :mod:`repro.chaos` turns the reproduction
into an adversarial testbed: fault-injection campaigns over failure
patterns, perturbed detector histories, and mutated schedules, with
counterexample shrinking and replayable failure bundles.

Quickstart::

    from repro import solve_task
    from repro.tasks import SetAgreementTask
    from repro.detectors import VectorOmegaK

    task = SetAgreementTask(n=4, k=2)
    result = solve_task(task, detector=VectorOmegaK(n=4, k=2), seed=7)
    print(result.outputs)
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".analysis.verify": ("verify_run",),
    ".api": ("solve_task", "solve_task_restricted"),
    ".core": (
        "Environment",
        "FailurePattern",
        "ProcessId",
        "RunResult",
        "System",
        "Task",
    ),
}

if TYPE_CHECKING:
    from .analysis.verify import verify_run
    from .api import solve_task, solve_task_restricted
    from .core import (
        Environment,
        FailurePattern,
        ProcessId,
        RunResult,
        System,
        Task,
    )
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "solve_task",
    "solve_task_restricted",
    "verify_run",
    "Environment",
    "FailurePattern",
    "ProcessId",
    "RunResult",
    "System",
    "Task",
    "__version__",
]
