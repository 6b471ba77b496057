"""Top-level convenience API.

These helpers wrap the most common workflow — "solve this task in the
EFD model with this detector and show me the run" — around the generic
Theorem 9 solver and the executor.  Power users assemble
:class:`~repro.core.system.System` objects directly.
"""

from __future__ import annotations

from typing import Any

from .algorithms.dispatch import (
    algorithm_for_task,
    build_solver_system,
    default_inputs,
)
from .core.failures import FailurePattern
from .core.run import RunResult
from .core.system import System
from .core.task import Task, Vector
from .runtime import SeededRandomScheduler, execute, k_concurrent


def solve_task(
    task: Task,
    *,
    detector: Any,
    inputs: Vector | None = None,
    pattern: FailurePattern | None = None,
    scheduler: Any = None,
    seed: int = 0,
    max_steps: int = 400_000,
    trace: bool = False,
    check: bool = True,
) -> RunResult:
    """Solve ``task`` in the EFD model using ``detector`` as advice.

    Dispatches to the generic solver of Theorem 9: the task is solved
    with ``anti-Omega-k``-strength advice (supplied here in its
    equivalent vector form) whenever the task is k-concurrently solvable
    and the detector is at least that strong.  For the built-in tasks the
    right k-concurrent algorithm is selected automatically.

    Args:
        task: the task to solve.
        detector: a failure detector instance (e.g.
            :class:`~repro.detectors.VectorOmegaK`).
        inputs: input vector; defaults to a canonical full-participation
            vector for the task.
        pattern: failure pattern; defaults to failure-free.
        scheduler: defaults to a seeded-random scheduler.
        seed: seed for the scheduler and detector history.
        max_steps: liveness budget.
        trace: record a full execution trace on the result.
        check: verify safety and wait-freedom before returning.

    Returns:
        The run result; ``result.outputs`` is the output vector.
    """
    system = build_solver_system(
        task, detector=detector, inputs=inputs, pattern=pattern, seed=seed
    )
    result = execute(
        system,
        scheduler or SeededRandomScheduler(seed),
        max_steps=max_steps,
        trace=trace,
    )
    if check:
        result.require_all_decided().require_satisfies(task)
    return result


def solve_task_restricted(
    task: Task,
    *,
    inputs: Vector | None = None,
    concurrency: int = 1,
    scheduler: Any = None,
    seed: int = 0,
    max_steps: int = 200_000,
    check: bool = True,
) -> RunResult:
    """Solve ``task`` with a *restricted* algorithm (no detector, null
    S-processes) in a ``concurrency``-concurrent run.

    With ``concurrency=1`` this always succeeds (Proposition 1).  Larger
    values require the task to be solvable at that concurrency level and
    a suitable built-in algorithm to exist.
    """
    inputs = default_inputs(task) if inputs is None else tuple(inputs)
    factories = algorithm_for_task(task, concurrency)
    system = System(inputs=inputs, c_factories=list(factories))
    gated = k_concurrent(
        scheduler or SeededRandomScheduler(seed), concurrency
    )
    result = execute(system, gated, max_steps=max_steps)
    if check:
        result.require_all_decided().require_satisfies(task)
    return result
