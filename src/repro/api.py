"""Top-level convenience API.

These helpers wrap the most common workflow — "solve this task in the
EFD model with this detector and show me the run" — around the generic
Theorem 9 solver and the executor.  Power users assemble
:class:`~repro.core.system.System` objects directly.
"""

from __future__ import annotations

from typing import Any

from .core.failures import FailurePattern
from .core.run import RunResult
from .core.task import Task, Vector
from .errors import SpecificationError


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
    from .algorithms.dispatch import solve_with_detector

    return solve_with_detector(
        task,
        detector=detector,
        inputs=inputs,
        pattern=pattern,
        scheduler=scheduler,
        seed=seed,
        max_steps=max_steps,
        trace=trace,
        check=check,
    )


def verify_run(
    result: RunResult,
    task: Task,
    *,
    strict: bool = False,
    exhaustive: bool = False,
    factories: Any = None,
    concurrency: int | None = None,
    max_depth: int = 14,
    max_runs: int = 200_000,
    dedup: bool = False,
    por: bool = False,
    symmetry: bool = False,
    deadline_s: float | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
) -> RunResult:
    """Verify one run against ``task`` (wait-freedom + task relation);
    returns the result for chaining.

    ``strict=True`` additionally requires a traced, hazard-free run
    (see :func:`repro.analysis.verify.verify_run`).

    ``exhaustive=True`` hardens the spot check into a certificate: the
    run's input vector is re-explored over *every*
    ``concurrency``-concurrent interleaving (up to ``max_depth``) of
    the restricted algorithm ``factories``, raising
    :class:`~repro.errors.SafetyViolation` if any interleaving leaves
    the task relation.  The remaining keywords are the
    :class:`~repro.checker.explorer.ScheduleExplorer` knobs:
    ``max_depth`` and ``max_runs`` bound the exploration, and
    ``dedup`` / ``por`` / ``symmetry`` are the opt-in state,
    partial-order, and process-symmetry reductions (they change node
    counts, never the verdict).

    ``deadline_s`` bounds the exhaustive exploration's wall-clock time.
    A certificate is all-or-nothing, so hitting the deadline raises
    :class:`~repro.errors.ExplorationInterrupted` rather than returning
    a partial "ok"; when ``checkpoint_path`` is given the frontier is
    saved there first and the exception carries the path, so a later
    call with ``resume_from`` finishes the certificate without
    re-exploring.  Hitting ``max_runs`` raises it too, without a
    frontier: rerun with a larger cap.
    """
    from .analysis.verify import verify_run as _verify

    _verify(result, task, strict=strict)
    if exhaustive:
        if factories is None or concurrency is None:
            raise SpecificationError(
                "exhaustive verification needs the restricted algorithm "
                "(factories=...) and its concurrency level "
                "(concurrency=...)"
            )
        from .classify import explore_k_concurrent
        from .errors import ExplorationInterrupted, SafetyViolation

        report = explore_k_concurrent(
            task,
            factories,
            concurrency,
            result.inputs,
            max_depth=max_depth,
            max_runs=max_runs,
            dedup=dedup,
            por=por,
            symmetry=symmetry,
            deadline_s=deadline_s,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )
        if report.interrupted:
            where = (
                f"; frontier saved to {report.checkpoint_path} "
                "(pass resume_from=... to continue)"
                if report.checkpoint_path
                else ""
            )
            raise ExplorationInterrupted(
                f"exhaustive verification stopped after "
                f"{report.explored} nodes{where}",
                checkpoint_path=report.checkpoint_path,
            )
        if report.capped:
            raise ExplorationInterrupted(
                f"exhaustive verification stopped at max_runs={max_runs} "
                f"after {report.explored} nodes; a certificate needs every "
                "run (raise max_runs)"
            )
        if not report.ok:
            schedule, _ = report.violations[0]
            raise SafetyViolation(
                f"{len(report.violations)} interleaving(s) violate "
                f"{task.name}; first witness schedule: "
                f"{[str(pid) for pid in schedule]}"
            )
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
    from .algorithms.dispatch import solve_restricted

    return solve_restricted(
        task,
        inputs=inputs,
        concurrency=concurrency,
        scheduler=scheduler,
        seed=seed,
        max_steps=max_steps,
        check=check,
    )
