"""Concurrency-level classification of tasks (Theorem 10's invariant).

The paper's headline: every task belongs to exactly one class ``k`` —
the largest concurrency level at which it is solvable — and the weakest
failure detector solving it in EFD is ``anti-Omega-k``.  This module
classifies concrete tasks by combining three kinds of evidence:

* **validated-runs** — a provided restricted algorithm survives a sweep
  of k-concurrent executions (schedules x seeds x arrival orders x
  input vectors); :func:`explore_k_concurrent` hardens it into an
  exhaustive certificate over all gated interleavings of a small
  instance;
* **topology-certificate** — for (<= 2)-participant tasks, the exact
  decision of :mod:`repro.topology.solvability` (not 2-concurrently
  solvable => class exactly 1, by Proposition 1);
* **literature** — lower bounds beyond dimension 1 (e.g. k-set
  agreement not (k+1)-concurrently solvable, from [11, 27]) are cited,
  not re-proved; the classifier labels them as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..checker.explorer import (
    ScheduleExplorer,
    concurrency_gate,
    drop_null_s_processes,
    task_safety_verdict,
)
from ..core.system import System
from ..core.task import Task, Vector, participants
from ..runtime import SeededRandomScheduler, execute, k_concurrent
from ..topology.solvability import decide_two_process_solvability


@dataclass(frozen=True)
class Evidence:
    """One piece of classification evidence."""

    kind: str  # validated-runs | proposition-1 | maximum |
    #            topology-certificate | literature | open
    detail: str


@dataclass(frozen=True)
class TaskClassification:
    """A row of the task hierarchy."""

    task_name: str
    level: int
    exact: bool
    upper: Evidence
    lower: Evidence

    @property
    def weakest_detector(self) -> str:
        """Theorem 10: the weakest detector of a class-k task (the
        trivial detector for wait-free tasks, by Proposition 2)."""
        if self.lower.kind == "maximum":
            return "trivial (wait-free)"
        prefix = "" if self.exact else ">= "
        if self.level == 1:
            return f"{prefix}Omega (= anti-Omega-1)"
        return f"{prefix}anti-Omega-{self.level}"


def validate_k_concurrent(
    task: Task,
    factories: Sequence[Callable],
    k: int,
    *,
    input_vectors: Iterable[Vector] | None = None,
    seeds: Iterable[int] = range(3),
    max_inputs: int = 6,
    max_steps: int = 150_000,
) -> bool:
    """Sweep k-concurrent runs of a restricted algorithm; ``True`` iff
    every run decided all participants within the task relation."""
    if input_vectors is None:
        input_vectors = itertools.islice(
            task.maximal_input_vectors(), max_inputs
        )
    for inputs in input_vectors:
        present = sorted(participants(inputs))
        arrival_orders = [present, list(reversed(present))]
        for seed in seeds:
            for arrival in arrival_orders:
                system = System(inputs=inputs, c_factories=list(factories))
                scheduler = k_concurrent(
                    SeededRandomScheduler(seed), k, arrival_order=arrival
                )
                result = execute(system, scheduler, max_steps=max_steps)
                if not result.all_participants_decided:
                    return False
                if not result.satisfies(task):
                    return False
    return True


def explore_k_concurrent(
    task: Task,
    factories: Sequence[Callable],
    k: int,
    inputs: Vector,
    *,
    max_depth: int = 14,
    max_runs: int = 200_000,
    dedup: bool = False,
    por: bool = False,
    symmetry: bool = False,
    deadline_s: float | None = None,
    checkpoint_path: str | None = None,
    resume_from: str | None = None,
    handle_signals: bool = False,
):
    """Exhaustively explore every k-concurrent interleaving of a
    restricted algorithm on one small instance, checking the task
    relation at every node.  The keyword knobs are the
    :class:`~repro.checker.explorer.ScheduleExplorer` reduction knobs
    (``dedup`` / ``por`` / ``symmetry`` change node counts, never the
    verdict) plus the preemption knobs of
    :meth:`~repro.checker.explorer.ScheduleExplorer.check`
    (``deadline_s`` / ``checkpoint_path`` / ``resume_from`` /
    ``handle_signals``) for deep explorations that must survive
    wall-clock budgets and signals.  Returns the full exploration
    report: it is a certificate when its ``conclusion`` is
    ``"certified"``, and ``require_certificate()`` raises otherwise."""

    def build() -> System:
        return System(inputs=inputs, c_factories=list(factories))

    def gate(executor, candidates):
        return concurrency_gate(k)(
            executor, drop_null_s_processes(executor, candidates)
        )

    explorer = ScheduleExplorer(
        build,
        max_depth=max_depth,
        candidate_filter=gate,
        max_runs=max_runs,
        dedup=dedup,
        por=por,
        symmetry=symmetry,
    )
    return explorer.check(
        task_safety_verdict(task),
        deadline_s=deadline_s,
        checkpoint_path=checkpoint_path,
        resume_from=resume_from,
        handle_signals=handle_signals,
    )


def classify_task(
    task: Task,
    *,
    algorithm_for: Callable[[int], Sequence[Callable] | None],
    max_k: int,
    two_process_restriction: Task | None = None,
    literature_lower: tuple[int, str] | None = None,
    validate_kwargs: dict | None = None,
) -> TaskClassification:
    """Classify one task.

    Args:
        task: the task to classify.
        algorithm_for: maps a level ``k`` to a restricted algorithm
            claimed correct k-concurrently (or ``None`` if the library
            has none for that level).
        max_k: largest level to attempt.
        two_process_restriction: a (<= 2)-participant rendering of the
            task for the exact dimension-1 lower bound (applicable when
            class 1 vs >= 2 is the question).
        literature_lower: ``(level, citation)`` — an accepted lower
            bound "not (level+1)-concurrently solvable".
        validate_kwargs: forwarded to :func:`validate_k_concurrent`.
    """
    validate_kwargs = validate_kwargs or {}
    best = 0
    for k in range(1, max_k + 1):
        factories = algorithm_for(k)
        if factories is None:
            break
        if validate_k_concurrent(task, factories, k, **validate_kwargs):
            best = k
        else:
            break
    if best == 0:
        raise ValueError(f"no level validated for {task!r}")
    upper = Evidence(
        kind="validated-runs",
        detail=(
            f"library algorithm survives the {best}-concurrent run sweep"
        ),
    )
    if best == 1:
        upper = Evidence(
            kind="proposition-1",
            detail="every task is 1-concurrently solvable (Prop. 1)",
        )
    if best >= task.n:
        # n is the largest possible concurrency level: nothing above it
        # exists to be unsolvable at, so the class is exact.
        return TaskClassification(
            task_name=task.name,
            level=task.n,
            exact=True,
            upper=upper,
            lower=Evidence(
                kind="maximum",
                detail="n-concurrency is the largest level (wait-free)",
            ),
        )
    # Lower bound (not (best+1)-concurrent).
    if two_process_restriction is not None and best == 1:
        verdict = decide_two_process_solvability(two_process_restriction)
        if not verdict.solvable:
            return TaskClassification(
                task_name=task.name,
                level=1,
                exact=True,
                upper=upper,
                lower=Evidence(
                    kind="topology-certificate",
                    detail=verdict.obstruction or "dimension-1 obstruction",
                ),
            )
    if literature_lower is not None and literature_lower[0] == best:
        return TaskClassification(
            task_name=task.name,
            level=best,
            exact=True,
            upper=upper,
            lower=Evidence(kind="literature", detail=literature_lower[1]),
        )
    return TaskClassification(
        task_name=task.name,
        level=best,
        exact=False,
        upper=upper,
        lower=Evidence(
            kind="open",
            detail=(
                f"no lower-bound certificate for level {best + 1} in this "
                "library"
            ),
        ),
    )
