"""Dispatch: pick the right paper algorithm for a task.

:func:`repro.solve_task`, :func:`repro.solve_task_restricted`, ``repro
check`` and the chaos engine choose their algorithms here.  The
selection encodes the hierarchy:

* class-1 tasks (or any task attacked with Omega-strength advice) use
  the Proposition 1 universal solver;
* k-set agreement uses the announce-or-adopt class-k algorithm;
* (j, l)-renaming uses Figure 4, whose tolerated concurrency is
  ``l - j + 1`` (clamped to ``[1, j]``);
* (n, j)-WSB uses the class-(j-1) quorum-observation algorithm.

With a detector, :func:`build_solver_system` assembles the full
Theorem 9 double simulation (Figure 2 over BG), so a run really
exercises the paper's machinery rather than a shortcut.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core.failures import FailurePattern
from ..core.system import System
from ..core.task import Task, Vector
from ..detectors.anti_omega import AntiOmegaK
from ..detectors.omega import Omega
from ..detectors.vector_omega import VectorOmegaK
from ..errors import SpecificationError
from ..tasks.renaming import RenamingTask
from ..tasks.set_agreement import SetAgreementTask
from .kconcurrent_solver import theorem9_solver

# Each task family's algorithm (and WSB's task class) is imported in
# the branch that uses it: a campaign cell loads only the algorithm its
# solver runs.


def task_concurrency_class(task: Task) -> int:
    """The concurrency level this library can solve ``task`` at (the
    task's class, for the built-in families)."""
    if isinstance(task, SetAgreementTask):
        return task.k
    if isinstance(task, RenamingTask):
        return max(1, min(task.j, task.l - task.j + 1))
    from ..tasks.wsb import WeakSymmetryBreakingTask

    if isinstance(task, WeakSymmetryBreakingTask):
        return max(1, task.j - 1)
    return 1  # Proposition 1 covers everything at level 1.


def algorithm_for_task(task: Task, k: int) -> Sequence[Callable]:
    """A restricted algorithm correct in k-concurrent runs of ``task``.

    Raises if ``k`` exceeds what the library can honour for this task.
    """
    limit = task_concurrency_class(task)
    if k > limit:
        raise SpecificationError(
            f"{task!r} is only supported up to concurrency {limit}, "
            f"requested {k}"
        )
    if k == 1:
        from .one_concurrent import one_concurrent_factories

        return one_concurrent_factories(task)
    if isinstance(task, SetAgreementTask):
        from .kset_concurrent import kset_concurrent_factories

        return kset_concurrent_factories(task.n, task.k)
    if isinstance(task, RenamingTask):
        from .renaming_figure4 import figure4_factories

        return figure4_factories(task.n)
    from ..tasks.wsb import WeakSymmetryBreakingTask

    if isinstance(task, WeakSymmetryBreakingTask):
        from .wsb_concurrent import wsb_concurrent_factories

        return wsb_concurrent_factories(task.n, task.j)
    raise SpecificationError(
        f"no level-{k} algorithm for {task!r} in this library"
    )


def detector_level(detector: Any) -> int:
    """The set-agreement strength ``k`` of a supported detector."""
    if isinstance(detector, Omega):
        return 1
    if isinstance(detector, VectorOmegaK):
        return detector.k
    if isinstance(detector, AntiOmegaK):
        raise SpecificationError(
            "solve_task consumes the vector form: anti-Omega-k and "
            "vector-Omega-k are equivalent [28]; pass "
            f"VectorOmegaK(n={detector.n}, k={detector.k}) instead"
        )
    raise SpecificationError(
        f"unsupported detector for the generic solver: {detector!r}"
    )


def default_inputs(task: Task) -> Vector:
    """A canonical full-participation input vector."""
    if isinstance(task, SetAgreementTask):
        members = sorted(task.member_set)
        return tuple(
            task.domain[members.index(i) % len(task.domain)]
            if i in members
            else None
            for i in range(task.n)
        )
    if isinstance(task, RenamingTask):
        names = list(task.namespace)[: task.j]
        return tuple(
            names[i] if i < task.j else None for i in range(task.n)
        )
    from ..tasks.wsb import WeakSymmetryBreakingTask

    if isinstance(task, WeakSymmetryBreakingTask):
        return tuple(
            i + 1 if i < task.j else None for i in range(task.n)
        )
    return next(iter(task.input_vectors()))


def build_solver_system(
    task: Task,
    *,
    detector: Any,
    inputs: Vector | None = None,
    pattern: FailurePattern | None = None,
    seed: int = 0,
) -> System:
    """Assemble the Theorem 9 double-simulation system for ``task``.

    Shared by :func:`repro.solve_task` and the chaos engine, which
    runs the same systems under injected faults and explicit schedules.
    """
    k = detector_level(detector)
    limit = task_concurrency_class(task)
    level = min(k, limit)  # stronger advice than needed is fine
    inputs = default_inputs(task) if inputs is None else tuple(inputs)
    factories = algorithm_for_task(task, level)
    solver = theorem9_solver(
        n=task.n, k=level, algorithm_factories=list(factories)
    )
    # The simulation layer consumes vector advice of length `level`.
    run_detector = detector
    if isinstance(detector, VectorOmegaK) and detector.k != level:
        run_detector = VectorOmegaK(
            detector.n,
            level,
            stabilization_time=detector.stabilization_time,
        )
    return System(
        inputs=inputs,
        c_factories=list(solver.c_factories),
        s_factories=list(solver.s_factories),
        detector=run_detector,
        pattern=pattern,
        seed=seed,
    )
