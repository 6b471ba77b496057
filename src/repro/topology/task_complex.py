"""Tasks as complexes: output graphs and carrier data for the 2-process
decision procedure.

For a task whose inputs involve at most two participants, each joint
input vector ``I`` (participants ``p, q``) induces the *allowed-output
graph* ``H_I``: vertices ``(p, a)`` / ``(q, b)`` for output values the
task permits, edges exactly the pairs ``(a, b)`` with the complete
output vector in ``Delta(I)``.  Solo inputs induce the sets of allowed
solo decisions.  These are the data the Biran-Moran-Zaks-style checker
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..core.task import Task, Vector, participants
from ..errors import SpecificationError
from .complexes import Complex, Vertex


@dataclass(frozen=True)
class JointInput:
    """One two-participant input with its allowed-output graph."""

    inputs: Vector
    p: int
    q: int
    graph: Complex


@dataclass(frozen=True)
class TwoProcessTaskData:
    """Everything the 2-process solvability checker needs."""

    task_name: str
    n: int
    solo_options: dict[tuple[int, Any], frozenset]
    joints: tuple[JointInput, ...]


def _solo_vector(n: int, p: int, value: Any) -> Vector:
    return tuple(value if i == p else None for i in range(n))


def output_graph(task: Task, inputs: Vector, output_values: Iterable) -> Complex:
    """The allowed-output graph ``H_I`` of a two-participant input."""
    present = sorted(participants(inputs))
    if len(present) != 2:
        raise SpecificationError(f"{inputs} does not have two participants")
    p, q = present
    graph = Complex()
    values = list(output_values)
    n = len(inputs)
    for a in values:
        for b in values:
            candidate = tuple(
                a if i == p else b if i == q else None for i in range(n)
            )
            if task.allows(inputs, candidate):
                graph.add({Vertex(p, a), Vertex(q, b)})
    return graph


def two_process_task_data(
    task: Task, *, output_values: Iterable | None = None
) -> TwoProcessTaskData:
    """Extract solo options and joint-input output graphs from a task
    whose inputs have at most two participants.

    Inputs with more than two participants are rejected — restrict the
    task first (e.g. via
    :func:`repro.tasks.builders.restrict_to_participants`).
    """
    if output_values is None:
        getter = getattr(task, "output_values", None)
        if getter is None:
            raise SpecificationError(f"{task!r} has no output_values()")
        output_values = tuple(getter())
    values = tuple(output_values)
    solo_options: dict[tuple[int, Any], set] = {}
    joints: list[JointInput] = []
    for inputs in task.input_vectors():
        present = sorted(participants(inputs))
        if len(present) > 2:
            raise SpecificationError(
                f"{task!r} has an input with {len(present)} participants; "
                "the 2-process checker requires at most two"
            )
        if len(present) == 1:
            p = present[0]
            key = (p, inputs[p])
            allowed = {
                a
                for a in values
                if task.allows(inputs, _solo_vector(task.n, p, a))
            }
            if not allowed:
                raise SpecificationError(
                    f"no solo output for p{p + 1} on input {inputs[p]!r}"
                )
            solo_options.setdefault(key, set()).update(allowed)
        else:
            p, q = present
            joints.append(
                JointInput(
                    inputs=inputs,
                    p=p,
                    q=q,
                    graph=output_graph(task, inputs, values),
                )
            )
    return TwoProcessTaskData(
        task_name=task.name,
        n=task.n,
        solo_options={
            key: frozenset(allowed) for key, allowed in solo_options.items()
        },
        joints=tuple(joints),
    )
