"""Independence relation between pending steps, for partial-order
reduction.

Two enabled steps are *independent* at a state when executing them in
either order yields the same state and neither order enables or
disables the other — the forward-diamond condition sleep-set pruning
requires (Godefroid, *Partial-Order Methods for the Verification of
Concurrent Systems*).  The paper's step model (PAPER.md §2.1) makes
this a register question: a step atomically reads or writes named
shared registers, so two steps commute whenever their register
footprints are disjoint.

The relation here is deliberately conservative.  A step is *universal*
(dependent on everything) when any of the following holds:

* it is a ``QueryFD`` — detector output ``H(q, t)`` is indexed by the
  global time of the run, and every step advances time, so reordering
  an S-step past a query changes the query's result;
* it is a ``Decide`` — the decision vector feeds safety verdicts and
  candidate filters (e.g. the k-concurrency gate), so reordering it
  changes what the explorer observes at intermediate nodes;
* it is the first step of a C-process — the mandated input write also
  extends the *participating/started* set that verdicts and candidate
  filters read;
* its process is halted or otherwise has no pending op (it should not
  be schedulable at all — treat defensively).

Additionally, no pair is independent while the failure pattern still
holds pending crash transitions (``executor.crashes_pending()``):
crashes trigger at fixed *times*, and reordering steps around a crash
boundary changes which steps the crashed process managed to take.
Exhaustive exploration almost always runs under the crash-free pattern
(failure cases are sampled by the chaos engine instead), so this
node-level guard costs nothing in the common case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.process import ProcessId
from ..runtime import ops

if TYPE_CHECKING:
    from ..runtime.history_trie import ExploringExecutor

__all__ = [
    "StepFootprint",
    "op_footprint",
    "step_footprint",
    "commutes",
    "independent",
]


def op_footprint(
    op: ops.Operation,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]] | None:
    """The per-operation register footprint this module's independence
    relation is built on — ``(reads, read_prefixes, writes)``, or
    ``None`` for universally-dependent operations.

    This is re-exported here (rather than callers reaching into
    :func:`repro.runtime.ops.footprint` directly) so the lint
    footprint audit provably checks *the same declaration* the
    partial-order reduction trusts: a dynamic result the declared
    footprint cannot explain is a POR soundness bug.
    """
    return ops.footprint(op)


@dataclass(frozen=True, slots=True)
class StepFootprint:
    """Register footprint of one process's pending step (exploring
    executors keep one per history-trie node, hence the slots)."""

    pid: ProcessId
    reads: tuple[str, ...]
    read_prefixes: tuple[str, ...]
    writes: tuple[str, ...]
    #: dependent on every other step (see module docstring)
    universal: bool = False


def step_footprint(
    executor: ExploringExecutor, pid: ProcessId
) -> StepFootprint:
    """Footprint of the step ``pid`` would take next in ``executor``.

    A started process's footprint depends only on its pending operation,
    so it is computed once per history-trie node and cached there."""
    node = executor.history_node(pid)
    if node is None:
        return _footprint(
            pid,
            executor.peek(pid),
            pid.is_computation and pid.index not in executor.started_c,
        )
    footprint = node.footprint
    if footprint is None:
        footprint = node.footprint = _footprint(pid, node.pending, False)
    return footprint


def _footprint(pid: ProcessId, op, first_step: bool) -> StepFootprint:
    if first_step or op is None:
        return StepFootprint(pid, (), (), (), universal=True)
    prints = op_footprint(op)
    if prints is None or isinstance(op, ops.Decide):
        return StepFootprint(pid, (), (), (), universal=True)
    reads, prefixes, writes = prints
    return StepFootprint(pid, reads, prefixes, writes)


def _write_conflicts(
    writes: tuple[str, ...], other: StepFootprint
) -> bool:
    for w in writes:
        if w in other.writes or w in other.reads:
            return True
        for prefix in other.read_prefixes:
            if w.startswith(prefix):
                return True
    return False


def commutes(a: StepFootprint, b: StepFootprint) -> bool:
    """Whether the two footprinted steps commute (state-independent
    check; callers must separately guard crash boundaries, see
    :func:`independent`)."""
    if a.universal or b.universal:
        return False
    return not (
        _write_conflicts(a.writes, b) or _write_conflicts(b.writes, a)
    )


def independent(
    executor: ExploringExecutor, p: ProcessId, q: ProcessId
) -> bool:
    """Whether the pending steps of ``p`` and ``q`` are independent at
    the executor's current state.  Convenience entry point (the
    explorer computes footprints once per node instead)."""
    if p == q or executor.crashes_pending():
        return False
    return commutes(step_footprint(executor, p), step_footprint(executor, q))
