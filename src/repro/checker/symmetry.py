"""Symmetry reduction over interchangeable C-processes.

Two C-processes are *symmetric* when they run the identical automaton
factory on equal task inputs: every reachable state is then mapped to
another reachable state by swapping the pair, and — provided the task
itself is invariant under permuting equal-input positions, which the
differential tests enforce per task — the swapped state violates the
task if and only if the original does.  Groups of pairwise-symmetric,
participating C-process indices are *orbits* (:func:`c_orbits`).

Two reductions exploit this:

* **Candidate pruning** (:func:`prune_interchangeable`): when several
  orbit members are schedulable and their execution histories so far
  are *literally* equal — same started/halted flags, same step count,
  the same operations performed and the same results received —
  stepping any of them leads to states that are images of each other
  under the swap, so only the smallest index is explored.  Literal
  operation equality matters: equal *results* alone do not imply the
  processes touched the same registers (an automaton may embed its own
  index in register names).  The exploring executor's history digest
  (:meth:`~repro.runtime.history_trie.ExploringExecutor.slot_view`)
  covers both sequences, so equal digests are exactly this condition.

* **Canonical fingerprints** (:func:`canonical_fingerprint`): the
  dedup fingerprint is made orbit-invariant by (a) listing each
  orbit's per-member state bundles as a *sorted multiset* rather than
  in index order and (b) folding the members' ``inp/<i>`` registers —
  the only registers whose names the executor itself derives from a
  process index — into those bundles: their terms are subtracted from
  the executor's additive memory digest, and each bundle carries its
  member's input.  All other memory is compared literally, so two
  states only collapse when the permutation matching their bundles
  maps each member onto one with an identical history digest and
  decision — exactly the condition under which the states are literal
  images of each other under the permutation.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import TYPE_CHECKING, Any

from ..core.process import c_process
from ..core.system import System, input_register
from ..memory.registers import DIGEST_MASK

if TYPE_CHECKING:
    from ..runtime.history_trie import ExploringExecutor

__all__ = ["c_orbits", "prune_interchangeable", "canonical_fingerprint"]


def c_orbits(system: System) -> tuple[tuple[int, ...], ...]:
    """Orbits of the system's C-processes: maximal groups (size >= 2)
    of participating indices sharing the identical automaton factory
    object and an equal input value."""
    groups: dict[tuple[int, str], list[int]] = {}
    for i, factory in enumerate(system.c_factories):
        value = system.inputs[i]
        if value is None:
            continue  # non-participant: never scheduled, nothing to swap
        groups.setdefault((id(factory), repr(value)), []).append(i)
    return tuple(
        tuple(members)
        for members in groups.values()
        if len(members) >= 2
    )


def _bundle(executor: ExploringExecutor, index: int) -> tuple:
    return executor.slot_view(c_process(index)) + (
        repr(executor.decisions.get(index, _UNDECIDED)),
    )


class _Undecided:
    def __repr__(self) -> str:  # stable across processes/sessions
        return "<undecided>"


_UNDECIDED = _Undecided()


def prune_interchangeable(
    executor: ExploringExecutor,
    orbits: tuple[tuple[int, ...], ...],
    candidates: tuple,
) -> tuple:
    """Drop candidate C-processes that are interchangeable with a
    smaller-indexed candidate of the same orbit (identical history so
    far, see module docstring).  Keeps candidate order otherwise."""
    dropped: set[int] = set()
    for orbit in orbits:
        reps: list[tuple[int, tuple]] = []
        for index in orbit:
            if c_process(index) not in candidates:
                continue
            bundle = _bundle(executor, index)
            for _, rep_bundle in reps:
                if bundle == rep_bundle:
                    dropped.add(index)
                    break
            else:
                reps.append((index, bundle))
    if not dropped:
        return candidates
    return tuple(
        pid
        for pid in candidates
        if not (pid.is_computation and pid.index in dropped)
    )


def canonical_fingerprint(
    executor: ExploringExecutor, orbits: tuple[tuple[int, ...], ...]
) -> bytes:
    """Orbit-invariant state digest (see module docstring), built from
    the exploring executor's slot views and memory digest."""
    member_of: dict[int, int] = {}
    for orbit_no, orbit in enumerate(orbits):
        for index in orbit:
            member_of[index] = orbit_no
    memory = executor.memory
    folded = memory.digest - sum(
        memory.term(input_register(i)) for i in member_of
    )
    fixed_slots: list[tuple] = []
    orbit_bundles: list[list[tuple]] = [[] for _ in orbits]
    for pid in executor.system.all_pids():
        if pid.is_computation and pid.index in member_of:
            bundle = _bundle(executor, pid.index) + (
                repr(executor.system.inputs[pid.index]),
            )
            orbit_bundles[member_of[pid.index]].append(bundle)
        else:
            started, halted, _steps, digest = executor.slot_view(pid)
            fixed_slots.append((started, halted, digest))
    # The memory digest is a sum and the decided vector is indexed, so
    # neither needs sorting.
    state: Any = (
        executor.time,
        folded & DIGEST_MASK,
        [
            item
            for item in enumerate(executor.decided_vector())
            if item[0] not in member_of
        ],
        fixed_slots,
        [sorted(bundles) for bundles in orbit_bundles],
    )
    return blake2b(repr(state).encode(), digest_size=16).digest()
