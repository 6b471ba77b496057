"""Exhaustive schedule exploration of small systems.

For tiny process counts and bounded depth, *every* interleaving of a
system can be enumerated, turning "for all schedules" claims (task
safety, k-concurrency bounds) into machine-checked facts rather than
sampled evidence.  The classifier and several integration tests use
this to certify the upper-bound algorithms on small instances.

Exploration is a DFS over the executor's ``schedulable()`` sets, and
one exploring executor walks the whole of it.  Frontier entries are
``(schedule, sleep mask)`` pairs.  DFS order guarantees that the entry
popped next was pushed by a node on the executor's current path, so
visiting it means undoing back to that parent — one
:meth:`~repro.runtime.history_trie.ExploringExecutor.undo_to` call,
O(1) per step — and taking one step, which mostly follows a known
history-trie edge; no automaton code is re-run to backtrack.  The
executor handed to the verdict and the candidate filter therefore
moves on as soon as they return, and a violation's
:class:`~repro.core.run.RunResult` is built by replaying its schedule
on a fresh executor.

Optional state-fingerprint deduplication (``dedup=True``) prunes
interleavings that reach an execution state already explored at the
same depth (symmetric interleavings of independent operations).  It is
off by default because it changes the reported node counts; violations
found are the same either way, since a deduplicated state has an
identical future to its first occurrence.

Partial-order reduction (``por=True``) prunes sibling orders of
*commuting* steps with sleep sets (Godefroid): after exploring branch
``a`` of a node, every branch explored later adds ``a`` to its child's
sleep set for as long as only steps independent of ``a`` are taken —
and a sleeping process is never branched on, because the state its
step would reach is reached (and checked) inside the earlier sibling's
subtree.  Independence comes from :mod:`repro.checker.independence`:
disjoint register footprints, with ``QueryFD`` / ``Decide`` /
first-steps treated as globally dependent and the whole reduction
suspended while crash transitions are pending.  Sleep sets preserve
the *set of visited states* (only duplicate orders are dropped), so a
per-node verdict sees exactly the states the naive explorer sees —
``por`` changes node counts, never the verdict.  It requires the
candidate filter, if any, to be a pure function of the candidate and
the executor's ``started_c`` / ``decided_c`` sets (both built-ins
are), so that steps independent of a process can never enable or
disable it.

Symmetry reduction (``symmetry=True``) prunes schedulable C-processes
that are *interchangeable* — same automaton factory, equal input,
literally identical history so far — with a smaller-indexed candidate
(see :mod:`repro.checker.symmetry`), and, when combined with
``dedup``, canonicalizes fingerprints so states differing only by a
permutation of interchangeable processes collapse.  Sound for tasks
that are invariant under permuting equal-input positions (all tasks in
this repository; enforced by the differential tests).

A sleep set is a bitmask over slot positions: bit ``i`` stands for the
``i``-th process of ``system.all_pids()``.  A sleep test is a bit test,
a child's set is the OR of the bits of the sleeping and already-taken
branches that commute with its branch, and no set of process ids is
built.  Masks over a handful of processes are small ints, which
CPython shares.

When ``por`` and ``dedup`` are combined, a revisited fingerprint is
only pruned if some earlier visit carried a *subset* of the current
sleep set — i.e. explored at least every branch this visit would.  An
unconditional prune would be unsound (the classic sleep-sets versus
state-caching interaction): the first visit may have skipped branches
whose coverage was promised by siblings of *its* path, a promise that
says nothing about the new path.  The ``seen`` map keeps one mask per
fingerprint, and a list of pairwise incomparable masks only for the
few states visited with incomparable sleep sets; a visit that strictly
dominates a recorded one (a proper subset of its sleep set) replaces
it.

Exploration is *preemptible*: the DFS runs over an explicit frontier
stack (not Python recursion), so :meth:`ScheduleExplorer.check` can
stop at a wall-clock ``deadline_s`` or on SIGINT/SIGTERM, serialize the
frontier — pending ``(schedule, sleep mask)`` nodes, the report
counters, and the dedup ``seen`` map — to an atomic checkpoint file
(format version 4: sleep masks, and ``seen`` keyed by the executor's
sum fingerprints; earlier versions are refused),
and a later ``resume_from`` run replays the first saved node's schedule
from a fresh executor and continues *exactly*: the final report of an
interrupted-and-resumed exploration is equal, counter for counter, to
an uninterrupted one, because nodes are expanded in the identical
order and no counter is charged twice (the frontier is saved before
the next node is popped).  The resuming interpreter may differ: no
Python ``hash`` enters a fingerprint, so the ``seen`` map stays valid
under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import pickle
import signal as _signal
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from ..core.process import ProcessId
from ..core.system import System
from ..errors import ExplorationInterrupted, ResilienceError, SafetyViolation
from ..resilience import atomic_write_bytes
from ..runtime.executor import Executor
from ..runtime.history_trie import ExploringExecutor
from .independence import StepFootprint, commutes, step_footprint
from .symmetry import c_orbits, canonical_fingerprint, prune_interchangeable

EXPLORER_CHECKPOINT_FORMAT = "repro-explorer-checkpoint"
EXPLORER_CHECKPOINT_VERSION = 4

#: Explorer knobs that must match between a checkpoint and the
#: explorer resuming from it.
_KNOB_NAMES = ("max_depth", "max_runs", "dedup", "por", "symmetry")


@dataclass
class ExplorationReport:
    """Outcome of one exhaustive exploration.

    ``interrupted`` marks a run that stopped at its deadline or on a
    signal rather than exhausting the frontier; when a checkpoint was
    requested, ``checkpoint_path`` names the file a ``resume_from`` run
    continues from.  ``capped`` marks a run that stopped at
    ``max_runs`` with nodes left to explore.  ``ok`` only says that no
    violation was found; :attr:`conclusion` says what the report
    certifies, and :meth:`require_certificate` raises unless it is a
    certificate.  The fields are the layout pickled into checkpoint
    files.
    """

    explored: int = 0
    completed_runs: int = 0
    truncated_runs: int = 0
    deduplicated: int = 0
    por_pruned: int = 0
    symmetry_pruned: int = 0
    violations: list[tuple[tuple[ProcessId, ...], object]] = field(
        default_factory=list
    )
    interrupted: bool = False
    checkpoint_path: str | None = None
    capped: bool = False
    #: nodes a resumed run's checkpoint had already explored (0 for a
    #: run that did not resume); ``explored`` counts them too
    resumed_explored: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def conclusion(self) -> str:
        """``"interrupted"`` (deadline or signal), ``"violated"`` (some
        interleaving left the task relation), ``"capped"`` (stopped at
        ``max_runs``), ``"bounded"`` (no violation, but some run was
        cut at ``max_depth``) or ``"certified"`` (every run ended
        within the task relation), the first that holds."""
        if self.interrupted:
            return "interrupted"
        if self.violations:
            return "violated"
        if self.capped:
            return "capped"
        if self.truncated_runs:
            return "bounded"
        return "certified"

    def require_certificate(self) -> "ExplorationReport":
        """Return the report if it is a certificate.  Otherwise raise
        :class:`~repro.errors.SafetyViolation` with the first witness
        schedule of a violation, or
        :class:`~repro.errors.ExplorationInterrupted` for a report that
        stopped early (carrying ``checkpoint_path`` when its frontier
        was saved) or truncated runs: it certifies nothing about the
        schedules it did not reach."""
        conclusion = self.conclusion
        if conclusion == "certified":
            return self
        if conclusion == "violated":
            schedule, _ = self.violations[0]
            raise SafetyViolation(
                f"{len(self.violations)} interleaving(s) violate the task "
                f"relation; first witness schedule: "
                f"{[str(pid) for pid in schedule]}"
            )
        if conclusion == "interrupted":
            where = (
                f"; frontier saved to {self.checkpoint_path} "
                "(pass resume_from=... to continue)"
                if self.checkpoint_path
                else ""
            )
            message = (
                f"exhaustive verification stopped after {self.explored} "
                f"nodes{where}"
            )
        elif conclusion == "capped":
            # The cap is checked before every node, so a capped run
            # stops with exactly ``max_runs`` runs counted.
            message = (
                "exhaustive verification stopped at max_runs="
                f"{self.completed_runs + self.truncated_runs} after "
                f"{self.explored} nodes; a certificate needs every run "
                "(raise max_runs)"
            )
        else:
            message = (
                f"{self.truncated_runs} runs truncated at the depth bound "
                f"after {self.explored} nodes: a bounded check, not a "
                "certificate (raise max_depth)"
            )
        raise ExplorationInterrupted(
            message, checkpoint_path=self.checkpoint_path
        )


class ScheduleExplorer:
    """Enumerate all interleavings of a (small) system up to a depth.

    Args:
        system_builder: creates the system to explore, once per
            :meth:`check` (systems are deterministic given their seed).
        max_depth: schedule-length bound.
        candidate_filter: optional narrowing of the schedulable set
            (e.g. drop null-stepping S-processes, or impose the
            k-concurrency gate); receives the executor and the candidate
            tuple, returns the candidates to branch on.
        max_runs: hard cap on completed+truncated runs (safety valve);
            a run that hits it reports ``capped``.
        dedup: prune states whose fingerprint was already explored
            (opt-in; changes node counts, never the verdict).
        por: sleep-set partial-order reduction — prune sibling orders
            of independent steps (opt-in; changes node counts, never
            the verdict; see module docstring for the candidate-filter
            purity requirement).
        symmetry: prune interchangeable C-processes and, with
            ``dedup``, canonicalize fingerprints over process orbits
            (opt-in; sound for permutation-invariant tasks, see module
            docstring).
    """

    def __init__(
        self,
        system_builder: Callable[[], System],
        *,
        max_depth: int,
        candidate_filter: Callable | None = None,
        max_runs: int = 200_000,
        dedup: bool = False,
        por: bool = False,
        symmetry: bool = False,
    ) -> None:
        self.system_builder = system_builder
        self.max_depth = max_depth
        self.candidate_filter = candidate_filter
        self.max_runs = max_runs
        self.dedup = dedup
        self.por = por
        self.symmetry = symmetry
        self._orbits: tuple[tuple[int, ...], ...] = ()
        #: set by :meth:`request_interrupt` (or a signal handler) to
        #: stop the running :meth:`check` before its next node.
        self._interrupt = False
        #: schedule of the node currently being visited.
        self.current_schedule: tuple[ProcessId, ...] = ()
        #: the one executor a :meth:`check` walks the tree with
        self._executor: ExploringExecutor | None = None
        self._system: System | None = None

    # -- executor management -------------------------------------------

    def _shared_system(self) -> System:
        """One system instance serves every executor of an exploration:
        systems are immutable during execution (all run state lives in
        the executor), histories are pure functions of (process, time),
        and the system owns the history tries the executors share."""
        if self._system is None:
            self._system = self.system_builder()
        return self._system

    def _fresh_executor(self) -> ExploringExecutor:
        return ExploringExecutor(self._shared_system())

    def _violation(self, schedule: tuple[ProcessId, ...]):
        """The result of a violating run, on an executor of its own:
        the shared one moves on (violations are rare)."""
        executor = self._fresh_executor()
        for pid in schedule:
            executor.step_trusted(pid)
        return executor.result("violation")

    def _branches(
        self, executor: ExploringExecutor, report: "ExplorationReport"
    ) -> Sequence[ProcessId]:
        candidates = executor.schedulable()
        if self.candidate_filter is not None:
            candidates = tuple(self.candidate_filter(executor, candidates))
        if self._orbits:
            kept = prune_interchangeable(executor, self._orbits, candidates)
            report.symmetry_pruned += len(candidates) - len(kept)
            candidates = kept
        return candidates

    # -- exploration ----------------------------------------------------

    def request_interrupt(self) -> None:
        """Ask a running :meth:`check` to stop before its next node
        (and checkpoint, if a checkpoint path was given).  Safe to call
        from signal handlers or from inside the verdict callback."""
        self._interrupt = True

    def _knobs(self) -> dict:
        return {name: getattr(self, name) for name in _KNOB_NAMES}

    def _save_checkpoint(
        self,
        path: str,
        report: ExplorationReport,
        stack: list,
        seen: dict | None,
    ) -> None:
        payload = {
            "format": EXPLORER_CHECKPOINT_FORMAT,
            "version": EXPLORER_CHECKPOINT_VERSION,
            "knobs": self._knobs(),
            "report": report,
            "frontier": stack,
            "seen": seen,
        }
        atomic_write_bytes(path, pickle.dumps(payload, protocol=4))

    def _load_checkpoint(
        self, path: str
    ) -> tuple[ExplorationReport, list, dict | None]:
        try:
            payload = pickle.loads(open(path, "rb").read())
        except OSError as exc:
            raise ResilienceError(
                f"cannot read explorer checkpoint {path}: {exc}"
            ) from exc
        if payload.get("format") != EXPLORER_CHECKPOINT_FORMAT:
            raise ResilienceError(
                f"{path}: not an {EXPLORER_CHECKPOINT_FORMAT} file"
            )
        if payload.get("version") != EXPLORER_CHECKPOINT_VERSION:
            raise ResilienceError(
                f"{path}: unsupported checkpoint version "
                f"{payload.get('version')!r}"
            )
        if payload["knobs"] != self._knobs():
            raise ResilienceError(
                f"{path}: checkpoint was taken with different explorer "
                f"knobs {payload['knobs']} (this explorer: "
                f"{self._knobs()})"
            )
        return payload["report"], payload["frontier"], payload["seen"]

    def check(
        self,
        verdict: Callable[[Executor], bool | None],
        *,
        deadline_s: float | None = None,
        checkpoint_path: str | None = None,
        resume_from: str | None = None,
        handle_signals: bool = False,
    ) -> ExplorationReport:
        """Explore; ``verdict`` is called at every node and must return
        ``True`` (fine so far), ``False`` (violation — recorded, branch
        pruned), or ``None`` (finished successfully — e.g. everyone
        decided; branch ends).

        One executor walks the whole tree, so the executor handed to
        ``verdict`` (and to the candidate filter) is valid only during
        the call: read what it needs, keep nothing.

        ``deadline_s`` bounds wall-clock time; at expiry (or after
        :meth:`request_interrupt`, or SIGINT/SIGTERM when
        ``handle_signals`` is true) the exploration stops, writes its
        frontier to ``checkpoint_path`` (if given), and returns a
        report with ``interrupted=True``.  ``resume_from`` restores a
        previous checkpoint and continues exactly — the verdict
        callback must be semantically identical across the runs, and
        ``system_builder`` must rebuild the same system (both hold for
        all built-in verdicts/systems, which are pure functions of
        their specs)."""
        report = ExplorationReport()
        seen: dict[bytes, int | list[int]] | None = (
            {} if self.dedup else None
        )
        #: frontier entries: (schedule, sleep mask)
        stack: list = [((), 0)]
        if resume_from is not None:
            report, stack, seen = self._load_checkpoint(resume_from)
            report.interrupted = False
            report.checkpoint_path = None
            report.resumed_explored = report.explored
        self.current_schedule = ()
        self._system = None
        self._executor = self._fresh_executor()
        self._interrupt = False
        self._orbits = (
            c_orbits(self._shared_system()) if self.symmetry else ()
        )
        deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        restore: list[tuple[int, object]] = []
        if handle_signals:

            def _on_signal(signum, frame):  # pragma: no cover - signal
                self._interrupt = True

            for signum in (_signal.SIGINT, _signal.SIGTERM):
                try:
                    restore.append(
                        (signum, _signal.signal(signum, _on_signal))
                    )
                except ValueError:  # not the main thread
                    break
        try:
            self._explore_frontier(
                stack, verdict, report, seen, deadline_at, checkpoint_path
            )
        finally:
            for signum, previous in restore:
                _signal.signal(signum, previous)
        return report

    def _explore_frontier(
        self,
        stack: list,
        verdict: Callable[[Executor], bool | None],
        report: ExplorationReport,
        seen: dict[bytes, int | list[int]] | None,
        deadline_at: float | None,
        checkpoint_path: str | None,
    ) -> None:
        """DFS over an explicit frontier stack.

        Children are pushed in reverse so pops visit them in sibling
        order — node for node the same sequence the recursive DFS
        visited, which keeps every report counter (and the dedup/sleep
        interactions that depend on visit order) exactly reproducible
        across interrupt/resume.  Interrupts are honoured *between*
        nodes, before the next pop, so the saved frontier plus the
        counters so far is a complete description of the remaining
        work.
        """
        executor = self._executor
        undo_to = executor.undo_to
        step = executor.step_trusted
        orbits = self._orbits
        if orbits:

            def fingerprint() -> bytes:
                return canonical_fingerprint(executor, orbits)

        else:
            fingerprint = executor.fingerprint
        branches_of = self._branches
        max_depth = self.max_depth
        max_runs = self.max_runs
        por = self.por
        footprint = partial(step_footprint, executor)
        bits = _sleep_bits(self._shared_system())
        monotonic = time.monotonic
        pop = stack.pop
        while stack:
            if self._interrupt or (
                deadline_at is not None and monotonic() >= deadline_at
            ):
                report.interrupted = True
                if checkpoint_path is not None:
                    self._save_checkpoint(
                        checkpoint_path, report, stack, seen
                    )
                    report.checkpoint_path = checkpoint_path
                return
            if report.completed_runs + report.truncated_runs >= max_runs:
                report.capped = True
                return
            schedule, sleep = pop()
            # The executor's path ends at the node visited last, and
            # ``schedule``'s parent lies on it (DFS order): undo back to
            # the parent and take the last step.  Right after a resume
            # the path is empty, and the whole schedule is replayed.
            parent = len(schedule) - 1
            if executor.time > parent:
                undo_to(max(parent, 0))
            for pid in schedule[executor.time:]:
                step(pid)
            self.current_schedule = schedule
            if seen is not None:
                if _seen_covers(seen, fingerprint(), sleep):
                    report.deduplicated += 1
                    continue
            report.explored += 1
            outcome = verdict(executor)
            if outcome is False:
                report.violations.append((schedule, self._violation(schedule)))
                continue
            if outcome is None:
                report.completed_runs += 1
                continue
            if len(schedule) >= max_depth:
                report.truncated_runs += 1
                continue
            branches = branches_of(executor, report)
            if not branches:
                report.completed_runs += 1
                continue
            if por and not executor.crashes_pending():
                # Footprints must be taken *now*, while the executor
                # still holds this node's state: the next pop moves it.
                children, pruned = _sleep_children(
                    schedule, branches, sleep, footprint, bits
                )
                report.por_pruned += pruned
            else:
                # No POR here (disabled, or crash transitions pending —
                # everything is dependent, so all sleepers wake).
                children = [(schedule + (pid,), 0) for pid in branches]
            stack.extend(reversed(children))


def _seen_covers(
    seen: dict[bytes, int | list[int]], fingerprint: bytes, sleep: int
) -> bool:
    """Whether an earlier visit of this state makes the current one
    redundant, recording the current visit otherwise.  Without POR
    every sleep mask is 0 and this degenerates to plain set membership;
    with POR a prior visit only covers this one if its sleep set was a
    subset (it explored at least as much).

    ``seen[fingerprint]`` is one mask, or, once a visit arrives that is
    incomparable with the recorded one, a list of pairwise incomparable
    masks.  A visit that strictly dominates recorded ones (its sleep set
    is a proper subset of theirs) replaces them."""
    prior = seen.get(fingerprint)
    if prior is None:
        seen[fingerprint] = sleep
        return False
    if type(prior) is int:
        if sleep | prior == prior != sleep:
            seen[fingerprint] = sleep
            return False
        if prior | sleep == sleep:
            return True
        seen[fingerprint] = [prior, sleep]
        return False
    if any(mask | sleep == sleep for mask in prior):
        return True
    kept = [mask for mask in prior if sleep | mask != mask]
    kept.append(sleep)
    seen[fingerprint] = kept[0] if len(kept) == 1 else kept
    return False


def _sleep_bits(system: System) -> dict[ProcessId, int]:
    """Each process's bit in a sleep mask: bit ``i`` stands for the
    process at slot position ``i``, in ``system.all_pids()`` order."""
    return {pid: 1 << position for position, pid in enumerate(system.all_pids())}


def _sleep_children(
    schedule: tuple[ProcessId, ...],
    branches: Sequence[ProcessId],
    sleep: int,
    footprint: Callable[[ProcessId], StepFootprint],
    bits: dict[ProcessId, int],
) -> tuple[list[tuple[tuple[ProcessId, ...], int]], int]:
    """One node's sleep-set expansion: the frontier entry
    ``(schedule + (pid,), child mask)`` of every branch that is not
    asleep, in branch order, and the number of sleeping branches
    pruned.

    ``bits`` maps each process to its bit (:func:`_sleep_bits`), and
    ``footprint(pid)`` is the process's step footprint at the node.  A
    child's mask holds the bits of the sleeping and already-taken
    branches whose footprints commute with its branch's.
    """
    # (bit, footprint) of every sleeping or already-taken branch
    asleep: list[tuple[int, StepFootprint]] = (
        [(bit, footprint(pid)) for pid, bit in bits.items() if sleep & bit]
        if sleep
        else []
    )
    children = []
    pruned = 0
    for pid in branches:
        bit = bits[pid]
        if sleep & bit:
            pruned += 1
            continue
        taken = footprint(pid)
        child = 0
        for other, other_footprint in asleep:
            if commutes(other_footprint, taken):
                child |= other
        children.append((schedule + (pid,), child))
        asleep.append((bit, taken))
    return children, pruned


def drop_null_s_processes(executor: Executor, candidates):
    """Candidate filter: skip S-processes (restricted algorithms only —
    their null steps cannot affect any property)."""
    return tuple(pid for pid in candidates if pid.is_computation)


def concurrency_gate(k: int):
    """Candidate filter imposing the k-concurrency arrival rule."""

    def gate(executor: Executor, candidates):
        undecided = executor.started_c - executor.decided_c
        room = len(undecided) < k
        kept = []
        for pid in candidates:
            if not pid.is_computation or pid.index in executor.started_c:
                kept.append(pid)
            elif room:
                kept.append(pid)
        return tuple(kept)

    return gate


def task_safety_verdict(task):
    """Standard verdict: fail on a Delta violation, finish when all
    participants decided.

    The verdict is a pure function of ``(system inputs, started set,
    decided vector)`` — all of which change on only a handful of the
    steps in a run — so outcomes are memoized on that key.  During
    exhaustive exploration the overwhelming majority of nodes hit the
    cache and never reach ``task.allows``.
    """

    _miss = object()
    cache: dict = {}

    def verdict(executor: Executor):
        started = executor.started_c
        key = (executor.system.inputs, started, executor.decided_vector())
        outcome = cache.get(key, _miss)
        if outcome is not _miss:
            return outcome
        outputs = key[2]
        inputs = tuple(
            v if i in started else None
            for i, v in enumerate(executor.system.inputs)
        )
        if any(v is not None for v in inputs) and not task.allows(
            inputs, outputs
        ):
            outcome = False
        elif executor.system.participants <= executor.decided_c:
            outcome = None
        else:
            outcome = True
        cache[key] = outcome
        return outcome

    return verdict
