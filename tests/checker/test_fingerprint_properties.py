"""Generative check of the exploring executor's state identity.

An exploring executor (``record_results=True``) identifies a process's
state by its history-trie digest instead of keeping what it received.
Over random legal schedules of the Figure 4 and k-set-concurrent
systems, two exploring executors must have equal fingerprints exactly
when a plain generator-driven reference, which logs every operation and
result, reaches equal states; and symmetry pruning must keep exactly
the candidates the reference logs say are interchangeable.  Undoing
steps must leave an exploring executor exactly where a fresh one
replaying the surviving path gets, in every observable.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.kset_concurrent import kset_concurrent_factory
from repro.algorithms.renaming_figure4 import figure4_factory
from repro.checker import c_orbits, canonical_fingerprint, prune_interchangeable
from repro.core import FailurePattern, System
from repro.core.process import c_process
from repro.core.system import null_automaton
from repro.runtime import Executor
from repro.runtime.scheduler import ExplicitScheduler

#: case name -> (C-automaton factory, input vector)
CASES = {
    "figure4": (figure4_factory, (1, 1, 2)),
    "kset": (kset_concurrent_factory(2), (1, 1, 0)),
}


class _Recorder:
    """Wraps automata so that each logs the ``(op, result)`` pairs it
    was resumed with, and whether it returned."""

    def __init__(self) -> None:
        self.history: dict = {}
        self.returned: set = set()

    def wrap(self, factory):
        def wrapped(ctx):
            history = self.history.setdefault(ctx.pid, [])
            inner = factory(ctx)
            try:
                op = next(inner)
                while True:
                    result = yield op
                    history.append((op, result))
                    op = inner.send(result)
            except StopIteration:
                self.returned.add(ctx.pid)

        return wrapped


def _pair(case):
    """An exploring executor and a logged reference, same system."""
    factory, inputs = CASES[case]
    n = len(inputs)
    recorder = _Recorder()
    reference = Executor(
        System(
            inputs=inputs,
            c_factories=[recorder.wrap(factory)] * n,
            s_factories=[recorder.wrap(null_automaton)] * n,
        ),
        ExplicitScheduler([], strict=False),
    )
    exploring = Executor(
        System(inputs=inputs, c_factories=[factory] * n),
        ExplicitScheduler([], strict=False),
        record_results=True,
    )
    return exploring, reference, recorder


def _drive(executors, schedule):
    """Step every executor through ``schedule``, stopping at the first
    process that is not schedulable."""
    for pid in schedule:
        candidates = executors[0].schedulable()
        for executor in executors[1:]:
            assert executor.schedulable() == candidates
        if pid not in candidates:
            break
        for executor in executors:
            executor.step(pid)


def _realize(case, choices):
    """The schedule that picks ``choices[i]`` (mod the candidate count)
    among the schedulable processes at step ``i``."""
    executor = _pair(case)[0]
    schedule = []
    for choice in choices:
        candidates = executor.schedulable()
        if not candidates:
            break
        pid = candidates[choice % len(candidates)]
        executor.step(pid)
        schedule.append(pid)
    return schedule


def _reference_state(executor, recorder):
    decided = executor.decisions
    return (
        executor.time,
        executor.memory.snapshot(""),
        dict(decided),
        tuple(
            (
                pid.is_computation and pid.index in executor.started_c,
                pid in recorder.returned
                or (pid.is_computation and pid.index in decided),
                tuple(result for _op, result in recorder.history.get(pid, ())),
            )
            for pid in executor.system.all_pids()
        ),
    )


def _reference_prune(executor, recorder, orbits, candidates):
    """``prune_interchangeable`` from the reference logs: members are
    interchangeable when they performed the same operations and received
    the same results, as the symmetry module specifies."""
    steps = executor.result("probe").step_counts
    dropped = set()
    for orbit in orbits:
        kept_bundles = []
        for index in orbit:
            pid = c_process(index)
            if pid not in candidates:
                continue
            bundle = (
                index in executor.started_c,
                pid in recorder.returned or index in executor.decisions,
                steps[pid],
                tuple(recorder.history.get(pid, ())),
                executor.decisions.get(index, "undecided"),
            )
            if bundle in kept_bundles:
                dropped.add(index)
            else:
                kept_bundles.append(bundle)
    return tuple(
        p for p in candidates if not (p.is_computation and p.index in dropped)
    )


def _swapped(schedule, at):
    if len(schedule) < 2:
        return list(schedule)
    i = at % (len(schedule) - 1)
    out = list(schedule)
    out[i], out[i + 1] = out[i + 1], out[i]
    return out


choice_lists = st.lists(st.integers(0, 5), max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(sorted(CASES)),
    first=choice_lists,
    second=st.one_of(
        st.tuples(st.just("swap"), st.integers(0, 11)),
        st.tuples(st.just("draw"), choice_lists),
    ),
)
@example(case="kset", first=[0, 1], second=("swap", 0))
@example(case="figure4", first=[0, 1, 1, 0], second=("swap", 1))
def test_fingerprints_match_reference_states(case, first, second):
    schedule_a = _realize(case, first)
    kind, arg = second
    schedule_b = (
        _swapped(schedule_a, arg) if kind == "swap" else _realize(case, arg)
    )
    runs = []
    for schedule in (schedule_a, schedule_b):
        exploring, reference, recorder = _pair(case)
        _drive([exploring, reference], schedule)
        runs.append((exploring, reference, recorder))
    (ex_a, ref_a, rec_a), (ex_b, ref_b, rec_b) = runs
    same_state = _reference_state(ref_a, rec_a) == _reference_state(
        ref_b, rec_b
    )
    assert (ex_a.fingerprint() == ex_b.fingerprint()) == same_state
    for exploring, reference, recorder in runs:
        orbits = c_orbits(exploring.system)
        candidates = exploring.schedulable()
        assert prune_interchangeable(
            exploring, orbits, candidates
        ) == _reference_prune(reference, recorder, orbits, candidates)


#: case name -> (C-automaton factory, input vector, failure pattern):
#: the systems above, plus crash transitions that retire S-processes
#: mid-run
UNDO_CASES = {
    **{name: (factory, inputs, None) for name, (factory, inputs) in CASES.items()},
    "figure4-crashes": (
        figure4_factory,
        (1, 1, 2),
        FailurePattern(3, (2, None, 5)),
    ),
}


def _undo_system(case):
    factory, inputs, pattern = UNDO_CASES[case]
    return System(
        inputs=inputs, c_factories=[factory] * len(inputs), pattern=pattern
    )


def _observed(executor):
    orbits = c_orbits(executor.system)
    return (
        executor.time,
        executor.fingerprint(),
        canonical_fingerprint(executor, orbits),
        list(executor.memory.snapshot("").items()),
        executor.schedulable(),
        executor.started_c,
        executor.decided_c,
        executor.decided_vector(),
        [executor.slot_view(pid) for pid in executor.system.all_pids()],
    )


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(sorted(UNDO_CASES)),
    actions=st.lists(
        st.one_of(st.integers(0, 5), st.just("undo")), max_size=40
    ),
)
@example(case="figure4-crashes", actions=[0] * 8 + ["undo"] * 8 + [1] * 8)
@example(case="kset", actions=[0] * 6 + ["undo"] * 3)
def test_step_undo_matches_fresh_replay(case, actions):
    # Any interleaving of steps and undos must leave the executor
    # exactly where a fresh executor stepping the surviving path gets.
    executor = Executor(
        _undo_system(case),
        ExplicitScheduler([], strict=False),
        trace=True,
        record_results=True,
    )
    path = []
    for action in actions:
        # Keeps a cached whole-memory snapshot for undos to invalidate.
        executor.memory.snapshot("")
        if action == "undo":
            if path:
                executor.undo()
                path.pop()
            continue
        candidates = executor.schedulable()
        if candidates:
            pid = candidates[action % len(candidates)]
            executor.step(pid)
            path.append(pid)
    fresh = Executor(
        _undo_system(case),
        ExplicitScheduler([], strict=False),
        trace=True,
        record_results=True,
    )
    for pid in path:
        fresh.step(pid)
    assert _observed(executor) == _observed(fresh)
    assert executor.trace.events == fresh.trace.events
