"""Generative check of the exploring executor's state identity.

An exploring executor (``ExploringExecutor``) identifies a process's
state by its history-trie digest instead of keeping what it received.
Over random legal schedules of the Figure 4 and k-set-concurrent
systems, two exploring executors must have equal fingerprints exactly
when a plain generator-driven reference, which logs every operation and
result, reaches equal states; and symmetry pruning must keep exactly
the candidates the reference logs say are interchangeable.  Undoing
steps must leave an exploring executor exactly where a fresh one
replaying the surviving path gets, in every observable, and where a
plain executor (``Executor``) gets in memory, decisions and
trace; a state reached by backtracking, as the explorer reaches states,
must have the fingerprint of the same state reached by stepping; and
every step and undo must keep the register file's digests, the
fingerprint's sum of terms and the history tries' edges consistent.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.kset_concurrent import kset_concurrent_factory
from repro.algorithms.renaming_figure4 import figure4_factory
from repro.checker import c_orbits, canonical_fingerprint, prune_interchangeable
from repro.core import FailurePattern, System
from repro.core.process import c_process
from repro.core.system import null_automaton
from repro.memory.registers import register_term
from repro.runtime import Executor, ExploringExecutor, ops
from repro.runtime.history_trie import decided_term, slot_term, time_term
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
    exploring = ExploringExecutor(
        System(inputs=inputs, c_factories=[factory] * n)
    )
    return exploring, reference, recorder


def _drive(executors, schedule):
    """Step every executor through ``schedule``, stopping at the first
    process that is not schedulable; returns the steps taken."""
    taken = []
    for pid in schedule:
        candidates = executors[0].schedulable()
        for executor in executors[1:]:
            assert executor.schedulable() == candidates
        if pid not in candidates:
            break
        for executor in executors:
            executor.step(pid)
        taken.append(pid)
    return taken


def _check_fingerprint(executor):
    """The fingerprint is the sum of its terms, recomputed from what the
    executor shows: the time's, the decided vector's, one per written
    register and one per slot.  The decided vector and set, which steps
    and undos keep rather than rebuild, must equal the ones rebuilt from
    the decisions."""
    decisions = executor.decisions
    vector = tuple(decisions.get(i) for i in range(executor.system.n_c))
    assert executor.decided_vector() == vector
    assert executor.decided_c == frozenset(decisions)
    total = (
        time_term(executor.time)
        + decided_term(vector)
        + sum(
            register_term(name, value)
            for name, value in executor.memory.snapshot("").items()
        )
    )
    for position, pid in enumerate(executor.system.all_pids()):
        started, halted, _steps, digest = executor.slot_view(pid)
        total += slot_term(position, started, halted, digest)
    assert executor.fingerprint() == (total % 2**128).to_bytes(16, "little")


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
# p1 decides alone at its fourth step; the backtrack undoes the decision
# and the step before it, and p1 steps again to where it decided
@example(case="kset", first=[0, 0, 0, 0], second=("draw", [0, 0, 1, 0]))
def test_fingerprints_match_reference_states(case, first, second):
    schedule_a = _realize(case, first)
    kind, arg = second
    schedule_b = (
        _swapped(schedule_a, arg) if kind == "swap" else _realize(case, arg)
    )
    runs = []
    paths = []
    for schedule in (schedule_a, schedule_b):
        exploring, reference, recorder = _pair(case)
        paths.append(_drive([exploring, reference], schedule))
        runs.append((exploring, reference, recorder))
    (ex_a, ref_a, rec_a), (ex_b, ref_b, rec_b) = runs
    same_state = _reference_state(ref_a, rec_a) == _reference_state(
        ref_b, rec_b
    )
    assert (ex_a.fingerprint() == ex_b.fingerprint()) == same_state
    for exploring, reference, recorder in runs:
        _check_fingerprint(exploring)
        orbits = c_orbits(exploring.system)
        candidates = exploring.schedulable()
        assert prune_interchangeable(
            exploring, orbits, candidates
        ) == _reference_prune(reference, recorder, orbits, candidates)
    # The explorer reaches a state by undoing back to a common prefix and
    # stepping on: doing so from ``a`` must give ``b``'s fingerprint.
    path_a, path_b = paths
    common = 0
    while common < min(len(path_a), len(path_b)) and (
        path_a[common] == path_b[common]
    ):
        common += 1
    ex_a.undo_to(common)
    _drive([ex_a], path_b[common:])
    _check_fingerprint(ex_a)
    assert ex_a.fingerprint() == ex_b.fingerprint()


def _prefixes(ctx):
    """Snapshots ``s/`` while it is one bucket and after ``s/d/x`` makes
    it span two, the partial leaf ``s/1``, the bucket ``s/d/`` and
    ``""``; also reads, compares-and-swaps and takes a null step."""
    me = ctx.pid.index
    yield ops.Write(f"s/{me}", ctx.input_value)
    view = yield ops.Snapshot("s/")
    if me == 0:
        yield ops.Write("s/d/x", len(view))
    leaf = yield ops.Snapshot("s/1")
    prior = yield ops.CompareAndSwap("cas", None, me)
    yield ops.Nop()
    detected = yield ops.Read("fd")
    view = yield ops.Snapshot("s/")
    yield ops.Write(f"s/{me}", (len(view), len(leaf), prior, detected))
    deep = yield ops.Snapshot("s/d/")
    everything = yield ops.Snapshot("")
    yield ops.Decide((len(deep), len(everything)))


def _querying(ctx):
    """An S-automaton that publishes what the detector outputs."""
    while True:
        value = yield ops.QueryFD()
        yield ops.Write("fd", value)


class _Clock:
    """A detector whose output at time ``t`` is ``t % 3``."""

    def build_history(self, pattern, rng):
        return self

    def value(self, s_index, time):
        return time % 3


#: case name -> (C-automaton factory, input vector, failure pattern,
#: S-automaton factory or None, detector or None): the systems above,
#: plus crash transitions that retire S-processes mid-run, plus every
#: kind of operation and of snapshot prefix
UNDO_CASES = {
    **{
        name: (factory, inputs, None, None, None)
        for name, (factory, inputs) in CASES.items()
    },
    "figure4-crashes": (
        figure4_factory,
        (1, 1, 2),
        FailurePattern(3, (2, None, 5)),
        None,
        None,
    ),
    "prefixes": (_prefixes, (1, 2, 3), None, _querying, _Clock()),
}


def _undo_system(case):
    factory, inputs, pattern, s_factory, detector = UNDO_CASES[case]
    n = len(inputs)
    return System(
        inputs=inputs,
        c_factories=[factory] * n,
        s_factories=None if s_factory is None else [s_factory] * n,
        detector=detector,
        pattern=pattern,
    )


def _check_memory(memory):
    """The digested register file's invariants, recomputed from its
    cells."""
    terms = {
        name: register_term(name, value)
        for name, value in memory._cells.items()
    }
    assert memory._terms == terms
    assert memory.digest == sum(terms.values())
    # Every bucket has a digest, the sum of its registers' terms, and an
    # emptied bucket is gone with its digest.
    assert all(memory._buckets.values())
    assert memory._bucket_digests == {
        key: sum(terms[name] for name in bucket)
        for key, bucket in memory._buckets.items()
    }
    extended: dict = {}
    for key in memory._buckets:
        for cut in range(len(key) - 1):
            if key[cut] == "/":
                extended[key[: cut + 1]] = extended.get(key[: cut + 1], 0) + 1
    assert memory._extended == extended
    for prefix in {"", "s/1", *memory._buckets, *extended}:
        digest = memory.snapshot_digest(prefix)
        if digest is not None:
            assert digest == sum(
                terms[name] for name in memory.snapshot(prefix)
            )


def _check_tries(system):
    """Every history-trie node has one child per distinct result, and a
    digest-keyed snapshot edge leads to the child of a snapshot with
    that digest."""
    for trie in system.history_tries.values():
        stack = [] if trie.root_node is None else [trie.root_node]
        while stack:
            node = stack.pop()
            children = list(node.children.values())
            assert [repr(child.result) for child in children] == list(
                node.children
            )
            for digest, child in (node.snapshot_children or {}).items():
                assert any(child is other for other in children)
                assert digest == sum(
                    register_term(name, value)
                    for name, value in child.result.items()
                )
            stack.extend(children)


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


#: p1 and p2 write ``s/0`` and ``s/1``; p2 snapshots ``s/`` (one
#: bucket), backtracks, and snapshots it again with the same bucket once
#: p1's ``s/d/x`` makes the prefix span two buckets
PREFIX_REVISIT = [0, 0, 1, 1, 1, "undo", 0, 0, 1, 1, 1]


def _plain_observed(executor):
    """What a plain executor shows of a run, in common with an exploring
    one."""
    return (
        executor.time,
        list(executor.memory.snapshot("").items()),
        executor.decisions,
        executor.schedulable(),
        executor.started_c,
        executor.trace.events,
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
@example(case="prefixes", actions=PREFIX_REVISIT)
# p1 decides at its fourth step, backs off and steps to where it decided
@example(case="kset", actions=[0] * 4 + ["undo"] * 2 + [0])
# p3 decides 0 alone, backs off to the start, and decides 1 after p1's
# steps: one process, one prior decided vector, two decided values
@example(case="kset", actions=[2] * 4 + ["undo"] * 4 + [0, 0, 0, 2, 2, 2])
def test_step_undo_matches_fresh_replay(case, actions):
    # Any interleaving of steps and undos must leave the executor
    # exactly where a fresh executor stepping the surviving path gets,
    # and where a plain one does in memory, decisions and trace.
    executor = ExploringExecutor(_undo_system(case), trace=True)
    path = []
    for action in actions:
        # Keeps a cached whole-memory snapshot for undos to invalidate.
        executor.memory.snapshot("")
        if action == "undo":
            if path:
                executor.undo()
                path.pop()
        else:
            candidates = executor.schedulable()
            if candidates:
                pid = candidates[action % len(candidates)]
                executor.step(pid)
                path.append(pid)
        _check_memory(executor.memory)
        _check_fingerprint(executor)
        _check_tries(executor.system)
    fresh = ExploringExecutor(_undo_system(case), trace=True)
    plain = Executor(
        _undo_system(case), ExplicitScheduler([], strict=False), trace=True
    )
    for pid in path:
        fresh.step(pid)
        plain.step(pid)
    assert _observed(executor) == _observed(fresh)
    assert executor.trace.events == fresh.trace.events
    assert _plain_observed(executor) == _plain_observed(plain)
