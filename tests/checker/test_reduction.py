"""Partial-order and symmetry reduction: commutation relation unit
tests plus POR/symmetry-vs-naive differentials across the task suite,
seeds, and randomized failure patterns."""

import random

import pytest

from repro.algorithms.kset_concurrent import kset_concurrent_factories
from repro.algorithms.renaming_figure4 import figure4_factories
from repro.checker import (
    ScheduleExplorer,
    c_orbits,
    canonical_fingerprint,
    concurrency_gate,
    drop_null_s_processes,
    independent,
    prune_interchangeable,
    step_footprint,
    task_safety_verdict,
)
from repro.core import FailurePattern, System
from repro.core.process import c_process, s_process
from repro.runtime import ExploringExecutor, ops
from repro.tasks import (
    IdentityTask,
    RenamingTask,
    SetAgreementTask,
    WeakSymmetryBreakingTask,
    identity_factories,
)
from repro.algorithms.wsb_concurrent import wsb_concurrent_factories


def _writer(register):
    def factory(ctx):
        while True:
            yield ops.Write(register, 1)

    return factory


def _querier(ctx):
    while True:
        yield ops.QueryFD()


class TestCommutation:
    def _started_pair(self, pattern=None, s_factories=None):
        system = System(
            inputs=(0, 1),
            c_factories=[_writer("a"), _writer("b")],
            s_factories=s_factories,
            pattern=pattern,
        )
        executor = ExploringExecutor(system)
        for i in range(2):
            executor.step(c_process(i))  # mandated input writes
        return executor

    def test_disjoint_writes_commute(self):
        executor = self._started_pair()
        assert independent(executor, c_process(0), c_process(1))

    def test_first_steps_never_independent(self):
        system = System(
            inputs=(0, 1), c_factories=[_writer("a"), _writer("b")]
        )
        executor = ExploringExecutor(system)
        # Unstarted C-processes extend the participating set: universal.
        assert not independent(executor, c_process(0), c_process(1))

    def test_query_fd_never_independent(self):
        system = System(
            inputs=(0, 1),
            c_factories=[_writer("a"), _writer("b")],
            s_factories=[_querier, _querier],
        )
        executor = ExploringExecutor(system)
        for i in range(2):
            executor.step(c_process(i))
        fp = step_footprint(executor, s_process(0))
        assert fp.universal
        assert not independent(executor, s_process(0), c_process(0))
        assert not independent(executor, s_process(0), s_process(1))

    def test_crash_boundary_suspends_independence(self):
        pattern = FailurePattern(2, (6, None))
        executor = self._started_pair(pattern=pattern)
        assert executor.crashes_pending()
        # Disjoint-footprint steps, yet never independent while a crash
        # transition is still ahead of the current time.
        assert not independent(executor, c_process(0), c_process(1))
        while executor.crashes_pending():
            executor.step(c_process(0))
        assert independent(executor, c_process(0), c_process(1))

    def test_decide_never_independent(self):
        system = System(
            inputs=(0, 1),
            c_factories=list(identity_factories(2)),
        )
        executor = ExploringExecutor(system)
        for i in range(2):
            executor.step(c_process(i))
        assert isinstance(executor.peek(c_process(0)), ops.Decide)
        assert not independent(executor, c_process(0), c_process(1))

    def test_write_vs_snapshot_prefix_conflicts(self):
        def snapper(ctx):
            while True:
                yield ops.Snapshot("a/")

        system = System(
            inputs=(0, 1, 2),
            c_factories=[_writer("a/x"), _writer("b/x"), snapper],
        )
        executor = ExploringExecutor(system)
        for i in range(3):
            executor.step(c_process(i))
        assert not independent(executor, c_process(0), c_process(2))
        assert independent(executor, c_process(1), c_process(2))

    def test_same_register_conflicts(self):
        system = System(
            inputs=(0, 1), c_factories=[_writer("a"), _writer("a")]
        )
        executor = ExploringExecutor(system)
        for i in range(2):
            executor.step(c_process(i))
        assert not independent(executor, c_process(0), c_process(1))

    def test_footprints_of_pure_ops(self):
        assert ops.footprint(ops.Read("r")) == (("r",), (), ())
        assert ops.footprint(ops.Write("r", 1)) == ((), (), ("r",))
        assert ops.footprint(ops.Snapshot("p/")) == ((), ("p/",), ())
        assert ops.footprint(ops.Nop()) == ((), (), ())
        assert ops.footprint(ops.CompareAndSwap("r", 0, 1)) == (
            ("r",),
            (),
            ("r",),
        )
        assert ops.footprint(ops.QueryFD()) is None
        assert ops.footprint(ops.Decide(1)) is None


# -- differential workloads ----------------------------------------------


def _figure4_case(l=3):
    task = RenamingTask(3, 2, l)

    def build():
        return System(inputs=(1, 2, None), c_factories=figure4_factories(3))

    return task, build, drop_null_s_processes


def _kset_case(inputs, gate_k, task_k=2, n=3):
    task = SetAgreementTask(n, task_k)

    def build():
        return System(
            inputs=inputs, c_factories=kset_concurrent_factories(n, task_k)
        )

    def gate(executor, candidates):
        return concurrency_gate(gate_k)(
            executor, drop_null_s_processes(executor, candidates)
        )

    return task, build, gate


def _identity_case():
    task = IdentityTask(3)

    def build():
        return System(inputs=(0, 1, 0), c_factories=identity_factories(3))

    return task, build, drop_null_s_processes


def _wsb_case():
    task = WeakSymmetryBreakingTask(3, 2)

    def build():
        return System(
            inputs=(1, None, 3), c_factories=wsb_concurrent_factories(3, 2)
        )

    def gate(executor, candidates):
        return concurrency_gate(1)(
            executor, drop_null_s_processes(executor, candidates)
        )

    return task, build, gate


def _crashing_case(seed):
    """Figure 4 with live (null-stepping) S-processes and a randomized
    crash pattern, exercising the crash-boundary POR guard."""
    rng = random.Random(seed)
    times = tuple(
        rng.randrange(1, 8) if rng.random() < 0.7 else None
        for _ in range(3)
    )
    task = RenamingTask(3, 2, 3)

    def build():
        return System(
            inputs=(1, 2, None),
            c_factories=figure4_factories(3),
            pattern=FailurePattern(3, times),
        )

    return task, build, None


CASES = {
    "figure4": _figure4_case(),
    "figure4-violating": _figure4_case(l=2),
    "kset-mixed": _kset_case((1, 1, 0), 2),
    "kset-symmetric": _kset_case((1, 1, 1), 2),
    "kset-violating": _kset_case((0, 1, 2), 3, task_k=1),
    "identity": _identity_case(),
    "wsb": _wsb_case(),
    "crashes-0": _crashing_case(0),
    "crashes-1": _crashing_case(1),
    "crashes-2": _crashing_case(2),
}

REDUCTIONS = [
    {"por": True},
    {"por": True, "dedup": True},
    {"symmetry": True},
    {"symmetry": True, "dedup": True},
    {"por": True, "symmetry": True, "dedup": True},
]


def _explore(task, build, gate, depth, **kwargs):
    # max_runs is set high enough that every exploration here runs to
    # completion: a hit cap would make the visited region (and hence
    # any comparison between strategies) depend on traversal order.
    explorer = ScheduleExplorer(
        build, max_depth=depth, candidate_filter=gate,
        max_runs=2_000_000, **kwargs,
    )
    return explorer.check(task_safety_verdict(task))


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reductions_preserve_verdict(self, name):
        task, build, gate = CASES[name]
        depth = 7 if name.startswith("crashes") else 10
        naive = _explore(task, build, gate, depth)
        for kwargs in REDUCTIONS:
            reduced = _explore(task, build, gate, depth, **kwargs)
            assert reduced.ok == naive.ok, (name, kwargs)
            assert bool(reduced.violations) == bool(naive.violations)
            assert reduced.explored <= naive.explored

    @pytest.mark.parametrize(
        "name", ["figure4", "kset-mixed", "crashes-0", "crashes-1"]
    )
    def test_sleep_sets_preserve_visited_states(self, name):
        """The strong soundness invariant: pure POR visits exactly the
        state *set* the naive explorer visits (only duplicate orders
        are pruned), so every per-node verdict call is preserved."""
        task, build, gate = CASES[name]
        depth = 6 if name.startswith("crashes") else 9

        def states(**kwargs):
            seen = set()
            base = task_safety_verdict(task)

            def verdict(executor):
                seen.add(executor.fingerprint())
                return base(executor)

            explorer = ScheduleExplorer(
                build, max_depth=depth, candidate_filter=gate,
                max_runs=2_000_000, **kwargs,
            )
            explorer.check(verdict)
            return seen

        assert states(por=True) == states()


class TestSymmetry:
    def _symmetric_system(self):
        return System(
            inputs=(1, 1, 1), c_factories=kset_concurrent_factories(3, 2)
        )

    def test_orbits(self):
        system = self._symmetric_system()
        assert c_orbits(system) == ((0, 1, 2),)
        mixed = System(
            inputs=(1, 0, 1), c_factories=kset_concurrent_factories(3, 2)
        )
        assert c_orbits(mixed) == ((0, 2),)
        nonpart = System(
            inputs=(1, None, 1), c_factories=kset_concurrent_factories(3, 2)
        )
        assert c_orbits(nonpart) == ((0, 2),)
        distinct = System(
            inputs=(0, 1, 2), c_factories=kset_concurrent_factories(3, 2)
        )
        assert c_orbits(distinct) == ()

    def test_prune_interchangeable_keeps_smallest(self):
        system = self._symmetric_system()
        executor = ExploringExecutor(system)
        orbits = c_orbits(system)
        candidates = tuple(
            pid for pid in executor.schedulable() if pid.is_computation
        )
        kept = prune_interchangeable(executor, orbits, candidates)
        assert kept == (c_process(0),)
        # Once a member's history diverges it is no longer pruned.
        executor.step(c_process(0))
        kept = prune_interchangeable(
            executor, orbits, tuple(executor.schedulable())
        )
        assert c_process(0) in kept and c_process(1) in kept
        assert c_process(2) not in kept  # still interchangeable with 1

    def test_canonical_fingerprint_collapses_swapped_states(self):
        orbits = c_orbits(self._symmetric_system())

        def stepped(index):
            executor = ExploringExecutor(self._symmetric_system())
            executor.step(c_process(index))
            return executor

        a, b = stepped(0), stepped(1)
        assert a.fingerprint() != b.fingerprint()
        assert canonical_fingerprint(a, orbits) == canonical_fingerprint(
            b, orbits
        )
        # A genuinely different state (two steps) does not collapse.
        c = stepped(0)
        c.step(c_process(1))
        assert canonical_fingerprint(a, orbits) != canonical_fingerprint(
            c, orbits
        )

    def test_consensus_violation_still_found_under_all_reductions(self):
        """A violating symmetric instance: announce-or-adopt under a
        3-concurrent gate against consensus must fail identically with
        every reduction enabled."""
        task, build, gate = _kset_case((0, 1, 2), 3, task_k=1)
        naive = _explore(task, build, gate, 10)
        assert not naive.ok
        reduced = _explore(
            task, build, gate, 10, por=True, symmetry=True, dedup=True
        )
        assert not reduced.ok
