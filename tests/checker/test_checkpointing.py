"""Backtracking by undo must be a pure performance change: node counts,
verdicts, and undone executor state are all invariant."""

import itertools

import pytest

from repro.algorithms.kset_concurrent import kset_concurrent_factories
from repro.algorithms.renaming_figure4 import (
    figure4_factories,
    figure4_factory,
)
from repro.checker import (
    ScheduleExplorer,
    drop_null_s_processes,
    task_safety_verdict,
)
from repro.core import System
from repro.core.process import c_process
from repro.errors import ProtocolError
from repro.runtime import Executor, ExploringExecutor, ops
from repro.runtime.scheduler import ExplicitScheduler
from repro.tasks import ConsensusTask, RenamingTask, SetAgreementTask


def renaming_builder():
    return System(inputs=(1, 2, None), c_factories=figure4_factories(3))


class NaiveExplorer:
    """Reference DFS: rebuilds the system and replays the whole prefix
    for every node with plain generators (kept brutally simple)."""

    def __init__(self, builder, max_depth, candidate_filter):
        self.builder = builder
        self.max_depth = max_depth
        self.candidate_filter = candidate_filter
        self.explored = 0
        self.completed = 0

    def _executor_at(self, schedule):
        executor = Executor(
            self.builder(),
            ExplicitScheduler([], strict=False),
            max_steps=self.max_depth + 1,
        )
        for pid in schedule:
            executor.step(pid)
        return executor

    def run(self, verdict):
        self._explore((), verdict)
        return self

    def _explore(self, schedule, verdict):
        executor = self._executor_at(schedule)
        self.explored += 1
        outcome = verdict(executor)
        if outcome is False:
            return
        if outcome is None:
            self.completed += 1
            return
        if len(schedule) >= self.max_depth:
            return
        candidates = self.candidate_filter(
            executor, executor.schedulable()
        )
        if not candidates:
            self.completed += 1
            return
        for pid in candidates:
            self._explore(schedule + (pid,), verdict)


class TestCheckpointInvariance:
    def test_counts_match_naive_reference(self):
        task = RenamingTask(3, 2, 3)
        explorer = ScheduleExplorer(
            renaming_builder,
            max_depth=8,
            candidate_filter=drop_null_s_processes,
        )
        report = explorer.check(task_safety_verdict(task))
        naive = NaiveExplorer(
            renaming_builder, 8, drop_null_s_processes
        ).run(task_safety_verdict(task))
        assert report.explored == naive.explored
        assert report.completed_runs == naive.completed


class TestDedup:
    def test_dedup_preserves_verdict_and_is_opt_in(self):
        task = RenamingTask(3, 2, 3)
        plain = ScheduleExplorer(
            renaming_builder,
            max_depth=10,
            candidate_filter=drop_null_s_processes,
        ).check(task_safety_verdict(task))
        deduped = ScheduleExplorer(
            renaming_builder,
            max_depth=10,
            candidate_filter=drop_null_s_processes,
            dedup=True,
        ).check(task_safety_verdict(task))
        assert plain.deduplicated == 0
        assert deduped.deduplicated > 0
        assert deduped.explored < plain.explored
        assert deduped.ok == plain.ok

    def test_dedup_still_finds_violations(self):
        # A protocol that decides its own input is not consensus: both
        # explorations must find the disagreement.
        def selfish(ctx):
            yield ops.Decide(ctx.input_value)

        def builder():
            return System(inputs=(0, 1), c_factories=[selfish, selfish])

        task = ConsensusTask(2)
        for dedup in (False, True):
            report = ScheduleExplorer(
                builder,
                max_depth=6,
                candidate_filter=drop_null_s_processes,
                dedup=dedup,
            ).check(task_safety_verdict(task))
            assert not report.ok


def _counting(factory):
    """``factory`` wrapped so every generator advance is counted."""
    counter = {"sends": 0}

    def counted(ctx):
        inner = factory(ctx)
        result = None
        while True:
            counter["sends"] += 1
            try:
                op = inner.send(result)
            except StopIteration:
                return
            result = yield op

    return counted, counter


class TestUndo:
    def test_undo_runs_no_automaton_code(self):
        # Backtracking reverts trie positions; stepping forward again
        # over an edge the trie already knows just follows it.
        counted, counter = _counting(figure4_factory)
        system = System(inputs=(1, 2, None), c_factories=[counted] * 3)
        executor = ExploringExecutor(system)
        schedule = [c_process(0), c_process(1)] * 3
        for pid in schedule:
            executor.step(pid)
        before = counter["sends"]
        assert before > 0
        fingerprint = executor.fingerprint()
        for back in range(1, len(schedule) + 1):
            for _ in range(back):
                executor.undo()
            for pid in schedule[len(schedule) - back:]:
                executor.step(pid)
            assert executor.fingerprint() == fingerprint
        assert counter["sends"] == before

    def test_undo_keeps_caches_it_does_not_change(self):
        # The safety verdict keys its cache on these objects: undoing a
        # step that neither started nor decided a process keeps them.
        system = System(inputs=(1, 2, None), c_factories=figure4_factories(3))
        executor = ExploringExecutor(system)
        executor.step(c_process(0))
        started, vector = executor.started_c, executor.decided_vector()
        executor.step(c_process(0))
        executor.undo()
        assert executor.started_c is started
        assert executor.decided_vector() is vector
        executor.undo()
        assert executor.started_c == frozenset()

    def test_undo_needs_an_exploring_executor_with_a_step(self):
        system = System(inputs=(1, 2, None), c_factories=figure4_factories(3))
        plain = Executor(system, ExplicitScheduler([], strict=False))
        for name in ("undo", "undo_to", "fingerprint", "slot_view"):
            assert not hasattr(plain, name), name
        with pytest.raises(ProtocolError, match="undo"):
            ExploringExecutor(system).undo()

    def test_violations_equal_fresh_replays(self):
        # The explorer's one executor moves on after a violation; the
        # recorded result must be the violating run's own, and stay so.
        def builder():
            return System(
                inputs=(0, 1, 2), c_factories=kset_concurrent_factories(3, 2)
            )

        explorer = ScheduleExplorer(
            builder, max_depth=14, candidate_filter=drop_null_s_processes
        )
        report = explorer.check(task_safety_verdict(SetAgreementTask(3, 2)))
        assert len(report.violations) > 1
        assert report.explored > len(report.violations)
        for schedule, result in report.violations:
            replay = Executor(
                builder(), ExplicitScheduler([], strict=False)
            )
            for pid in schedule:
                replay.step(pid)
            fresh = replay.result("violation")
            assert result.memory.snapshot("") == fresh.memory.snapshot("")
            assert (
                result.outputs, result.participants, result.steps,
                result.step_counts, result.reason,
            ) == (
                fresh.outputs, fresh.participants, fresh.steps,
                fresh.step_counts, fresh.reason,
            )


class TestHistoryTrie:
    def test_nondeterministic_automaton_is_refused(self):
        # Each generator instance writes its own serial number, so a
        # replay along the trie yields an operation the trie never
        # recorded; following the stale trie would explore runs the
        # automaton cannot take.
        serial = itertools.count()

        def drifting(ctx):
            yield ops.Write("x", next(serial))
            yield ops.Read("x")
            yield ops.Decide(ctx.input_value)

        def builder():
            return System(inputs=(0, 0), c_factories=[drifting, drifting])

        explorer = ScheduleExplorer(
            builder, max_depth=10, candidate_filter=drop_null_s_processes
        )
        with pytest.raises(ProtocolError, match="not deterministic"):
            explorer.check(task_safety_verdict(ConsensusTask(2)))
