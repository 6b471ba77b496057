"""Checkpointed exploration must be a pure performance change: node
counts, verdicts, and restored executor state are all invariant."""

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
from repro.runtime import Executor, ops
from repro.runtime.scheduler import ExplicitScheduler
from repro.tasks import ConsensusTask, RenamingTask


def renaming_builder():
    return System(inputs=(1, 2, None), c_factories=figure4_factories(3))


class NaiveExplorer:
    """Reference DFS: rebuilds the system and replays the whole prefix
    for every node (the pre-checkpoint algorithm, kept brutally simple)."""

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


class TestCheckpointRestore:
    def test_restore_is_observationally_identical(self):
        system = System(
            inputs=(1, 2, None), c_factories=figure4_factories(3)
        )
        executor = Executor(
            system,
            ExplicitScheduler([], strict=False),
            max_steps=50,
            record_results=True,
        )
        for _ in range(6):
            executor.step(executor.schedulable()[0])
        checkpoint = executor.checkpoint()
        # Drive the original past the checkpoint; the restored copy must
        # reflect the checkpoint, not the original's later state.
        original_schedulable = executor.schedulable()
        executor.step(executor.schedulable()[0])
        restored = Executor.restore(
            system, ExplicitScheduler([], strict=False), checkpoint,
            max_steps=50,
        )
        assert restored.time == checkpoint.time
        assert restored.decisions == dict(checkpoint.decisions)
        assert restored.schedulable() == original_schedulable
        assert (
            restored.memory.snapshot("") == dict(checkpoint.memory.snapshot(""))
        )
        assert restored.fingerprint() == Executor.restore(
            system, ExplicitScheduler([], strict=False), checkpoint,
            max_steps=50,
        ).fingerprint()

    def test_restored_run_continues_identically(self):
        system = System(
            inputs=(1, 2, None), c_factories=figure4_factories(3)
        )
        executor = Executor(
            system,
            ExplicitScheduler([], strict=False),
            max_steps=100,
            record_results=True,
        )
        for _ in range(4):
            executor.step(c_process(0))
        checkpoint = executor.checkpoint()
        restored = Executor.restore(
            system, ExplicitScheduler([], strict=False), checkpoint,
            max_steps=100,
        )
        # Null S-automata never halt, so bound the lockstep drive; the C
        # part has fully played out (and decided) well within the bound.
        for _ in range(40):
            candidates = executor.schedulable()
            assert restored.schedulable() == candidates
            executor.step(candidates[0])
            restored.step(candidates[0])
        assert restored.decisions == executor.decisions
        assert restored.memory.snapshot("") == executor.memory.snapshot("")
        assert restored.time == executor.time

    def test_restore_runs_no_automaton_code(self):
        # A restore must reposition every process in its history trie,
        # not rebuild generators by replaying what they received.
        resumes = 0

        def counted(ctx):
            nonlocal resumes
            inner = figure4_factory(ctx)
            result = None
            while True:
                resumes += 1
                try:
                    op = inner.send(result)
                except StopIteration:
                    return
                result = yield op

        system = System(inputs=(1, 2, None), c_factories=[counted] * 3)
        executor = Executor(
            system,
            ExplicitScheduler([], strict=False),
            max_steps=50,
            record_results=True,
        )
        for pid in (c_process(0), c_process(1)) * 3:
            executor.step(pid)
        checkpoint = executor.checkpoint()
        before = resumes
        assert before > 0
        for _ in range(50):
            restored = Executor.restore(
                system, ExplicitScheduler([], strict=False), checkpoint,
                max_steps=50,
            )
            for pid in system.all_pids():
                restored.peek(pid)
        assert resumes == before
