"""Preemptible exploration: interrupt/checkpoint/resume must be exact.

The invariant under test: an exploration interrupted at *any* node and
resumed from its checkpoint produces a report equal, counter for
counter, to an uninterrupted run — across every reduction-knob
combination, because the frontier stack is saved before the next node
is popped and nodes are expanded in the recursive DFS's order.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.algorithms.kset_concurrent import kset_concurrent_factories
from repro.algorithms.renaming_figure4 import figure4_factories
from repro.checker import (
    ScheduleExplorer,
    concurrency_gate,
    drop_null_s_processes,
    task_safety_verdict,
)
from repro.core import System
from repro.core.process import c_process, s_process
from repro.errors import ResilienceError
from repro.tasks import RenamingTask, SetAgreementTask


def renaming_builder():
    return System(inputs=(1, 2, None), c_factories=figure4_factories(3))


def make_explorer(**knobs):
    return ScheduleExplorer(
        renaming_builder,
        max_depth=9,
        candidate_filter=drop_null_s_processes,
        **knobs,
    )


def renaming_verdict():
    return task_safety_verdict(RenamingTask(3, 2, 4))


KNOB_GRID = [
    {},
    {"dedup": True},
    {"por": True},
    {"dedup": True, "por": True, "symmetry": True},
]


def interrupt_after(explorer, verdict, cut, path):
    """Run ``explorer`` until its ``cut``-th node, then checkpoint."""
    nodes = 0

    def interrupting_verdict(executor):
        nonlocal nodes
        nodes += 1
        if nodes == cut:
            explorer.request_interrupt()
        return verdict(executor)

    return explorer.check(interrupting_verdict, checkpoint_path=path)


def kset_explorer(**knobs):
    """2-set agreement, 2-concurrently, three equal inputs of four:
    every reduction knob prunes something here."""

    def build():
        return System(
            inputs=(1, 1, 1, 0), c_factories=kset_concurrent_factories(4, 2)
        )

    def gate(executor, candidates):
        return concurrency_gate(2)(
            executor, drop_null_s_processes(executor, candidates)
        )

    return ScheduleExplorer(
        build, max_depth=12, candidate_filter=gate, **knobs
    )


def kset_verdict():
    return task_safety_verdict(SetAgreementTask(4, 2))


def counters(report):
    return {
        "explored": report.explored,
        "completed_runs": report.completed_runs,
        "truncated_runs": report.truncated_runs,
        "deduplicated": report.deduplicated,
        "por_pruned": report.por_pruned,
        "symmetry_pruned": report.symmetry_pruned,
        "violations": len(report.violations),
    }


def kset_interrupt(knobs, path, cut):
    """Entry point of the fresh interpreter that interrupts."""
    report = interrupt_after(kset_explorer(**knobs), kset_verdict(), cut, path)
    assert report.interrupted and report.explored == cut


def kset_resume(knobs, path):
    """Entry point of the fresh interpreter that resumes."""
    report = kset_explorer(**knobs).check(kset_verdict(), resume_from=path)
    assert not report.interrupted
    print(json.dumps(counters(report)))


def in_fresh_interpreter(hash_seed, call):
    """Run ``call`` (source calling a function of this module) in a new
    interpreter under ``PYTHONHASHSEED=hash_seed``; returns its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    root = str(Path(__file__).resolve().parents[2])
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join([src, root]),
    )
    code = (
        "from tests.checker.test_preemption import kset_interrupt, "
        f"kset_resume\n{call}"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestInterruptResume:
    @pytest.mark.parametrize("knobs", KNOB_GRID)
    @pytest.mark.parametrize("cut", [1, 7, 40])
    def test_resumed_report_equals_uninterrupted(self, tmp_path, knobs, cut):
        baseline = make_explorer(**knobs).check(renaming_verdict())
        assert baseline.explored > 40  # the cut must land mid-run

        path = str(tmp_path / "frontier.ckpt")
        partial = interrupt_after(
            make_explorer(**knobs), renaming_verdict(), cut, path
        )
        assert partial.interrupted
        assert partial.checkpoint_path == path
        assert partial.explored == cut

        resumed = make_explorer(**knobs).check(
            renaming_verdict(), resume_from=path
        )
        assert not resumed.interrupted
        assert resumed == baseline

    def test_deadline_zero_interrupts_immediately(self, tmp_path):
        path = str(tmp_path / "frontier.ckpt")
        report = make_explorer().check(
            renaming_verdict(), deadline_s=0.0, checkpoint_path=path
        )
        assert report.interrupted
        assert report.explored == 0
        resumed = make_explorer().check(
            renaming_verdict(), resume_from=path
        )
        assert resumed == make_explorer().check(renaming_verdict())

    def test_interrupt_without_checkpoint_path_still_stops(self):
        explorer = make_explorer()
        inner = renaming_verdict()

        def verdict(executor):
            explorer.request_interrupt()
            return inner(executor)

        report = explorer.check(verdict)
        assert report.interrupted
        assert report.explored == 1
        assert report.checkpoint_path is None

    def test_knob_mismatch_is_refused(self, tmp_path):
        path = str(tmp_path / "frontier.ckpt")
        explorer = make_explorer(por=True)
        inner = renaming_verdict()

        def verdict(executor):
            explorer.request_interrupt()
            return inner(executor)

        partial = explorer.check(verdict, checkpoint_path=path)
        assert partial.interrupted
        with pytest.raises(ResilienceError, match="different explorer"):
            make_explorer().check(renaming_verdict(), resume_from=path)

    def test_version_1_checkpoint_is_refused(self, tmp_path):
        self._refuses_version(tmp_path, 1)

    def test_version_2_checkpoint_is_refused(self, tmp_path):
        self._refuses_version(tmp_path, 2)

    def test_version_3_checkpoint_is_refused(self, tmp_path):
        self._refuses_version(tmp_path, 3)

    def _refuses_version(self, tmp_path, version):
        # Frontier files before version 4 key their dedup map on older
        # fingerprint bytes, which no state has any more: resuming one
        # would silently stop deduplicating the states it covers.
        # Version 3 also holds sleep sets as frozensets, not masks.
        path = str(tmp_path / "frontier.ckpt")
        interrupt_after(
            make_explorer(dedup=True), renaming_verdict(), 7, path
        )
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = version
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ResilienceError, match=f"version {version}"):
            make_explorer(dedup=True).check(
                renaming_verdict(), resume_from=path
            )

    @pytest.mark.parametrize(
        "knobs",
        [
            {"dedup": True, "por": True},
            {"dedup": True, "por": True, "symmetry": True},
        ],
    )
    def test_resume_across_interpreters_and_hash_seeds(
        self, tmp_path, knobs
    ):
        baseline = counters(kset_explorer(**knobs).check(kset_verdict()))
        assert baseline["explored"] > 40  # the cut must land mid-run
        path = str(tmp_path / "frontier.ckpt")
        in_fresh_interpreter(
            1, f"kset_interrupt({knobs!r}, {path!r}, cut=30)"
        )
        resumed = in_fresh_interpreter(
            2, f"kset_resume({knobs!r}, {path!r})"
        )
        assert json.loads(resumed) == baseline

    def test_missing_checkpoint_is_refused(self, tmp_path):
        with pytest.raises(ResilienceError, match="cannot read"):
            make_explorer().check(
                renaming_verdict(),
                resume_from=str(tmp_path / "nope.ckpt"),
            )


class TestProcessIdPickling:
    def test_ids_unpickle_to_the_interned_instances(self):
        # Checkpoints are loaded in *other* processes, where the cached
        # per-process hash of a default-pickled id would be stale;
        # __reduce__ must route through the interning constructors.
        for pid in (c_process(0), s_process(2)):
            clone = pickle.loads(pickle.dumps(pid))
            assert clone is pid
