"""Tests for the exhaustive schedule explorer and valency analysis."""

import dataclasses
import itertools
import time
from types import SimpleNamespace

import pytest

from repro.__main__ import EXIT_CHECK_CAPPED, main
from repro.algorithms.kset_concurrent import kset_concurrent_factories
from repro.algorithms.one_concurrent import one_concurrent_factories
from repro.algorithms.renaming_figure4 import figure4_factories
from repro.checker import explorer as explorer_module
from repro.checker import (
    ExplorationReport,
    ScheduleExplorer,
    analyze_valency,
    concurrency_gate,
    drop_null_s_processes,
    task_safety_verdict,
)
from repro.classify import explore_k_concurrent
from repro.core import System
from repro.errors import ExplorationInterrupted, SafetyViolation
from repro.tasks import ConsensusTask, RenamingTask, SetAgreementTask


class TestExplorer:
    def test_figure4_pair_exhaustively_safe(self):
        """All interleavings of two Figure 4 renamers stay within
        (2, 3)-renaming — an exhaustive certificate on this instance."""
        task = RenamingTask(3, 2, 3)

        def build():
            return System(
                inputs=(1, 2, None), c_factories=figure4_factories(3)
            )

        explorer = ScheduleExplorer(
            build, max_depth=16, candidate_filter=drop_null_s_processes
        )
        report = explorer.check(task_safety_verdict(task))
        assert report.ok
        assert report.completed_runs > 0
        assert report.explored > 1000

    def test_kset_concurrent_certified_under_gate(self):
        """2-set agreement algorithm, 3 processes, all 2-concurrent
        interleavings: exhaustively safe."""
        task = SetAgreementTask(3, 2)

        def build():
            return System(
                inputs=(0, 1, 2),
                c_factories=kset_concurrent_factories(3, 2),
            )

        def gate(executor, candidates):
            return concurrency_gate(2)(
                executor, drop_null_s_processes(executor, candidates)
            )

        explorer = ScheduleExplorer(build, max_depth=14, candidate_filter=gate)
        report = explorer.check(task_safety_verdict(task))
        assert report.ok
        assert report.completed_runs > 0

    def test_explorer_finds_known_violation(self):
        """Without the gate, the same algorithm violates 2-set agreement
        somewhere — the explorer locates a concrete witness schedule."""
        task = SetAgreementTask(3, 2)

        def build():
            return System(
                inputs=(0, 1, 2),
                c_factories=kset_concurrent_factories(3, 2),
            )

        explorer = ScheduleExplorer(
            build, max_depth=14, candidate_filter=drop_null_s_processes
        )
        report = explorer.check(task_safety_verdict(task))
        assert not report.ok
        schedule, result = report.violations[0]
        assert schedule  # a concrete witness

    def test_max_runs_cap(self):
        def build():
            return System(
                inputs=(0, 1, 2),
                c_factories=kset_concurrent_factories(3, 2),
            )

        explorer = ScheduleExplorer(
            build,
            max_depth=12,
            candidate_filter=drop_null_s_processes,
            max_runs=50,
        )
        report = explorer.check(task_safety_verdict(SetAgreementTask(3, 2)))
        assert report.completed_runs + report.truncated_runs <= 50
        assert report.capped


#: perfbench's ``explore`` instance at the depth where every run ends:
#: a certificate needs about 650k nodes, so ``max_runs=3`` stops it early.
CERTIFICATE = (
    RenamingTask(4, 3, 5), figure4_factories(4), 3, (1, 2, 3, None)
)
CERTIFICATE_KNOBS = {"max_depth": 33, "por": True, "dedup": True}


class TestCertificateCap:
    def test_capped_exploration_is_flagged(self):
        report = explore_k_concurrent(
            *CERTIFICATE, max_runs=3, **CERTIFICATE_KNOBS
        )
        assert report.capped and not report.interrupted
        assert report.ok  # no violation found, yet nothing certified
        full = explore_k_concurrent(
            RenamingTask(3, 2, 4), figure4_factories(3), 2, (1, 2, None),
            max_depth=20,
        )
        assert full.ok and not full.capped and full.truncated_runs == 0
        assert full.conclusion == "certified"
        assert full.require_certificate() is full

    def test_capped_and_interrupted_reports_are_not_certificates(
        self, tmp_path
    ):
        capped = explore_k_concurrent(
            *CERTIFICATE, max_runs=3, **CERTIFICATE_KNOBS
        )
        assert capped.conclusion == "capped"
        path = str(tmp_path / "cert.ckpt")
        interrupted = explore_k_concurrent(
            *CERTIFICATE, deadline_s=0.0, checkpoint_path=path,
            **CERTIFICATE_KNOBS,
        )
        assert interrupted.conclusion == "interrupted"
        with pytest.raises(
            ExplorationInterrupted, match="frontier saved to"
        ) as raised:
            interrupted.require_certificate()
        assert raised.value.checkpoint_path == path

    def test_require_certificate_refuses_a_capped_exploration(self):
        report = explore_k_concurrent(
            *CERTIFICATE, max_runs=3, **CERTIFICATE_KNOBS
        )
        with pytest.raises(ExplorationInterrupted, match="max_runs=3"):
            report.require_certificate()

    def test_a_truncated_tree_is_a_bounded_check(self):
        # perfbench's ``explore`` exploration: no run ends by depth 14.
        report = explore_k_concurrent(
            *CERTIFICATE, max_depth=14, por=True, dedup=True
        )
        assert (report.explored, report.completed_runs) == (18586, 0)
        assert report.truncated_runs == 9412
        assert report.ok and not (report.capped or report.interrupted)
        assert report.conclusion == "bounded"
        with pytest.raises(
            ExplorationInterrupted, match="9412 runs truncated"
        ) as raised:
            report.require_certificate()
        assert raised.value.checkpoint_path is None

    def test_a_violation_outranks_the_cap(self):
        # 2-set agreement's algorithm outside its class: the cap stops
        # the tree, but the violations found before it are a verdict.
        report = explore_k_concurrent(
            SetAgreementTask(3, 2),
            kset_concurrent_factories(3, 2),
            3,
            (0, 1, 2),
            max_depth=13,
            max_runs=500,
        )
        assert report.capped and len(report.violations) == 180
        assert report.conclusion == "violated"
        witness = [str(pid) for pid in report.violations[0][0]]
        with pytest.raises(SafetyViolation, match="180 interleaving") as raised:
            report.require_certificate()
        assert str(witness) in str(raised.value)

    def test_report_fields_are_the_checkpoint_layout(self):
        # Checkpoint files pickle the report, so a frontier file written
        # by one tree resumes on another only if both have these fields.
        assert [f.name for f in dataclasses.fields(ExplorationReport)] == [
            "explored",
            "completed_runs",
            "truncated_runs",
            "deduplicated",
            "por_pruned",
            "symmetry_pruned",
            "violations",
            "interrupted",
            "checkpoint_path",
            "capped",
            "resumed_explored",
        ]

    @pytest.mark.parametrize(
        ("depth", "extra", "runs", "verdict", "code"),
        [
            (
                5,
                (),
                "0 completed, 9 truncated",
                "verdict    : OK to depth 5 — 9 runs truncated: a bounded "
                "check, not a certificate",
                0,
            ),
            (
                40,
                (),
                "19 completed, 0 truncated",
                "verdict    : OK — no interleaving leaves the task relation",
                0,
            ),
            (
                40,
                ("--deadline-s", "0"),
                "0 completed, 0 truncated",
                "verdict    : INTERRUPTED (deadline or signal)",
                75,
            ),
            (
                40,
                ("--max-runs", "3"),
                "3 completed, 0 truncated",
                "verdict    : CAPPED — no violation found, nothing certified",
                EXIT_CHECK_CAPPED,
            ),
        ],
    )
    def test_check_command_certifies_only_a_complete_tree(
        self, capsys, depth, extra, runs, verdict, code
    ):
        exit_code = main(
            [
                "check", "renaming", "--n", "3", "--k", "2", "--depth",
                str(depth), "--por", "--dedup", *extra,
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == code
        assert f"runs       : {runs}\n" in out
        assert f"{verdict}\n" in out

    def test_check_command_reports_a_violation(self, capsys, monkeypatch):
        # The one-concurrent consensus solver run 2-concurrently: the
        # explorer finds a disagreeing interleaving and `check` exits 1.
        monkeypatch.setattr(
            "repro.algorithms.dispatch.algorithm_for_task",
            lambda task, k: one_concurrent_factories(task),
        )
        exit_code = main(
            [
                "check", "consensus", "--n", "2", "--k", "2", "--depth",
                "20", "--por", "--dedup",
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "explored   : 100 nodes in " in out
        assert "runs       : 6 completed, 0 truncated\n" in out
        assert (
            "verdict    : 1 VIOLATION(S); first witness: ['p2', 'p2', "
            "'p2', 'p1', 'p1', 'p1', 'p1', 'p1', 'p2', 'p2']\n"
        ) in out

    def test_check_command_reports_the_cap(self, capsys):
        code = main(
            [
                "check", "renaming", "--n", "4", "--k", "3", "--depth",
                "33", "--por", "--dedup", "--max-runs", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CHECK_CAPPED != 0
        assert "capped     : stopped at --max-runs 3" in out
        assert "OK" not in out

    def test_check_command_rates_a_resumed_run_by_its_own_nodes(
        self, tmp_path, capsys, monkeypatch
    ):
        # The explorer's clock, patched to tick once per node, stops the
        # first leg at its 200 s deadline before the 200th node, and each
        # leg's wall time reads 2 s, so the rates are exact.
        path = str(tmp_path / "cert.ckpt")
        command = [
            "check", "renaming", "--n", "4", "--k", "3", "--depth", "14",
            "--por", "--dedup",
        ]

        def leg(*extra, ticks=None):
            with monkeypatch.context() as patch:
                patch.setattr(
                    time, "perf_counter", itertools.count(0.0, 2.0).__next__
                )
                if ticks is not None:
                    patch.setattr(
                        explorer_module,
                        "time",
                        SimpleNamespace(monotonic=ticks.__next__),
                    )
                code = main(command + list(extra))
            out = capsys.readouterr().out
            line = next(
                line for line in out.splitlines() if line.startswith("explored")
            )
            return code, line

        code, whole = leg()
        assert code == 0
        total = int(whole.split()[2])
        code, first = leg(
            "--deadline-s", "200", "--checkpoint", path,
            ticks=itertools.count(),
        )
        assert code == 75
        done = int(first.split()[2])
        assert 0 < done < total
        assert first == (
            f"explored   : {done} nodes in 2.00s, {done / 2:.0f} nodes/s "
            "(depth 14)"
        )
        code, resumed = leg("--resume", path)
        assert code == 0
        rest = total - done
        assert resumed == (
            f"explored   : {total} nodes ({rest} this run) in 2.00s, "
            f"{rest / 2:.0f} nodes/s (depth 14)"
        )


class TestValency:
    def test_prop1_consensus_is_bivalent_without_gate(self):
        """The Proposition 1 solver at full concurrency: both outcomes
        (agree on 0 / agree on 1) and even disagreement are reachable —
        a bivalent initial state."""
        task = ConsensusTask(2)

        def build():
            return System(
                inputs=(0, 1),
                c_factories=list(one_concurrent_factories(task)),
            )

        report = analyze_valency(
            build, max_depth=12, candidate_filter=drop_null_s_processes
        )
        assert report.bivalent_initial
        assert len(report.reachable_outcomes) >= 2

    def test_gated_prop1_consensus_is_safe_but_still_bivalent(self):
        """Under the 1-concurrency gate the solver is correct, yet the
        *outcome* still depends on arrival order — bivalence of inputs,
        not a safety failure."""
        task = ConsensusTask(2)

        def build():
            return System(
                inputs=(0, 1),
                c_factories=list(one_concurrent_factories(task)),
            )

        def gate(executor, candidates):
            return concurrency_gate(1)(
                executor, drop_null_s_processes(executor, candidates)
            )

        report = analyze_valency(build, max_depth=14, candidate_filter=gate)
        assert report.reachable_outcomes <= {(0,), (1,)}
        assert report.bivalent_initial


class TestValencyCriticalPrefixes:
    def test_critical_prefixes_exist_under_gate(self):
        """With the 1-concurrency gate, consensus outcome is fixed by the
        arrival decision: the empty prefix is bivalent and critical
        prefixes (all children univalent) exist at the arrival point."""
        task = ConsensusTask(2)

        def build():
            return System(
                inputs=(0, 1),
                c_factories=list(one_concurrent_factories(task)),
            )

        def gate(executor, candidates):
            return concurrency_gate(1)(
                executor, drop_null_s_processes(executor, candidates)
            )

        report = analyze_valency(build, max_depth=14, candidate_filter=gate)
        assert report.bivalent_initial
        assert report.critical_prefixes
        # The earliest critical prefix is at the very first scheduling
        # decision: whoever is admitted first fixes the outcome.
        assert len(report.critical_prefixes[0]) == 0
