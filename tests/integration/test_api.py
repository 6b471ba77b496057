"""Tests for the top-level solve_task / solve_task_restricted / verify_run API."""

import pytest

from repro import solve_task, solve_task_restricted
from repro.detectors import AntiOmegaK, Omega, VectorOmegaK
from repro.errors import SpecificationError
from repro.tasks import (
    ConsensusTask,
    RenamingTask,
    SetAgreementTask,
    StrongRenamingTask,
    WeakSymmetryBreakingTask,
)


class TestSolveTask:
    def test_quickstart_set_agreement(self):
        task = SetAgreementTask(n=4, k=2)
        result = solve_task(task, detector=VectorOmegaK(n=4, k=2), seed=7)
        assert result.all_participants_decided
        assert len({v for v in result.outputs if v is not None}) <= 2

    def test_consensus_with_omega(self):
        task = ConsensusTask(3)
        result = solve_task(task, detector=Omega(), seed=1)
        assert len(set(result.outputs)) == 1

    def test_strong_renaming_with_omega(self):
        """Corollary 13 end to end: Omega advice solves strong renaming
        through the generic machinery."""
        task = StrongRenamingTask(3, 2)
        result = solve_task(task, detector=Omega(), seed=2)
        names = [v for v in result.outputs if v is not None]
        assert sorted(names) == list(range(1, len(names) + 1))

    def test_loose_renaming_with_vector(self):
        task = RenamingTask(4, 3, 4)
        result = solve_task(task, detector=VectorOmegaK(n=4, k=2), seed=3)
        names = [v for v in result.outputs if v is not None]
        assert len(set(names)) == len(names)
        assert max(names) <= 4

    def test_stronger_advice_than_needed(self):
        """Omega (k = 1 advice) on a class-2 task: extra strength is
        simply used at level 1."""
        task = SetAgreementTask(3, 2)
        result = solve_task(task, detector=Omega(), seed=1)
        assert result.all_participants_decided

    def test_anti_omega_requires_vector_form(self):
        task = SetAgreementTask(3, 2)
        with pytest.raises(SpecificationError, match="vector"):
            solve_task(task, detector=AntiOmegaK(3, 2))

    def test_explicit_inputs(self):
        task = ConsensusTask(3)
        result = solve_task(
            task, detector=Omega(), inputs=(None, 1, 0), seed=4
        )
        assert result.outputs[0] is None


class TestSolveRestricted:
    def test_one_concurrent_universal(self):
        task = WeakSymmetryBreakingTask(4, 3)
        result = solve_task_restricted(task, concurrency=1, seed=5)
        assert result.all_participants_decided

    def test_class_level_respected(self):
        task = SetAgreementTask(4, 2)
        result = solve_task_restricted(task, concurrency=2, seed=6)
        assert len({v for v in result.outputs if v is not None}) <= 2

    def test_over_class_rejected(self):
        task = ConsensusTask(3)
        with pytest.raises(SpecificationError, match="concurrency"):
            solve_task_restricted(task, concurrency=2)

    def test_renaming_concurrency_budget(self):
        task = RenamingTask(4, 2, 3)  # class min(j, l-j+1) = 2
        result = solve_task_restricted(task, concurrency=2, seed=7)
        names = [v for v in result.outputs if v is not None]
        assert len(set(names)) == len(names)
        with pytest.raises(SpecificationError):
            solve_task_restricted(task, concurrency=3)


class TestOneFunctionPerQuestion:
    def test_verify_run_is_the_analysis_verifier(self):
        import repro
        import repro.analysis

        assert repro.verify_run is repro.analysis.verify_run
