"""E-T10: the task hierarchy — the paper's headline classification."""

import pytest

from repro.algorithms.kset_concurrent import kset_concurrent_factories
from repro.classify import (
    build_hierarchy,
    classify_consensus,
    classify_loose_renaming,
    classify_set_agreement,
    classify_strong_renaming,
    classify_wsb,
    explore_k_concurrent,
    format_hierarchy,
    validate_k_concurrent,
)
from repro.tasks import SetAgreementTask


class TestIndividualClassifications:
    def test_consensus_is_class_one_exact(self):
        row = classify_consensus(3)
        assert row.level == 1
        assert row.exact
        assert row.lower.kind == "topology-certificate"
        assert "Omega" in row.weakest_detector

    @pytest.mark.parametrize("k", [2, 3])
    def test_kset_is_class_k(self, k):
        row = classify_set_agreement(4, k)
        assert row.level == k
        assert row.exact
        assert row.weakest_detector == f"anti-Omega-{k}"

    def test_strong_renaming_is_class_one_exact(self):
        """Corollary 13: strong renaming is equivalent to consensus —
        class 1, weakest detector Omega."""
        row = classify_strong_renaming(4, 3)
        assert row.level == 1
        assert row.exact
        assert row.lower.kind == "topology-certificate"
        assert "Omega" in row.weakest_detector

    def test_loose_renaming_is_at_least_class_k(self):
        """Theorem 15 upper bound; exactness open for these parameters
        (the paper's footnote 4 / [8])."""
        row = classify_loose_renaming(4, 3, 2)
        assert row.level == 2
        assert not row.exact
        assert row.lower.kind == "open"

    def test_wsb_pair_is_class_one_exact(self):
        row = classify_wsb(4, 2)
        assert row.level == 1
        assert row.exact
        assert row.lower.kind == "topology-certificate"

    def test_wsb_upper_bound(self):
        row = classify_wsb(4, 3)
        assert row.level == 2  # j - 1


class TestHierarchyTable:
    def test_battery_builds(self):
        rows = build_hierarchy(4)
        names = [row.task_name for row in rows]
        assert "consensus" in names
        assert "2-set-agreement" in names
        assert "strong-3-renaming" in names
        assert any(name.startswith("wsb") for name in names)

    def test_equivalence_within_class(self):
        """All class-1 tasks report the same weakest detector — the
        paper's equivalence of consensus and strong renaming."""
        rows = build_hierarchy(4)
        class_one = [r for r in rows if r.level == 1 and r.exact]
        assert len(class_one) >= 3
        detectors = {r.weakest_detector for r in class_one}
        assert len(detectors) == 1

    def test_formatting(self):
        rows = build_hierarchy(4)
        table = format_hierarchy(rows)
        assert "weakest detector" in table
        assert "anti-Omega-2" in table


class TestValidationPrimitives:
    def test_validate_catches_wrong_level(self):
        """The 2-set-agreement algorithm does NOT survive 3-concurrent
        validation (3 processes, class is tight)."""
        task = SetAgreementTask(3, 2)
        factories = kset_concurrent_factories(3, 2)
        assert validate_k_concurrent(
            task, factories, 2, seeds=range(3)
        )
        assert not validate_k_concurrent(
            task, factories, 3, seeds=range(12)
        )

    def test_exhaustive_certificate(self):
        task = SetAgreementTask(3, 2)
        factories = kset_concurrent_factories(3, 2)
        report = explore_k_concurrent(
            task, factories, 2, (0, 1, 2), max_depth=13
        )
        assert report.conclusion == "certified"
        assert report.truncated_runs == 0
        assert explore_k_concurrent(
            task, factories, 3, (0, 1, 2), max_depth=13
        ).conclusion != "certified"
