"""The shipped algorithms must pass their own analyzer.

This is the acceptance gate: every module of :mod:`repro.algorithms`
has a complete lint schema, the full pass pipeline (the five step-model
rules + semantic CFG passes) reports zero violations over the real codebase,
and — under ``--strict`` — the traced battery is race-free and the
differential footprint audit holds on every bundled workload.
"""

from repro.__main__ import main
from repro.lint import (
    DYNAMIC_RULE_IDS,
    SEMANTIC_RULE_IDS,
    STATIC_RULE_IDS,
    lint_algorithms,
)


class TestPackageClean:
    def test_static_pass_is_clean(self):
        report = lint_algorithms()
        assert report.findings == []
        assert report.ok
        assert len(report.modules_checked) == 17
        assert report.rules_run == STATIC_RULE_IDS + SEMANTIC_RULE_IDS

    def test_strict_pass_is_clean(self):
        report = lint_algorithms(strict=True)
        assert report.findings == []
        assert (
            report.rules_run
            == STATIC_RULE_IDS + SEMANTIC_RULE_IDS + DYNAMIC_RULE_IDS
        )

    def test_every_module_has_a_schema(self):
        from repro import algorithms

        assert set(algorithms.LINT_SCHEMAS) == set(algorithms.__all__)

    def test_rule_ids(self):
        assert STATIC_RULE_IDS == (
            "CNoQuery",
            "DecideOnce",
            "NoCASInFaithful",
            "BoundedLoops",
            "RegisterNaming",
        )
        assert SEMANTIC_RULE_IDS == (
            "ReachDecide",
            "SingleWriter",
            "WriteOnce",
            "QueryBeforeUse",
            "StaleAdvice",
            "StaticFootprints",
        )
        assert DYNAMIC_RULE_IDS == (
            "FootprintAudit",
            "LostUpdate",
            "SnapshotRace",
        )


class TestLintCLI:
    def test_lint_command(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out
        assert "RegisterNaming" in out
        assert "ReachDecide" in out

    def test_lint_strict_command(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out
        assert "SnapshotRace" in out
        assert "FootprintAudit" in out
