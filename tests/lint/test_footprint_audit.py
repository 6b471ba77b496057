"""The differential footprint audit: clean on honest declarations,
loud when the declaration POR trusts lies or the static inference
under-covers the dynamic behavior."""

import ast
import textwrap
from types import SimpleNamespace

from repro.checker import independence
from repro.core.process import c_process
from repro.lint import ModuleSchema, extract_automata, lint_algorithms
from repro.lint.passes.base import ModuleUnit, PassContext
from repro.lint.passes.footprints import FootprintAudit
from repro.runtime import ops
from repro.runtime.trace import Trace, TraceEvent

NAMESPACE = {"ops": ops}


def demo_unit():
    source = textwrap.dedent(
        """
        def auto(ctx):
            x = yield ops.Read("fam/a")
            yield ops.Write("fam/out", x)
            yield ops.Decide(x)
        """
    )
    schema = ModuleSchema(c_automata=("auto",))
    return ModuleUnit(
        name="demo",
        module=None,
        schema=schema,
        file="<demo>",
        automata=extract_automata(
            ast.parse(source), schema, NAMESPACE, module_name="demo"
        ),
    )


def battery_of(events, automaton_of=None):
    trace = Trace()
    for event in events:
        trace.record(event)
    run = SimpleNamespace(
        label="synthetic",
        result=SimpleNamespace(trace=trace),
        automaton_of=(
            {"p1": ("demo", "auto")}
            if automaton_of is None
            else automaton_of
        ),
        race_check=False,
    )
    return (run,)


def audit(events, automaton_of=None):
    ctx = PassContext(
        units=[demo_unit()],
        strict=True,
        battery=battery_of(events, automaton_of),
    )
    return FootprintAudit().run(ctx).findings


P1 = c_process(0)


class TestShadowReplay:
    def test_consistent_trace_is_clean(self):
        events = [
            TraceEvent(0, P1, ops.Write("inp/0", 5), None),
            TraceEvent(1, P1, ops.Read("fam/a"), None),
            TraceEvent(2, P1, ops.Write("fam/out", None), None),
            TraceEvent(3, P1, ops.Read("fam/a"), None),
        ]
        assert audit(events) == []

    def test_result_exceeding_declared_effects_fires(self):
        # A read returns a value no footprint-declared write produced:
        # the op's behavior exceeds its declaration, so POR would
        # commute steps it must not.
        events = [
            TraceEvent(0, P1, ops.Read("fam/a"), 42),
        ]
        findings = audit(events)
        assert len(findings) == 1
        assert "POR soundness" in findings[0].message
        assert findings[0].severity == "error"

    def test_snapshot_prediction_uses_declared_writes_only(self):
        # Unmapped pid: coverage is out of scope here, only the shadow
        # replay direction is under test.
        events = [
            TraceEvent(0, P1, ops.Write("fam/a", 7), None),
            TraceEvent(1, P1, ops.Snapshot("fam/"), {"fam/a": 7}),
        ]
        assert audit(events, automaton_of={}) == []
        stale = [
            TraceEvent(0, P1, ops.Write("fam/a", 7), None),
            TraceEvent(1, P1, ops.Snapshot("fam/"), {"fam/a": 99}),
        ]
        findings = audit(stale, automaton_of={})
        assert len(findings) == 1
        assert "Snapshot" in findings[0].message

    def test_lying_declaration_fires(self, monkeypatch):
        # Seed a footprint that omits the write target — exactly the
        # under-report that would break POR soundness.
        def lying(op):
            if isinstance(op, ops.Write):
                return (frozenset(), frozenset(), frozenset())
            return ops.footprint(op)

        monkeypatch.setattr(independence, "op_footprint", lying)
        events = [
            TraceEvent(0, P1, ops.Write("fam/out", 1), None),
        ]
        findings = audit(events)
        assert any(
            "footprint omits its target register" in f.message
            for f in findings
        )


class TestCoverage:
    def test_mandated_input_write_is_exempt(self):
        events = [TraceEvent(0, P1, ops.Write("inp/0", 5), None)]
        assert audit(events) == []

    def test_uncovered_write_fires(self):
        events = [
            TraceEvent(0, P1, ops.Write("inp/0", 5), None),
            TraceEvent(1, P1, ops.Write("fam/evil", 1), None),
        ]
        findings = audit(events)
        assert len(findings) == 1
        assert "closed static footprint does not cover" in findings[0].message

    def test_uncovered_query_fires(self):
        events = [TraceEvent(0, P1, ops.QueryFD(), ())]
        findings = audit(events)
        assert len(findings) == 1
        assert "queries the failure detector" in findings[0].message

    def test_unknown_automaton_mapping_fires(self):
        events = [TraceEvent(0, P1, ops.Read("fam/a"), None)]
        findings = audit(
            events, automaton_of={"p1": ("demo", "missing")}
        )
        assert any("unknown automaton" in f.message for f in findings)

    def test_unmapped_pid_is_skipped(self):
        # Null automata are absent from the map; only the shadow
        # replay applies to their steps.
        events = [TraceEvent(0, P1, ops.Read("other/reg"), None)]
        assert audit(events, automaton_of={}) == []


class TestRealBattery:
    def test_bundled_workloads_pass_the_audit(self):
        report = lint_algorithms(strict=True, enable=("FootprintAudit",))
        assert report.findings == []
        assert report.passes_run == ("FootprintAudit",)

    def test_seeded_lie_is_caught_on_the_real_battery(self, monkeypatch):
        real = ops.footprint

        def lying(op):
            prints = real(op)
            if prints is None or not isinstance(op, ops.Write):
                return prints
            reads, prefixes, writes = prints
            if op.register.startswith("shelper/"):
                return (reads, prefixes, frozenset())
            return prints

        monkeypatch.setattr(independence, "op_footprint", lying)
        report = lint_algorithms(
            strict=True, enable=("FootprintAudit",)
        )
        assert report.has_errors
        assert all(f.rule == "FootprintAudit" for f in report.findings)
