"""Each static protocol rule fires on deliberately malformed automata
and stays quiet on conforming ones."""

import ast
import textwrap

import pytest

from repro.errors import SpecificationError
from repro.lint import (
    BoundedLoops,
    CNoQuery,
    DecideOnce,
    ModuleSchema,
    NoCASInFaithful,
    RegisterNaming,
    RegisterSchema,
    extract_automata,
)
from repro.lint.passes import ModuleUnit, PassContext
from repro.runtime import ops

NAMESPACE = {"ops": ops, "PREFIX": "fam/"}


def automata_of(source, schema):
    tree = ast.parse(textwrap.dedent(source))
    return extract_automata(tree, schema, NAMESPACE, module_name="<test>")


def run_rule(rule_class, source, schema):
    unit = ModuleUnit(
        name="<test>",
        module=None,
        schema=schema,
        file="<test>",
        automata=automata_of(source, schema),
    )
    return rule_class().run(PassContext(units=[unit])).findings


class TestCNoQuery:
    SOURCE = """\
    def bad_factory(ctx):
        def run(ctx):
            advice = yield ops.QueryFD()
            yield ops.Decide(advice)
        return run
    """

    def test_fires_on_c_automaton_query(self):
        schema = ModuleSchema(c_automata=("bad_factory",))
        findings = run_rule(CNoQuery, self.SOURCE, schema)
        assert len(findings) == 1
        assert findings[0].rule == "CNoQuery"
        assert findings[0].line == 3
        assert findings[0].process_kind == "C"

    def test_fires_on_subroutine_query(self):
        schema = ModuleSchema(subroutines=("bad_factory",))
        findings = run_rule(CNoQuery, self.SOURCE, schema)
        assert len(findings) == 1

    def test_quiet_on_s_automaton_query(self):
        schema = ModuleSchema(s_automata=("bad_factory",))
        assert run_rule(CNoQuery, self.SOURCE, schema) == []


class TestDecideOnce:
    def test_fires_on_non_terminal_decide(self):
        source = """\
        def chatty(ctx):
            yield ops.Decide(1)
            yield ops.Write("fam/x", 1)
        """
        schema = ModuleSchema(c_automata=("chatty",))
        findings = run_rule(DecideOnce, source, schema)
        assert [f.line for f in findings] == [2]
        assert "tail position" in findings[0].message

    def test_fires_on_decide_inside_loop(self):
        source = """\
        def looper(ctx):
            while True:
                value = yield ops.Read("fam/x")
                if value is not None:
                    yield ops.Decide(value)
        """
        schema = ModuleSchema(c_automata=("looper",))
        findings = run_rule(DecideOnce, source, schema)
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_fires_on_never_deciding_c_automaton(self):
        source = """\
        def silent(ctx):
            yield ops.Nop()
        """
        schema = ModuleSchema(c_automata=("silent",))
        findings = run_rule(DecideOnce, source, schema)
        assert len(findings) == 1
        assert "never yields Decide" in findings[0].message

    def test_non_deciding_declaration_exempts(self):
        source = """\
        def silent(ctx):
            yield ops.Nop()
        """
        schema = ModuleSchema(
            c_automata=("silent",), non_deciding=("silent",)
        )
        assert run_rule(DecideOnce, source, schema) == []

    def test_fires_on_s_automaton_decide(self):
        source = """\
        def rogue(ctx):
            yield ops.Decide(0)
        """
        schema = ModuleSchema(s_automata=("rogue",))
        findings = run_rule(DecideOnce, source, schema)
        assert len(findings) == 1
        assert "S-process" in findings[0].message

    def test_fires_on_subroutine_decide(self):
        source = """\
        def helper(ctx):
            yield ops.Decide(0)
        """
        schema = ModuleSchema(subroutines=("helper",))
        findings = run_rule(DecideOnce, source, schema)
        assert len(findings) == 1
        assert "subroutine" in findings[0].message

    def test_quiet_on_decide_then_return(self):
        source = """\
        def fine(ctx):
            value = yield ops.Read("fam/x")
            if value is not None:
                yield ops.Decide(value)
                return
            yield ops.Decide(0)
        """
        schema = ModuleSchema(c_automata=("fine",))
        assert run_rule(DecideOnce, source, schema) == []


class TestNoCASInFaithful:
    SOURCE = """\
    def swapper(ctx):
        held = yield ops.CompareAndSwap("fam/x", None, 1)
        yield ops.Decide(held)
    """

    def test_fires_in_faithful_module(self):
        schema = ModuleSchema(c_automata=("swapper",))
        findings = run_rule(NoCASInFaithful, self.SOURCE, schema)
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_allowlist_exempts(self):
        schema = ModuleSchema(
            c_automata=("swapper",), cas_allowlist=("swapper",)
        )
        assert run_rule(NoCASInFaithful, self.SOURCE, schema) == []

    def test_unfaithful_module_exempts(self):
        schema = ModuleSchema(c_automata=("swapper",), faithful=False)
        assert run_rule(NoCASInFaithful, self.SOURCE, schema) == []


class TestBoundedLoops:
    def test_fires_on_blind_spin_loop(self):
        source = """\
        def spinner(ctx):
            while True:
                yield ops.Write("fam/x", 1)
                yield ops.Nop()
        """
        schema = ModuleSchema(c_automata=("spinner",), non_deciding=("spinner",))
        findings = run_rule(BoundedLoops, source, schema)
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_quiet_when_loop_reads(self):
        source = """\
        def poller(ctx):
            while True:
                value = yield ops.Read("fam/x")
                if value:
                    yield ops.Decide(value)
        """
        schema = ModuleSchema(c_automata=("poller",))
        assert run_rule(BoundedLoops, source, schema) == []

    def test_quiet_on_yield_from(self):
        source = """\
        def composed(ctx):
            while True:
                value = yield from helper(ctx)
                if value:
                    break
            yield ops.Decide(value)
        """
        schema = ModuleSchema(c_automata=("composed",))
        assert run_rule(BoundedLoops, source, schema) == []

    def test_quiet_on_local_computation_loop(self):
        source = """\
        def counter(ctx):
            total = 0
            while total < 10:
                total += 1
            yield ops.Decide(total)
        """
        schema = ModuleSchema(c_automata=("counter",))
        assert run_rule(BoundedLoops, source, schema) == []

    def test_quiet_in_s_automata(self):
        source = """\
        def s_spinner(ctx):
            while True:
                yield ops.Write("fam/x", 1)
        """
        schema = ModuleSchema(s_automata=("s_spinner",))
        assert run_rule(BoundedLoops, source, schema) == []


class TestRegisterNaming:
    def test_fires_on_undeclared_register(self):
        source = """\
        def scribbler(ctx):
            yield ops.Write("other/x", 1)
            yield ops.Decide(1)
        """
        schema = ModuleSchema(
            c_automata=("scribbler",),
            registers=RegisterSchema(prefixes=("fam/",)),
        )
        findings = run_rule(RegisterNaming, source, schema)
        assert len(findings) == 1
        assert findings[0].line == 2
        assert "'other/x'" in findings[0].message

    def test_fires_on_undeclared_fstring_prefix(self):
        source = """\
        def scribbler(ctx):
            yield ops.Write(f"other/{ctx.pid.index}", 1)
            yield ops.Decide(1)
        """
        schema = ModuleSchema(
            c_automata=("scribbler",),
            registers=RegisterSchema(prefixes=("fam/",)),
        )
        findings = run_rule(RegisterNaming, source, schema)
        assert len(findings) == 1

    def test_quiet_on_declared_names(self):
        source = """\
        def fine(ctx):
            yield ops.Write(f"{PREFIX}{ctx.pid.index}", 1)
            view = yield ops.Snapshot(PREFIX)
            yield ops.Decide(len(view))
        """
        schema = ModuleSchema(
            c_automata=("fine",),
            registers=RegisterSchema(prefixes=("fam/",)),
        )
        assert run_rule(RegisterNaming, source, schema) == []

    def test_snapshot_may_cover_declared_family(self):
        source = """\
        def sweeping(ctx):
            view = yield ops.Snapshot("")
            yield ops.Decide(len(view))
        """
        schema = ModuleSchema(
            c_automata=("sweeping",),
            registers=RegisterSchema(prefixes=("fam/",)),
        )
        assert run_rule(RegisterNaming, source, schema) == []

    def test_dynamic_names_skipped(self):
        source = """\
        def dynamic(ctx):
            yield ops.Write(ctx.input_value, 1)
            yield ops.Decide(1)
        """
        schema = ModuleSchema(
            c_automata=("dynamic",),
            registers=RegisterSchema(prefixes=("fam/",)),
        )
        assert run_rule(RegisterNaming, source, schema) == []


class TestDecideOnceOnTheCFG:
    """Tail position read off the CFG: every successor of the Decide's
    node is the exit or a ``return``.  Each case here was judged the
    other way by the flat statement walk the rule used to run on."""

    @pytest.mark.parametrize("loop", ["while True:", "for _ in range(3):"])
    def test_fires_on_decide_ending_a_loop_body(self, loop):
        source = f"""\
        def looper(ctx):
            {loop}
                value = yield ops.Read("fam/x")
                yield ops.Decide(value)
        """
        schema = ModuleSchema(c_automata=("looper",))
        findings = run_rule(DecideOnce, source, schema)
        assert [f.line for f in findings] == [4]
        assert "tail position" in findings[0].message

    def test_quiet_on_decide_then_return_inside_a_loop(self):
        source = """\
        def poller(ctx):
            while True:
                value = yield ops.Read("fam/x")
                if value:
                    yield ops.Decide(value)
                return
        """
        schema = ModuleSchema(c_automata=("poller",))
        assert run_rule(DecideOnce, source, schema) == []

    @pytest.mark.parametrize("clause", ["except ValueError:", "finally:"])
    def test_fires_on_decide_in_a_guarded_try_body(self, clause):
        source = f"""\
        def guarded(ctx):
            try:
                yield ops.Decide(1)
            {clause}
                pass
        """
        schema = ModuleSchema(c_automata=("guarded",))
        findings = run_rule(DecideOnce, source, schema)
        assert [f.line for f in findings] == [3]

    def test_quiet_on_unreachable_code_after_return(self):
        source = """\
        def fine(ctx):
            yield ops.Decide(1)
            return
            yield ops.Nop()
        """
        schema = ModuleSchema(c_automata=("fine",))
        assert run_rule(DecideOnce, source, schema) == []


class TestOpsBoundToLocals:
    def test_query_through_a_local_fires_cnoquery(self):
        source = """\
        def hoisted(ctx):
            query = ops.QueryFD()
            while True:
                advice = yield query
                if advice:
                    yield ops.Decide(advice)
                    return
        """
        schema = ModuleSchema(c_automata=("hoisted",))
        findings = run_rule(CNoQuery, source, schema)
        assert [(f.rule, f.line) for f in findings] == [("CNoQuery", 4)]


class TestExtraction:
    def test_schema_drift_is_an_error(self):
        schema = ModuleSchema(c_automata=("missing",))
        with pytest.raises(SpecificationError):
            automata_of("x = 1", schema)

    def test_non_generator_is_an_error(self):
        source = """\
        def not_a_generator(ctx):
            return None
        """
        schema = ModuleSchema(c_automata=("not_a_generator",))
        with pytest.raises(SpecificationError):
            automata_of(source, schema)

    def test_dotted_names_reach_nested_defs(self):
        source = """\
        class Agreement:
            def propose(self, ctx):
                yield ops.Decide(1)
        """
        schema = ModuleSchema(subroutines=("Agreement.propose",))
        automata = automata_of(source, schema)
        assert [ir.name for ir in automata] == ["Agreement.propose"]
        assert len(list(automata[0].cfg.yields())) == 1

    def test_nested_defs_do_not_leak_yields(self):
        source = """\
        def outer(ctx):
            def ignored(ctx):
                yield ops.QueryFD()
            yield ops.Decide(1)
        """
        schema = ModuleSchema(c_automata=("outer",))
        automata = automata_of(source, schema)
        assert [y.op for y in automata[0].cfg.yields()] == [ops.Decide]
