"""Each semantic CFG pass fires on deliberately malformed automata and
stays quiet on conforming ones (the lint/test_static_rules.py
counterpart for the IR-based passes)."""

import ast
import textwrap

from repro.lint import ModuleSchema, RegisterSchema, extract_automata
from repro.lint.passes.base import ModuleUnit, PassContext
from repro.lint.passes.ownership import SingleWriter, WriteOnce
from repro.lint.passes.query_discipline import QueryBeforeUse, StaleAdvice
from repro.lint.passes.reachability import ReachDecide
from repro.runtime import ops

NAMESPACE = {"ops": ops, "PREFIX": "fam/"}


def unit_of(source, schema):
    tree = ast.parse(textwrap.dedent(source))
    return ModuleUnit(
        name="<test>",
        module=None,
        schema=schema,
        file="<test>",
        automata=extract_automata(
            tree, schema, NAMESPACE, module_name="<test>"
        ),
    )


def run_pass(pass_class, source, schema):
    ctx = PassContext(units=[unit_of(source, schema)])
    return pass_class().run(ctx).findings


C_SCHEMA = ModuleSchema(c_automata=("auto",))
S_SCHEMA = ModuleSchema(s_automata=("auto",))


class TestReachDecide:
    def test_clean_automaton(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                yield ops.Decide(x)
            """,
            C_SCHEMA,
        )
        assert findings == []

    def test_trap_region(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x is None:
                    while True:
                        yield ops.Write("fam/b", 1)
                yield ops.Decide(x)
            """,
            C_SCHEMA,
        )
        assert any("never fulfil its decide" in f.message for f in findings)

    def test_terminating_path_without_decide(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x:
                    yield ops.Decide(x)
            """,
            C_SCHEMA,
        )
        assert any("halt undecided" in f.message for f in findings)

    def test_raise_path_is_exempt(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x is None:
                    raise AssertionError("unreachable by protocol")
                yield ops.Decide(x)
            """,
            C_SCHEMA,
        )
        assert findings == []

    def test_blind_cycle(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                while True:
                    yield ops.Write("fam/a", 1)
            """,
            C_SCHEMA,
        )
        assert any("wait-freedom violation" in f.message for f in findings)

    def test_observing_cycle_is_not_blind(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                while True:
                    v = yield ops.Read("fam/flag")
                    if v:
                        break
                yield ops.Decide(v)
            """,
            C_SCHEMA,
        )
        assert findings == []

    def test_non_deciding_exemption(self):
        schema = ModuleSchema(
            c_automata=("auto",), non_deciding=("auto",)
        )
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                yield ops.Write("fam/out", 1)
            """,
            schema,
        )
        assert findings == []

    def test_s_automata_are_out_of_scope(self):
        findings = run_pass(
            ReachDecide,
            """
            def auto(ctx):
                yield ops.Write("fam/out", 1)
            """,
            S_SCHEMA,
        )
        assert findings == []


SW_SCHEMA = ModuleSchema(
    c_automata=("auto",),
    registers=RegisterSchema(
        prefixes=("fam/",), single_writer=("fam/",)
    ),
)


class TestSingleWriter:
    def test_own_index_write_is_clean(self):
        findings = run_pass(
            SingleWriter,
            """
            def auto(ctx):
                me = ctx.pid.index
                yield ops.Write(f"fam/{me}", 1)
                yield ops.Decide(1)
            """,
            SW_SCHEMA,
        )
        assert findings == []

    def test_inline_pid_index_is_clean(self):
        findings = run_pass(
            SingleWriter,
            """
            def auto(ctx):
                yield ops.Write(f"fam/{ctx.pid.index}", 1)
                yield ops.Decide(1)
            """,
            SW_SCHEMA,
        )
        assert findings == []

    def test_foreign_index_write_fires(self):
        findings = run_pass(
            SingleWriter,
            """
            def auto(ctx):
                other = 0
                yield ops.Write(f"fam/{other}", 1)
                yield ops.Decide(1)
            """,
            SW_SCHEMA,
        )
        assert len(findings) == 1
        assert "own index" in findings[0].message

    def test_constant_register_write_fires(self):
        findings = run_pass(
            SingleWriter,
            """
            def auto(ctx):
                yield ops.Write("fam/3", 1)
                yield ops.Decide(1)
            """,
            SW_SCHEMA,
        )
        assert len(findings) == 1

    def test_other_families_are_ignored(self):
        findings = run_pass(
            SingleWriter,
            """
            def auto(ctx):
                yield ops.Write("other/3", 1)
                yield ops.Decide(1)
            """,
            SW_SCHEMA,
        )
        assert findings == []


WO_SCHEMA = ModuleSchema(
    c_automata=("auto",),
    registers=RegisterSchema(prefixes=("fam/",), write_once=("fam/",)),
)


class TestWriteOnce:
    def test_single_write_is_clean(self):
        findings = run_pass(
            WriteOnce,
            """
            def auto(ctx):
                yield ops.Write("fam/v", 1)
                yield ops.Decide(1)
            """,
            WO_SCHEMA,
        )
        assert findings == []

    def test_write_in_cycle_fires(self):
        findings = run_pass(
            WriteOnce,
            """
            def auto(ctx):
                while True:
                    yield ops.Write("fam/v", 1)
                    done = yield ops.Read("fam/done")
                    if done:
                        break
                yield ops.Decide(1)
            """,
            WO_SCHEMA,
        )
        assert any("sits in a cycle" in f.message for f in findings)

    def test_sequential_double_write_fires(self):
        findings = run_pass(
            WriteOnce,
            """
            def auto(ctx):
                yield ops.Write("fam/v", 1)
                yield ops.Write("fam/v", 2)
                yield ops.Decide(1)
            """,
            WO_SCHEMA,
        )
        assert any("second write" in f.message for f in findings)

    def test_branch_exclusive_writes_are_clean(self):
        findings = run_pass(
            WriteOnce,
            """
            def auto(ctx):
                x = yield ops.Read("fam/x")
                if x:
                    yield ops.Write("fam/v", 1)
                else:
                    yield ops.Write("fam/v", 2)
                yield ops.Decide(1)
            """,
            WO_SCHEMA,
        )
        assert findings == []


class TestQueryBeforeUse:
    def test_query_on_every_path_is_clean(self):
        findings = run_pass(
            QueryBeforeUse,
            """
            def auto(ctx):
                advice = yield ops.QueryFD()
                yield ops.Write("fam/out", advice)
            """,
            S_SCHEMA,
        )
        assert findings == []

    def test_branch_skipping_the_query_fires(self):
        findings = run_pass(
            QueryBeforeUse,
            """
            def auto(ctx):
                flag = yield ops.Read("fam/flag")
                if flag:
                    advice = yield ops.QueryFD()
                yield ops.Write("fam/out", advice)
            """,
            S_SCHEMA,
        )
        assert len(findings) == 1
        assert "'advice'" in findings[0].message

    def test_query_in_both_branches_is_clean(self):
        findings = run_pass(
            QueryBeforeUse,
            """
            def auto(ctx):
                flag = yield ops.Read("fam/flag")
                if flag:
                    advice = yield ops.QueryFD()
                else:
                    advice = yield ops.QueryFD()
                yield ops.Write("fam/out", advice)
            """,
            S_SCHEMA,
        )
        assert findings == []


class TestStaleAdvice:
    def test_requery_inside_cycle_is_clean(self):
        findings = run_pass(
            StaleAdvice,
            """
            def auto(ctx):
                while True:
                    advice = yield ops.QueryFD()
                    yield ops.Write("fam/out", advice)
            """,
            S_SCHEMA,
        )
        assert findings == []

    def test_single_query_reused_in_cycle_warns(self):
        findings = run_pass(
            StaleAdvice,
            """
            def auto(ctx):
                advice = yield ops.QueryFD()
                while True:
                    yield ops.Write("fam/out", advice)
            """,
            S_SCHEMA,
        )
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "re-querying" in findings[0].message

    def test_taint_propagates_through_assignment(self):
        findings = run_pass(
            StaleAdvice,
            """
            def auto(ctx):
                advice = yield ops.QueryFD()
                derived = advice + 1
                while True:
                    yield ops.Write("fam/out", derived)
            """,
            S_SCHEMA,
        )
        assert len(findings) == 1

    def test_stepless_local_loop_is_exempt(self):
        findings = run_pass(
            StaleAdvice,
            """
            def auto(ctx):
                advice = yield ops.QueryFD()
                total = 0
                for item in advice:
                    total += item
                yield ops.Write("fam/out", total)
            """,
            S_SCHEMA,
        )
        assert findings == []
