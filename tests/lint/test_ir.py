"""The dataflow IR: CFG construction, fixpoint analyses, and static
footprint inference over synthetic automata."""

import ast
import sys
import textwrap

import pytest

from repro.lint import ModuleSchema, extract_automata
from repro.lint.ir import (
    forward_must,
    infer_footprint,
    nontrivial_sccs,
    reachable,
    reaches_any,
)
from repro.runtime import ops

NAMESPACE = {"ops": ops, "PREFIX": "fam/"}


def cfg_of(source, schema=None):
    schema = schema or ModuleSchema(c_automata=("auto",))
    tree = ast.parse(textwrap.dedent(source))
    (ir,) = extract_automata(tree, schema, NAMESPACE, module_name="<test>")
    return ir.cfg


def node_with_line(cfg, line):
    (node,) = [n for n in cfg.stmt_nodes() if n.line == line]
    return node


class TestCFGConstruction:
    def test_straight_line(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                yield ops.Decide(x)
            """
        )
        assert cfg.nodes[cfg.entry].kind == "entry"
        assert cfg.nodes[cfg.exit].kind == "exit"
        stmts = list(cfg.stmt_nodes())
        assert len(stmts) == 2
        read, decide = stmts
        assert read.succs == [decide.index]
        assert decide.succs == [cfg.exit]
        assert read.yields[0].op is ops.Read
        assert read.yields[0].register.text == "fam/a"
        assert decide.yields[0].op is ops.Decide

    def test_if_else_frontier_merges(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x:
                    yield ops.Write("fam/b", 1)
                else:
                    yield ops.Write("fam/c", 2)
                yield ops.Decide(x)
            """
        )
        decide = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Decide
        )
        # Both branch arms flow into the decide.
        assert len(decide.preds) == 2

    def test_if_without_else_falls_through(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x:
                    yield ops.Write("fam/b", 1)
                yield ops.Decide(x)
            """
        )
        branch = next(
            n for n in cfg.stmt_nodes() if isinstance(n.stmt, ast.If)
        )
        decide = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Decide
        )
        # The test itself is one predecessor (implicit else edge).
        assert branch.index in decide.preds

    def test_while_true_has_no_fallthrough_exit(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                while True:
                    v = yield ops.Read("fam/x")
                    if v:
                        break
                yield ops.Decide(1)
            """
        )
        header = next(
            n for n in cfg.stmt_nodes() if n.loop_kind == "while"
        )
        assert header.test_const_true
        decide = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Decide
        )
        # Only the break reaches the decide, never the header.
        assert header.index not in decide.preds
        assert len(decide.preds) == 1

    def test_loop_back_edge_forms_scc(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                while True:
                    v = yield ops.Read("fam/x")
                    if v:
                        break
                yield ops.Decide(1)
            """
        )
        sccs = nontrivial_sccs(cfg)
        assert len(sccs) == 1
        header = next(
            n for n in cfg.stmt_nodes() if n.loop_kind == "while"
        )
        assert header.index in sccs[0]

    def test_return_edges_to_exit_and_code_after_is_unreachable(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                yield ops.Decide(1)
                return
                yield ops.Write("fam/dead", 0)
            """
        )
        live = reachable(cfg, [cfg.entry])
        dead = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Write
        )
        assert dead.index not in live
        assert dead.preds == []
        assert cfg.exit in live

    def test_raise_marks_node_and_edges_to_exit(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x is None:
                    raise AssertionError("impossible")
                yield ops.Decide(x)
            """
        )
        raiser = next(n for n in cfg.stmt_nodes() if n.raises)
        assert cfg.exit in raiser.succs

    def test_try_body_edges_to_handler(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                try:
                    x = yield ops.Read("fam/a")
                    y = yield ops.Read("fam/b")
                except KeyError:
                    x = 0
                yield ops.Decide(x)
            """
        )
        handler_assign = next(
            n
            for n in cfg.stmt_nodes()
            if isinstance(n.stmt, ast.Assign) and not n.yields
        )
        # Both body statements may raise into the handler.
        assert len(handler_assign.preds) >= 2

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="except* needs Python 3.11"
    )
    def test_try_star_blocks_get_nodes(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                try:
                    x = yield ops.Read("fam/a")
                except* KeyError:
                    x = yield ops.Read("fam/b")
                yield ops.Decide(x)
            """
        )
        reads = [y.register.text for y in cfg.yields() if y.op is ops.Read]
        assert reads == ["fam/a", "fam/b"]
        assert node_with_line(cfg, 4).index in node_with_line(cfg, 6).preds

    @pytest.mark.parametrize(
        "last_case, falls_through",
        [
            ("case 1:", True),
            ("case _ if v:", True),
            ("case _:", False),
            ("case 1 | _:", False),
            ("case (_ as w):", False),
        ],
    )
    def test_match_cases_are_blocks(self, last_case, falls_through):
        cfg = cfg_of(
            f"""
            def auto(ctx):
                v = yield ops.Read("fam/a")
                match v:
                    case None:
                        yield ops.Write("fam/b", 1)
                    {last_case}
                        yield ops.Write("fam/c", 2)
                yield ops.Decide(v)
            """
        )
        match = node_with_line(cfg, 4)
        assert not match.yields  # the case bodies have their own nodes
        decide = node_with_line(cfg, 9)
        cases = {node_with_line(cfg, 6).index, node_with_line(cfg, 8).index}
        assert set(match.succs) == cases | (
            {decide.index} if falls_through else set()
        )
        assert cases <= set(decide.preds)

    def test_defs_uses_and_advice(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                advice = yield ops.QueryFD()
                total = advice + 1
                yield ops.Decide(total)
            """,
            schema=ModuleSchema(s_automata=("auto",)),
        )
        query, assign, decide = list(cfg.stmt_nodes())
        assert query.advice_defs == frozenset({"advice"})
        assert query.defs == frozenset({"advice"})
        assert assign.uses == frozenset({"advice"})
        assert assign.defs == frozenset({"total"})
        assert "total" in decide.uses

    def test_dynamic_yield_classification(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                op = make_op()
                yield op
            """
        )
        dyn = next(n for n in cfg.stmt_nodes() if n.yields)
        assert dyn.yields[0].dynamic
        assert not dyn.yields[0].is_from

    def test_op_bound_once_to_a_local_is_classified(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                query = ops.QueryFD()
                poll = ops.Read("fam/a")
                advice = yield query
                x = yield poll
                yield ops.Decide(x)
            """,
            schema=ModuleSchema(s_automata=("auto",)),
        )
        ask = node_with_line(cfg, 5)
        assert ask.yields[0].op is ops.QueryFD
        assert ask.advice_defs == frozenset({"advice"})
        (read,) = node_with_line(cfg, 6).yields
        assert read.op is ops.Read
        assert read.register.text == "fam/a"

    @pytest.mark.parametrize(
        "source",
        [
            """
            def auto(ctx):
                poll = ops.Read("fam/a")
                poll = ops.Nop()
                yield poll
            """,
            """
            def auto(ctx, poll):
                poll = ops.Read("fam/a")
                yield poll
            """,
            """
            def auto(ctx):
                global poll
                poll = ops.Read("fam/a")
                yield poll
            """,
        ],
        ids=["bound-twice", "parameter", "global"],
    )
    def test_other_locals_stay_dynamic(self, source):
        (step,) = cfg_of(source).yields()
        assert step.dynamic

    def test_yield_from_classification(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                yield from helper(ctx)
            """
        )
        deleg = next(n for n in cfg.stmt_nodes() if n.yields)
        assert deleg.yields[0].is_from


class TestFixpoints:
    def test_reaches_any_excludes_trap(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x:
                    while True:
                        yield ops.Write("fam/b", 1)
                yield ops.Decide(x)
            """
        )
        decide = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Decide
        )
        rescued = reaches_any(cfg, [decide.index])
        trap = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Write
        )
        assert trap.index not in rescued
        assert cfg.entry in rescued

    def test_forward_must_intersects_over_branches(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x:
                    a = 1
                else:
                    b = 2
                yield ops.Decide(x)
            """
        )
        decide = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Decide
        )
        must = forward_must(cfg, lambda node: node.defs)
        # ``x`` is defined on every path in; ``a``/``b`` only on one.
        assert "x" in must[decide.index]
        assert "a" not in must[decide.index]
        assert "b" not in must[decide.index]

    def test_forward_must_both_branches_define(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                if x:
                    a = 1
                else:
                    a = 2
                yield ops.Decide(a)
            """
        )
        decide = next(
            n
            for n in cfg.stmt_nodes()
            if n.yields and n.yields[0].op is ops.Decide
        )
        must = forward_must(cfg, lambda node: node.defs)
        assert "a" in must[decide.index]


class TestFootprintInference:
    def test_closed_footprint(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                snap = yield ops.Snapshot("fam/")
                yield ops.Write("fam/b", x)
                yield ops.Decide(x)
            """
        )
        fp = infer_footprint(cfg)
        assert fp.closed
        assert fp.reads == frozenset({"fam/a"})
        assert fp.read_prefixes == frozenset({"fam/"})
        assert fp.writes == frozenset({"fam/b"})
        assert fp.decides and not fp.queries
        assert fp.covers_read("fam/anything")  # via the prefix
        assert fp.covers_write("fam/b")
        assert not fp.covers_write("fam/c")
        assert fp.covers_snapshot("fam/sub/")
        assert not fp.covers_snapshot("other/")

    def test_prefix_resolved_register_is_open_coverage(self):
        # f-strings with a dynamic tail resolve to a prefix, which
        # still covers any register under the family.
        cfg = cfg_of(
            """
            def auto(ctx):
                me = ctx.pid.index
                yield ops.Write(f"fam/{me}", 1)
                yield ops.Decide(1)
            """
        )
        fp = infer_footprint(cfg)
        assert fp.closed
        assert fp.write_prefixes == frozenset({"fam/"})
        assert fp.covers_write("fam/7")

    def test_cas_lands_in_reads_and_writes(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                held = yield ops.CompareAndSwap("fam/lock", None, 1)
                yield ops.Decide(held)
            """
        )
        fp = infer_footprint(cfg)
        assert "fam/lock" in fp.reads
        assert "fam/lock" in fp.writes

    def test_yield_from_opens_the_footprint(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                yield from helper(ctx)
                yield ops.Decide(1)
            """
        )
        fp = infer_footprint(cfg)
        assert fp.delegated == 1
        assert not fp.closed

    def test_dynamic_yield_opens_the_footprint(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                op = pick()
                yield op
            """
        )
        fp = infer_footprint(cfg)
        assert fp.unresolved == 1
        assert not fp.closed

    def test_query_sets_flag(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                advice = yield ops.QueryFD()
                yield ops.Decide(advice)
            """,
            schema=ModuleSchema(s_automata=("auto",)),
        )
        fp = infer_footprint(cfg)
        assert fp.queries

    def test_query_through_a_local_is_closed(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                query = ops.QueryFD()
                advice = yield query
                yield ops.Decide(advice)
            """,
            schema=ModuleSchema(s_automata=("auto",)),
        )
        fact = infer_footprint(cfg).as_fact()
        assert fact["queries"] is True
        assert fact["closed"] is True

    def test_as_fact_is_json_ready(self):
        cfg = cfg_of(
            """
            def auto(ctx):
                x = yield ops.Read("fam/a")
                yield ops.Decide(x)
            """
        )
        fact = infer_footprint(cfg).as_fact()
        assert fact["reads"] == ["fam/a"]
        assert fact["closed"] is True
        assert fact["decides"] is True
