"""Advice discipline for S-processes.

S-processes are the only automata allowed to consult the failure
detector (``CNoQuery`` enforces the other side).  These passes check
that when an S-process *does* take advice, it handles it honestly:

``QueryBeforeUse``
    A variable holding detector output (``advice = yield
    ops.QueryFD()``) must be assigned on **every** path before it is
    read.  A branch that skips the query and then uses the variable
    consumes stale — or unbound — advice.  Implemented as a forward
    must-analysis (intersection over predecessors) on the CFG.

``StaleAdvice`` (warning)
    A cycle that keeps acting on advice-derived data without
    re-querying inside the cycle treats one advice sample as
    permanent.  The paper's detectors are *unreliable*: their output
    can change at every query, and algorithms such as Figure 2's
    S-automaton re-query at the top of each round for exactly this
    reason.  Advice taint propagates through assignments
    (``uses ∩ tainted → defs tainted``) before the cycle check.
"""

from __future__ import annotations

from ...runtime import ops
from ..ir.cfg import CFG
from ..ir.dataflow import forward_must, nontrivial_sccs, reachable
from .base import LintPass, PassContext, PassResult
from .registry import register_pass

__all__ = ["QueryBeforeUse", "StaleAdvice"]


def _advice_vars(cfg: CFG) -> set[str]:
    return {
        name for node in cfg.stmt_nodes() for name in node.advice_defs
    }


def _tainted_vars(cfg: CFG) -> set[str]:
    """Variables (transitively) derived from detector output."""
    tainted = _advice_vars(cfg)
    changed = True
    while changed:
        changed = False
        for node in cfg.stmt_nodes():
            if not node.defs:
                continue
            # Names both defined and used in one statement are treated
            # as statement-local (comprehension targets shadow outer
            # names and are Store-before-Load within the statement).
            if (node.uses - node.defs) & tainted and not (
                node.defs <= tainted
            ):
                tainted |= node.defs
                changed = True
    return tainted


@register_pass
class QueryBeforeUse(LintPass):
    pass_id = "QueryBeforeUse"
    title = "detector output is queried on every path before use"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            advice = _advice_vars(ir.cfg)
            if not advice:
                continue
            must = forward_must(ir.cfg, lambda node: node.defs)
            for node in ir.cfg.stmt_nodes():
                used = node.uses & advice
                # A node may both use and (re)define the variable
                # (``advice = f(advice)``); the incoming must-set is
                # what matters, not the node's own defs.
                missing = used - must[node.index]
                for name in sorted(missing):
                    result.findings.append(
                        self.finding(
                            file=unit.file,
                            line=node.line,
                            kind=ir.kind,
                            message=(
                                f"{ir.name}: advice variable "
                                f"{name!r} is read here but not "
                                "assigned from a detector query on "
                                "every incoming path"
                            ),
                        )
                    )
        return result


@register_pass
class StaleAdvice(LintPass):
    pass_id = "StaleAdvice"
    title = "cycles acting on advice re-query inside the cycle"
    default_severity = "warning"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            if ir.footprint.queries == 0:
                continue
            tainted = _tainted_vars(ir.cfg)
            if not tainted:
                continue
            live = reachable(ir.cfg, [ir.cfg.entry])
            for component in nontrivial_sccs(ir.cfg):
                if not component & live:
                    continue
                nodes = [
                    ir.cfg.nodes[index] for index in sorted(component)
                ]
                if not any(node.yields for node in nodes):
                    # No steps are taken inside the cycle: it runs
                    # within one atomic step, so advice cannot go
                    # stale while it executes.
                    continue
                if not any(
                    (node.uses - node.defs) & tainted
                    for node in nodes
                ):
                    continue
                if any(
                    node.advice_defs
                    or any(
                        y.op is ops.QueryFD or y.dynamic or y.is_from
                        for y in node.yields
                    )
                    for node in nodes
                ):
                    continue
                line = min(node.line for node in nodes)
                result.findings.append(
                    self.finding(
                        file=unit.file,
                        line=line,
                        kind=ir.kind,
                        message=(
                            f"{ir.name}: cycle acts on "
                            "advice-derived data without re-querying "
                            "the detector inside the cycle; unreliable "
                            "advice may have changed"
                        ),
                    )
                )
        return result
