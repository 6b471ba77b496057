"""Reachability-of-decide: the wait-freedom obligation, on the CFG.

The paper's C-processes must decide in finitely many of their own steps
regardless of scheduling.  ``DecideOnce`` checks the *count* (exactly
one decide, in tail position); this pass checks the *paths*:

1. **No trap regions** — from every reachable yielding node, a
   ``Decide`` (or a dynamic yield that may forward one, or termination)
   must be reachable.  A loop with no decide and no exit is a region
   the process can enter and never fulfil its obligation in.
2. **Every terminating path decides** — a path that falls off the end
   of the generator without passing a ``Decide`` halts the process
   undecided (``raise`` is exempt: defensive unreachable-path guards).
3. **No blind cycles** — a cycle that yields but never observes shared
   state (read/snapshot/CAS), never delegates, and never yields
   dynamically cannot terminate in response to other processes'
   progress.  This generalizes ``BoundedLoops`` to arbitrary CFG
   cycles, with loop-variant heuristics: cycles through a ``for``
   header (bounded iterator) or a ``while`` header with a non-constant
   test (a local loop variant) get the benefit of the doubt.

Automata declared ``non_deciding`` are exempt from 1 and 2 (their
decision surfaces elsewhere by design) but not from 3.
"""

from __future__ import annotations

from ...runtime import ops
from ..ir.cfg import CFG, CFGNode
from ..ir.dataflow import nontrivial_sccs, reachable, reaches_any
from .base import AutomatonIR, LintPass, PassContext, PassResult
from .registry import register_pass

__all__ = ["ReachDecide"]

_OBSERVING = (ops.Read, ops.Snapshot, ops.CompareAndSwap, ops.QueryFD)


def _may_decide(node: CFGNode) -> bool:
    """Can executing this node discharge the decide obligation?"""
    if node.raises:
        return True  # defensive halt on an impossible path
    return any(
        y.op is ops.Decide or y.dynamic for y in node.yields
    )


def _all_paths_decide(cfg: CFG, live: set[int]) -> bool:
    """Greatest-fixpoint AND-over-successors: does every path from the
    entry that reaches the exit pass a deciding node first?  Paths that
    loop forever are vacuously fine here (the trap check owns them)."""
    ok = {index: True for index in live}
    ok[cfg.exit] = False
    changed = True
    while changed:
        changed = False
        for index in live:
            if index == cfg.exit:
                continue
            node = cfg.nodes[index]
            if _may_decide(node):
                continue
            value = all(
                ok.get(succ, True) for succ in node.succs
            ) if node.succs else True
            if value != ok[index]:
                ok[index] = value
                changed = True
    return ok.get(cfg.entry, True)


@register_pass
class ReachDecide(LintPass):
    pass_id = "ReachDecide"
    title = "every C-process path reaches a decide (or halts)"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            if ir.kind != "C":
                continue
            non_deciding = ir.name in unit.schema.non_deciding
            if not non_deciding:
                self._check_traps(unit.file, ir, result)
                self._check_terminating_paths(unit.file, ir, result)
            self._check_blind_cycles(unit.file, ir, result)
        return result

    # -- 1: trap regions ----------------------------------------------

    def _check_traps(
        self, file: str, ir: AutomatonIR, result: PassResult
    ) -> None:
        cfg = ir.cfg
        live = reachable(cfg, [cfg.entry])
        targets = [cfg.exit] + [
            node.index
            for node in cfg.stmt_nodes()
            if _may_decide(node)
        ]
        rescued = reaches_any(cfg, targets)
        trapped = sorted(
            index
            for index in live
            if index not in rescued and cfg.nodes[index].yields
        )
        if trapped:
            node = cfg.nodes[trapped[0]]
            result.findings.append(
                self.finding(
                    file=file,
                    line=node.line,
                    kind="C",
                    message=(
                        f"{ir.name}: reachable yielding code from "
                        "which no Decide or termination is reachable — "
                        "the process can enter this region and never "
                        "fulfil its decide obligation"
                    ),
                )
            )

    # -- 2: terminating paths -----------------------------------------

    def _check_terminating_paths(
        self, file: str, ir: AutomatonIR, result: PassResult
    ) -> None:
        cfg = ir.cfg
        live = reachable(cfg, [cfg.entry])
        if cfg.exit not in live:
            return  # nothing terminates; the trap check covers it
        if not _all_paths_decide(cfg, live):
            result.findings.append(
                self.finding(
                    file=file,
                    line=ir.line,
                    kind="C",
                    message=(
                        f"{ir.name}: some execution path returns "
                        "without yielding Decide — the process would "
                        "halt undecided"
                    ),
                )
            )

    # -- 3: blind cycles ----------------------------------------------

    def _check_blind_cycles(
        self, file: str, ir: AutomatonIR, result: PassResult
    ) -> None:
        cfg = ir.cfg
        live = reachable(cfg, [cfg.entry])
        for component in nontrivial_sccs(cfg):
            if not component & live:
                continue
            nodes = [cfg.nodes[index] for index in sorted(component)]
            steps = [y for node in nodes for y in node.yields]
            if not steps:
                continue  # pure local computation
            if any(
                y.is_from or y.dynamic or y.op in _OBSERVING
                for y in steps
            ):
                continue
            if any(
                node.loop_kind == "for"
                or (
                    node.loop_kind == "while"
                    and not node.test_const_true
                )
                for node in nodes
            ):
                continue  # loop-variant heuristic: bounded iteration
            line = min(node.line for node in nodes)
            result.findings.append(
                self.finding(
                    file=file,
                    line=line,
                    kind="C",
                    message=(
                        f"{ir.name}: cycle yields steps but never "
                        "observes shared state or advice; it cannot "
                        "terminate in response to other processes' "
                        "progress (wait-freedom violation)"
                    ),
                )
            )
        return None
