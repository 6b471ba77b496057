"""Register ownership discipline: single-writer and write-once.

The paper's algorithms (and the Theorem 9 simulation built on them)
assume *single-writer* register families: ``fam/<i>`` is written only
by process ``i``.  A schema opts a family in via
``RegisterSchema.single_writer``; this pass then demands that every
statically-visible write into the family interpolates the writer's own
index — ``f"{PREFIX}{me}"`` where ``me`` aliases ``ctx.pid.index`` — so
no process can scribble over another's register.

``RegisterSchema.write_once`` additionally demands that each process
writes a matching register at most once per run: structurally, no
write node may sit in a CFG cycle (it could re-execute), and no write
node may reach another write to the same family (a sequential double
write).  The ``s_helper`` module's ``V`` register is the canonical
client: helping is sound there *because* each S-process publishes at
most one value.
"""

from __future__ import annotations

import ast
from typing import Any

from ...algorithms._schema import ModuleSchema
from ...runtime import ops
from ..ir.cfg import CFG, CFGNode, YieldStep
from ..ir.dataflow import nontrivial_sccs, reachable
from ..protocol import resolve_expression
from .base import AutomatonIR, LintPass, PassContext, PassResult
from .registry import register_pass

__all__ = ["SingleWriter", "WriteOnce"]

_WRITE_OPS = (ops.Write, ops.CompareAndSwap)


def _own_index_aliases(cfg: CFG) -> set[str]:
    """Local names bound to ``<anything>.pid.index`` in the automaton —
    the conventional ``me = ctx.pid.index``."""
    aliases: set[str] = set()
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        if not isinstance(stmt, ast.Assign):
            continue
        if not _is_pid_index(stmt.value):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _is_pid_index(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "index"
        and isinstance(expr.value, ast.Attribute)
        and expr.value.attr == "pid"
    )


def _is_own_indexed(
    operand: ast.expr,
    aliases: set[str],
    namespace: dict[str, Any],
) -> bool:
    """Does the register operand's first *dynamic* component interpolate
    the process's own index?  Leading pieces that resolve to constant
    strings (the family prefix, e.g. ``f"{PREFIX}{me}"``) are skipped —
    they are part of the register text, not the index."""
    if not isinstance(operand, ast.JoinedStr):
        return False
    for piece in operand.values:
        if isinstance(piece, ast.Constant):
            continue
        if isinstance(piece, ast.FormattedValue):
            value = piece.value
            if isinstance(
                resolve_expression(value, namespace), str
            ):
                continue  # statically-resolved prefix piece
            if isinstance(value, ast.Name) and value.id in aliases:
                return True
            return _is_pid_index(value)
    return False


def _family_writes(
    ir: AutomatonIR, families: tuple[str, ...]
) -> list[tuple[CFGNode, YieldStep, str]]:
    """(node, yield, matched family) for every statically-resolved
    write into one of ``families``."""
    matches = []
    for node in ir.cfg.stmt_nodes():
        for y in node.yields:
            if y.is_from or y.op not in _WRITE_OPS:
                continue
            if y.register is None:
                continue
            text = y.register.text
            for family in families:
                if text.startswith(family) or (
                    not y.register.exact and family.startswith(text)
                ):
                    matches.append((node, y, family))
                    break
    return matches


@register_pass
class SingleWriter(LintPass):
    pass_id = "SingleWriter"
    title = "declared single-writer families are written own-index only"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            families = unit.schema.registers.single_writer
            if not families:
                continue
            writes = _family_writes(ir, families)
            if not writes:
                continue
            aliases = _own_index_aliases(ir.cfg)
            namespace = dict(vars(unit.module)) if unit.module else {}
            for node, y, family in writes:
                if y.operand is not None and _is_own_indexed(
                    y.operand, aliases, namespace
                ):
                    continue
                shown = y.register.text if y.register else "?"
                result.findings.append(
                    self.finding(
                        file=unit.file,
                        line=y.line,
                        kind=ir.kind,
                        message=(
                            f"{ir.name}: write to {shown!r} in "
                            f"single-writer family {family!r} does not "
                            "interpolate the process's own index "
                            "(`ctx.pid.index`); another process's "
                            "register could be overwritten"
                        ),
                    )
                )
        return result


@register_pass
class WriteOnce(LintPass):
    pass_id = "WriteOnce"
    title = "declared write-once registers are written at most once"

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            families = unit.schema.registers.write_once
            if not families:
                continue
            writes = _family_writes(ir, families)
            if not writes:
                continue
            self._check(unit.file, unit.schema, ir, writes, result)
        return result

    def _check(
        self,
        file: str,
        schema: ModuleSchema,
        ir: AutomatonIR,
        writes: list[tuple[CFGNode, YieldStep, str]],
        result: PassResult,
    ) -> None:
        cfg = ir.cfg
        looped = frozenset().union(*nontrivial_sccs(cfg) or [frozenset()])
        for node, y, family in writes:
            if node.index in looped:
                result.findings.append(
                    self.finding(
                        file=file,
                        line=y.line,
                        kind=ir.kind,
                        message=(
                            f"{ir.name}: write to write-once "
                            f"family {family!r} sits in a cycle and "
                            "may execute more than once"
                        ),
                    )
                )
        # Sequential double writes: one write node reaches another
        # write to the same family.
        by_family: dict[str, list[tuple[CFGNode, YieldStep]]] = {}
        for node, y, family in writes:
            by_family.setdefault(family, []).append((node, y))
        for family, group in by_family.items():
            for node, y in group:
                downstream = reachable(cfg, node.succs)
                for other, other_y in group:
                    if other is node:
                        continue
                    if other.index in downstream:
                        result.findings.append(
                            self.finding(
                                file=file,
                                line=other_y.line,
                                kind=ir.kind,
                                message=(
                                    f"{ir.name}: second write to "
                                    f"write-once family {family!r} on "
                                    "the same path (first write at "
                                    f"line {y.line})"
                                ),
                            )
                        )
        return None
