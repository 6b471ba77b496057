"""The five step-model rules (paper Section 2.1), as passes over the CFG.

Each rule reads the classified yields of every automaton's CFG
(:mod:`repro.lint.ir.cfg`).  The rules are conservative: a yield whose
operation or register operand cannot be resolved statically is never
reported (dynamic dispatch is checked at run time by the executor and
the trace analyzer instead).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...runtime import ops
from .base import AutomatonIR, LintPass, ModuleUnit, PassContext, PassResult
from .registry import register_pass

__all__ = [
    "CNoQuery", "DecideOnce", "NoCASInFaithful", "BoundedLoops", "RegisterNaming"
]

#: Yielded ops that observe shared state or detector advice — the
#: things that can make a spin loop terminate in someone else's steps.
_OBSERVING_OPS = (ops.Read, ops.Snapshot, ops.CompareAndSwap, ops.QueryFD)

#: (line, message) pairs a rule reports for one automaton.
_Hits = Iterator[tuple[int, str]]


class _AutomatonRule(LintPass):
    """Run :meth:`check` over every automaton; each finding's message
    names the automaton."""

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        for unit, ir in ctx.automata():
            for line, message in self.check(unit, ir):
                result.findings.append(
                    self.finding(
                        file=unit.file,
                        line=line,
                        kind=ir.kind,
                        message=f"{ir.name}: {message}",
                    )
                )
        return result

    def check(self, unit: ModuleUnit, ir: AutomatonIR) -> _Hits:
        """(line, message) of every violation in one automaton."""
        raise NotImplementedError  # pragma: no cover - interface


@register_pass
class CNoQuery(_AutomatonRule):
    """C-processes never consult the failure detector (Section 2.1:
    only S-processes carry failure-detector modules).

    Applied to C-automata and to kind-neutral subroutines — a
    subroutine a C-process may ``yield from`` must itself be
    query-free.
    """

    pass_id = "CNoQuery"
    title = "C-processes never consult the failure detector"

    def check(self, unit: ModuleUnit, ir: AutomatonIR) -> _Hits:
        if ir.kind == "S":
            return
        for y in ir.cfg.yields():
            if y.op is ops.QueryFD:
                yield y.line, (
                    "C-process code yields QueryFD; only S-processes may "
                    "consult the detector"
                )


@register_pass
class DecideOnce(_AutomatonRule):
    """Every C-automaton decides exactly once, then yields nothing.

    The paper: a C-process takes a *decide* step once, after which all
    its steps are null.  Statically this means (a) a deciding C-automaton
    has at least one ``Decide`` yield, (b) every ``Decide`` yield sits in
    tail position — each CFG successor of its node is the exit or a
    ``return`` statement, so no step and no loop back edge follows it —
    and (c) S-automata never yield ``Decide`` at all.
    """

    pass_id = "DecideOnce"
    title = "every C-automaton decides exactly once, in tail position"

    def check(self, unit: ModuleUnit, ir: AutomatonIR) -> _Hits:
        cfg = ir.cfg
        decides = [
            (node, y)
            for node in cfg.stmt_nodes()
            for y in node.yields
            if y.op is ops.Decide
        ]
        if ir.kind != "C":
            for _, y in decides:
                yield y.line, (
                    "S-process automaton yields Decide"
                    if ir.kind == "S"
                    else "subroutine yields Decide; deciding is the "
                    "automaton's own final step"
                )
            return
        if not decides and ir.name not in unit.schema.non_deciding:
            yield ir.line, (
                "C-automaton never yields Decide (wait-freedom "
                "requires a decide step; declare it in "
                "`non_deciding` if its decision surfaces elsewhere)"
            )
        for node, y in decides:
            if not all(
                succ == cfg.exit
                or isinstance(cfg.nodes[succ].stmt, ast.Return)
                for succ in node.succs
            ):
                yield y.line, (
                    "Decide is not in tail position; a decided "
                    "C-process takes only null steps"
                )


@register_pass
class NoCASInFaithful(_AutomatonRule):
    """Paper-faithful algorithms never yield ``CompareAndSwap``.

    CAS is not in the paper's step alphabet; it exists only for the
    documented Extended-BG substitution (DESIGN.md).  Any other use is
    silently assuming a primitive stronger than registers — exactly the
    mistake Lemma 11-style impossibility arguments exclude.
    """

    pass_id = "NoCASInFaithful"
    title = "paper-faithful modules never yield CompareAndSwap"

    def check(self, unit: ModuleUnit, ir: AutomatonIR) -> _Hits:
        if not unit.schema.faithful or ir.name in unit.schema.cas_allowlist:
            return
        for y in ir.cfg.yields():
            if y.op is ops.CompareAndSwap:
                yield y.line, (
                    "yields CompareAndSwap in a paper-faithful module; "
                    "allowlist it in the module's lint schema if the "
                    "deviation is deliberate and documented"
                )


@register_pass
class BoundedLoops(_AutomatonRule):
    """C-process ``while`` loops must observe shared state or advice.

    A loop whose test, body and ``else`` only yield
    ``Nop``/``Write``/``Decide`` can never terminate based on another
    process's progress — in C-process code that is a wait-freedom smell
    (the loop either runs forever or was never a loop).  Loops
    containing a ``yield from`` (a subroutine that may observe) or a
    dynamic yield are given the benefit of the doubt, as are pure
    local-computation loops with no yields at all.
    """

    pass_id = "BoundedLoops"
    title = "C-process spin loops observe shared state"

    def check(self, unit: ModuleUnit, ir: AutomatonIR) -> _Hits:
        if ir.kind == "S":
            return
        for header in ir.cfg.stmt_nodes():
            if header.loop_kind != "while" or header.stmt is None:
                continue
            inside = {id(stmt) for stmt in ast.walk(header.stmt)}
            steps = [
                y
                for node in ir.cfg.stmt_nodes()
                if id(node.stmt) in inside
                for y in node.yields
            ]
            if not steps:
                continue  # local computation, not a scheduling loop
            if any(
                y.is_from or y.op is None or y.op in _OBSERVING_OPS
                for y in steps
            ):
                continue
            yield header.line, (
                "while-loop body never reads shared memory or "
                "advice; it cannot terminate in response to helper "
                "progress (wait-freedom smell)"
            )


@register_pass
class RegisterNaming(_AutomatonRule):
    """Every statically-resolvable register name must be declared.

    The module's :class:`~repro.algorithms._schema.RegisterSchema` is the
    register namespace contract; yielding a name outside it means either
    the schema is stale or the algorithm is scribbling on another
    module's register family.
    """

    pass_id = "RegisterNaming"
    title = "register names stay inside the declared families"

    def check(self, unit: ModuleUnit, ir: AutomatonIR) -> _Hits:
        for y in ir.cfg.yields():
            if y.register is None:
                continue
            is_prefix = y.op is ops.Snapshot
            if unit.schema.registers.allows(
                y.register.text, is_prefix=is_prefix
            ):
                continue
            what = "prefix" if is_prefix else "register"
            shown = y.register.text if y.register.exact else (
                f"{y.register.text}…"
            )
            yield y.line, (
                f"{what} {shown!r} is not declared by the module's "
                "register schema"
            )
