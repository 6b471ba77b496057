"""The five static protocol rules (paper Section 2.1).

Each rule is a class with a ``rule_id`` and a
``check(view, schema) -> list[Finding]`` method over one
:class:`~repro.lint.protocol.AutomatonView`.  The rules are
conservative: a yield whose operation or register operand cannot be
resolved statically is never reported (dynamic dispatch is checked at
run time by the executor and the trace analyzer instead).
"""

from __future__ import annotations

import ast

from ..algorithms._schema import ModuleSchema
from ..runtime import ops
from .findings import Finding
from .protocol import AutomatonView, YieldView

#: Yielded ops that observe shared state or detector advice — the
#: things that can make a spin loop terminate in someone else's steps.
_OBSERVING_OPS = (ops.Read, ops.Snapshot, ops.CompareAndSwap, ops.QueryFD)


class Rule:
    """Base class: common finding construction."""

    rule_id: str = ""

    def check(
        self, view: AutomatonView, schema: ModuleSchema
    ) -> list[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(
        self, view: AutomatonView, line: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            file=view.file,
            line=line,
            process_kind=view.kind,
            message=f"{view.name}: {message}",
        )


class CNoQuery(Rule):
    """C-processes never consult the failure detector (Section 2.1:
    only S-processes carry failure-detector modules).

    Applied to C-automata and to kind-neutral subroutines — a
    subroutine a C-process may ``yield from`` must itself be
    query-free.
    """

    rule_id = "CNoQuery"

    def check(
        self, view: AutomatonView, schema: ModuleSchema
    ) -> list[Finding]:
        if view.kind == "S":
            return []
        return [
            self.finding(
                view,
                y.line,
                "C-process code yields QueryFD; only S-processes may "
                "consult the detector",
            )
            for y in view.yields
            if y.op is ops.QueryFD
        ]


class DecideOnce(Rule):
    """Every C-automaton decides exactly once, then yields nothing.

    The paper: a C-process takes a *decide* step once, after which all
    its steps are null.  Statically this means (a) a deciding C-automaton
    has at least one ``Decide`` yield, (b) every ``Decide`` yield sits in
    tail position — followed by at most a ``return``, with no enclosing
    loop that could re-enter it from behind — and (c) S-automata never
    yield ``Decide`` at all.
    """

    rule_id = "DecideOnce"

    def check(
        self, view: AutomatonView, schema: ModuleSchema
    ) -> list[Finding]:
        decide_yields = [y for y in view.yields if y.op is ops.Decide]
        if view.kind == "S":
            return [
                self.finding(
                    view, y.line, "S-process automaton yields Decide"
                )
                for y in decide_yields
            ]
        if view.kind != "C":
            return [
                self.finding(
                    view,
                    y.line,
                    "subroutine yields Decide; deciding is the "
                    "automaton's own final step",
                )
                for y in decide_yields
            ]
        findings = []
        if not decide_yields and view.name not in schema.non_deciding:
            findings.append(
                self.finding(
                    view,
                    view.line,
                    "C-automaton never yields Decide (wait-freedom "
                    "requires a decide step; declare it in "
                    "`non_deciding` if its decision surfaces elsewhere)",
                )
            )
        for y in decide_yields:
            if not self._terminal(y):
                findings.append(
                    self.finding(
                        view,
                        y.line,
                        "Decide is not in tail position; a decided "
                        "C-process takes only null steps",
                    )
                )
        return findings

    @staticmethod
    def _terminal(y: YieldView) -> bool:
        """Is this Decide yield the automaton's last action on every
        path through it?"""
        path = y.statement_path
        if not path:
            return False
        # Innermost block first: statements after the decide must be at
        # most a single `return`.
        _, block, index = path[-1]
        rest = block[index + 1 :]
        if len(rest) == 1 and isinstance(rest[0], ast.Return):
            return True
        if rest:
            return False
        # Falls off the end of its block: every enclosing level must
        # also be in tail position, and none may be a loop (a loop would
        # run the decide again or yield after it).
        for parent, block, index in reversed(path[:-1]):
            if isinstance(parent, (ast.While, ast.For)):
                return False
            rest = block[index + 1 :]
            if len(rest) == 1 and isinstance(rest[0], ast.Return):
                return True
            if rest:
                return False
        # Reached the generator body's end.
        return True


class NoCASInFaithful(Rule):
    """Paper-faithful algorithms never yield ``CompareAndSwap``.

    CAS is not in the paper's step alphabet; it exists only for the
    documented Extended-BG substitution (DESIGN.md).  Any other use is
    silently assuming a primitive stronger than registers — exactly the
    mistake Lemma 11-style impossibility arguments exclude.
    """

    rule_id = "NoCASInFaithful"

    def check(
        self, view: AutomatonView, schema: ModuleSchema
    ) -> list[Finding]:
        if not schema.faithful or view.name in schema.cas_allowlist:
            return []
        return [
            self.finding(
                view,
                y.line,
                "yields CompareAndSwap in a paper-faithful module; "
                "allowlist it in the module's lint schema if the "
                "deviation is deliberate and documented",
            )
            for y in view.yields
            if y.op is ops.CompareAndSwap
        ]


class BoundedLoops(Rule):
    """C-process ``while`` loops must observe shared state or advice.

    A loop whose body only yields ``Nop``/``Write``/``Decide`` can never
    terminate based on another process's progress — in C-process code
    that is a wait-freedom smell (the loop either runs forever or was
    never a loop).  Loops containing a ``yield from`` (a subroutine that
    may observe) or a dynamic yield are given the benefit of the doubt,
    as are pure local-computation loops with no yields at all.
    """

    rule_id = "BoundedLoops"

    def check(
        self, view: AutomatonView, schema: ModuleSchema
    ) -> list[Finding]:
        if view.kind == "S":
            return []
        findings = []
        for loop in view.while_loops:
            loop_yields = [
                y
                for y in view.yields
                if self._within(loop, y.node)
            ]
            if not loop_yields:
                continue  # local computation, not a scheduling loop
            if any(
                y.is_from or y.op is None or y.op in _OBSERVING_OPS
                for y in loop_yields
            ):
                continue
            findings.append(
                self.finding(
                    view,
                    loop.lineno,
                    "while-loop body never reads shared memory or "
                    "advice; it cannot terminate in response to helper "
                    "progress (wait-freedom smell)",
                )
            )
        return findings

    @staticmethod
    def _within(loop: ast.While, node: ast.expr) -> bool:
        return any(node is candidate for candidate in ast.walk(loop))


class RegisterNaming(Rule):
    """Every statically-resolvable register name must be declared.

    The module's :class:`~repro.algorithms._schema.RegisterSchema` is the
    register namespace contract; yielding a name outside it means either
    the schema is stale or the algorithm is scribbling on another
    module's register family.
    """

    rule_id = "RegisterNaming"

    def check(
        self, view: AutomatonView, schema: ModuleSchema
    ) -> list[Finding]:
        findings = []
        for y in view.yields:
            if y.register is None:
                continue
            is_prefix = y.op is ops.Snapshot
            if schema.registers.allows(
                y.register.text, is_prefix=is_prefix
            ):
                continue
            what = "prefix" if is_prefix else "register"
            shown = y.register.text if y.register.exact else (
                f"{y.register.text}…"
            )
            findings.append(
                self.finding(
                    view,
                    y.line,
                    f"{what} {shown!r} is not declared by the module's "
                    "register schema",
                )
            )
        return findings


#: The five rule classes, in reporting order.
ALL_RULES = (
    CNoQuery,
    DecideOnce,
    NoCASInFaithful,
    BoundedLoops,
    RegisterNaming,
)
