"""Declarative lint passes: the analysis units they see and the
contract they implement.

A pass is a small class in the style of a fact-oracle detector: it
declares an id, the evidence kinds it needs, and the fact ids it
produces, then implements ``run(context) -> PassResult``.  The runner
builds one :class:`PassContext` (parsed modules, per-automaton IR, and
— under ``--strict`` — the traced battery runs), resolves the enabled
passes from the registry, and executes them in order.  Passes never
import each other; anything one pass wants to hand to another travels
as a *fact* keyed by a declared fact id.

Evidence kinds:

``"ast"``
    The algorithm modules with every declared automaton's IR.  Always
    available.
``"battery"``
    Traced reference runs of the bundled algorithms inside their
    declared concurrency envelopes (:mod:`repro.lint.battery`).  Only
    available under ``--strict`` — passes requiring it are skipped (not
    failed) otherwise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from types import ModuleType
from typing import TYPE_CHECKING, Any, ClassVar

from ...algorithms._schema import ModuleSchema
from ..findings import Finding
from ..ir.cfg import CFG
from ..ir.footprint import StaticFootprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..battery import BatteryRun

__all__ = [
    "AutomatonIR",
    "ModuleUnit",
    "PassContext",
    "PassResult",
    "LintPass",
]


@dataclass
class AutomatonIR:
    """IR bundle for one declared automaton."""

    name: str  #: schema name (possibly dotted)
    kind: str  #: "C", "S", or "-" (kind-neutral subroutine)
    node: ast.FunctionDef  #: the generator's def
    cfg: CFG
    footprint: StaticFootprint

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ModuleUnit:
    """One algorithm module with everything the passes inspect."""

    name: str
    module: ModuleType
    schema: ModuleSchema
    file: str
    automata: list[AutomatonIR]


@dataclass
class PassContext:
    """Evidence shared by every pass in one lint invocation."""

    units: list[ModuleUnit]
    strict: bool = False
    battery: tuple["BatteryRun", ...] | None = None
    #: facts produced by earlier passes, keyed by declared fact id
    facts: dict[str, Any] = field(default_factory=dict)

    def automata(self) -> list[tuple[ModuleUnit, AutomatonIR]]:
        return [(unit, ir) for unit in self.units for ir in unit.automata]


@dataclass
class PassResult:
    """Findings and facts one pass produced."""

    findings: list[Finding] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)


class LintPass:
    """Base class for declarative lint passes.

    Subclasses set the class attributes and implement :meth:`run`.
    ``pass_id`` doubles as the rule id of the findings the pass emits,
    unless the pass reports under several rule ids — then it lists them
    in ``rule_ids`` (used for reporting and SARIF rule metadata).
    """

    pass_id: ClassVar[str] = ""
    title: ClassVar[str] = ""
    evidence_required: ClassVar[tuple[str, ...]] = ("ast",)
    produces_fact_ids: ClassVar[tuple[str, ...]] = ()
    default_severity: ClassVar[str] = "error"

    #: rule ids this pass may emit findings under (defaults to pass_id)
    rule_ids: ClassVar[tuple[str, ...]] = ()

    @classmethod
    def reported_rules(cls) -> tuple[str, ...]:
        return cls.rule_ids or (cls.pass_id,)

    def run(
        self, ctx: PassContext
    ) -> PassResult:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(
        self,
        *,
        file: str,
        line: int,
        kind: str,
        message: str,
        rule: str | None = None,
        severity: str | None = None,
    ) -> Finding:
        return Finding(
            rule=rule or self.pass_id,
            file=file,
            line=line,
            process_kind=kind,
            message=message,
            severity=severity or self.default_severity,
        )
