"""Footprint publication and the differential POR soundness audit.

``StaticFootprints`` publishes every automaton's inferred register
footprint as a machine-readable fact (surfaced in ``--format json``),
so downstream tooling — and the audit below — can consume it without
re-deriving it.

``FootprintAudit`` is the reason the IR exists: the sleep-set
partial-order reduction in :mod:`repro.checker` prunes interleavings
by *trusting* :func:`repro.checker.independence.op_footprint` to name
every register a step can touch.  If that declaration under-reports —
an op reads or writes something its footprint omits — the explorer
will wrongly commute steps and can certify a buggy algorithm correct.
The audit differentially checks the declaration against real traced
runs (:mod:`repro.lint.battery`), in two directions:

1. **Shadow replay** (checks ``op_footprint``): re-execute every
   trace through a shadow register file applying *only* the declared
   write effects and predicting results from *only* the declared read
   sets.  Any divergence between a predicted and a recorded result
   means an op's behavior exceeds its footprint — a POR soundness bug,
   reported as an error finding.
2. **Coverage** (checks the static inference): for every automaton
   whose static footprint is *closed*, each dynamic access in the
   trace must be covered by the static sets.  The mandated first-step
   input write of a C-process (``inp/<i>``, written by the executor,
   not the automaton body) is exempt.  Open footprints (dynamic
   register names, ``yield from`` delegation) skip coverage rather
   than guess.
"""

from __future__ import annotations

from typing import Any

from ...checker import independence
from ...core.system import input_register
from ...runtime import ops
from .base import LintPass, ModuleUnit, PassContext, PassResult
from .registry import register_pass

__all__ = ["StaticFootprints", "FootprintAudit"]

STATIC_FOOTPRINTS_FACT = "repro.lint.static-footprints"


@register_pass
class StaticFootprints(LintPass):
    pass_id = "StaticFootprints"
    title = "publish inferred per-automaton register footprints"
    produces_fact_ids = (STATIC_FOOTPRINTS_FACT,)

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        result.facts[STATIC_FOOTPRINTS_FACT] = {
            f"{unit.name}.{ir.name}": ir.footprint.as_fact()
            for unit, ir in ctx.automata()
        }
        return result


@register_pass
class FootprintAudit(LintPass):
    pass_id = "FootprintAudit"
    title = "op-log footprints match the declarations POR trusts"
    evidence_required = ("ast", "battery")

    def run(self, ctx: PassContext) -> PassResult:
        result = PassResult()
        units = {unit.name: unit for unit in ctx.units}
        for run in ctx.battery or ():
            self._audit_run(run, units, result)
        return result

    def _audit_run(
        self,
        run: Any,
        units: dict[str, ModuleUnit],
        result: PassResult,
    ) -> None:
        trace = run.result.trace
        if trace is None:
            return
        file = f"<battery:{run.label}>"
        shadow: dict[str, Any] = {}
        seen_pids: set[str] = set()
        for event in trace.events:
            op = event.op
            pid = event.pid
            first = pid.name not in seen_pids
            seen_pids.add(pid.name)
            mandated = (
                first
                and pid.is_computation
                and isinstance(op, ops.Write)
                and op.register == input_register(pid.index)
            )
            self._shadow_step(file, event, shadow, result)
            if not mandated:
                self._coverage_step(file, event, run, units, result)
        return None

    # -- direction 1: shadow replay against op_footprint ---------------

    def _shadow_step(
        self,
        file: str,
        event: Any,
        shadow: dict[str, Any],
        result: PassResult,
    ) -> None:
        op = event.op
        # Late-bound so tests can seed a lying declaration and watch
        # the audit catch it.
        prints = independence.op_footprint(op)
        if prints is None:
            # Universal steps (QueryFD, Decide) are dependent on
            # everything; POR never commutes them, so there is nothing
            # to audit.  Anything else with a None footprint would be
            # merely conservative, and ops.footprint has no such case.
            return
        reads, read_prefixes, writes = prints
        mismatch: str | None = None
        if isinstance(op, ops.Write):
            if op.register not in writes:
                mismatch = (
                    f"Write({op.register!r}) footprint omits its "
                    f"target register (declares writes={writes!r})"
                )
            else:
                shadow[op.register] = op.value
        elif isinstance(op, ops.Read):
            if op.register not in reads:
                mismatch = (
                    f"Read({op.register!r}) footprint omits its "
                    f"source register (declares reads={reads!r})"
                )
            elif event.result != shadow.get(op.register):
                mismatch = (
                    f"Read({op.register!r}) returned "
                    f"{event.result!r} but the footprint-declared "
                    f"effects predict {shadow.get(op.register)!r}"
                )
        elif isinstance(op, ops.Snapshot):
            if op.prefix not in read_prefixes:
                mismatch = (
                    f"Snapshot({op.prefix!r}) footprint omits its "
                    "prefix (declares read_prefixes="
                    f"{read_prefixes!r})"
                )
            else:
                expected = {
                    name: value
                    for name, value in shadow.items()
                    if name.startswith(op.prefix)
                }
                if dict(event.result) != expected:
                    mismatch = (
                        f"Snapshot({op.prefix!r}) returned "
                        f"{event.result!r} but the footprint-declared "
                        f"effects predict {expected!r}"
                    )
        elif isinstance(op, ops.CompareAndSwap):
            held = shadow.get(op.register)
            if op.register not in reads or op.register not in writes:
                mismatch = (
                    f"CompareAndSwap({op.register!r}) footprint must "
                    "declare the register both read and written "
                    f"(declares reads={reads!r}, writes={writes!r})"
                )
            elif event.result != held:
                mismatch = (
                    f"CompareAndSwap({op.register!r}) returned "
                    f"{event.result!r} but the footprint-declared "
                    f"effects predict {held!r}"
                )
            elif held == op.expected:
                shadow[op.register] = op.new
        if mismatch is not None:
            result.findings.append(
                self.finding(
                    file=file,
                    line=event.time,
                    kind=event.pid.kind.value,
                    message=(
                        f"POR soundness: t={event.time} "
                        f"{event.pid.name}: {mismatch}; the "
                        "independence relation would commute steps "
                        "it must not"
                    ),
                )
            )
        return None

    # -- direction 2: dynamic coverage of closed static footprints -----

    def _coverage_step(
        self,
        file: str,
        event: Any,
        run: Any,
        units: dict[str, ModuleUnit],
        result: PassResult,
    ) -> None:
        located = run.automaton_of.get(event.pid.name)
        if located is None:
            return  # null automaton or out-of-scope pid
        module_name, automaton = located
        unit = units.get(module_name)
        automata = unit.automata if unit is not None else []
        ir = next((ir for ir in automata if ir.name == automaton), None)
        if ir is None:
            result.findings.append(
                self.finding(
                    file=file,
                    line=event.time,
                    kind=event.pid.kind.value,
                    message=(
                        f"battery maps {event.pid.name} to unknown "
                        f"automaton {module_name}.{automaton}"
                    ),
                )
            )
            return
        footprint = ir.footprint
        if not footprint.closed:
            return
        op = event.op
        uncovered: str | None = None
        if isinstance(op, ops.Write):
            if not footprint.covers_write(op.register):
                uncovered = f"writes {op.register!r}"
        elif isinstance(op, ops.Read):
            if not footprint.covers_read(op.register):
                uncovered = f"reads {op.register!r}"
        elif isinstance(op, ops.Snapshot):
            if not footprint.covers_snapshot(op.prefix):
                uncovered = f"snapshots {op.prefix!r}"
        elif isinstance(op, ops.CompareAndSwap):
            if not (
                footprint.covers_read(op.register)
                and footprint.covers_write(op.register)
            ):
                uncovered = f"compare-and-swaps {op.register!r}"
        elif isinstance(op, ops.QueryFD):
            if not footprint.queries:
                uncovered = "queries the failure detector"
        elif isinstance(op, ops.Decide):
            if not footprint.decides:
                uncovered = "decides"
        if uncovered is not None:
            result.findings.append(
                self.finding(
                    file=file,
                    line=event.time,
                    kind=event.pid.kind.value,
                    message=(
                        f"t={event.time} {event.pid.name} "
                        f"({module_name}.{automaton}) {uncovered}, "
                        "which its closed static footprint does not "
                        "cover — static inference or the automaton "
                        "declaration is wrong"
                    ),
                )
            )
        return None
