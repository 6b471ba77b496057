"""Lint orchestration: compile IR, resolve passes, run them in order.

The runner walks :data:`repro.algorithms.__all__`, pairs each module
with its declared :class:`~repro.algorithms._schema.ModuleSchema` from
:data:`repro.algorithms.LINT_SCHEMAS`, compiles every declared
automaton into CFG IR with a static register footprint
(:mod:`repro.lint.ir`), and hands the resulting
:class:`~repro.lint.passes.PassContext` to the registered passes in
order.  A module without a schema (or a schema without a module) is
itself a finding — the registry must stay complete for the lint gate
to mean anything.

Evidence gating: passes declaring ``"battery"`` evidence only run
under ``--strict``; the traced battery
(:func:`repro.lint.battery.battery_runs`) is executed once, lazily,
the first time a pass needs it.  Passes requiring unavailable
evidence are *skipped*, not failed, and do not appear in
``rules_run``/``passes_run``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

from ..algorithms._schema import ModuleSchema
from .findings import Finding, LintReport
from .ir import build_cfg, infer_footprint
from .passes import (
    AutomatonIR,
    ModuleUnit,
    PassContext,
    resolve_passes,
)
from .protocol import extract_automata
from .static_rules import ALL_RULES

#: Rule ids of the original five AST protocol rules, in order.
STATIC_RULE_IDS = tuple(rule.rule_id for rule in ALL_RULES)
#: Rule ids of the semantic CFG passes (always-on, AST evidence).
SEMANTIC_RULE_IDS = (
    "ReachDecide",
    "SingleWriter",
    "WriteOnce",
    "QueryBeforeUse",
    "StaleAdvice",
    "StaticFootprints",
)
#: Rule ids that require the strict battery.
DYNAMIC_RULE_IDS = ("FootprintAudit", "LostUpdate", "SnapshotRace")


def lint_module(module: ModuleType, schema: ModuleSchema) -> list[Finding]:
    """Apply the five legacy AST rules to one imported algorithm module.

    Kept as the lightweight single-module entry point; the full pass
    pipeline (IR, semantic passes, battery) runs via
    :func:`lint_algorithms`.
    """
    unit = _build_unit(module.__name__.rsplit(".", 1)[-1], module, schema)
    findings: list[Finding] = []
    for rule_class in ALL_RULES:
        rule = rule_class()
        for view in unit.views:
            findings.extend(rule.check(view, schema))
    return findings


def _build_unit(
    name: str, module: ModuleType, schema: ModuleSchema
) -> ModuleUnit:
    file = getattr(module, "__file__", None) or "<module>"
    source = Path(file).read_text()
    tree = ast.parse(source)
    namespace = dict(vars(module))
    views = extract_automata(
        tree,
        schema,
        namespace=namespace,
        file=file,
        module_name=module.__name__,
    )
    irs = {
        view.name: AutomatonIR(
            view=view,
            cfg=build_cfg(view.node, namespace, name=view.name),
            footprint=infer_footprint(view),
        )
        for view in views
    }
    return ModuleUnit(
        name=name,
        module=module,
        schema=schema,
        file=file,
        tree=tree,
        views=views,
        irs=irs,
    )


def build_units() -> tuple[list[ModuleUnit], list[Finding]]:
    """Compile every algorithm module; schema drift becomes findings."""
    from .. import algorithms

    schemas = dict(algorithms.LINT_SCHEMAS)
    units: list[ModuleUnit] = []
    findings: list[Finding] = []
    for name in algorithms.__all__:
        schema = schemas.pop(name, None)
        module = importlib.import_module(f"repro.algorithms.{name}")
        if schema is None:
            findings.append(
                Finding(
                    rule="Schema",
                    file=getattr(module, "__file__", "<module>"),
                    line=1,
                    process_kind="-",
                    message=f"module {name!r} has no entry in "
                    "repro.algorithms.LINT_SCHEMAS",
                )
            )
            continue
        units.append(_build_unit(name, module, schema))
    for name in schemas:
        findings.append(
            Finding(
                rule="Schema",
                file="<registry>",
                line=1,
                process_kind="-",
                message=f"LINT_SCHEMAS names unknown module {name!r}",
            )
        )
    return units, findings


def lint_algorithms(
    *,
    strict: bool = False,
    enable: tuple[str, ...] | None = None,
    disable: tuple[str, ...] | None = None,
    baseline: frozenset[str] | None = None,
) -> LintReport:
    """Lint every module of :mod:`repro.algorithms`.

    Args:
        strict: also execute the traced battery, unlocking the
            battery-evidence passes (footprint audit, trace races).
        enable: restrict the run to exactly these pass ids.
        disable: drop these pass ids from the (restricted) set.
        baseline: finding ids to suppress
            (:func:`repro.lint.baseline.load_baseline`).
    """
    from .. import algorithms

    units, schema_findings = build_units()
    passes = resolve_passes(enable=enable, disable=disable)
    ctx = PassContext(units=units, strict=strict)
    report = LintReport(
        modules_checked=tuple(algorithms.__all__),
        findings=schema_findings,
    )
    rules_run: list[str] = []
    passes_run: list[str] = []
    for lint_pass in passes:
        if "battery" in lint_pass.evidence_required:
            if not strict:
                continue  # skipped: evidence unavailable
            if ctx.battery is None:
                from .battery import battery_runs

                ctx.battery = battery_runs()
        result = lint_pass.run(ctx)
        passes_run.append(lint_pass.pass_id)
        rules_run.extend(lint_pass.reported_rules())
        report.findings.extend(result.findings)
        ctx.facts.update(result.facts)
        report.facts.update(result.facts)
    report.rules_run = tuple(rules_run)
    report.passes_run = tuple(passes_run)
    if baseline:
        from .baseline import apply_baseline

        apply_baseline(report, baseline)
    return report.finalize()
