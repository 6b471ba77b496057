"""Semantic protocol analyzer + dynamic trace race detector.

The EFD model's well-formedness rules (paper Section 2.1) — C-processes
never query the detector, every C-process decides exactly once and then
takes only null steps, paper-faithful algorithms never use
compare-and-swap — are *preconditions* for every theorem this package
reproduces.  This subpackage enforces them mechanically:

* the **IR layer** (:mod:`.ir`) compiles each schema-declared automaton
  into a statement-level control-flow graph with register def/use facts
  and a static register footprint;
* the **pass layer** (:mod:`.passes`) hosts declarative analyses over
  that IR in a pluggable registry: the five original AST protocol rules,
  semantic obligations (reachability-of-decide, single-writer /
  write-once ownership, query-before-use of detector advice), and —
  under ``--strict`` — the differential footprint audit that checks the
  op-log of real traced runs against the footprint declarations the
  partial-order reduction trusts;
* the **dynamic layer** (:mod:`.trace_rules`) analyzes recorded
  :class:`~repro.runtime.trace.Trace` objects with vector clocks and
  flags lost-update and snapshot-linearizability hazards.

Entry points: ``python -m repro lint [--strict] [--format
text|json|sarif]`` on the command line, :func:`lint_algorithms`
programmatically, and the ``strict=`` flag of
:func:`repro.analysis.verify.verify_run` for per-run checking.  See
``docs/static_analysis.md`` for the architecture, the rule catalogue,
and the third-party pass contract.
"""

from ..algorithms._schema import ModuleSchema, RegisterSchema
from .baseline import apply_baseline, load_baseline, write_baseline
from .findings import Finding, LintReport
from .formats import render_json, render_report, render_sarif
from .ir import CFG, StaticFootprint, build_cfg, infer_footprint
from .passes import (
    AutomatonIR,
    LintPass,
    ModuleUnit,
    PassContext,
    PassResult,
    all_passes,
    pass_by_id,
    register_pass,
    resolve_passes,
)
from .protocol import AutomatonView, extract_automata
from .runner import (
    DYNAMIC_RULE_IDS,
    SEMANTIC_RULE_IDS,
    STATIC_RULE_IDS,
    build_units,
    lint_algorithms,
    lint_module,
)
from .static_rules import (
    ALL_RULES,
    BoundedLoops,
    CNoQuery,
    DecideOnce,
    NoCASInFaithful,
    RegisterNaming,
)
from .trace_rules import TraceAnalyzer, analyze_trace

__all__ = [
    "Finding",
    "LintReport",
    "AutomatonView",
    "extract_automata",
    "lint_algorithms",
    "lint_module",
    "build_units",
    "STATIC_RULE_IDS",
    "SEMANTIC_RULE_IDS",
    "DYNAMIC_RULE_IDS",
    "ModuleSchema",
    "RegisterSchema",
    "ALL_RULES",
    "CNoQuery",
    "DecideOnce",
    "NoCASInFaithful",
    "BoundedLoops",
    "RegisterNaming",
    "TraceAnalyzer",
    "analyze_trace",
    # IR
    "CFG",
    "StaticFootprint",
    "build_cfg",
    "infer_footprint",
    # pass framework
    "AutomatonIR",
    "ModuleUnit",
    "PassContext",
    "PassResult",
    "LintPass",
    "register_pass",
    "all_passes",
    "pass_by_id",
    "resolve_passes",
    # output / baseline
    "render_report",
    "render_json",
    "render_sarif",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
]
