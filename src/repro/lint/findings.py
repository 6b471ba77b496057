"""Structured lint findings.

Every lint layer — the step-model rules and semantic passes over the
CFG, and the dynamic battery passes — reports :class:`Finding` records: one
rule violation (or hazard) each, carrying enough location information
to act on.  Static passes fill ``file``/``line`` with source
coordinates; dynamic passes report the analyzed trace or battery run
as the "file" and the trace time of the offending event as the
"line".

Findings carry a *stable content-hashed id* (:attr:`Finding.id`):
the hash covers the rule, the file's basename, the process kind, and
the message — deliberately **not** the line number, so reformatting a
module does not churn ids.  Baseline suppression
(:mod:`repro.lint.baseline`) and SARIF output key on these ids.
Report ordering is deterministic: findings sort by
``(file, line, rule, message)`` regardless of pass execution order.
"""

from __future__ import annotations

import hashlib
import posixpath
from dataclasses import dataclass, field
from typing import Any

#: Finding severities, in increasing order of concern.  Only
#: ``"error"`` findings fail the build; ``"warning"`` findings are
#: advisory (shown, counted, but exit 0).
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    Attributes:
        rule: rule identifier (``CNoQuery``, ``ReachDecide``,
            ``FootprintAudit``, ``LostUpdate`` …).
        file: source file of the offending code, or a pseudo-file such
            as ``"<trace:label>"`` / ``"<battery:label>"`` for dynamic
            findings.
        line: 1-based source line, or the trace time of the hazardous
            step for dynamic findings.
        process_kind: ``"C"``, ``"S"``, or ``"-"`` when the kind is not
            attributable (e.g. a kind-neutral subroutine).
        message: human-readable description of the violation.
        severity: ``"error"`` (default) or ``"warning"``.
    """

    rule: str
    file: str
    line: int
    process_kind: str
    message: str
    severity: str = "error"

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"

    @property
    def id(self) -> str:
        """Stable content hash (line-independent, path-independent)."""
        payload = "|".join(
            (
                self.rule,
                posixpath.basename(self.file.replace("\\", "/")),
                self.process_kind,
                self.message,
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def sort_key(self) -> tuple[str, int, str, str]:
        return (self.file, self.line, self.rule, self.message)

    def render(self) -> str:
        return (
            f"{self.location}: {self.severity} [{self.rule}] "
            f"({self.process_kind}) {self.message}  "
            f"(id {self.id})"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "process_kind": self.process_kind,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Outcome of one lint invocation."""

    findings: list[Finding] = field(default_factory=list)
    modules_checked: tuple[str, ...] = ()
    rules_run: tuple[str, ...] = ()
    passes_run: tuple[str, ...] = ()
    #: findings suppressed by the baseline, kept for inspection
    suppressed: list[Finding] = field(default_factory=list)
    #: facts published by fact-producing passes, keyed by fact id
    facts: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def has_errors(self) -> bool:
        return any(f.severity == "error" for f in self.findings)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    def finalize(self) -> "LintReport":
        """Impose the deterministic finding order (idempotent)."""
        self.findings.sort(key=Finding.sort_key)
        self.suppressed.sort(key=Finding.sort_key)
        return self

    def render(self) -> str:
        self.finalize()
        lines = [
            f"checked {len(self.modules_checked)} module(s), "
            f"rules: {', '.join(self.rules_run)}"
        ]
        if self.suppressed:
            lines.append(
                f"{len(self.suppressed)} finding(s) suppressed by "
                "baseline"
            )
        if self.ok:
            lines.append("no violations")
        else:
            lines.extend(f.render() for f in self.findings)
            lines.append(f"{len(self.findings)} violation(s)")
        return "\n".join(lines)
