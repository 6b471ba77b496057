"""Run verification and experiment reporting."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".reporting": ("ExperimentRecord", "format_report"),
    ".traceview": ("format_ledger", "format_lanes", "register_traffic", "summarize"),
    ".verify": (
        "distinct_decisions",
        "max_concurrent_undecided",
        "renaming_summary",
        "require_agreement",
        "verify_run",
    ),
}

if TYPE_CHECKING:
    from .reporting import ExperimentRecord, format_report
    from .traceview import (
        format_ledger,
        format_lanes,
        register_traffic,
        summarize,
    )
    from .verify import (
        distinct_decisions,
        max_concurrent_undecided,
        renaming_summary,
        require_agreement,
        verify_run,
    )
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ExperimentRecord",
    "format_report",
    "format_ledger",
    "format_lanes",
    "register_traffic",
    "summarize",
    "distinct_decisions",
    "max_concurrent_undecided",
    "renaming_summary",
    "require_agreement",
    "verify_run",
]
