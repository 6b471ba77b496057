"""Operational model checking: exhaustive schedules and valency."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".bivalence": ("ValencyReport", "analyze_valency"),
    ".explorer": (
        "EXPLORER_CHECKPOINT_FORMAT",
        "EXPLORER_CHECKPOINT_VERSION",
        "ExplorationReport",
        "ScheduleExplorer",
        "concurrency_gate",
        "drop_null_s_processes",
        "task_safety_verdict",
    ),
    ".independence": (
        "StepFootprint",
        "commutes",
        "independent",
        "op_footprint",
        "step_footprint",
    ),
    ".symmetry": ("c_orbits", "canonical_fingerprint", "prune_interchangeable"),
}

if TYPE_CHECKING:
    from .bivalence import ValencyReport, analyze_valency
    from .explorer import (
        EXPLORER_CHECKPOINT_FORMAT,
        EXPLORER_CHECKPOINT_VERSION,
        ExplorationReport,
        ScheduleExplorer,
        concurrency_gate,
        drop_null_s_processes,
        task_safety_verdict,
    )
    from .independence import (
        StepFootprint,
        commutes,
        independent,
        op_footprint,
        step_footprint,
    )
    from .symmetry import c_orbits, canonical_fingerprint, prune_interchangeable
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ValencyReport",
    "analyze_valency",
    "EXPLORER_CHECKPOINT_FORMAT",
    "EXPLORER_CHECKPOINT_VERSION",
    "ExplorationReport",
    "ScheduleExplorer",
    "concurrency_gate",
    "drop_null_s_processes",
    "task_safety_verdict",
    "StepFootprint",
    "op_footprint",
    "commutes",
    "independent",
    "step_footprint",
    "c_orbits",
    "canonical_fingerprint",
    "prune_interchangeable",
]
