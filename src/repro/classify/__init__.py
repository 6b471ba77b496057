"""Task classification: concurrency levels and the Theorem 10 hierarchy."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".concurrency_level": (
        "Evidence",
        "TaskClassification",
        "explore_k_concurrent",
        "classify_task",
        "validate_k_concurrent",
    ),
    ".hierarchy": (
        "build_hierarchy",
        "classify_consensus",
        "classify_identity",
        "classify_loose_renaming",
        "classify_set_agreement",
        "classify_strong_renaming",
        "classify_wsb",
        "format_hierarchy",
    ),
    ".reductions": ("consensus_from_strong_2_renaming",),
}

if TYPE_CHECKING:
    from .concurrency_level import (
        Evidence,
        TaskClassification,
        explore_k_concurrent,
        classify_task,
        validate_k_concurrent,
    )
    from .hierarchy import (
        build_hierarchy,
        classify_consensus,
        classify_identity,
        classify_loose_renaming,
        classify_set_agreement,
        classify_strong_renaming,
        classify_wsb,
        format_hierarchy,
    )
    from .reductions import consensus_from_strong_2_renaming
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Evidence",
    "TaskClassification",
    "explore_k_concurrent",
    "classify_task",
    "validate_k_concurrent",
    "build_hierarchy",
    "classify_consensus",
    "classify_identity",
    "classify_loose_renaming",
    "classify_set_agreement",
    "classify_strong_renaming",
    "classify_wsb",
    "format_hierarchy",
    "consensus_from_strong_2_renaming",
]
