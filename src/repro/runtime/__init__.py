"""Execution substrate: operations, schedulers, concurrency gates, executor."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".": ("ops",),
    ".concurrency": (
        "FilteredScheduler",
        "KConcurrencyFilter",
        "PersonifiedFilter",
        "k_concurrent",
        "personified",
    ),
    ".executor": ("Executor", "execute"),
    ".history_trie": ("ExploringExecutor",),
    ".scheduler": (
        "AdversarialScheduler",
        "ExplicitScheduler",
        "PrioritizedScheduler",
        "RecordingScheduler",
        "RoundRobinScheduler",
        "Scheduler",
        "SchedulerView",
        "SeededRandomScheduler",
        "standard_scheduler_suite",
    ),
    ".trace": ("Trace", "TraceEvent"),
}

if TYPE_CHECKING:
    from . import ops
    from .concurrency import (
        FilteredScheduler,
        KConcurrencyFilter,
        PersonifiedFilter,
        k_concurrent,
        personified,
    )
    from .executor import Executor, execute
    from .history_trie import ExploringExecutor
    from .scheduler import (
        AdversarialScheduler,
        ExplicitScheduler,
        PrioritizedScheduler,
        RecordingScheduler,
        RoundRobinScheduler,
        Scheduler,
        SchedulerView,
        SeededRandomScheduler,
        standard_scheduler_suite,
    )
    from .trace import Trace, TraceEvent
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ops",
    "FilteredScheduler",
    "KConcurrencyFilter",
    "PersonifiedFilter",
    "k_concurrent",
    "personified",
    "Executor",
    "execute",
    "ExploringExecutor",
    "AdversarialScheduler",
    "ExplicitScheduler",
    "PrioritizedScheduler",
    "RecordingScheduler",
    "RoundRobinScheduler",
    "Scheduler",
    "SchedulerView",
    "SeededRandomScheduler",
    "standard_scheduler_suite",
    "Trace",
    "TraceEvent",
]
