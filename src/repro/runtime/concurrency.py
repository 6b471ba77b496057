"""Concurrency control over runs: k-concurrency and personified runs.

Section 2.2 of the paper: a run is *k-concurrent* if it is fair and at
every time there are at most ``k`` undecided participating C-processes.
We realize this as a candidate filter wrapped around any scheduler: a
C-process that has not yet taken its first step is admitted only while
fewer than ``k`` admitted C-processes are undecided.

Section 2.3's *personified* runs (C-process ``p_i`` crashes exactly when
its S-counterpart ``q_i`` does) are another candidate filter.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.failures import FailurePattern
from ..core.process import ProcessId, ProcessKind
from ..errors import SchedulingError
from .scheduler import Scheduler, SchedulerView, narrow

CandidateFilter = Callable[[SchedulerView], tuple[ProcessId, ...]]


class FilteredScheduler(Scheduler):
    """Applies candidate filters, then delegates to the inner scheduler."""

    def __init__(self, inner: Scheduler, *filters: CandidateFilter) -> None:
        self._inner = inner
        self._filters = filters

    def next(self, view: SchedulerView) -> ProcessId:
        for f in self._filters:
            view = narrow(view, tuple(f(view)))
        if not view.candidates:
            raise SchedulingError("all candidates filtered out")
        return self._inner.next(view)


class KConcurrencyFilter:
    """Admits new C-processes only while fewer than ``k`` admitted
    C-processes are undecided.

    Args:
        k: the concurrency bound.
        arrival_order: optional explicit order in which fresh C-processes
            may arrive (indices).  Without it any unstarted process may
            arrive when there is room, which together with a random inner
            scheduler explores many k-concurrent arrival patterns.
    """

    def __init__(self, k: int, arrival_order: Sequence[int] | None = None):
        if k < 1:
            raise SchedulingError(f"concurrency level must be >= 1, got {k}")
        self.k = k
        self.arrival_order = list(arrival_order) if arrival_order else None

    def __call__(self, view: SchedulerView) -> tuple[ProcessId, ...]:
        undecided_started = view.started - view.decided
        room = len(undecided_started) < self.k
        next_arrival: int | None = None
        if self.arrival_order is not None:
            remaining = [
                i for i in self.arrival_order if i not in view.started
            ]
            next_arrival = remaining[0] if remaining else None
        kept: list[ProcessId] = []
        for pid in view.candidates:
            if pid.kind is not ProcessKind.COMPUTATION:
                kept.append(pid)
            elif pid.index in view.started:
                kept.append(pid)
            elif room and (next_arrival is None or pid.index == next_arrival):
                kept.append(pid)
        return tuple(kept)


class PersonifiedFilter:
    """Crashes C-process ``p_i`` exactly when S-process ``q_i`` crashes
    (Section 2.3): after ``q_i``'s crash time, ``p_i`` is never scheduled."""

    def __init__(self, pattern: FailurePattern) -> None:
        self.pattern = pattern

    def __call__(self, view: SchedulerView) -> tuple[ProcessId, ...]:
        return tuple(
            pid
            for pid in view.candidates
            if pid.kind is not ProcessKind.COMPUTATION
            or self.pattern.is_alive(pid.index, view.time)
        )


def k_concurrent(
    inner: Scheduler, k: int, arrival_order: Sequence[int] | None = None
) -> FilteredScheduler:
    """Convenience: wrap ``inner`` with a :class:`KConcurrencyFilter`."""
    return FilteredScheduler(inner, KConcurrencyFilter(k, arrival_order))


def personified(inner: Scheduler, pattern: FailurePattern) -> FilteredScheduler:
    """Convenience: wrap ``inner`` with a :class:`PersonifiedFilter`."""
    return FilteredScheduler(inner, PersonifiedFilter(pattern))
