"""Structured execution traces.

Traces are optional (they cost memory) but are what most assertions in
the test suite inspect: which process took which operation at which time,
and with what result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.process import ProcessId


@dataclass(frozen=True)
class TraceEvent:
    """One executed step."""

    time: int
    pid: ProcessId
    op: Any
    result: Any


class Trace:
    """An append-only sequence of :class:`TraceEvent`.

    Callers on hot paths should check :attr:`enabled` *before*
    constructing a :class:`TraceEvent` — the executor does — so that a
    disabled trace costs neither the allocation nor the call.
    :meth:`record` keeps its own guard as a backstop for callers that
    construct events unconditionally.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        if self.enabled:
            self.events.append(event)

    def participating_c(self) -> frozenset[int]:
        """Indices of C-processes that *participated* in the traced run.

        Participation is the paper's notion: a C-process participates
        once it has written its input register (its mandated first
        step).  A C-process appearing in the trace with other steps but
        no input write — a reduction driver, or a synthetic trace — is
        not a participant.
        """
        from . import ops
        from ..core.system import INPUT_REGISTER_PREFIX

        participants = set()
        for event in self.events:
            if (
                event.pid.is_computation
                and isinstance(event.op, ops.Write)
                and event.op.register
                == f"{INPUT_REGISTER_PREFIX}{event.pid.index}"
            ):
                participants.add(event.pid.index)
        return frozenset(participants)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
