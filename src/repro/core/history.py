"""Failure-detector histories (paper Section 2.1).

A history ``H`` with range ``R`` maps ``(S-process, time)`` to a value in
``R``; ``H(q, t)`` is what the detector module of ``q`` outputs at time
``t``.  Detectors map a failure pattern to a *set* of histories; our
executable detectors pick one history per (pattern, seed) pair — see
:mod:`repro.detectors.base`.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol


class History(Protocol):
    """Minimal interface the executor needs from a history."""

    def value(self, s_index: int, time: int) -> Any:
        """``H(q_{s_index+1}, time)``."""


class FunctionHistory:
    """A history backed by an arbitrary function of (process, time)."""

    def __init__(self, fn: Callable[[int, int], Any]) -> None:
        self._fn = fn

    def value(self, s_index: int, time: int) -> Any:
        return self._fn(s_index, time)


class ConstantHistory:
    """A history that outputs the same value everywhere (e.g. trivial D)."""

    def __init__(self, constant: Any = None) -> None:
        self._constant = constant

    def value(self, s_index: int, time: int) -> Any:
        return self._constant


class RecordedHistory:
    """A finite, explicitly tabulated history (used by tests and by the
    DAG machinery of Figure 1, which replays recorded samples).

    Missing entries fall back to ``default``.
    """

    def __init__(self, table: dict[tuple[int, int], Any], default: Any = None):
        self._table = dict(table)
        self._default = default

    def value(self, s_index: int, time: int) -> Any:
        return self._table.get((s_index, time), self._default)

    def record(self, s_index: int, time: int, value: Any) -> None:
        self._table[(s_index, time)] = value


class QueryLog:
    """Stands in for a history during one run and logs every point the
    run queries, with the ``repr`` of its answer.

    A run learns the advice only through its queries, so a run of the
    same system under another history that gives the same answers at
    these points is this run, step for step (see
    :func:`answers_agree`).  The log is one string, ``"q t answer"`` per
    line, so a campaign can keep, pickle and send it cheaply.
    """

    __slots__ = ("_value", "_lines")

    def __init__(self, history: History) -> None:
        self._value = history.value
        self._lines: list[str] = []

    def value(self, s_index: int, time: int) -> Any:
        answer = self._value(s_index, time)
        self._lines.append(f"{s_index} {time} {answer!r}")
        return answer

    def encode(self, limit: int) -> str | None:
        """The log, or ``None`` when it is longer than ``limit``
        characters or an answer's ``repr`` spans lines (the encoding
        would be ambiguous)."""
        text = "\n".join(self._lines)
        if len(text) > limit:
            return None
        return text if text.count("\n") == max(len(self._lines) - 1, 0) else None


def answers_agree(history: History, log: str) -> bool:
    """True when ``history`` gives, at every point of an encoded
    :class:`QueryLog`, an answer with the logged ``repr``.  Reads the
    log line by line and stops at the first disagreement."""
    value = history.value
    start, size = 0, len(log)
    while start < size:
        end = log.find("\n", start)
        if end < 0:
            end = size
        q, t, answer = log[start:end].split(" ", 2)
        if repr(value(int(q), int(t))) != answer:
            return False
        start = end + 1
    return True
