"""In-memory spans and the statistics the benchmark reports.

Pure Python with no dependency on ``repro``, so the harness tests can
exercise it on its own.

A span is one timed call into a layer: its name (the layer's module
name plus the call), the identifier of the request it served (the cell
index, or the pass number for whole-pass spans), its parent span, and
its start and end on ``time.perf_counter``.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples above it.
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    trace: int
    parent: int | None
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace: int) -> Iterator[Span]:
        """Time the body as a child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, trace, parent, 0.0, 0.0)
        self.spans.append(record)
        self._open.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, trace: int, start: float, end: float) -> Span:
        """Record a span timed by the caller (wrapped entry points) as a
        child of the innermost open span."""
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, trace, parent, start, end)
        self.spans.append(record)
        return record

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its
    children's intervals, clipped to the parent's interval."""
    children: dict[int, list[Span]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    out: dict[int, float] = {}
    for record in spans:
        covered = 0.0
        cursor = record.start
        for child in sorted(
            children.get(record.id, ()), key=lambda s: s.start
        ):
            lo = max(child.start, cursor)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record.id] = record.duration - covered
    return out


def per_trace_totals(spans: list[Span], name: str) -> list[float]:
    """Summed duration of ``name`` spans per request, in request order
    (a cell advanced in several lane chunks has several spans)."""
    totals: dict[int, float] = {}
    for record in spans:
        if record.name == name:
            totals[record.trace] = (
                totals.get(record.trace, 0.0) + record.duration
            )
    return [totals[key] for key in sorted(totals)]


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the value at rank ceil(pct/100 * n))."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank_index(len(ordered), pct)]


def _rank_index(n: int, pct: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(0, math.ceil(round(pct / 100.0 * n, 9)) - 1)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples strictly above its rank, or
    ``None`` when even the median has fewer above it."""
    best = None
    for pct in TAIL_CANDIDATES:
        if n - 1 - _rank_index(n, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the tail of ``values``; with too few
    samples for any candidate it is the maximum, at percentile 100."""
    pct = tail_percentile(len(values))
    if pct is None:
        return (max(values) if values else 0.0), 100.0
    return percentile(values, pct), pct


def report_digest(report) -> str:
    """Digest of a campaign report: its rendering plus every record's
    row and detail (the rendering alone lists only problem cells)."""
    rows = [f"{r.format_row()}|{r.detail}" for r in report.records]
    text = report.render() + "\n" + "\n".join(rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests_agree(expected: str, digests: list[str]) -> bool:
    """True when every digest equals the reference digest."""
    return bool(digests) and all(d == expected for d in digests)
