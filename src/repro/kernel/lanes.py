"""Batched campaign lanes: many campaign cells advanced in lockstep
through the compiled kernel.

The serial in-process backend of :func:`repro.chaos.run_campaign`
(``kernel="compiled"``) routes through :func:`run_cells_compiled`: every
cell's :class:`~repro.kernel.engine.CompiledRun` becomes a *lane*, and
the driver round-robins ``advance(CHUNK)`` over the live lanes instead
of running each cell to completion before touching the next.  Cells are
independent (each owns its system, scheduler, and seeds), so lockstep
interleaving cannot change any verdict — it exists so that

* compilation is amortized up front: the first lane to use an automaton
  compiles it, every other lane reuses the cached program;
* a campaign's progress is breadth-first: early cells of a long sweep
  produce records at roughly the same time, which keeps journals and
  ``on_cell`` streams live even when one cell is step-budget heavy;
* lanes of one system *shape* (same cell spec modulo seeds — the
  many-seed sweep case) share copy-on-write register state through a
  :class:`~repro.kernel.engine.LaneState`: epoch-0 snapshots are served
  from a group-shared cache until a lane's first write bumps its
  private epoch.

Records are delivered through the same ``record_result(index, record)``
callback the pool backends use, so reports stay byte-identical to a
serial interpreted run (enforced by
:func:`repro.kernel.differential.campaign_differential`).
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from .engine import CompiledRun, LaneState

__all__ = ["CHUNK", "lane_shape_key", "run_cells_compiled"]

#: Scheduler turns granted to one lane before moving to the next.
#: Large enough that per-switch overhead vanishes against per-step
#: work, small enough that a 12-cell smoke campaign interleaves.
CHUNK = 2048


def lane_shape_key(cell) -> str:
    """Canonical key of a cell's system *shape*: its JSON spec with the
    detector seed and scheduler seed stripped.  Cells agreeing on this
    key differ only in seeds, start from the identical empty register
    file, and may therefore share one :class:`LaneState`."""
    data = cell.to_json()
    data.pop("seed", None)
    scheduler = dict(data.get("scheduler") or {})
    scheduler.pop("seed", None)
    data["scheduler"] = scheduler
    return json.dumps(data, sort_keys=True, default=repr)


def run_cells_compiled(
    jobs: Sequence[tuple[int, object]],
    *,
    strict_traces: bool,
    record_result: Callable[[int, object], None],
    chunk: int = CHUNK,
) -> None:
    """Run ``jobs`` — ``(index, CellSpec)`` pairs — through compiled
    lanes, delivering one :class:`~repro.chaos.campaign.CellRecord` per
    cell via ``record_result``.

    Failure containment matches the serial interpreted path: a cell
    whose construction or execution raises is recorded with outcome
    ``"error"`` and the sweep continues.
    """
    from ..chaos import campaign as _campaign
    from ..chaos.registry import build_scheduler

    lanes: list[list] = []  # [index, cell, task, run]
    groups: dict[str, LaneState] = {}
    for index, cell in jobs:
        try:
            task, system, invalid = _campaign._prepare_cell(cell)
            if invalid is not None:
                record_result(index, invalid)
                continue
            shape = lane_shape_key(cell)
            state = groups.get(shape)
            if state is None:
                state = groups[shape] = LaneState()
            run = CompiledRun(
                system,
                build_scheduler(cell.scheduler),
                max_steps=cell.max_steps,
                # Classification only reads the trace under strict mode
                # (lint trace rules); plain lanes run untraced so the
                # compiled step functions skip event materialization.
                trace=strict_traces,
                lane_state=state,
            )
        except Exception as exc:  # noqa: BLE001 - triage, don't abort
            record_result(
                index,
                _campaign.CellRecord(
                    cell,
                    _campaign.OUTCOME_ERROR,
                    detail=f"{type(exc).__name__}: {exc}",
                ),
            )
            continue
        lanes.append([index, cell, task, run])

    while lanes:
        still_running: list[list] = []
        for lane in lanes:
            index, cell, task, run = lane
            try:
                if not run.advance(chunk):
                    still_running.append(lane)
                    continue
                record = _campaign._classify_record(
                    cell, task, run.result(), strict_traces=strict_traces
                )
            except Exception as exc:  # noqa: BLE001 - triage
                record = _campaign.CellRecord(
                    cell,
                    _campaign.OUTCOME_ERROR,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            record_result(index, record)
        lanes = still_running
