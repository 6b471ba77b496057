"""Lane names kept for perfbench's traced sweep replay.

Campaigns never run lanes: every route of
:func:`repro.chaos.run_campaign` runs a cell's
:class:`~repro.kernel.engine.CompiledRun` to completion, through the
job function ``_run_cell_guarded``, before it builds the next.
perfbench's traced ``sweep`` replay still advances ``CompiledRun``
lanes side by side, :data:`CHUNK` turns at a time, sharing a
:class:`~repro.kernel.engine.LaneState` per :func:`lane_shape_key`;
these two names remain for it alone.
"""

from __future__ import annotations

import json

__all__ = ["CHUNK", "lane_shape_key"]

#: Scheduler turns the traced sweep replay grants one lane before
#: moving to the next.
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
