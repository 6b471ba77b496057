"""Campaign cells the compiled kernel compiles, and a count of the
``CompiledRun``s a campaign builds.

The smoke campaign's cells are Theorem 9 cells, whose Figure 2
automata do not compile, so ``kernel="compiled"`` runs them on the
interpreter.  A test that means to exercise the compiled engine runs
cells of the one-concurrent consensus solver, whose automata compile,
and checks with :func:`count_compiled_runs` that it built its runs."""

import contextlib
import dataclasses
import itertools
from pathlib import Path

import pytest

from repro.chaos import smoke_campaign
from repro.chaos.campaign import CampaignSpec, CellSpec
from repro.kernel import CompiledRun

#: A cell whose automata all compile (the one-concurrent consensus
#: solver), so a compiled campaign builds a ``CompiledRun`` for it.
COMPILING_CELL = CellSpec(
    task={"family": "consensus", "n": 3},
    detector={"family": "none"},
    algorithm="one-concurrent",
    pattern=(None, None, None),
    scheduler={"kind": "seeded", "seed": 0},
    max_steps=5_000,
)


class CellsCampaign(CampaignSpec):
    """A campaign over an explicit list of cells."""

    def __init__(self, cells, **fields):
        super().__init__(name="explicit-cells", workloads=[], **fields)
        self._cells = list(cells)

    def cells(self):
        yield from self._cells


def _one_at_a_time(order):
    """A schedule that runs each C-process to its decision (five steps)
    before the next one starts: the one-concurrent solver's own setting,
    whose traces hold no hazard for strict traces to report."""
    sequence = [f"p{index}" for index in order for _ in range(10)]
    return {"kind": "explicit", "sequence": sequence, "strict": False}


def mixed_campaign(smoke_cells, **fields):
    """The first ``smoke_cells`` smoke cells, then two compiling cells
    that run one process at a time: a compiled run of it builds exactly
    two ``CompiledRun``s."""
    return CellsCampaign(
        [
            *itertools.islice(smoke_campaign().cells(), smoke_cells),
            *(
                dataclasses.replace(
                    COMPILING_CELL, scheduler=_one_at_a_time(order)
                )
                for order in ((1, 2, 3), (3, 1, 2))
            ),
        ],
        **fields,
    )


@contextlib.contextmanager
def count_compiled_runs(directory):
    """Count the ``CompiledRun``s built inside the block, in this
    process or in pool workers forked from it: each construction
    appends a line to a file in ``directory``.  Yields a function that
    returns the count so far."""
    log = Path(directory) / "compiled-runs.log"
    log.write_text("", encoding="utf-8")
    real_init = CompiledRun.__init__

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        with log.open("a", encoding="utf-8") as out:
            out.write("built\n")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledRun, "__init__", counted_init)
        yield lambda: len(log.read_text(encoding="utf-8").splitlines())
