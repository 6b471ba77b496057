"""Campaigns whose cells form stabilization families, a count of the
runs a campaign actually executes, and the agreement check switched off.

A stabilization family is a set of campaign cells that differ only in
``detector["stabilization_time"]``.  ``run_campaign`` lets a member take
the verdict of a finished sibling when its own history answers every
query the sibling's run made alike; :func:`reuse_off` patches that
agreement check out, so every cell runs."""

import contextlib
import random
from pathlib import Path

import pytest

from repro.chaos import campaign
from repro.chaos.campaign import CampaignSpec, Workload

#: The cells of :func:`storm_shaped` that take their family sibling's
#: verdict, on either workload seed: each is the stabilization-12
#: member of its family, and the cell before it is the
#: stabilization-0 member it reuses.
STORM_REUSED = frozenset({1, 5, 7, 11, 15, 17})
STORM_CELLS = 20


def storm_shaped(seed, **fields):
    """perfbench ``storm``'s 20 cells for workload seed ``seed``:
    consensus/Omega and 2-set agreement/vecOmega-2 under a crash storm
    (q2 and q3 crash at time 1), five mutated schedulers, stabilization
    times 0 and 12.  Consecutive cells ``2i`` and ``2i + 1`` form a
    family."""
    rng = random.Random(seed)
    return CampaignSpec(
        name="storm-shaped",
        workloads=[
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "omega"},
            ),
            Workload(
                task={"family": "set-agreement", "n": 3, "k": 2},
                detector={"family": "vector-omega", "k": 2},
            ),
        ],
        patterns=[(None, 1, 1)],
        schedulers=(
            {"kind": "round-robin"},
            {"kind": "seeded", "seed": rng.randrange(1 << 30)},
            {
                "kind": "burst",
                "period": 40,
                "burst": 15,
                "seed": rng.randrange(1 << 30),
            },
            {"kind": "shadow", "shadow": 12},
            {"kind": "inversion", "relief": 7},
        ),
        seeds=(0,),
        stabilization_times=(0, 12),
        max_steps=150_000,
        **fields,
    )


def storm_runs_after_resume(journaled):
    """How many :func:`storm_shaped` cells a resume executes when the
    cells ``journaled`` are already in its journal: a journal holds no
    query logs, so a reusing member runs unless its sibling runs too."""
    todo = set(range(STORM_CELLS)) - set(journaled)
    return len(todo) - sum(
        1 for index in STORM_REUSED if {index, index - 1} <= todo
    )


@contextlib.contextmanager
def count_runs(directory):
    """Count the runs campaign cells execute inside the block, in this
    process, its threads, or pool workers forked from it: each run
    appends a line to a file in ``directory``.  Yields a function that
    returns the count so far."""
    log = Path(directory) / "runs.log"
    log.write_text("", encoding="utf-8")
    real_execute = campaign.execute

    def counted_execute(*args, **kwargs):
        with log.open("a", encoding="utf-8") as out:
            out.write("run\n")
        return real_execute(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "execute", counted_execute)
        yield lambda: len(log.read_text(encoding="utf-8").splitlines())


def reuse_off(patch):
    """Patch the agreement check out with ``patch`` (a
    ``MonkeyPatch``): no cell takes a sibling's verdict."""
    patch.setattr(campaign, "answers_agree", lambda history, log: False)
