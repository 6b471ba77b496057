"""A campaign record is its verdict: every dispatch route returns lean
records (no attached run), while the trace is still built wherever
classification reads it."""

import pickle

import pytest

from repro.chaos import OUTCOME_HAZARD, run_campaign
from repro.chaos.campaign import CampaignSpec, Workload

from ..kernel.compiled_cells import count_compiled_runs
from .test_fabric import LEAN_RECORD_BYTES
from .test_strict_trace_bundle import hazard_cell


def storm_spec() -> CampaignSpec:
    """Three workloads under a crash storm (two S-processes crash at
    time 1), two schedulers: six cells of six shapes.  The one-concurrent
    consensus cells are the two the compiled kernel compiles."""
    return CampaignSpec(
        name="lean-storm",
        workloads=[
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "omega"},
            ),
            Workload(
                task={"family": "set-agreement", "n": 3, "k": 2},
                detector={"family": "vector-omega", "k": 2},
            ),
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "none"},
                algorithm="one-concurrent",
            ),
        ],
        patterns=[(None, 1, 1)],
        schedulers=({"kind": "round-robin"}, {"kind": "seeded", "seed": 3}),
        seeds=(0,),
        stabilization_times=(0,),
        max_steps=150_000,
    )


@pytest.mark.parametrize(
    "route",
    [
        {"backend": "inproc"},
        {"workers": 2},
        {"backend": "inproc", "kernel": "compiled"},
    ],
    ids=["inproc", "pool", "compiled"],
)
def test_every_route_returns_lean_records(route, tmp_path):
    with count_compiled_runs(tmp_path) as built:
        report = run_campaign(storm_spec(), **route)
    assert built() == (2 if route.get("kernel") == "compiled" else 0)
    assert len(report.records) == 6
    assert report.ok and report.complete
    for record in report.records:
        assert record.result is None
        assert len(pickle.dumps(record)) < LEAN_RECORD_BYTES


class HazardCampaign(CampaignSpec):
    """A one-cell campaign over the trace-hazard witness cell."""

    def cells(self):
        yield hazard_cell()


def test_strict_pool_campaign_still_reports_trace_hazard():
    spec = HazardCampaign(name="strict-hazard", workloads=[], strict_traces=True)
    report = run_campaign(spec, workers=2)
    (record,) = report.records
    assert record.outcome == OUTCOME_HAZARD
    assert "SnapshotRace" in record.detail
    assert record.result is None
