"""Parallel campaign execution must be invisible in the report."""

from repro.chaos import run_campaign, smoke_campaign
from repro.chaos.campaign import CampaignSpec, Workload


class TestParallelCampaign:
    def test_parallel_render_is_byte_identical_to_serial(self):
        spec = smoke_campaign()
        serial = run_campaign(spec, limit=6)
        parallel = run_campaign(spec, limit=6, workers=2)
        assert parallel.render() == serial.render()
        assert [r.outcome for r in parallel.records] == [
            r.outcome for r in serial.records
        ]
        assert [r.cell for r in parallel.records] == [
            r.cell for r in serial.records
        ]

    def test_broken_cell_degrades_to_error_record_in_parallel(self):
        spec = CampaignSpec(
            name="broken",
            workloads=[
                Workload(
                    task={"family": "no-such-task", "n": 3},
                    detector={"family": "omega"},
                ),
            ],
            patterns=1,
            schedulers=({"kind": "round-robin"},),
            seeds=(0, 1),
            stabilization_times=(0,),
        )
        serial = run_campaign(spec, limit=2)
        parallel = run_campaign(spec, limit=2, workers=2)
        assert [r.outcome for r in serial.records] == ["error", "error"]
        assert parallel.render() == serial.render()
