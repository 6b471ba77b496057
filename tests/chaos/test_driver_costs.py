"""Costs a campaign must not pay: a supervisor that polls while its
workers compute, and an interpreted cell that loads the analyzer or
the compiled kernel to run an algorithm.  Both are counted (waits,
loaded modules), never timed."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.resilience import SupervisedPool, supervisor

SRC = Path(__file__).resolve().parents[2] / "src"


def test_driver_blocks_while_every_worker_is_busy(monkeypatch):
    # Six 0.2 s jobs on two workers: four jobs queue behind busy
    # workers for the whole run.  A driver that polls calls
    # connection.wait thousands of times; one that blocks on the
    # worker pipes wakes about once per result.
    real_wait = supervisor.connection.wait
    waits = []

    def counting_wait(object_list, timeout=None):
        waits.append(timeout)
        return real_wait(object_list, timeout)

    monkeypatch.setattr(supervisor.connection, "wait", counting_wait)
    results = SupervisedPool(time.sleep, workers=2).run(
        [(index, 0.2) for index in range(6)]
    )
    assert [result.ok for result in results] == [True] * 6
    assert len(waits) < 50, f"driver polled: {len(waits)} waits"


#: One storm-shaped cell (crash storm, mutated scheduler, interpreted)
#: through the campaign job function, in a fresh interpreter; prints
#: the cell's outcome and every analyzer or kernel module it left
#: loaded.
CELL_PROBE = textwrap.dedent(
    """
    import sys

    from repro.chaos.campaign import CampaignSpec, Workload, _run_cell_guarded

    spec = CampaignSpec(
        name="probe",
        workloads=[
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "omega"},
            )
        ],
        patterns=[(None, 1, 1)],
        schedulers=({"kind": "burst", "period": 40, "burst": 15, "seed": 3},),
        seeds=(0,),
        stabilization_times=(12,),
        max_steps=150_000,
    )
    record = _run_cell_guarded((next(iter(spec.cells())), False, "interp"))
    assert "repro.algorithms" in sys.modules
    unneeded = sorted(
        name
        for name in sys.modules
        if name.startswith(("repro.lint", "repro.checker", "repro.kernel"))
    )
    print(record.outcome, *unneeded)
    """
)


def test_one_cell_loads_no_analyzer_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", CELL_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split() == ["ok"]
