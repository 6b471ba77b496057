"""Costs a campaign must not pay: a supervisor that polls while its
workers compute, and an entry point that loads code it never runs (a
cell loading the analyzer, a worker loading the chaos engine before it
registers).  Both are counted (waits, loaded modules), never timed."""

import os
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.resilience import SupervisedPool, supervisor
from repro.resilience.transport import encode_frame

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


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def _probe(code):
    """Run ``code`` in a fresh interpreter; its printed words."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return out.stdout.split()


#: Prints every loaded ``repro`` module matching ``UNNEEDED``: module
#: name prefixes, except those in ``NEEDED``.
REPORT_UNNEEDED = """
unneeded = sorted(
    name
    for name in sys.modules
    if name.startswith(UNNEEDED) and name not in NEEDED
)
print(*unneeded)
"""


#: One storm-shaped cell (crash storm, mutated scheduler, interpreted)
#: through the campaign job function: it runs the Proposition 1 solver
#: under Theorem 9's double simulation.
CELL_PROBE = """
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
verdict = _run_cell_guarded((next(iter(spec.cells())), False, "interp", None, False))
assert verdict["outcome"] == "ok", verdict
assert "repro.algorithms.one_concurrent" in sys.modules
UNNEEDED = (
    "repro.lint",
    "repro.checker",
    "repro.kernel",
    "repro.chaos.bundle",
    "repro.chaos.shrink",
    "repro.resilience.fabric",
    "repro.resilience.netchaos",
    "repro.resilience.worker",
    "repro.analysis.reporting",
    "repro.analysis.traceview",
    "repro.runtime.history_trie",
    "repro.algorithms.",
)
NEEDED = {
    "repro.algorithms._schema",
    "repro.algorithms.bg_simulation",
    "repro.algorithms.dispatch",
    "repro.algorithms.kcode_simulation",
    "repro.algorithms.kconcurrent_solver",
    "repro.algorithms.one_concurrent",
    "repro.algorithms.paxos",
    "repro.algorithms.safe_agreement",
}
""" + REPORT_UNNEEDED


def test_one_cell_loads_no_analyzer_module():
    # Neither the analyzer nor the kernel, nor the campaign's other
    # routes (bundles, shrinking, the fabric), nor the exploring
    # executor, nor an algorithm the cell's solver does not run.
    assert _probe(CELL_PROBE) == []


#: The Figure 4 exploration of perfbench's ``explore`` instance, at a
#: smaller depth: no campaign code, one algorithm.
EXPLORE_PROBE = """
import sys

from repro.algorithms.renaming_figure4 import figure4_factories
from repro.checker import (
    ScheduleExplorer,
    drop_null_s_processes,
    task_safety_verdict,
)
from repro.core import System
from repro.tasks import RenamingTask

explorer = ScheduleExplorer(
    lambda: System(inputs=(1, 2, 3, None), c_factories=figure4_factories(4)),
    max_depth=8,
    candidate_filter=drop_null_s_processes,
    por=True,
    dedup=True,
)
report = explorer.check(task_safety_verdict(RenamingTask(4, 3, 5)))
assert report.ok and report.explored > 0, report
UNNEEDED = (
    "repro.algorithms.",
    "repro.resilience.supervisor",
    "repro.resilience.fabric",
)
NEEDED = {"repro.algorithms._schema", "repro.algorithms.renaming_figure4"}
""" + REPORT_UNNEEDED


def test_figure4_exploration_loads_only_its_algorithm():
    assert _probe(EXPLORE_PROBE) == []


def test_worker_registers_before_loading_the_chaos_engine():
    # ``python -m repro worker`` against a coordinator that welcomes it
    # and shuts it down at once: the worker serves no lease, so every
    # module it imports (``-X importtime`` lists them) is start-up.
    with socket.create_server(("127.0.0.1", 0)) as server:
        host, port = server.getsockname()
        worker = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "repro",
                "worker", "--connect", f"{host}:{port}",
                "--max-attempts", "1",
            ],
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            server.settimeout(60)
            conn, _ = server.accept()
            with conn:
                conn.settimeout(60)
                assert conn.recv(65536)  # the register frame
                conn.sendall(
                    encode_frame({"type": "welcome", "fingerprint": "f"})
                    + encode_frame({"type": "shutdown"})
                )
                _, importtime = worker.communicate(timeout=60)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()
    assert worker.returncode == 0, importtime
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in importtime.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    assert "repro.resilience.worker" in loaded
    unneeded = sorted(
        name
        for name in loaded
        if name.startswith(("repro.chaos", "repro.algorithms"))
        or name
        in (
            "repro.resilience.fabric",
            "repro.resilience.journal",
            "repro.resilience.netchaos",
        )
    )
    assert unneeded == []
