"""The benchmark's workloads: their inputs, derived from the workload
seed, and the set-up and timed call of each.

Every input the program sees comes from :func:`random.Random` seeded
with the workload seed, so the same seed gives the same cells (or the
same exploration) on every run.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from repro.chaos.campaign import (
    OUTCOME_ERROR,
    OUTCOME_INVALID_HISTORY,
    QUARANTINE_OUTCOMES,
    CampaignSpec,
    Workload,
    run_campaign,
)
from repro.chaos.registry import build_detector, build_pattern, build_system, build_task

# Each workload imports the rest of ``repro`` it needs where it sets up,
# so that ``setup_s`` counts only that workload's imports.

#: Cell outcomes counted as failed: the error fraction's numerator.
FAILED_OUTCOMES = QUARANTINE_OUTCOMES | {OUTCOME_ERROR, OUTCOME_INVALID_HISTORY}

#: Detector seeds swept by ``sweep`` (all cells share one shape).
SWEEP_CELLS = 48
#: Worker processes (pool) or connections (fabric): the box's cores.
WORKERS = 2

#: ``storm``'s crash pattern: the crash storm of
#: ``storm_suite(3, count=5, seed=0)``: two of the three S-processes
#: crash at time 1.
STORM_PATTERN = (None, 1, 1)

#: ``explore``: Figure 4 renaming, four processes, three participants.
EXPLORE_DEPTH = 14
#: Its report counters at that depth.  The (4,3,5)-renaming tree is the
#: same for every choice of participants and names, so every seed must
#: reproduce these exactly.
EXPLORE_EXPECTED = {
    "explored": 18586,
    "completed_runs": 0,
    "truncated_runs": 9412,
    "deduplicated": 3624,
    "por_pruned": 3253,
    "symmetry_pruned": 0,
    "violations": 0,
}


def sweep_spec(seed: int) -> CampaignSpec:
    """2-set agreement over the Paxos-backed vecOmega-2 solver, many
    detector seeds, one scheduler seed, no crashes: one lane shape."""
    rng = random.Random(seed)
    return CampaignSpec(
        name="perfbench-sweep",
        workloads=[
            Workload(
                task={"family": "set-agreement", "n": 3, "k": 2},
                detector={"family": "vector-omega", "k": 2},
            )
        ],
        patterns=[[]],
        schedulers=({"kind": "seeded", "seed": rng.randrange(1 << 30)},),
        seeds=tuple(rng.sample(range(1 << 30), SWEEP_CELLS)),
        stabilization_times=(8,),
        max_steps=60_000,
    )


def storm_spec(seed: int) -> CampaignSpec:
    """Consensus/Omega and 2-set agreement/vecOmega-2 crossed with a
    crash storm, all five mutated schedulers and stabilization times 0
    and 12: 20 cells of 20 different shapes.

    The seed varies the scheduler seeds only.  The crash pattern and the
    detector-history seed stay fixed: varying them changes the cell
    set's total work by about a quarter from seed to seed (a vecOmega-2
    history either lets the first Paxos round win or doubles the run),
    which would swamp every throughput metric; the scheduler seeds
    change it by under 1%.
    """
    rng = random.Random(seed)
    return CampaignSpec(
        name="perfbench-storm",
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
        patterns=[STORM_PATTERN],
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
    )


def campaign_spec(workload: str, seed: int) -> CampaignSpec:
    return sweep_spec(seed) if workload == "sweep" else storm_spec(seed)


def explore_inputs(seed: int) -> tuple:
    """Three of the four processes participate, with three distinct
    names from {1..4} in a seed-chosen order."""
    rng = random.Random(seed)
    absent = rng.randrange(4)
    names = iter(rng.sample(range(1, 5), 3))
    return tuple(None if i == absent else next(names) for i in range(4))


def explore_problem(seed: int):
    """``(task, system_builder)`` of the ``explore`` workload."""
    from repro.algorithms.renaming_figure4 import figure4_factories
    from repro.core import System
    from repro.tasks import RenamingTask

    inputs = explore_inputs(seed)

    def build() -> System:
        return System(inputs=inputs, c_factories=figure4_factories(4))

    return RenamingTask(4, 3, 5), build


def make_explorer(build, candidate_filter=None):
    from repro.checker import ScheduleExplorer, drop_null_s_processes

    return ScheduleExplorer(
        build,
        max_depth=EXPLORE_DEPTH,
        candidate_filter=candidate_filter or drop_null_s_processes,
        por=True,
        dedup=True,
    )


def exploration_counters(report) -> dict[str, int]:
    counters = {
        name: getattr(report, name)
        for name in EXPLORE_EXPECTED
        if name != "violations"
    }
    counters["violations"] = len(report.violations)
    return counters


def warm_kernel(spec: CampaignSpec) -> None:
    """Compile the automata of the spec's first cell (all ``sweep``
    cells share them), so the timed region starts with a warm cache."""
    from repro.kernel import UnsupportedAutomaton, compile_automaton

    cell = next(iter(spec.cells()))
    task = build_task(cell.task)
    system = build_system(
        task=task,
        algorithm=cell.algorithm,
        detector=build_detector(cell.detector, task.n),
        inputs=cell.inputs,
        pattern=build_pattern(cell.pattern, task.n),
        seed=cell.seed,
    )
    for factory in (*system.c_factories, *system.s_factories):
        try:
            compile_automaton(factory)
        except UnsupportedAutomaton:
            pass


class FabricWorkers:
    """A loopback coordinator with :data:`WORKERS` ``repro worker``
    subprocesses registered to it.  :meth:`close` waits for every worker
    to exit (they leave when the campaign closes the coordinator) and
    kills any that do not."""

    def __init__(self, root: Path) -> None:
        from repro.resilience import FabricConfig, FabricCoordinator

        self.coordinator = FabricCoordinator(FabricConfig())
        host, port = self.coordinator.address
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", f"{host}:{port}",
                    "--name", f"perfbench-{i}",
                ],
                cwd=root,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for i in range(WORKERS)
        ]
        registered = self.coordinator.wait_for_workers(
            WORKERS, timeout_s=60.0
        )
        if registered != WORKERS:
            self.close()
            raise RuntimeError(
                f"only {registered} of {WORKERS} fabric workers registered"
            )

    def close(self) -> None:
        self.coordinator.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


class Job:
    """One workload, set up: :meth:`run` is the timed call."""

    def __init__(self, workload: str, seed: int, root: Path, scratch: Path):
        self.workload = workload
        self.journal = str(scratch / f"{workload}-journal.jsonl")
        self.fabric: FabricWorkers | None = None
        if workload == "explore":
            from repro.checker import task_safety_verdict

            self.task, build = explore_problem(seed)
            self.verdict = task_safety_verdict
            self.explorer = make_explorer(build)
            return
        self.spec = campaign_spec(workload, seed)
        if workload == "sweep":
            warm_kernel(self.spec)
        elif workload == "fabric":
            self.fabric = FabricWorkers(root)

    def run(self):
        if self.workload == "explore":
            return self.explorer.check(self.verdict(self.task))
        if self.workload == "sweep":
            return run_campaign(self.spec, kernel="compiled")
        if self.workload == "storm":
            return run_campaign(
                self.spec, workers=WORKERS, journal=self.journal
            )
        return run_campaign(
            self.spec,
            backend="fabric",
            fabric=self.fabric.coordinator,
            journal=self.journal,
        )

    def close(self) -> None:
        if self.fabric is not None:
            self.fabric.close()
