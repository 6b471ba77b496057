"""Tracked micro-benchmarks of the execution core.

``python -m repro bench`` runs a fixed suite over the three hot layers
— raw executor stepping, exhaustive exploration, and chaos campaigns —
and writes ``BENCH_core.json``.  The committed copy at the repository
root is the tracked baseline: CI re-runs the suite in smoke mode and
fails when any benchmark's throughput regresses by more than the
threshold against it (rates are compared, not wall-clock totals, so the
smoke workloads stay comparable to the full ones).

Benchmark names are stable across smoke and full runs; changing a name
breaks the comparison history and should be treated like an API break.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Callable, Mapping

from .algorithms import paxos as _paxos

BENCH_SCHEMA = "repro-bench/1"

#: Primary throughput metric per benchmark (used for regression gating).
RATE_KEYS = {
    "executor_rw_n8": "steps_per_s",
    "executor_nop_n32": "steps_per_s",
    "executor_crashes": "steps_per_s",
    "executor_snapshot": "steps_per_s",
    "executor_paxos_inlined": "steps_per_s",
    "executor_compiled_rw_n8": "steps_per_s",
    "executor_compiled_nop_n32": "steps_per_s",
    "executor_compiled_crashes": "steps_per_s",
    "executor_compiled_snapshot": "steps_per_s",
    "executor_compiled_paxos_inlined": "steps_per_s",
    "explorer_figure4_d16": "explored_per_s",
    "explorer_por_figure4_d16": "explored_per_s",
    "explorer_por_deep_renaming": "explored_per_s",
    "explorer_symmetry_kset": "explored_per_s",
    "campaign_smoke": "cells_per_s",
    "campaign_seed_sweep": "cells_per_s",
    "campaign_supervised": "cells_per_s",
    "campaign_fabric_loopback": "cells_per_s",
}

#: Compiled-kernel benchmark → its interpreted counterpart in the same
#: run.  Drives the side-by-side speedup column in :func:`render` and
#: the in-run speedup gate in :func:`kernel_speedup_problems`.  Each
#: pair runs :data:`PAIR_REPEATS` times, its two cases alternating.
KERNEL_PAIRS = {
    "executor_compiled_rw_n8": "executor_rw_n8",
    "executor_compiled_nop_n32": "executor_nop_n32",
    "executor_compiled_crashes": "executor_crashes",
    "executor_compiled_snapshot": "executor_snapshot",
    "executor_compiled_paxos_inlined": "executor_paxos_inlined",
}

#: Per-pair minimum speedups for :func:`kernel_speedup_problems`, each
#: about 0.8x the lower of the pair's two medians (seven full and seven
#: ``--smoke`` runs on a 2-core shared VM, each run gating on the median
#: of :data:`PAIR_REPEATS` same-run ratios).  The interpreter's run loop
#: picks round-robin and seeded-random steps inline and resumes
#: generators inline, as the compiled engine does, so the pairs measure
#: what compiled step functions add to that loop: 1.7-4.0x on the
#: synthetic executor workloads (medians: ``rw_n8`` 2.38x full / 2.37x
#: smoke, ``nop_n32`` 1.73x / 2.07x, ``crashes`` 2.39x / 2.39x,
#: ``snapshot`` 4.00x / 3.86x) and 1.39x / 1.35x on the paxos-inlined
#: one.  The floors still catch a compiled engine that falls well
#: behind the interpreter.
KERNEL_SPEEDUP_MIN = {
    "executor_compiled_rw_n8": 1.95,
    "executor_compiled_nop_n32": 1.35,
    "executor_compiled_crashes": 1.9,
    "executor_compiled_snapshot": 2.95,
    "executor_compiled_paxos_inlined": 1.05,
}

#: Repetitions of each kernel pair and of each dispatch case.  A kernel
#: gate reads the median of the same-repetition ratios
#: (``speedup_runs`` in the compiled case's record), a dispatch gate
#: the ``overhead_frac`` of the repetition with the median overhead
#: (all of them are listed in ``overhead_runs``), so one case running
#: far off its median on a noisy host moves one ratio, not the verdict.
PAIR_REPEATS = 3

#: Maximum tolerated supervised-pool slowdown vs serial in-process
#: execution of the same cells (fraction of the serial rate).  The
#: pool adds worker forks, per-cell pipe round trips, and watchdogs;
#: with two workers it normally runs faster than serial.
SUPERVISED_OVERHEAD_MAX = 0.10

#: Maximum tolerated loopback-fabric slowdown vs serial in-process
#: execution of the same cells (fraction of the serial rate).  The
#: fabric adds framing, leases, and heartbeats per cell; none of that
#: may cost more than this.
FABRIC_OVERHEAD_MAX = 0.15


# -- workloads -----------------------------------------------------------


def _spin(ctx):
    from .runtime import ops

    while True:
        yield ops.Nop()


def _reader_writer(ctx):
    from .runtime import ops

    me = ctx.pid.index
    while True:
        yield ops.Write(f"cell/{me}", me)
        yield ops.Read(f"cell/{(me + 1) % ctx.n_computation}")


def _snapper(ctx):
    from .runtime import ops

    for i in range(200):
        yield ops.Write(f"arr/{ctx.pid.index}/{i}", i)
    while True:
        yield ops.Snapshot(f"arr/{ctx.pid.index}/")


def _paxos_contender(ctx):
    """The ``yield from``-delegating workload class: contended register
    Paxos (the per-step agreement substrate of the paper's Figure 2),
    every operation reached through inlined generator subroutines.  The
    module reference must be a bench-module global — not a function
    local — so the compiler can resolve and statically inline the
    delegated subroutines."""
    me = ctx.pid.index
    n = ctx.n_computation
    instance = 0
    round_number = me
    while True:
        decided = yield from _paxos.propose(
            f"bench/{instance}",
            me,
            n,
            _paxos.make_ballot(round_number, me, n),
            me,
        )
        if decided is not None:
            instance += 1
            round_number = me
        else:
            round_number += n


def _bench_executor(
    factory, n: int, steps: int, *, pattern=None, sched=None
) -> dict[str, Any]:
    from .core import System
    from .runtime import Executor, RoundRobinScheduler

    t0 = time.perf_counter()
    system = System(
        inputs=tuple(range(n)),
        c_factories=[factory] * n,
        pattern=pattern,
    )
    executor = Executor(
        system, sched or RoundRobinScheduler(), max_steps=steps
    )
    result = executor.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "steps_per_s": result.steps / wall,
        "steps": result.steps,
    }


def _bench_executor_compiled(
    factory, n: int, steps: int, *, pattern=None, sched=None
) -> dict[str, Any]:
    """Same workload shape as :func:`_bench_executor`, driven through
    the compiled kernel.  The factory is compiled *before* the timed
    region: the content-hash source cache makes compilation a one-time
    cost in real workloads, so steady-state throughput is what the
    benchmark tracks.  System and :class:`CompiledRun` construction stay
    inside the timed region, mirroring the interpreted measurement."""
    from .core import System
    from .kernel import CompiledRun, compile_automaton
    from .runtime import RoundRobinScheduler

    compile_automaton(factory)  # warm the content-hash cache
    t0 = time.perf_counter()
    system = System(
        inputs=tuple(range(n)),
        c_factories=[factory] * n,
        pattern=pattern,
    )
    run = CompiledRun(
        system, sched or RoundRobinScheduler(), max_steps=steps
    )
    result = run.run()
    wall = time.perf_counter() - t0
    if run.fallback_pids:
        raise RuntimeError(
            f"bench workload fell back to the interpreter for "
            f"{sorted(p.name for p in run.fallback_pids)}"
        )
    return {
        "wall_s": wall,
        "steps_per_s": result.steps / wall,
        "steps": result.steps,
        "kernel": "compiled",
        "compiled_processes": len(run.compiled_pids),
    }


def _run_explorer(task, build, max_depth, gate=None, **knobs) -> dict[str, Any]:
    from .checker import ScheduleExplorer, task_safety_verdict

    explorer = ScheduleExplorer(
        build, max_depth=max_depth, candidate_filter=gate, **knobs
    )
    t0 = time.perf_counter()
    report = explorer.check(task_safety_verdict(task))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "explored_per_s": report.explored / wall,
        "explored": report.explored,
        "completed": report.completed_runs,
        "violations": len(report.violations),
        "por_pruned": report.por_pruned,
        "symmetry_pruned": report.symmetry_pruned,
        "deduplicated": report.deduplicated,
    }


def _bench_explorer(max_depth: int, **knobs) -> dict[str, Any]:
    """The standard exploration benchmark: exhaustive task-safety check
    of the Figure 4 renaming algorithm, two participants of three."""
    from .algorithms.renaming_figure4 import figure4_factories
    from .checker import drop_null_s_processes
    from .core import System
    from .tasks import RenamingTask

    task = RenamingTask(3, 2, 3)

    def build():
        return System(inputs=(1, 2, None), c_factories=figure4_factories(3))

    return _run_explorer(
        task, build, max_depth, gate=drop_null_s_processes, **knobs
    )


def _bench_explorer_deep(max_depth: int) -> dict[str, Any]:
    """Four-process wait-free renaming under POR + dedup: a workload
    whose naive tree (hundreds of millions of nodes at depth 14) is out
    of reach without the reductions."""
    from .algorithms.renaming_figure4 import figure4_factories
    from .checker import drop_null_s_processes
    from .core import System
    from .tasks import RenamingTask

    task = RenamingTask(4, 3, 5)

    def build():
        return System(
            inputs=(1, 2, 3, None), c_factories=figure4_factories(4)
        )

    return _run_explorer(
        task,
        build,
        max_depth,
        gate=drop_null_s_processes,
        por=True,
        dedup=True,
    )


def _bench_explorer_symmetry(max_depth: int) -> dict[str, Any]:
    """Symmetry reduction over four interchangeable processes running
    2-set agreement with equal inputs, 2-concurrently."""
    from .algorithms.kset_concurrent import kset_concurrent_factories
    from .checker import concurrency_gate, drop_null_s_processes
    from .core import System
    from .tasks import SetAgreementTask

    task = SetAgreementTask(4, 2)

    def build():
        return System(
            inputs=(1, 1, 1, 1), c_factories=kset_concurrent_factories(4, 2)
        )

    def gate(executor, candidates):
        return concurrency_gate(2)(
            executor, drop_null_s_processes(executor, candidates)
        )

    return _run_explorer(
        task,
        build,
        max_depth,
        gate=gate,
        symmetry=True,
        por=True,
        dedup=True,
    )


def _bench_campaign(cells: int, workers: int) -> dict[str, Any]:
    from .chaos import run_campaign, smoke_campaign

    t0 = time.perf_counter()
    report = run_campaign(smoke_campaign(), limit=cells, workers=workers)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cells_per_s": len(report.records) / wall,
        "cells": len(report.records),
        "workers": workers,
        "counts": dict(report.counts),
    }


def _sweep_campaign(seeds: int):
    """One system shape, many detector seeds, no crashes: k-set
    agreement over the paxos-inlined kset_vector algorithm.  Every cell
    differs only in its seed, so the case times many runs of one
    shape."""
    from .chaos.campaign import CampaignSpec, Workload

    return CampaignSpec(
        name="bench-seed-sweep",
        workloads=[
            Workload(
                task={"family": "set-agreement", "n": 3, "k": 2},
                detector={"family": "vector-omega", "k": 2},
            )
        ],
        patterns=[[]],
        schedulers=({"kind": "seeded", "seed": 1},),
        seeds=tuple(range(seeds)),
        stabilization_times=(8,),
        max_steps=60_000,
    )


def _bench_campaign_sweep(seeds: int) -> dict[str, Any]:
    from .chaos import run_campaign

    t0 = time.perf_counter()
    report = run_campaign(_sweep_campaign(seeds))
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "cells_per_s": len(report.records) / wall,
        "cells": len(report.records),
        "counts": dict(report.counts),
    }


def _timed_campaign(cells: int, **dispatch: Any) -> tuple[Any, float]:
    """The smoke campaign's first ``cells`` cells through one dispatch
    route; returns ``(report, wall seconds)``."""
    from .chaos import run_campaign, smoke_campaign

    t0 = time.perf_counter()
    report = run_campaign(smoke_campaign(), limit=cells, **dispatch)
    return report, time.perf_counter() - t0


def _run_dispatch_pair(
    serial: Callable[[], tuple[Any, float]],
    dispatched: Callable[[], tuple[Any, float]],
) -> dict[str, Any]:
    """Run a dispatch case :data:`PAIR_REPEATS` times, each run right
    after a serial in-process run of the same cells; both callables
    return ``(report, wall seconds)``.  The record is the repetition
    with the median overhead against its serial run, and also lists
    every repetition's overhead."""
    runs = []
    for _ in range(PAIR_REPEATS):
        serial_report, serial_wall = serial()
        report, wall = dispatched()
        assert report.render() == serial_report.render()  # byte-identical
        serial_rate = len(serial_report.records) / serial_wall
        rate = len(report.records) / wall
        run = {
            "wall_s": wall,
            "cells_per_s": rate,
            "serial_cells_per_s": serial_rate,
            "serial_wall_s": serial_wall,
            "overhead_frac": 1.0 - rate / serial_rate,
            "cells": len(report.records),
        }
        if report.fabric is not None:
            run["fabric"] = report.fabric.summary()
        runs.append(run)
    ordered = sorted(runs, key=lambda run: run["overhead_frac"])
    record = dict(ordered[len(ordered) // 2])
    record["overhead_runs"] = [run["overhead_frac"] for run in runs]
    return record


def _bench_campaign_pools(cells: int, workers: int) -> dict[str, Any]:
    """Supervised pool vs serial in-process execution of identical
    cells: the resilience layer's crash detection, budget plumbing, and
    per-worker pipes must cost less than
    :data:`SUPERVISED_OVERHEAD_MAX` of serial throughput."""
    record = _run_dispatch_pair(
        lambda: _timed_campaign(cells, backend="inproc"),
        lambda: _timed_campaign(cells, workers=workers),
    )
    return {**record, "workers": workers}


def _bench_campaign_fabric(cells: int, workers: int) -> dict[str, Any]:
    """Loopback fabric vs serial in-process execution of identical
    cells: the lease/heartbeat/framing machinery must cost less than
    :data:`FABRIC_OVERHEAD_MAX` of serial throughput.  A campaign
    closes its coordinator, so each repetition spawns and registers its
    own workers, before its timed region (via ``wait_for_workers``):
    interpreter start-up is not timed.  Cell code is: a worker imports
    the chaos engine and the algorithms on its first lease, inside the
    timed campaign, so the gate times each worker's first-cell imports
    (a first lease takes several times as long as a later cell) along
    with the dispatch overhead."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from .resilience import FabricConfig, FabricCoordinator

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )

    def fabric() -> tuple[Any, float]:
        coordinator = FabricCoordinator(FabricConfig())
        host, port = coordinator.address
        procs = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--connect", f"{host}:{port}",
                    "--name", f"bench-{i}",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                env=env,
            )
            for i in range(workers)
        ]
        try:
            coordinator.wait_for_workers(len(procs), timeout_s=30.0)
            return _timed_campaign(
                cells, backend="fabric", fabric=coordinator
            )
        finally:
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    record = _run_dispatch_pair(
        lambda: _timed_campaign(cells, backend="inproc"), fabric
    )
    return {**record, "workers": workers}


def _overhead_problems(
    results: Mapping[str, Mapping[str, Any]],
    name: str,
    route: str,
    max_overhead: float,
) -> list[str]:
    """Gate dispatch case ``name`` on its overhead against serial
    execution: the record's ``overhead_frac``, which is that of its
    median repetition (:func:`_run_dispatch_pair`)."""
    metrics = results.get(name)
    if not metrics or "overhead_frac" not in metrics:
        return []
    overhead = metrics["overhead_frac"]
    if overhead <= max_overhead:
        return []
    return [
        f"{name}: {route} is {overhead:.1%} slower than serial "
        f"in-process (budget: {max_overhead:.0%})"
    ]


def supervised_overhead_problems(
    results: Mapping[str, Mapping[str, Any]],
    *,
    max_overhead: float = SUPERVISED_OVERHEAD_MAX,
) -> list[str]:
    """Gate the supervised pool's median overhead against serial
    in-process execution from the same run (empty list = within budget
    or not run)."""
    return _overhead_problems(
        results, "campaign_supervised", "supervised pool", max_overhead
    )


def fabric_overhead_problems(
    results: Mapping[str, Mapping[str, Any]],
    *,
    max_overhead: float = FABRIC_OVERHEAD_MAX,
) -> list[str]:
    """Gate the loopback fabric's median overhead against serial
    in-process execution from the same run (empty list = within budget
    or not run)."""
    return _overhead_problems(
        results, "campaign_fabric_loopback", "fabric dispatch", max_overhead
    )


def pair_speedup(
    results: Mapping[str, Mapping[str, Any]], compiled_name: str
) -> float | None:
    """A kernel pair's speedup: the median of its repetitions' same-run
    ratios (``speedup_runs``), or for a record without them the ratio of
    the two cases' rates; ``None`` when the pair was not run."""
    metrics = results.get(compiled_name, {})
    if metrics.get("speedup_runs"):
        return statistics.median(metrics["speedup_runs"])
    rate_key = RATE_KEYS[compiled_name]
    compiled = metrics.get(rate_key)
    interp = results.get(KERNEL_PAIRS[compiled_name], {}).get(rate_key)
    if not compiled or not interp:
        return None
    return compiled / interp


def kernel_speedup_problems(
    results: Mapping[str, Mapping[str, Any]],
    *,
    minimums: Mapping[str, float] = KERNEL_SPEEDUP_MIN,
) -> list[str]:
    """Gate each compiled benchmark against its interpreted counterpart
    from the same run (empty list = every measured pair's
    :func:`pair_speedup` meets its :data:`KERNEL_SPEEDUP_MIN` entry, or
    the pair was not run).  Pairs without an entry are reported via
    :func:`render` but not gated."""
    problems: list[str] = []
    for compiled_name, interp_name in KERNEL_PAIRS.items():
        min_speedup = minimums.get(compiled_name)
        if min_speedup is None:
            continue
        speedup = pair_speedup(results, compiled_name)
        if speedup is None:
            continue
        if speedup < min_speedup:
            problems.append(
                f"{compiled_name}: only {speedup:.2f}x over "
                f"{interp_name} (minimum: {min_speedup:g}x)"
            )
    return problems


def _run_pair(
    interp: Callable[[], dict[str, Any]],
    compiled: Callable[[], dict[str, Any]],
    rate_key: str,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run a kernel pair :data:`PAIR_REPEATS` times, alternating its two
    cases.  Each case keeps the record of its median-rate run; the
    compiled record also lists every repetition's ratio."""
    runs = [(interp(), compiled()) for _ in range(PAIR_REPEATS)]

    def median_run(side: int) -> dict[str, Any]:
        ordered = sorted((run[side] for run in runs), key=lambda m: m[rate_key])
        return ordered[len(ordered) // 2]

    compiled_record = dict(median_run(1))
    compiled_record["speedup_runs"] = [
        c[rate_key] / i[rate_key] for i, c in runs
    ]
    return median_run(0), compiled_record


def run_benchmarks(
    *, smoke: bool = False, workers: int = 1
) -> dict[str, dict[str, Any]]:
    """Run the suite; smoke mode shrinks workloads, not the name set."""
    exec_steps = 5_000 if smoke else 50_000
    snap_steps = 3_000 if smoke else 30_000
    # Compiled executor cases run 10x the steps of their interpreted
    # twins: at multi-M steps/s the interpreted budgets finish in
    # single-digit milliseconds, where construction jitter swamps the
    # steady-state rate.  Rates are compared, never wall totals, so the
    # asymmetry is harmless (same reason smoke stays comparable to
    # full).
    compiled_steps = exec_steps * 10
    compiled_snap_steps = snap_steps * 10
    depth = 12 if smoke else 16
    cells = 4 if smoke else 12
    # The dispatch gates compare a rate against serial runs of the same
    # cells; on fewer cells, per-campaign set-up and shutdown (worker
    # forks, the coordinator's close) dominate the rate in smoke mode.
    dispatch_cells = 12
    sweep_seeds = 6 if smoke else 16
    from .core.failures import FailurePattern
    from .runtime.scheduler import SeededRandomScheduler

    suite: dict[str, Callable[[], dict[str, Any]]] = {
        "executor_rw_n8": lambda: _bench_executor(
            _reader_writer, 8, exec_steps
        ),
        "executor_nop_n32": lambda: _bench_executor(_spin, 32, exec_steps),
        "executor_crashes": lambda: _bench_executor(
            _reader_writer,
            6,
            exec_steps,
            pattern=FailurePattern(6, (3, 40, None, 500, None, 9_000)),
            sched=SeededRandomScheduler(7),
        ),
        "executor_snapshot": lambda: _bench_executor(
            _snapper, 4, snap_steps
        ),
        "executor_compiled_rw_n8": lambda: _bench_executor_compiled(
            _reader_writer, 8, compiled_steps
        ),
        "executor_compiled_nop_n32": lambda: _bench_executor_compiled(
            _spin, 32, compiled_steps
        ),
        "executor_compiled_crashes": lambda: _bench_executor_compiled(
            _reader_writer,
            6,
            compiled_steps,
            pattern=FailurePattern(6, (3, 40, None, 500, None, 9_000)),
            sched=SeededRandomScheduler(7),
        ),
        "executor_compiled_snapshot": lambda: _bench_executor_compiled(
            _snapper, 4, compiled_snap_steps
        ),
        "executor_paxos_inlined": lambda: _bench_executor(
            _paxos_contender, 3, exec_steps
        ),
        "executor_compiled_paxos_inlined": lambda: (
            _bench_executor_compiled(_paxos_contender, 3, compiled_steps)
        ),
        "explorer_figure4_d16": lambda: _bench_explorer(depth),
        "explorer_por_figure4_d16": lambda: _bench_explorer(
            depth, por=True
        ),
        "explorer_por_deep_renaming": lambda: _bench_explorer_deep(
            10 if smoke else 14
        ),
        "explorer_symmetry_kset": lambda: _bench_explorer_symmetry(
            12 if smoke else 16
        ),
        "campaign_smoke": lambda: _bench_campaign(cells, workers),
        "campaign_seed_sweep": lambda: _bench_campaign_sweep(sweep_seeds),
        "campaign_supervised": lambda: _bench_campaign_pools(
            dispatch_cells, max(2, workers)
        ),
        "campaign_fabric_loopback": lambda: _bench_campaign_fabric(
            dispatch_cells, max(2, workers)
        ),
    }
    results: dict[str, dict[str, Any]] = {}
    for name, fn in suite.items():
        interp_name = KERNEL_PAIRS.get(name)
        if interp_name is not None:  # the compiled case of a pair
            results[interp_name], results[name] = _run_pair(
                suite[interp_name], fn, RATE_KEYS[name]
            )
        elif name not in KERNEL_PAIRS.values():
            results[name] = fn()
    return {name: results[name] for name in suite}


# -- comparison ----------------------------------------------------------


def compare_against_baseline(
    results: Mapping[str, Mapping[str, Any]],
    baseline: Mapping[str, Mapping[str, Any]],
    *,
    fail_threshold: float,
) -> list[str]:
    """Return one message per benchmark whose throughput dropped below
    ``baseline rate / fail_threshold`` (benchmarks missing on either
    side are skipped — names are stable, workload sizes are not)."""
    problems: list[str] = []
    for name, rate_key in RATE_KEYS.items():
        current = results.get(name, {}).get(rate_key)
        reference = baseline.get(name, {}).get(rate_key)
        if not current or not reference:
            continue
        if current < reference / fail_threshold:
            problems.append(
                f"{name}: {rate_key} {current:.0f} is more than "
                f"{fail_threshold:g}x below baseline {reference:.0f}"
            )
    return problems


def load_baseline(path: str) -> dict[str, dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data.get("benchmarks", data)


def compare_runs(
    old: Mapping[str, Mapping[str, Any]],
    new: Mapping[str, Mapping[str, Any]],
) -> str:
    """Render a per-case delta table between two results files.

    One line per benchmark name present in either run: old rate, new
    rate, and the speedup factor (``new / old``, so >1 is faster).
    Cases missing on one side render a ``-`` instead of a factor —
    names are stable across suite revisions, but new cases do appear.
    """
    names = list(
        dict.fromkeys([*RATE_KEYS, *old, *new])  # RATE_KEYS order first
    )
    lines = [f"{'benchmark':28} {'old':>12} {'new':>12} {'delta':>8}"]
    for name in names:
        if name not in old and name not in new:
            continue
        rate_key = RATE_KEYS.get(name, "wall_s")
        before = old.get(name, {}).get(rate_key)
        after = new.get(name, {}).get(rate_key)
        fmt = lambda v: f"{v:>12.0f}" if v else f"{'-':>12}"
        delta = f"{after / before:>7.2f}x" if before and after else f"{'-':>8}"
        lines.append(f"{name:28} {fmt(before)} {fmt(after)} {delta}")
    return "\n".join(lines)


def render(results: Mapping[str, Mapping[str, Any]]) -> str:
    lines = []
    for name, metrics in results.items():
        rate_key = RATE_KEYS.get(name, "wall_s")
        line = (
            f"{name:28} {metrics.get(rate_key, 0.0):>12.0f} {rate_key}"
            f"  ({metrics['wall_s']:.2f}s)"
        )
        interp_name = KERNEL_PAIRS.get(name)
        speedup = (
            None if interp_name is None else pair_speedup(results, name)
        )
        if speedup is not None:
            line += f"  [{speedup:.2f}x vs {interp_name}]"
        lines.append(line)
    return "\n".join(lines)
