"""Ablation: raw step throughput of the generator-based executor.

DESIGN.md's first design decision is to pay for explicit schedulability
(every interleaving drivable) with a per-step generator resume; this
bench quantifies that cost so the simulation-heavy experiments can be
read in steps-per-second.
"""

import pytest

from repro.core import System
from repro.runtime import Executor, ExploringExecutor, RoundRobinScheduler, ops


def spin(ctx):
    while True:
        yield ops.Nop()


def reader_writer(ctx):
    me = ctx.pid.index
    while True:
        yield ops.Write(f"cell/{me}", me)
        yield ops.Read(f"cell/{(me + 1) % ctx.n_computation}")


@pytest.mark.parametrize("n", [2, 8, 32])
def test_nop_step_throughput(benchmark, n):
    def run():
        system = System(inputs=(1,) * n, c_factories=[spin] * n)
        executor = Executor(system, RoundRobinScheduler(), max_steps=5_000)
        result = executor.run()
        assert result.steps == 5_000
        return result

    benchmark(run)


@pytest.mark.parametrize("n", [2, 8, 32])
def test_read_write_step_throughput(benchmark, n):
    def run():
        system = System(inputs=(1,) * n, c_factories=[reader_writer] * n)
        executor = Executor(system, RoundRobinScheduler(), max_steps=5_000)
        return executor.run()

    benchmark(run)


def test_snapshot_op_cost_grows_with_memory(benchmark):
    def snapper(ctx):
        for i in range(200):
            yield ops.Write(f"arr/{i}", i)
        while True:
            yield ops.Snapshot("arr/")

    def run():
        system = System(inputs=(1,), c_factories=[snapper])
        executor = Executor(system, RoundRobinScheduler(), max_steps=2_000)
        return executor.run()

    benchmark(run)


def test_crash_retirement_throughput(benchmark):
    """Covers the incremental schedulable set under failure patterns:
    crashes retire S-processes via the precomputed crash queue instead
    of a per-step rescan."""
    from repro.core.failures import FailurePattern
    from repro.runtime.scheduler import SeededRandomScheduler

    def run():
        system = System(
            inputs=(1,) * 6,
            c_factories=[reader_writer] * 6,
            pattern=FailurePattern(6, (3, 40, None, 500, None, 900)),
        )
        executor = Executor(
            system, SeededRandomScheduler(7), max_steps=5_000
        )
        return executor.run()

    benchmark(run)


@pytest.mark.parametrize("traced", [False, True])
def test_tracing_overhead(benchmark, traced):
    """Tracing off must not allocate TraceEvents; the gap between the
    two parametrizations is the whole cost of tracing."""

    def run():
        system = System(inputs=(1,) * 4, c_factories=[reader_writer] * 4)
        executor = Executor(
            system, RoundRobinScheduler(), max_steps=5_000, trace=traced
        )
        result = executor.run()
        assert (result.trace is not None) == traced
        return result

    benchmark(run)


def _round_trips(executor, path, rounds):
    """Backtrack the way the explorer does, ``rounds`` times: undo the
    executor's whole ``path`` and step it again over known trie edges.
    Each round trip must come back to the same fingerprint."""
    fingerprint = executor.fingerprint()
    for _ in range(rounds):
        executor.undo_to(0)
        for pid in path:
            executor.step_trusted(pid)
        assert executor.fingerprint() == fingerprint


def test_step_undo_roundtrip(benchmark):
    """Covers the exploration fast path over reads and writes: drive an
    exploring executor mid-run (building each process's history trie),
    then round-trip its path many times over."""

    def run():
        system = System(inputs=(1,) * 4, c_factories=[reader_writer] * 4)
        executor = ExploringExecutor(system)
        path = []
        for _ in range(100):
            pid = executor.schedulable()[0]
            executor.step_trusted(pid)
            path.append(pid)
        _round_trips(executor, path, 20)
        return executor

    benchmark(run)


def test_figure4_step_undo_roundtrip(benchmark):
    """The same round trip over Figure 4 renaming run to completion,
    whose automata snapshot: each known snapshot edge is followed by
    its bucket's digest, without building the snapshot."""
    from repro.algorithms.renaming_figure4 import figure4_factories

    def run():
        system = System(
            inputs=(1, 2, 3, None), c_factories=figure4_factories(4)
        )
        executor = ExploringExecutor(system)
        path = []
        while True:
            candidates = [
                pid for pid in executor.schedulable() if pid.is_computation
            ]
            if not candidates:
                break
            pid = candidates[len(path) % len(candidates)]
            executor.step_trusted(pid)
            path.append(pid)
        assert len(executor.decided_c) == 3
        _round_trips(executor, path, 20)
        return executor

    benchmark(run)
