"""Where a campaign cell's time goes: automaton code, run loop, the rest.

Runs the cells of a perfbench campaign workload (``storm``, or ``sweep``
run interpreted) in this process and times, per cell:

* ``prepare`` — building the system and validating its detector history;
* ``run`` — ``Executor.run`` under the cell's scheduler, untraced;
* ``stub`` — the same run with every automaton replaced by a stub
  generator that yields the operations its process performed, in order
  (recorded from a traced run), and ignores the results.  The schedule,
  every operation and every result are the same, so ``run - stub`` is
  the automata's own local computation and ``stub`` is what the run
  loop and the scheduler cost;
* ``verdict`` — classifying the result.

Each cell is timed ``--repeat`` times, run and stub alternating, and
its median is kept, scaled to perfbench's reference host speed by the
host-speed probes taken while the cell was measured.  Prints per
scheduler kind the cells' total ``run`` time, the automata's share of
it, the stub's microseconds per step and the ``prepare + verdict``
time, then the workload totals.  Run it from the repository root::

    PYTHONPATH=src python scripts/cell_cost_split.py --workload storm
"""

from __future__ import annotations

import argparse
import copy
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.hostspeed import HostMeter, speed  # noqa: E402
from perfbench.workloads import campaign_spec  # noqa: E402
from repro.chaos.campaign import _classify_record, _prepare_cell  # noqa: E402
from repro.chaos.registry import build_scheduler  # noqa: E402
from repro.core.process import c_process, s_process  # noqa: E402
from repro.runtime import Executor, ops  # noqa: E402


def stub(recorded):
    """An automaton that yields ``recorded`` and then idles."""

    def factory(ctx):
        for op in recorded:
            yield op
        while True:  # never performed: the run ends where it did
            yield ops.Nop()

    return factory


def stub_system(system, trace):
    """``system`` with each automaton replaced by a replay of the
    operations its process performed in ``trace``."""
    performed = defaultdict(list)
    for event in trace.events:
        performed[event.pid].append(event.op)
    for pid, recorded in performed.items():
        if pid.is_computation:
            del recorded[0]  # the input write the executor performs
    stubbed = copy.copy(system)
    stubbed.c_factories = [
        stub(performed[c_process(i)]) for i in range(system.n_c)
    ]
    stubbed.s_factories = [
        stub(performed[s_process(i)]) for i in range(system.n_s)
    ]
    stubbed._contexts = {}
    return stubbed


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def measure(cell, repeat):
    times = defaultdict(list)
    for _ in range(repeat):
        t, (task, system, invalid) = timed(lambda: _prepare_cell(cell))
        times["prepare"].append(t)
        assert invalid is None, cell.label()
        t, result = timed(
            lambda: Executor(
                system,
                build_scheduler(cell.scheduler),
                max_steps=cell.max_steps,
            ).run()
        )
        times["run"].append(t)
        t, _ = timed(
            lambda: _classify_record(cell, task, result, strict_traces=False)
        )
        times["verdict"].append(t)
        traced = Executor(
            _prepare_cell(cell)[1],
            build_scheduler(cell.scheduler),
            max_steps=cell.max_steps,
            trace=True,
        ).run()
        replay = stub_system(_prepare_cell(cell)[1], traced.trace)
        t, stubbed = timed(
            lambda: Executor(
                replay,
                build_scheduler(cell.scheduler),
                max_steps=cell.max_steps,
            ).run()
        )
        assert (stubbed.steps, stubbed.reason) == (
            result.steps,
            result.reason,
        ), cell.label()
        times["stub"].append(t)
    return {key: statistics.median(v) for key, v in times.items()}, result.steps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("storm", "sweep"), default="storm")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    by_kind = defaultdict(lambda: defaultdict(float))
    meter = HostMeter()
    try:
        for cell in campaign_spec(args.workload, args.seed).cells():
            meter.take()
            split, steps = measure(cell, args.repeat)
            scale = speed(meter.take())
            row = by_kind[cell.scheduler["kind"]]
            row["steps"] += steps
            row["cells"] += 1
            for key, value in split.items():
                row[key] += value * scale
    finally:
        meter.close()
    total = defaultdict(float)
    print(
        f"{'scheduler':12} {'cells':>5} {'steps':>8} {'run ms':>8} "
        f"{'automata':>8} {'stub us/step':>12} {'rest ms':>8}"
    )
    for kind, row in [*by_kind.items(), ("total", total)]:
        if kind != "total":
            for key, value in row.items():
                total[key] += value
        rest = row["prepare"] + row["verdict"]
        print(
            f"{kind:12} {int(row['cells']):5d} {int(row['steps']):8d} "
            f"{row['run'] * 1e3:8.1f} "
            f"{(row['run'] - row['stub']) / row['run']:8.1%} "
            f"{row['stub'] / row['steps'] * 1e6:12.2f} {rest * 1e3:8.1f}"
        )
    cell_total = total["run"] + total["prepare"] + total["verdict"]
    print(
        f"prepare + verdict: {(total['prepare'] + total['verdict']) / cell_total:.1%}"
        f" of a cell; automata: {(total['run'] - total['stub']) / cell_total:.1%};"
        f" run loop and scheduler (stub): {total['stub'] / cell_total:.1%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
