"""Harness tests: ``python3 -m pytest perfbench`` from the checkout root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from spans import (  # noqa: E402
    Span,
    Tracer,
    digests_agree,
    per_trace_totals,
    percentile,
    report_digest,
    self_times,
    tail,
    tail_percentile,
)


# -- tail percentile selection ------------------------------------------


@pytest.mark.parametrize(
    ("n", "pct"),
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


@pytest.mark.parametrize("n", range(20, 3000, 37))
def test_tail_has_at_least_ten_samples_above_it(n):
    values = [float(i) for i in range(n)]
    value, pct = tail(values)
    assert sum(v > value for v in values) >= 10
    higher = [p for p in (75.0, 90.0, 95.0, 99.0, 99.9) if p > pct]
    if higher:
        assert sum(v > percentile(values, higher[0]) for v in values) < 10


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# -- span arithmetic -----------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    spans = [
        Span(0, "root", 0, None, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 3.0),
        Span(2, "b", 0, 0, 2.0, 5.0),  # overlaps a
        Span(3, "c", 0, 0, 9.0, 12.0),  # runs past the parent's end
        Span(4, "d", 0, 2, 2.5, 3.0),  # grandchild: covered by b only
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert all(value >= 0 for value in own.values())


def test_tracer_nests_spans_and_totals_them_per_request():
    tracer = Tracer()
    with tracer.span("pass", 0) as root:
        for cell in (0, 1, 0):
            with tracer.span("exec", cell):
                pass
    assert [s.parent for s in tracer.spans] == [None, root.id, root.id, root.id]
    totals = per_trace_totals(tracer.spans, "exec")
    assert len(totals) == 2
    assert sum(totals) == pytest.approx(
        sum(s.duration for s in tracer.spans if s.name == "exec")
    )
    assert self_times(tracer.spans)[root.id] >= 0


# -- host speed ----------------------------------------------------------


def test_host_meter_probes_inside_the_window_and_restores_the_handler():
    import signal
    import time

    from hostspeed import HostMeter, speed

    before = signal.getsignal(signal.SIGALRM)
    meter = HostMeter()
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    assert len(meter._probes) >= 3
    probe_s = meter.take()
    meter.close()
    assert probe_s > 0 and speed(probe_s) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert meter.take() > 0  # no probe in the window: one is taken


# -- output checks -------------------------------------------------------


def _small_report():
    from repro.chaos.campaign import CampaignSpec, Workload, run_campaign

    spec = CampaignSpec(
        name="perfbench-test",
        workloads=[
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "omega"},
            )
        ],
        patterns=[[]],
        schedulers=({"kind": "round-robin"},),
        seeds=(0, 1),
        stabilization_times=(0,),
        max_steps=20_000,
    )
    return run_campaign(spec)


def test_digest_check_fails_on_a_perturbed_report():
    report = _small_report()
    reference = report_digest(report)
    assert digests_agree(reference, [report_digest(report)])
    # A record the rendering does not list (an ok cell) still counts.
    report.records[1].steps += 1
    assert not digests_agree(reference, [reference, report_digest(report)])
    assert not digests_agree(reference, [])


def test_counting_history_sees_every_query_of_both_kernels():
    from repro.chaos.registry import build_scheduler
    from repro.kernel.engine import CompiledRun
    from repro.runtime import execute, ops
    from traced import CountingHistory, _prepare

    import workloads

    for cell in list(workloads.storm_spec(0).cells())[::7]:
        for kernel in ("interp", "compiled"):
            task, system, scheduler, invalid = _prepare(cell, Tracer(), 0)
            assert invalid is None
            counter = system.history = CountingHistory(system.history)
            if kernel == "interp":
                result = execute(system, scheduler, max_steps=cell.max_steps, trace=True)
            else:
                result = CompiledRun(
                    system, build_scheduler(cell.scheduler), max_steps=cell.max_steps, trace=True
                ).run()
            queries = sum(isinstance(e.op, ops.QueryFD) for e in result.trace.events)
            assert queries > 0 and counter.queries == queries


# -- the benchmark's declared contract ----------------------------------


def test_benchmark_json_lists_what_the_harness_reports():
    import run
    import traced

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
