"""The traced run: per-layer numbers, timed from outside the program.

Campaign workloads replay their cells through the same public calls
``run_cell`` makes, in the same order (``build_*``, ``check_history``,
``execute`` or, for ``sweep``, lane-wise ``CompiledRun``/``LaneState``
the way ``run_cells_compiled`` drives them, then ``classify_result``),
with a span around each call.  The journal and the fabric's frame codec
are timed by wrapping their entry points for the duration of one
dispatch run; the explorer by timing its candidate-filter and verdict
callbacks.  Untraced and traced passes alternate until ``seconds`` are
used, so the tracing overhead compares like with like, and every
traced report must equal the untraced one.

Layers that a workload does not run report 0.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import workloads
from repro.chaos.campaign import (
    HISTORY_VALIDATION_SLACK,
    OUTCOME_BUDGET,
    OUTCOME_ERROR,
    OUTCOME_INVALID_HISTORY,
    CampaignReport,
    CellRecord,
    classify_result,
    run_campaign,
)
from repro.chaos.registry import (
    build_detector,
    build_pattern,
    build_scheduler,
    build_system,
    build_task,
)
from repro.checker import drop_null_s_processes, task_safety_verdict
from repro.kernel.engine import CompiledRun, LaneState
from repro.kernel.lanes import CHUNK, lane_shape_key
from repro.resilience import fabric as fabric_module
from repro.resilience.journal import CampaignJournal
from repro.resilience.transport import FrameDecoder
from repro.runtime import execute
from spans import Tracer, digests_agree, per_trace_totals, percentile, report_digest, self_times, tail

#: Every per-layer metric, with its unit (``BENCHMARK.json`` lists the
#: same names).
PER_LAYER = {
    "chaos.build_ms.p50": "ms",
    "chaos.build_ms.tail": "ms",
    "chaos.self_frac": "ratio",
    "detectors.check_history_ms.p50": "ms",
    "detectors.check_history_ms.tail": "ms",
    "detectors.queries_per_cell": "count",
    "runtime.execute_ms.p50": "ms",
    "runtime.execute_ms.tail": "ms",
    "runtime.steps_per_s": "steps/s",
    "kernel.compile_s": "s",
    "kernel.execute_ms.p50": "ms",
    "kernel.execute_ms.tail": "ms",
    "kernel.steps_per_s": "steps/s",
    "kernel.fallback_step_frac": "ratio",
    "analysis.verify_ms.p50": "ms",
    "resilience.supervisor.result_bytes.p50": "B",
    "resilience.supervisor.speedup_vs_serial": "ratio",
    "resilience.supervisor.retries": "count",
    "resilience.journal.append_ms.p50": "ms",
    "resilience.journal.append_ms.tail": "ms",
    "resilience.journal.append_ms.tail_pct": "%",
    "resilience.journal.bytes_per_cell": "B",
    "resilience.transport.frame_bytes.p50": "B",
    "resilience.transport.codec_us.p50": "us",
    "resilience.fabric.register_s": "s",
    "resilience.fabric.dispatch_per_result": "ratio",
    "resilience.fabric.lease_expiries": "count",
    "resilience.fabric.duplicates_dropped": "count",
    "resilience.fabric.speedup_vs_serial": "ratio",
    "checker.explored": "count",
    "checker.por_pruned_frac": "ratio",
    "checker.dedup_frac": "ratio",
    "checker.filter_ms": "ms",
    "checker.verdict_ms": "ms",
    "checker.self_s": "s",
    "trace.cell_samples": "count",
    "trace.tail_pct": "%",
    "trace.cells_per_s": "cells/s",
    "trace.nodes_per_s": "nodes/s",
    "trace.overhead_frac": "ratio",
}


class CountingHistory:
    """Stands in for a system's detector history and counts queries:
    every ``QueryFD`` step of either kernel reads ``history.value``
    exactly once."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.queries = 0

    def value(self, index, time):
        self.queries += 1
        return self._inner.value(index, time)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def wrapped(owner, attr: str, on_call):
    """Replace ``owner.attr`` by a wrapper that reports each call's
    arguments, result and start/end times to ``on_call``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        out = original(*args, **kwargs)
        on_call(args, out, start, time.perf_counter())
        return out

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class CellStats:
    def __init__(self) -> None:
        self.steps = 0
        self.fallback_steps = 0
        self.queries = 0
        self.records = 0
        self.failed = 0


def _error(cell, exc: Exception) -> CellRecord:
    return CellRecord(cell, OUTCOME_ERROR, detail=f"{type(exc).__name__}: {exc}")


def _prepare(cell, tracer: Tracer, tid: int):
    """``_prepare_cell`` plus the scheduler, span by span.  Returns
    ``(task, system, scheduler, invalid_record)``."""
    with tracer.span("chaos.build", tid):
        task = build_task(cell.task)
        pattern = build_pattern(cell.pattern, task.n)
        system = build_system(
            task=task,
            algorithm=cell.algorithm,
            detector=build_detector(cell.detector, task.n),
            inputs=cell.inputs,
            pattern=pattern,
            seed=cell.seed,
        )
        scheduler = build_scheduler(cell.scheduler)
    detector = system.detector
    if detector is not None:
        stab = getattr(detector, "stabilization_time", 0)
        with tracer.span("detectors.check_history", tid):
            valid = detector.check_history(
                system.pattern,
                system.history,
                horizon=stab + HISTORY_VALIDATION_SLACK,
                stabilized_from=stab,
            )
        if not valid:
            detail = (
                f"{detector.name} rejected its own (perturbed) history "
                f"at stabilization {stab}"
            )
            return task, system, scheduler, CellRecord(cell, OUTCOME_INVALID_HISTORY, detail=detail)
    return task, system, scheduler, None


def _classify(cell, task, result, tracer: Tracer, tid: int) -> CellRecord:
    with tracer.span("analysis.verify", tid):
        outcome, detail = classify_result(result, task, strict_traces=False)
    if outcome == OUTCOME_BUDGET and result.budget_digest:
        detail = result.budget_digest
    return CellRecord(cell, outcome, detail=detail, steps=result.steps, result=result)


def _count(stats: CellStats, record: CellRecord, result=None, fallback=frozenset()) -> None:
    stats.records += 1
    stats.failed += record.outcome in workloads.FAILED_OUTCOMES
    if result is not None:
        stats.steps += result.steps
        stats.fallback_steps += sum(result.step_counts.get(pid, 0) for pid in fallback)


def replay_interpreted(cells, tracer: Tracer, base: int, stats: CellStats) -> list[CellRecord]:
    """``run_cell`` on every cell, in order, with a span per layer call."""
    records = []
    for i, cell in enumerate(cells):
        tid = base + i
        result = None
        try:
            task, system, scheduler, record = _prepare(cell, tracer, tid)
            if record is None:
                counter = system.history = CountingHistory(system.history)
                with tracer.span("runtime.execute", tid):
                    result = execute(system, scheduler, max_steps=cell.max_steps, trace=True)
                record = _classify(cell, task, result, tracer, tid)
                stats.queries += counter.queries
        except Exception as exc:  # noqa: BLE001 - recorded, as run_cell's caller does
            record = _error(cell, exc)
        _count(stats, record, result)
        records.append(record)
    return records


def replay_lanes(cells, tracer: Tracer, base: int, stats: CellStats) -> list[CellRecord]:
    """``run_cells_compiled`` on every cell: lanes of one shape share a
    ``LaneState`` and advance ``CHUNK`` steps in turn."""
    records: dict[int, CellRecord] = {}
    groups: dict[str, LaneState] = {}
    lanes = []
    for i, cell in enumerate(cells):
        tid = base + i
        try:
            task, system, scheduler, invalid = _prepare(cell, tracer, tid)
            if invalid is not None:
                records[i] = invalid
                _count(stats, invalid)
                continue
            counter = system.history = CountingHistory(system.history)
            state = groups.setdefault(lane_shape_key(cell), LaneState())
            with tracer.span("kernel.execute", tid):
                run = CompiledRun(system, scheduler, max_steps=cell.max_steps, trace=False, lane_state=state)
        except Exception as exc:  # noqa: BLE001 - recorded, as the lanes do
            records[i] = _error(cell, exc)
            _count(stats, records[i])
            continue
        lanes.append((i, cell, task, run, counter))
    while lanes:
        running = []
        for lane in lanes:
            i, cell, task, run, counter = lane
            result = None
            try:
                with tracer.span("kernel.execute", base + i):
                    if run.advance(CHUNK):
                        result = run.result()
                if result is None:
                    running.append(lane)
                    continue
                record = _classify(cell, task, result, tracer, base + i)
                stats.queries += counter.queries
            except Exception as exc:  # noqa: BLE001 - recorded, as the lanes do
                record = _error(cell, exc)
            records[i] = record
            _count(stats, record, result, run.fallback_pids)
        lanes = running
    return [records[i] for i in range(len(cells))]


def _p50_tail(m: dict, prefix: str, seconds: list[float]) -> float:
    """Set ``prefix.p50`` and ``prefix.tail`` in milliseconds; return
    the tail's percentile."""
    value, pct = tail(seconds)
    m[f"{prefix}.p50"] = percentile(seconds, 50.0) * 1e3
    m[f"{prefix}.tail"] = value * 1e3
    return pct


def _rounds(seconds: float, one_round) -> None:
    """Call ``one_round`` at least twice, then while another round
    would end less than half a round past ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds < 2 or (time.perf_counter() - start) + last / 2 < seconds:
        t0 = time.perf_counter()
        one_round(rounds)
        last = time.perf_counter() - t0
        rounds += 1


def _journal_probe(stack: ExitStack, tracer: Tracer) -> list[float]:
    appends: list[float] = []

    def on_append(args, out, start, end):
        appends.append(end - start)
        tracer.add("resilience.journal.append", len(appends), start, end)

    stack.enter_context(wrapped(CampaignJournal, "append_cell", on_append))
    stack.enter_context(wrapped(CampaignJournal, "append_event", on_append))
    return appends


def _transport_probe(stack: ExitStack, tracer: Tracer) -> tuple[list[float], list[float]]:
    """Frame sizes and per-frame codec times at the coordinator: every
    frame it encodes, and every frame its decoders return (a read that
    yields several frames is split evenly between them)."""
    sizes: list[float] = []
    micros: list[float] = []

    def on_encode(args, out, start, end):
        sizes.append(len(out))
        micros.append((end - start) * 1e6)
        tracer.add("resilience.transport.encode_frame", len(sizes), start, end)

    def on_feed(args, out, start, end):
        for _ in out:
            sizes.append(len(args[1]) / len(out))
            micros.append((end - start) * 1e6 / len(out))
        if out:
            tracer.add("resilience.transport.decode", len(sizes), start, end)

    stack.enter_context(wrapped(fabric_module, "encode_frame", on_encode))
    stack.enter_context(wrapped(FrameDecoder, "feed", on_feed))
    return sizes, micros


def _dispatch(workload: str, spec, root: Path, scratch: Path, tracer: Tracer, m: dict):
    """The workload's own dispatch run (pool or fabric), with the
    journal and transport wrapped.  Returns ``(report, wall)``."""
    journal = str(scratch / "journal.jsonl")
    with ExitStack() as stack:
        appends = _journal_probe(stack, tracer)
        if workload == "storm":
            start = time.perf_counter()
            report = run_campaign(spec, workers=workloads.WORKERS, journal=journal)
            wall = time.perf_counter() - start
            m["resilience.supervisor.result_bytes.p50"] = percentile(
                [len(pickle.dumps(r)) for r in report.records], 50.0
            )
            m["resilience.supervisor.retries"] = sum(r.attempts - 1 for r in report.records)
        else:
            sizes, micros = _transport_probe(stack, tracer)
            start = time.perf_counter()
            fabric = workloads.FabricWorkers(root)
            m["resilience.fabric.register_s"] = time.perf_counter() - start
            try:
                start = time.perf_counter()
                report = run_campaign(spec, backend="fabric", fabric=fabric.coordinator, journal=journal)
                wall = time.perf_counter() - start
            finally:
                fabric.close()
            stats = report.fabric
            m["resilience.fabric.dispatch_per_result"] = stats.dispatches / max(1, stats.results)
            m["resilience.fabric.lease_expiries"] = stats.lease_expiries
            m["resilience.fabric.duplicates_dropped"] = stats.duplicates_dropped
            m["resilience.transport.frame_bytes.p50"] = percentile(sizes, 50.0)
            m["resilience.transport.codec_us.p50"] = percentile(micros, 50.0)
    m["resilience.journal.append_ms.tail_pct"] = _p50_tail(m, "resilience.journal.append_ms", appends)
    m["resilience.journal.bytes_per_cell"] = os.path.getsize(journal) / len(report.records)
    return report, wall


def traced_campaign(workload: str, seed: int, seconds: float, root: Path, scratch: Path, tracer: Tracer, m: dict, problems: list) -> CellStats:
    spec = workloads.campaign_spec(workload, seed)
    cells = list(spec.cells())
    compiled = workload == "sweep"
    digests: dict[str, str] = {}
    dispatch_wall = None
    if compiled:
        from repro.kernel import clear_cache

        clear_cache()
        start = time.perf_counter()
        workloads.warm_kernel(spec)
        m["kernel.compile_s"] = time.perf_counter() - start
    else:
        report, dispatch_wall = _dispatch(workload, spec, root, scratch, tracer, m)
        digests[workload] = report_digest(report)
        del report

    stats = CellStats()
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    replay = replay_lanes if compiled else replay_interpreted

    def one_round(n: int) -> None:
        start = time.perf_counter()
        report = run_campaign(spec, kernel="compiled" if compiled else "interp")
        untraced_walls.append(time.perf_counter() - start)
        digests.setdefault("untraced", report_digest(report))
        del report
        with tracer.span("chaos.campaign", n) as root_span:
            records = replay(cells, tracer, n * len(cells), stats)
        traced_walls.append(root_span.duration)
        digest = report_digest(CampaignReport(spec.name, records))
        if digests.setdefault("traced", digest) != digest:
            problems.append(f"traced pass {n} report differs from traced pass 0")

    _rounds(seconds, one_round)
    if not digests_agree(digests["untraced"], list(digests.values())):
        problems.append(f"report digests disagree across runs: {digests}")

    spans = tracer.spans
    layer = "kernel" if compiled else "runtime"
    execute_s = per_trace_totals(spans, f"{layer}.execute")
    build_s = per_trace_totals(spans, "chaos.build")
    m["trace.tail_pct"] = _p50_tail(m, "chaos.build_ms", build_s)
    m["trace.cell_samples"] = len(build_s)
    _p50_tail(m, "detectors.check_history_ms", per_trace_totals(spans, "detectors.check_history"))
    _p50_tail(m, f"{layer}.execute_ms", execute_s)
    m[f"{layer}.steps_per_s"] = stats.steps / sum(execute_s)
    if compiled:
        m["kernel.fallback_step_frac"] = stats.fallback_steps / stats.steps
    m["analysis.verify_ms.p50"] = percentile(per_trace_totals(spans, "analysis.verify"), 50.0) * 1e3
    m["detectors.queries_per_cell"] = stats.queries / stats.records
    own = self_times(spans)
    roots = [s for s in spans if s.name == "chaos.campaign"]
    m["chaos.self_frac"] = sum(own[s.id] for s in roots) / sum(s.duration for s in roots)

    serial = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    if dispatch_wall is not None:
        kind = "supervisor" if workload == "storm" else "fabric"
        m[f"resilience.{kind}.speedup_vs_serial"] = serial / dispatch_wall
    m["trace.cells_per_s"] = len(cells) / traced
    m["trace.nodes_per_s"] = stats.steps / len(traced_walls) / traced
    m["trace.overhead_frac"] = traced / serial - 1.0
    return stats


def traced_explore(seed: int, seconds: float, tracer: Tracer, m: dict, problems: list) -> CellStats:
    task, build = workloads.explore_problem(seed)
    untraced_walls: list[float] = []
    passes: list[tuple[float, float, float]] = []  # wall, filter, verdict
    counters: list[dict] = []

    def one_round(n: int) -> None:
        explorer = workloads.make_explorer(build)
        start = time.perf_counter()
        report = explorer.check(task_safety_verdict(task))
        untraced_walls.append(time.perf_counter() - start)
        counters.append(workloads.exploration_counters(report))

        spent = [0.0, 0.0]
        verdict = task_safety_verdict(task)

        def timed_filter(executor, candidates):
            t0 = time.perf_counter()
            out = drop_null_s_processes(executor, candidates)
            spent[0] += time.perf_counter() - t0
            return out

        def timed_verdict(executor):
            t0 = time.perf_counter()
            out = verdict(executor)
            spent[1] += time.perf_counter() - t0
            return out

        explorer = workloads.make_explorer(build, timed_filter)
        with tracer.span("checker.check", n) as root_span:
            report = explorer.check(timed_verdict)
        passes.append((root_span.duration, spent[0], spent[1]))
        counters.append(workloads.exploration_counters(report))

    _rounds(seconds, one_round)
    if any(c != workloads.EXPLORE_EXPECTED for c in counters):
        problems.append(f"exploration counters differ from the recorded ones: {counters}")
    if any(wall - f - v < 0 for wall, f, v in passes):
        problems.append("explorer self time is negative")
    expected = workloads.EXPLORE_EXPECTED
    candidates = expected["explored"] + expected["deduplicated"] + expected["por_pruned"]
    traced = statistics.median(p[0] for p in passes)
    m["checker.explored"] = expected["explored"]
    m["checker.por_pruned_frac"] = expected["por_pruned"] / candidates
    m["checker.dedup_frac"] = expected["deduplicated"] / candidates
    m["checker.filter_ms"] = statistics.median(p[1] for p in passes) * 1e3
    m["checker.verdict_ms"] = statistics.median(p[2] for p in passes) * 1e3
    m["checker.self_s"] = statistics.median(p[0] - p[1] - p[2] for p in passes)
    m["trace.cells_per_s"] = 1.0 / traced
    m["trace.nodes_per_s"] = expected["explored"] / traced
    m["trace.overhead_frac"] = traced / statistics.median(untraced_walls) - 1.0
    stats = CellStats()
    stats.records = len(passes)
    return stats


def run(workload: str, seed: int, seconds: float, root: Path, scratch: Path) -> dict:
    tracer = Tracer()
    m = dict.fromkeys(PER_LAYER, 0.0)
    problems: list[str] = []
    if workload == "explore":
        stats = traced_explore(seed, seconds, tracer, m, problems)
    else:
        stats = traced_campaign(workload, seed, seconds, root, scratch, tracer, m, problems)
    if any(value < 0 for value in self_times(tracer.spans).values()):
        problems.append("a span's self time is negative")
    if stats.failed:
        problems.append(f"{stats.failed} traced cells ended in error, invalid history or quarantine")
    tracer.dump(str(root / ".perfbench" / f"spans-{workload}-{seed}.jsonl"))
    return {
        "problems": problems,
        "attempted": stats.records,
        "failed": stats.failed,
        "metrics": {name: [m[name], unit] for name, unit in PER_LAYER.items()},
    }
