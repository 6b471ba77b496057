"""Campaign runner: sweep the fault cross-product, triage every cell.

A :class:`CampaignSpec` declares axes — workloads (task + detector +
algorithm), failure patterns (explicit or injector-derived), schedulers,
detector seeds, and stabilization times — and :func:`run_campaign`
executes their cross-product.  Each cell's detector history is
validated against the ``check_history`` oracle *before* the run, and
the outcome is classified; a failing cell is recorded and the campaign
continues, so one bad interleaving never hides the rest of the space.
A campaign record is its verdict: cells run traced only when strict
trace rules will read the trace, and records never carry the run
itself (:func:`run_cell` is the single-cell API that does).

Fan-out goes through the resilience layer
(:mod:`repro.resilience.supervisor`): workers run under per-cell
wall-clock/RSS budgets, a crashed worker costs only its in-flight cell
(retried with deterministic backoff, quarantined after the retry budget
with a triaged outcome — ``timeout`` / ``oom`` / ``worker_crash`` /
``flaky``), and progress can be journaled append-only so an interrupted
campaign resumes exactly (`run_campaign(resume=...)`).  Because every
cell is fully determined by its spec, a resumed, retried, or parallel
campaign renders a report byte-identical to an uninterrupted serial one.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..analysis.verify import verify_run
from ..core.history import QueryLog, answers_agree
from ..core.run import RunResult
from ..errors import (
    CampaignInterrupted,
    LivenessViolation,
    ResilienceError,
    SafetyViolation,
    TraceHazard,
)
from ..resilience import (
    CampaignJournal,
    CellBudget,
    JobResult,
    RetryPolicy,
    SupervisedPool,
    campaign_fingerprint,
    recover_control_state,
    scan_journal,
)
from ..runtime import execute
from ..runtime.scheduler import Scheduler
from .injectors import storm_suite
from .registry import (
    build_detector,
    build_pattern,
    build_scheduler,
    build_system,
    build_task,
)

OUTCOME_OK = "ok"
OUTCOME_SAFETY = "safety_violation"
OUTCOME_HAZARD = "trace_hazard"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_DEADLOCK = "deadlock"
OUTCOME_SCHEDULE = "schedule_exhausted"
OUTCOME_INVALID_HISTORY = "invalid_history"
OUTCOME_ERROR = "error"
#: Quarantine outcomes: the *cell run* never finished — its worker was
#: stopped by a budget watchdog or died — and retries were exhausted.
OUTCOME_TIMEOUT = "timeout"
OUTCOME_OOM = "oom"
OUTCOME_WORKER_CRASH = "worker_crash"
OUTCOME_FLAKY = "flaky"
#: Fabric quarantine: the cell was leased out past the redispatch
#: budget without any worker ever delivering a result (one-way
#: partition, blackholed workers) — lost coverage, surfaced instead of
#: hanging the campaign.
OUTCOME_PARTITION = "partition"

QUARANTINE_OUTCOMES = frozenset(
    {
        OUTCOME_TIMEOUT,
        OUTCOME_OOM,
        OUTCOME_WORKER_CRASH,
        OUTCOME_FLAKY,
        OUTCOME_PARTITION,
    }
)

#: ``run_campaign`` dispatch backends (see its docstring).
BACKENDS = ("auto", "inproc", "pool", "fabric")

#: ``run_campaign`` execution kernels: the interpreted executor, or the
#: compiled kernel (:mod:`repro.kernel`) with per-automaton fallback.
KERNELS = ("interp", "compiled")

#: Extra times past stabilization over which histories are validated.
HISTORY_VALIDATION_SLACK = 16

#: The verdict key under which a campaign job returns its run's
#: :class:`~repro.core.history.QueryLog` for its later siblings;
#: :meth:`CellRecord.from_verdict` ignores it, so journals never hold it.
QUERIES = "queries"

#: Characters of query logs one family's jobs, or one result, carry at
#: most, so that fabric frames stay far below the transport's bound.
FAMILY_LOG_CHARS = 1 << 20


@dataclass(frozen=True)
class CellSpec:
    """One fully-determined point of a campaign: a replayable run.

    Every field is JSON-serializable (see :meth:`to_json`), which is
    what makes shrunk cells portable as repro bundles.
    """

    task: Mapping[str, Any]
    detector: Mapping[str, Any]
    algorithm: str = "auto"
    pattern: tuple = ()
    scheduler: Mapping[str, Any] = field(
        default_factory=lambda: {"kind": "seeded", "seed": 0}
    )
    seed: int = 0
    inputs: tuple | None = None
    max_steps: int = 120_000

    def to_json(self) -> dict[str, Any]:
        return {
            "task": dict(self.task),
            "detector": dict(self.detector),
            "algorithm": self.algorithm,
            "pattern": list(self.pattern),
            "scheduler": dict(self.scheduler),
            "seed": self.seed,
            "inputs": None if self.inputs is None else list(self.inputs),
            "max_steps": self.max_steps,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "CellSpec":
        return cls(
            task=dict(data["task"]),
            detector=dict(data["detector"]),
            algorithm=data.get("algorithm", "auto"),
            pattern=tuple(data.get("pattern") or ()),
            scheduler=dict(
                data.get("scheduler") or {"kind": "seeded", "seed": 0}
            ),
            seed=int(data.get("seed", 0)),
            inputs=(
                None
                if data.get("inputs") is None
                else tuple(data["inputs"])
            ),
            max_steps=int(data.get("max_steps", 120_000)),
        )

    def label(self) -> str:
        det = self.detector.get("family", "none")
        stab = self.detector.get("stabilization_time", 0)
        crashes = sum(1 for t in self.pattern if t is not None)
        return (
            f"{self.task.get('family')}(n={self.task.get('n')})"
            f"/{self.algorithm}/{det}@{stab}"
            f"/crashes={crashes}/{self.scheduler.get('kind')}"
            f"/seed={self.seed}"
        )


@dataclass
class CellRecord:
    """Triage result of one executed cell.

    ``attempts`` counts executions including supervised retries; it is
    deliberately absent from :meth:`format_row` so that a cell that was
    lost to a worker crash and re-run renders identically to one that
    succeeded first try (retried runs are deterministic re-executions).
    ``result`` is filled only by :func:`run_cell`, the single-cell
    diagnostic API (shrink, bundle, replay).  Every campaign record is
    its verdict alone, whichever route ran the cell.
    :meth:`verdict` and :meth:`from_verdict` are the only codec of that
    verdict: the pool pipe, the fabric's result frames and the
    journal's cell lines all carry the mapping :meth:`verdict` returns.
    """

    cell: CellSpec
    outcome: str
    detail: str = ""
    steps: int = 0
    result: RunResult | None = None
    attempts: int = 1

    def format_row(self) -> str:
        return f"{self.outcome:18} {self.steps:>7}  {self.cell.label()}"

    def verdict(self) -> dict[str, Any]:
        """The outcome, detail, steps and attempts, in the key order of
        the journal's cell lines."""
        return {
            "outcome": self.outcome,
            "detail": self.detail,
            "steps": self.steps,
            "attempts": self.attempts,
        }

    @classmethod
    def from_verdict(
        cls, cell: CellSpec, verdict: Mapping[str, Any]
    ) -> "CellRecord":
        """Read back a :meth:`verdict` mapping (other keys, such as a
        result frame's ``type`` and ``index``, are ignored)."""
        return cls(
            cell,
            str(verdict.get("outcome", OUTCOME_ERROR)),
            detail=str(verdict.get("detail", "")),
            steps=int(verdict.get("steps", 0)),
            attempts=int(verdict.get("attempts", 1)),
        )


@dataclass
class CampaignReport:
    """Structured outcome of a whole campaign.

    ``fabric`` carries the coordinator's
    :class:`~repro.resilience.fabric.FabricStats` when the run used the
    fabric backend — the evidence of absorbed faults lives there
    because, by design, it must not be visible in the rendered report.
    """

    name: str
    records: list[CellRecord]
    fabric: Any = None

    @property
    def counts(self) -> Counter:
        return Counter(record.outcome for record in self.records)

    @property
    def violations(self) -> list[CellRecord]:
        return [r for r in self.records if r.outcome == OUTCOME_SAFETY]

    @property
    def quarantined(self) -> list[CellRecord]:
        """Cells whose run never finished (budget kill / worker crash)
        and whose retries were exhausted — lost coverage, not verdicts."""
        return [
            r for r in self.records if r.outcome in QUARANTINE_OUTCOMES
        ]

    @property
    def ok(self) -> bool:
        """No safety violations, no engine errors, no invalid histories."""
        bad = {OUTCOME_SAFETY, OUTCOME_ERROR, OUTCOME_INVALID_HISTORY}
        return not any(r.outcome in bad for r in self.records)

    @property
    def complete(self) -> bool:
        """Every cell actually produced a verdict (nothing quarantined)."""
        return not self.quarantined

    def render(self) -> str:
        from ..analysis.reporting import format_campaign

        return format_campaign(self)


@dataclass(frozen=True)
class Workload:
    """A (task, detector family, algorithm) triple to sweep."""

    task: Mapping[str, Any]
    detector: Mapping[str, Any]
    algorithm: str = "auto"


@dataclass
class CampaignSpec:
    """Declarative cross-product of fault axes.

    Attributes:
        name: campaign identifier (shows up in reports and bundles).
        workloads: the (task, detector, algorithm) triples to stress.
        patterns: either explicit crash-time tuples or an int, in which
            case that many patterns are derived per workload via
            :func:`~repro.chaos.injectors.storm_suite`.
        schedulers: scheduler specs (see the registry's kinds).
        seeds: detector-history seeds.
        stabilization_times: swept onto each workload's detector spec.
        max_steps: per-cell liveness budget.
        pattern_seed: determinism seed for derived patterns.
        strict_traces: also classify trace hazards (lint trace rules).
    """

    name: str
    workloads: Sequence[Workload]
    patterns: Sequence[Sequence[int | None]] | int = 4
    schedulers: Sequence[Mapping[str, Any]] = (
        {"kind": "round-robin"},
        {"kind": "seeded", "seed": 1},
    )
    seeds: Sequence[int] = (0, 1)
    stabilization_times: Sequence[int] = (0, 10)
    max_steps: int = 120_000
    pattern_seed: int = 0
    strict_traces: bool = False

    def _patterns_for(self, n: int) -> list[tuple]:
        if isinstance(self.patterns, int):
            return [
                tuple(p.crash_times)
                for p in storm_suite(
                    n, count=self.patterns, seed=self.pattern_seed
                )
            ]
        return [tuple(p) for p in self.patterns]

    def cells(self) -> Iterator[CellSpec]:
        for workload in self.workloads:
            n = int(workload.task.get("n", 3))
            for pattern, scheduler, seed, stab in itertools.product(
                self._patterns_for(n),
                self.schedulers,
                self.seeds,
                self.stabilization_times,
            ):
                detector = dict(workload.detector)
                if detector.get("family") not in (None, "none", "trivial",
                                                  "perfect"):
                    detector["stabilization_time"] = stab
                elif stab != self.stabilization_times[0]:
                    continue  # nothing to sweep for this detector
                yield CellSpec(
                    task=dict(workload.task),
                    detector=detector,
                    algorithm=workload.algorithm,
                    pattern=pattern,
                    scheduler=dict(scheduler),
                    seed=seed,
                    max_steps=self.max_steps,
                )


def classify_result(
    result: RunResult, task, *, strict_traces: bool = False
) -> tuple[str, str]:
    """Map a finished run to (outcome, human detail)."""
    try:
        verify_run(result, task, strict=strict_traces)
        return OUTCOME_OK, ""
    except LivenessViolation as exc:
        by_reason = {
            "budget": OUTCOME_BUDGET,
            "halted": OUTCOME_DEADLOCK,
            "schedule_exhausted": OUTCOME_SCHEDULE,
        }
        return by_reason.get(result.reason, OUTCOME_DEADLOCK), str(exc)
    except SafetyViolation as exc:
        return OUTCOME_SAFETY, str(exc)
    except TraceHazard as exc:
        return OUTCOME_HAZARD, str(exc)


def _prepare_cell(
    cell: CellSpec,
) -> tuple[Any, Any, CellRecord | None]:
    """Build a cell's (task, system) and validate its detector history.

    Returns ``(task, system, invalid_record)`` where ``invalid_record``
    is the ready-made :class:`CellRecord` when history validation
    failed (the run must not happen).  The cell body
    :func:`_run_cell_body` calls it before either kernel runs, so both
    kernels see literally the same systems.
    """
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
    # Validate the history the run will actually see (the solver may
    # substitute an equivalent-strength detector form).
    detector = system.detector
    if detector is not None:
        stab = getattr(detector, "stabilization_time", 0)
        if not detector.check_history(
            system.pattern,
            system.history,
            horizon=stab + HISTORY_VALIDATION_SLACK,
            stabilized_from=stab,
        ):
            return task, system, CellRecord(
                cell,
                OUTCOME_INVALID_HISTORY,
                detail=(
                    f"{detector.name} rejected its own (perturbed) "
                    f"history at stabilization {stab}"
                ),
            )
    return task, system, None


def _classify_record(
    cell: CellSpec,
    task: Any,
    result: RunResult,
    *,
    strict_traces: bool,
) -> CellRecord:
    """Map one finished run onto its verdict-only :class:`CellRecord`
    (shared by both kernels so records render identically)."""
    outcome, detail = classify_result(
        result, task, strict_traces=strict_traces
    )
    if outcome == OUTCOME_BUDGET and result.budget_digest:
        detail = result.budget_digest
    return CellRecord(cell, outcome, detail=detail, steps=result.steps)


def _run_cell_body(
    cell: CellSpec,
    *,
    scheduler: Scheduler | None,
    strict_traces: bool,
    kernel: str,
    trace: bool,
    seen: Sequence[Sequence[Any]] = (),
    log: bool = False,
) -> tuple[CellRecord, RunResult | None, str | None]:
    """The one cell body behind :func:`run_cell` and the campaign job
    function :func:`_run_cell_guarded`: build, validate the history,
    run, classify.

    ``seen`` holds ``(query log, outcome, detail, steps)`` of finished
    runs of the cell's family siblings.  After validation, the cell
    takes the verdict of the first sibling whose logged queries its own
    history answers alike, since its run would be that sibling's run
    step for step.  With ``log`` the run logs its queries.  Returns the
    verdict-only record, the run's result (``None`` when no run
    happened) and the encoded query log (``None`` unless logged, or
    when longer than :data:`FAMILY_LOG_CHARS`)."""
    if kernel not in KERNELS:
        raise ResilienceError(f"unknown kernel: {kernel!r}")
    task, system, invalid = _prepare_cell(cell)
    if invalid is not None:
        return invalid, None, None
    for queries, outcome, detail, steps in seen:
        if answers_agree(system.history, queries):
            record = CellRecord(cell, outcome, detail=detail, steps=steps)
            return record, None, None
    if log:
        system.history = queried = QueryLog(system.history)
    if kernel == "compiled":
        from ..kernel import execute_compiled as _execute

        runner = _execute
    else:
        runner = execute
    result = runner(
        system,
        scheduler if scheduler is not None
        else build_scheduler(cell.scheduler),
        max_steps=cell.max_steps,
        trace=trace,
    )
    record = _classify_record(
        cell, task, result, strict_traces=strict_traces
    )
    return record, result, queried.encode(FAMILY_LOG_CHARS) if log else None


def run_cell(
    cell: CellSpec,
    *,
    scheduler: Scheduler | None = None,
    strict_traces: bool = False,
    kernel: str = "interp",
) -> CellRecord:
    """Execute one cell: build, validate the history, run, classify.

    The single-cell diagnostic API (shrink, bundle, replay): the run is
    always traced and its :class:`RunResult` is attached as
    ``record.result``.  Campaigns run the same cell body but keep only
    the verdict, and may take a family sibling's verdict instead of
    running; ``run_cell`` always runs its cell.

    ``scheduler`` overrides the cell's declared scheduler (the shrinker
    uses this to substitute recording and explicit schedulers).
    ``kernel="compiled"`` runs through the compiled kernel
    (:func:`repro.kernel.execute_compiled`), which falls back
    per-automaton to the interpreter and produces byte-identical
    records.
    """
    record, result, _ = _run_cell_body(
        cell,
        scheduler=scheduler,
        strict_traces=strict_traces,
        kernel=kernel,
        trace=True,
    )
    record.result = result
    return record


def _run_cell_guarded(
    job: tuple[CellSpec, bool, str, list | None, bool],
) -> dict[str, Any]:
    """The campaign job function — module-level, so picklable — shared
    by serial in-process runs, :class:`~repro.resilience.SupervisedPool`
    workers, and fabric workers.  ``job`` is ``(cell, strict_traces,
    kernel, seen, log)``: ``seen`` is what the cell's finished family
    siblings observed (see :func:`_run_cell_body`; ``None`` for a cell
    with no sibling), and ``log`` is true when a later sibling may take
    this cell's verdict.

    The cell runs traced only when ``strict_traces`` makes
    classification read the trace, and the job returns the cell's
    :meth:`CellRecord.verdict`, plus the run's query log under
    :data:`QUERIES` when it logged one: a worker sends back neither
    the run nor the cell spec.  A cell that matches a sibling's log
    returns that sibling's outcome, detail and steps without running.
    A raising cell degrades to an ``"error"`` verdict instead of
    aborting the sweep.
    """
    cell, strict_traces, kernel, seen, log = job
    queries = None
    try:
        record, _, queries = _run_cell_body(
            cell,
            scheduler=None,
            strict_traces=strict_traces,
            kernel=kernel,
            trace=strict_traces,
            seen=seen or (),
            log=log,
        )
    except Exception as exc:  # noqa: BLE001 - triage, don't abort
        record = CellRecord(
            cell, OUTCOME_ERROR, detail=f"{type(exc).__name__}: {exc}"
        )
    verdict = record.verdict()
    if queries is not None:
        verdict[QUERIES] = queries
    return verdict


def _family_key(cell: CellSpec) -> str:
    """Cells with one key differ at most in ``detector
    ["stabilization_time"]``: a stabilization family."""
    data = cell.to_json()
    data["detector"].pop("stabilization_time", None)
    return repr(data)


def _verdict_from_job(job: JobResult) -> dict[str, Any]:
    """Map a supervised :class:`~repro.resilience.JobResult` onto a
    verdict mapping (quarantined jobs become triaged outcomes)."""
    if job.ok:
        return {**job.value, "attempts": job.attempts}
    if job.kind == "task_error":
        return {
            "outcome": OUTCOME_ERROR,
            "detail": job.detail,
            "attempts": job.attempts,
        }
    detail = job.detail
    if job.failures:
        detail = "; ".join(
            f"attempt {i + 1}: {failure.kind}"
            for i, failure in enumerate(job.failures)
        ) + f" — {job.detail}"
    return {"outcome": job.kind, "detail": detail, "attempts": job.attempts}


def run_campaign(
    spec: CampaignSpec,
    *,
    limit: int | None = None,
    on_cell: Callable[[CellRecord], None] | None = None,
    workers: int = 1,
    budget: CellBudget | None = None,
    retry: RetryPolicy | None = None,
    journal: str | None = None,
    resume: str | None = None,
    backend: str = "auto",
    kernel: str = "interp",
    fabric: Any = None,
    inject_worker_kill: int | None = None,
) -> CampaignReport:
    """Run (up to ``limit`` cells of) a campaign to a structured report.

    Degrades gracefully at every level: a cell that *raises* is recorded
    with outcome ``"error"``; a cell whose worker *dies* (crash, budget
    kill) is retried with deterministic backoff and, after the retry
    budget, recorded with a quarantine outcome (``timeout`` / ``oom`` /
    ``worker_crash`` / ``flaky``) — the sweep always continues.

    Every route runs each cell through one job function,
    :func:`_run_cell_guarded`, whose result is the cell's
    :meth:`CellRecord.verdict`: records carry the outcome, detail,
    steps and attempts only (``record.result`` is ``None``).  Cells run
    traced only when ``spec.strict_traces`` makes classification read
    the trace; use :func:`run_cell` for a cell's traced
    :class:`RunResult`.

    ``backend`` is resolved to a route once:

    * ``"auto"`` (default) is ``"pool"`` when ``workers`` > 1 or when
      ``budget`` or ``inject_worker_kill`` needs a worker to enforce
      it, and ``"inproc"`` otherwise;
    * ``"inproc"`` runs the cells one after another in this process;
    * ``"pool"`` runs them on a :class:`~repro.resilience.SupervisedPool`
      of ``workers`` processes;
    * ``"fabric"`` first leases them to socket-connected workers through
      a :class:`~repro.resilience.fabric.FabricCoordinator`
      (lease-based at-least-once dispatch, idempotent result dedup).
      What the fabric leaves undone — every cell when no worker
      registers, the rest when every worker leaves past the degrade
      window — goes to the same supervised pool as ``"pool"``, and
      ``report.fabric.degraded`` records that it happened.

    Every route hands each finished cell to one sink, which journals it
    and delivers records to ``on_cell`` in cell order.  Cells are fully
    determined by their spec (every source of randomness is an explicit
    per-cell seed), so the report, :meth:`CampaignReport.render`
    included, and the journal's cell lines are byte-identical whichever
    route ran, retried or resumed the cells.

    Each distinct run runs once.  Cells whose specs differ only in
    ``detector["stabilization_time"]`` form a stabilization family:
    they build the same automata, inputs, pattern, scheduler and
    detector seed, and a run learns the history only through its
    queries.  A member that has a later sibling logs every query its
    run makes, and a later member whose own (validated) history
    answers all of a finished sibling's logged queries alike takes
    that sibling's outcome, detail and steps without running (see
    :func:`_run_cell_body`).  The logs travel in the jobs and verdicts
    of every route but never in the journal, so a resume runs the
    members it still needs.  The pool and the fabric dispatch every
    family's first member before any second member; inproc keeps cell
    order.

    ``budget`` arms per-cell wall-clock/RSS watchdogs inside the pool
    workers; ``inject_worker_kill`` is the fault drill that SIGKILLs the
    worker running that cell index on its first attempt.  Only pool
    workers enforce either, so ``"inproc"`` and ``"fabric"`` refuse both
    with :class:`~repro.errors.ResilienceError` rather than run the
    cells unguarded.  ``journal`` appends every completed cell to a
    JSONL file the moment it finishes; ``resume`` replays such a
    journal and runs only the missing cells (the journal is
    fingerprint-pinned to the exact enumerated campaign).
    SIGINT/SIGTERM during a run raises
    :class:`~repro.errors.CampaignInterrupted` after workers are stopped
    and the journal is flushed.

    On the fabric route, ``fabric`` is a :class:`~repro.resilience.
    fabric.FabricConfig`, ``None`` for loopback defaults, or a
    coordinator the caller has bound (to learn its address first).
    ``run_campaign`` owns the coordinator either way and closes it on
    every exit, refusals and interrupts included.  The coordinator runs
    even when a resumed journal leaves no cell to lease, so
    ``report.fabric`` (its :class:`~repro.resilience.fabric.FabricStats`)
    always records the resume.  With
    ``journal`` the coordinator logs its control-plane events too (lease
    grants and expiries, bench decisions), and ``resume`` restarts a
    SIGKILLed coordinator in recovery mode: journaled cells are never
    redispatched, workers holding valid leases are re-admitted on
    reconnect, and spooled worker results are replayed idempotently.
    Other routes ignore ``fabric``.

    ``kernel`` selects the execution kernel per cell: ``"interp"``
    (default) or ``"compiled"`` (:mod:`repro.kernel`: compiled step
    functions with per-automaton interpreter fallback, proven
    byte-identical by the kernel differential harness).  It travels in
    each job; the fabric refuses ``"compiled"``, because its workers
    run the interpreter.
    """
    route = backend
    if backend == "auto":
        guarded = budget is not None or inject_worker_kill is not None
        route = "pool" if workers > 1 or guarded else "inproc"
    coordinator = None
    journal_writer: CampaignJournal | None = None
    try:
        if route == "fabric":
            from ..resilience.fabric import FabricConfig, FabricCoordinator

            if isinstance(fabric, FabricCoordinator):
                coordinator = fabric
            elif isinstance(fabric, FabricConfig) or fabric is None:
                coordinator = FabricCoordinator(fabric)
            else:
                raise ResilienceError(
                    f"fabric must be a FabricCoordinator or FabricConfig, "
                    f"got {type(fabric).__name__}"
                )
        if backend not in BACKENDS:
            raise ResilienceError(f"unknown backend: {backend!r}")
        if kernel not in KERNELS:
            raise ResilienceError(f"unknown kernel: {kernel!r}")
        if kernel != "interp" and route == "fabric":
            raise ResilienceError(
                "backend='fabric' does not support kernel="
                f"{kernel!r}: fabric workers negotiate cell JSON only"
            )
        if route in ("inproc", "fabric"):
            for knob, value in (
                ("budget", budget),
                ("inject_worker_kill", inject_worker_kill),
            ):
                if value is not None:
                    raise ResilienceError(
                        f"backend={backend!r} does not support {knob}: "
                        f"only supervised pool workers enforce it"
                    )
        cell_iter = spec.cells()
        if limit is not None:
            cell_iter = itertools.islice(cell_iter, limit)
        cells = list(cell_iter)
        fingerprint = campaign_fingerprint(
            spec.name, cells, spec.strict_traces
        )

        records: dict[int, CellRecord] = {}
        journal_path: str | None = None
        recovered = None
        if resume is not None:
            scan = scan_journal(resume)
            if scan.header.get("fingerprint") != fingerprint:
                raise ResilienceError(
                    f"{resume}: journal fingerprint does not match this "
                    f"campaign (different spec, seed, or --cells limit)"
                )
            for index, line in scan.cells.items():
                if 0 <= index < len(cells):
                    records[index] = CellRecord.from_verdict(
                        cells[index], line
                    )
            if route == "fabric":
                # Coordinator crash recovery: rebuild the lease table
                # and suspicion state from the journal's control-plane
                # events so still-computing workers can reconnect and
                # be re-admitted instead of having their cells
                # redispatched.
                recovered = recover_control_state(scan)
            journal_path = str(resume)
            journal_writer = CampaignJournal(resume).reopen()
        elif journal is not None:
            journal_path = str(journal)
            journal_writer = CampaignJournal(journal).open(
                {
                    "campaign": spec.name,
                    "fingerprint": fingerprint,
                    "cells": len(cells),
                }
            )

        emitted = 0

        def emit_ready() -> None:
            """Deliver records to ``on_cell`` in cell order, as available."""
            nonlocal emitted
            while emitted < len(cells) and emitted in records:
                if on_cell is not None:
                    on_cell(records[emitted])
                emitted += 1

        # Stabilization families among the cells still to run: every
        # member but the last logs its queries for its later siblings.
        # The pool and the fabric dispatch every family's first member
        # before any family's second member; inproc keeps cell order.
        families: dict[str, list[int]] = {}
        for index in range(len(cells)):
            if index not in records:
                key = _family_key(cells[index])
                families.setdefault(key, []).append(index)
        jobs: dict[int, tuple] = {}
        order: list[tuple[int, int]] = []
        for members in families.values():
            seen = [] if len(members) > 1 else None
            for rank, index in enumerate(members):
                logs = index != members[-1]
                jobs[index] = (
                    cells[index], spec.strict_traces, kernel, seen, logs
                )
                order.append((0 if route == "inproc" else rank, index))
        remaining = [(index, jobs[index]) for _, index in sorted(order)]

        def record(index: int, verdict: Mapping[str, Any]) -> None:
            """The one sink of every route: keep, journal, emit.  A
            logged run's queries go to its later siblings' jobs."""
            cell_record = records[index] = CellRecord.from_verdict(
                cells[index], verdict
            )
            queries = verdict.get(QUERIES)
            seen = jobs[index][3]
            if queries is not None and seen is not None:
                logged = sum(len(entry[0]) for entry in seen)
                if logged + len(queries) <= FAMILY_LOG_CHARS:
                    seen.append(
                        (
                            queries,
                            cell_record.outcome,
                            cell_record.detail,
                            cell_record.steps,
                        )
                    )
            if journal_writer is not None:
                journal_writer.append_cell(
                    index, cell_record.verdict(), cell_record.cell.to_json()
                )
            emit_ready()

        try:
            emit_ready()  # journal-replayed prefix first, in order
            if coordinator is not None:
                leases = []
                for index, (cell, _, _, seen, log) in remaining:
                    payload = cell.to_json()
                    if seen is not None:
                        # The live list: each lease frame encodes what
                        # the siblings had logged when it is sent.
                        payload.update(seen=seen, log=log)
                    leases.append((index, payload))
                leftover = coordinator.run(
                    leases,
                    record,
                    campaign=spec.name,
                    fingerprint=fingerprint,
                    strict_traces=spec.strict_traces,
                    journal=journal_writer,
                    recovered=recovered,
                )
                remaining = [job for job in remaining if job[0] in leftover]
            if route == "inproc":
                for index, job in remaining:
                    record(index, _run_cell_guarded(job))
            elif remaining:
                SupervisedPool(
                    _run_cell_guarded,
                    workers=max(1, workers),
                    budget=budget,
                    retry=retry,
                    kill_job_index=inject_worker_kill,
                ).run(
                    remaining,
                    on_result=lambda job: record(
                        job.index, _verdict_from_job(job)
                    ),
                )
        except KeyboardInterrupt:
            raise CampaignInterrupted(
                f"campaign '{spec.name}' interrupted: "
                f"{len(records)}/{len(cells)} cells durable",
                journal_path=journal_path,
                completed=len(records),
                total=len(cells),
            ) from None
    finally:
        if journal_writer is not None:
            journal_writer.close()
        if coordinator is not None:
            coordinator.close()
    return CampaignReport(
        spec.name,
        [records[index] for index in range(len(cells))],
        fabric=None if coordinator is None else coordinator.stats,
    )


# -- stock campaigns ----------------------------------------------------


def smoke_campaign(*, seed: int = 0) -> CampaignSpec:
    """Small fixed-seed campaign for CI: must report zero violations."""
    return CampaignSpec(
        name="smoke",
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
        patterns=2,
        schedulers=(
            {"kind": "round-robin"},
            {"kind": "seeded", "seed": seed + 1},
            {"kind": "burst", "period": 30, "burst": 10, "seed": seed},
        ),
        seeds=(seed, seed + 1),
        stabilization_times=(8,),
        max_steps=80_000,
        pattern_seed=seed,
    )


def standard_campaign(*, seed: int = 0) -> CampaignSpec:
    """The acceptance campaign: consensus+Omega and k-set-agreement+
    vecOmega-k swept over derived patterns, mutated schedulers, seeds,
    and stabilization times — 200 cells."""
    return CampaignSpec(
        name="standard",
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
        patterns=5,
        schedulers=(
            {"kind": "round-robin"},
            {"kind": "seeded", "seed": seed + 1},
            {"kind": "burst", "period": 40, "burst": 15, "seed": seed},
            {"kind": "shadow", "shadow": 12},
            {"kind": "inversion", "relief": 7},
        ),
        seeds=(seed, seed + 1),
        stabilization_times=(0, 12),
        max_steps=150_000,
        pattern_seed=seed,
    )


def specimen_campaign(*, seed: int = 0) -> CampaignSpec:
    """Campaign over the decide-before-stabilization specimen: expected
    to *produce* safety violations (that is the point)."""
    return CampaignSpec(
        name="specimen:eager-consensus",
        workloads=[
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "omega"},
                algorithm="eager-consensus",
            ),
        ],
        patterns=3,
        schedulers=(
            {"kind": "round-robin"},
            {"kind": "seeded", "seed": seed + 1},
        ),
        seeds=tuple(range(seed, seed + 6)),
        stabilization_times=(0, 24),
        max_steps=5_000,
        pattern_seed=seed,
    )
