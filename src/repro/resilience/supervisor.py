"""Supervised worker pool: crash-isolated fan-out with retry and triage.

This is the resilience layer's answer to the paper's C/S split: the
orchestrator (wait-free, never does dangerous work) supervises a set of
crash-prone workers, and a worker taking a fault — SIGKILL, OOM kill,
budget breach, segfault — costs at most the one job it was running,
never the completed ones.  Contrast ``ProcessPoolExecutor``, whose
``BrokenProcessPool`` abandons every in-flight *and* queued result the
moment any worker dies.

Design points:

* **One pipe per worker, one job in flight per worker.**  No shared
  queues: a SIGKILLed worker cannot die holding a queue lock and hang
  its siblings, and crash attribution is trivial (the job assigned to
  the dead worker is the lost one).
* **The driver blocks, it does not poll.**  While every worker is busy
  it sleeps in ``connection.wait`` on their pipes (a result or a
  worker's death wakes it), so supervision costs no core the workers
  could use.  Backoff expiries shorten the wait only while a worker is
  free to take the retried job.
* **Budgets enforced inside the worker** by a
  :class:`~repro.resilience.budget.BudgetWatchdog` that exits the
  process with a distinct code (``EXIT_TIMEOUT`` / ``EXIT_OOM``); the
  supervisor also enforces a hard deadline from outside (kill after a
  grace period) in case a worker wedges so badly its watchdog cannot
  run.
* **Deterministic retry with exponential backoff + jitter.**  The
  jitter is seeded per ``(policy seed, job index, attempt)``, so retry
  schedules are reproducible under a fixed seed (and testable as a pure
  function — :func:`backoff_schedule`).
* **Quarantine, not abort.**  A job that exhausts its retries is
  reported as a failed :class:`JobResult` triaged by failure kind
  (``timeout`` / ``oom`` / ``worker_crash``, or ``flaky`` when attempts
  disagree); the rest of the sweep is unaffected.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, connection
from random import Random
from typing import Any, Callable, Sequence

from .budget import EXIT_OOM, EXIT_TIMEOUT, BudgetWatchdog, CellBudget

FAIL_TIMEOUT = "timeout"
FAIL_OOM = "oom"
FAIL_CRASH = "worker_crash"
FAIL_FLAKY = "flaky"

#: Process exit code used by orchestrator CLIs for "interrupted, but
#: progress is journaled — rerun with --resume" (EX_TEMPFAIL).
EXIT_RESUMABLE = 75

#: Extra wall-clock the supervisor grants past a worker's in-process
#: deadline before killing it from outside (watchdog-of-the-watchdog).
HARD_DEADLINE_GRACE_S = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """How failed jobs are retried.

    ``max_retries`` is the number of *re*-executions: a job runs at most
    ``max_retries + 1`` times before quarantine.  Delays grow as
    ``backoff_base_s * backoff_factor**attempt`` (capped), stretched by
    up to ``jitter`` fraction of deterministic, per-job pseudo-random
    jitter so retry storms decorrelate without losing reproducibility.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay_s(self, job_index: int, attempt: int) -> float:
        raw = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor**attempt,
        )
        # str-seeded Random hashes with SHA-512: stable across processes
        # and runs, unlike hash() under PYTHONHASHSEED.
        rng = Random(f"{self.seed}:{job_index}:{attempt}")
        return raw * (1.0 + self.jitter * rng.random())


def backoff_schedule(
    policy: RetryPolicy, job_index: int
) -> tuple[float, ...]:
    """The exact delays job ``job_index`` would wait before each retry —
    a pure function of the policy, used by tests and docs."""
    return tuple(
        policy.delay_s(job_index, attempt)
        for attempt in range(policy.max_retries)
    )


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt at a job."""

    kind: str  # timeout | oom | worker_crash
    detail: str


@dataclass
class JobResult:
    """Terminal outcome of one supervised job."""

    index: int
    ok: bool
    value: Any = None  # task_fn return value when ok
    kind: str = ""  # quarantine kind when not ok (see triage())
    detail: str = ""
    attempts: int = 1
    failures: tuple[AttemptFailure, ...] = ()


def triage(failures: Sequence[AttemptFailure]) -> str:
    """Quarantine kind for a job that exhausted its retries: the common
    failure kind, or ``flaky`` when the attempts disagree."""
    kinds = {failure.kind for failure in failures}
    return kinds.pop() if len(kinds) == 1 else FAIL_FLAKY


@dataclass
class _Job:
    index: int
    payload: Any
    attempt: int = 0
    failures: list[AttemptFailure] = field(default_factory=list)
    ready_at: float = 0.0


class _Worker:
    __slots__ = ("proc", "conn", "job", "started_at", "kill_reason")

    def __init__(self, proc: Process, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.job: _Job | None = None
        self.started_at = 0.0
        #: failure kind pre-assigned by a supervisor-side kill, taking
        #: precedence over exit-code classification.
        self.kill_reason: str | None = None


def _worker_main(task_fn, conn, budget: CellBudget) -> None:
    """Worker loop: receive ``(index, payload)`` jobs, run them under
    the budget watchdog, send ``(index, status, value)`` back."""
    # The orchestrator owns interrupt handling; a terminal Ctrl-C must
    # not also unwind the workers mid-send.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    watchdog = BudgetWatchdog(budget)
    watchdog.start()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        index, payload = job
        watchdog.arm()
        try:
            status, value = "ok", task_fn(payload)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            status, value = "task_error", f"{type(exc).__name__}: {exc}"
        if watchdog.disarm():
            os._exit(EXIT_TIMEOUT)  # overran between two watchdog polls
        try:
            conn.send((index, status, value))
        except (BrokenPipeError, OSError):
            return  # supervisor is gone; nothing left to report to
        except Exception as exc:  # unpicklable result
            conn.send(
                (
                    index,
                    "task_error",
                    f"result not serializable: {type(exc).__name__}: {exc}",
                )
            )


def _signal_detail(exitcode: int | None) -> str:
    if exitcode is None:
        return "worker vanished"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"worker killed by {name}"
    return f"worker exited with code {exitcode}"


def _classify_exit(exitcode: int | None) -> tuple[str, str]:
    if exitcode == EXIT_TIMEOUT:
        return FAIL_TIMEOUT, "per-cell wall-clock deadline exceeded"
    if exitcode == EXIT_OOM:
        return FAIL_OOM, "per-cell RSS budget exceeded"
    return FAIL_CRASH, _signal_detail(exitcode)


class SupervisedPool:
    """Run jobs through supervised worker processes.

    Args:
        task_fn: picklable callable applied to each job payload.
        workers: worker process count.
        budget: per-job :class:`~repro.resilience.budget.CellBudget`
            armed inside every worker (and hard-enforced from outside
            with a grace period).
        retry: :class:`RetryPolicy`; ``None`` uses the defaults.
        kill_job_index: fault-injection hook — SIGKILL the worker
            running this job index on its first attempt (used by the CI
            fault drill and the regression tests; the retry must make
            the sweep complete as if nothing happened).
    """

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        *,
        workers: int = 2,
        budget: CellBudget | None = None,
        retry: RetryPolicy | None = None,
        kill_job_index: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.task_fn = task_fn
        self.workers = workers
        self.budget = budget or CellBudget()
        self.retry = retry or RetryPolicy()
        self.kill_job_index = kill_job_index
        self._kill_injected = False

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = Pipe()
        proc = Process(
            target=_worker_main,
            args=(self.task_fn, child_conn, self.budget),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _stop_workers(self, workers: list[_Worker]) -> None:
        for worker in workers:
            try:
                if worker.job is None and worker.proc.is_alive():
                    worker.conn.send(None)  # polite: let it exit cleanly
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 1.0
        for worker in workers:
            if worker.job is not None and worker.proc.is_alive():
                worker.proc.terminate()
        for worker in workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
            worker.conn.close()

    # -- the supervision loop ------------------------------------------

    def run(
        self,
        jobs: Sequence[tuple[int, Any]],
        *,
        on_result: Callable[[JobResult], None] | None = None,
    ) -> list[JobResult]:
        """Execute ``jobs`` (pairs of ``(index, payload)``); returns one
        terminal :class:`JobResult` per job, ordered by index.

        ``on_result`` fires the moment each job completes (completion
        order, not index order) — the journaling hook.

        ``KeyboardInterrupt`` stops all workers and re-raises; every
        result already delivered through ``on_result`` remains valid.
        """
        pending: deque[_Job] = deque(
            _Job(index, payload) for index, payload in jobs
        )
        total = len(pending)
        results: dict[int, JobResult] = {}
        workers: list[_Worker] = []

        def finish(result: JobResult) -> None:
            results[result.index] = result
            if on_result is not None:
                on_result(result)

        try:
            for _ in range(min(self.workers, max(1, total))):
                workers.append(self._spawn())
            while len(results) < total:
                now = time.monotonic()
                self._assign(workers, pending, now)
                self._await_results(workers, pending, finish)
                self._reap(workers, pending, finish)
        finally:
            self._stop_workers(workers)
        return [results[index] for index in sorted(results)]

    def _assign(
        self, workers: list[_Worker], pending: deque[_Job], now: float
    ) -> None:
        for worker in workers:
            if worker.job is not None or not worker.proc.is_alive():
                continue
            job = self._pop_ready(pending, now)
            if job is None:
                return
            try:
                worker.conn.send((job.index, job.payload))
            except (BrokenPipeError, OSError):
                pending.appendleft(job)  # worker died; reap handles it
                continue
            worker.job = job
            worker.started_at = now
            worker.kill_reason = None
            if (
                self.kill_job_index is not None
                and not self._kill_injected
                and job.index == self.kill_job_index
                and job.attempt == 0
            ):
                # Fault drill: murder the worker we just handed this job.
                self._kill_injected = True
                os.kill(worker.proc.pid, signal.SIGKILL)

    @staticmethod
    def _pop_ready(pending: deque[_Job], now: float) -> _Job | None:
        for _ in range(len(pending)):
            job = pending.popleft()
            if job.ready_at <= now:
                return job
            pending.append(job)  # still backing off
        return None

    def _await_results(
        self,
        workers: list[_Worker],
        pending: deque[_Job],
        finish: Callable[[JobResult], None],
    ) -> None:
        now = time.monotonic()
        timeout = 0.25
        busy = [w for w in workers if w.job is not None]
        if pending and len(busy) < len(workers):
            # A backoff expiry matters only to a worker free to take
            # the job; with every worker busy, block on their pipes.
            next_ready = min(job.ready_at for job in pending)
            timeout = min(timeout, max(0.0, next_ready - now))
        if self.budget.deadline_s is not None:
            hard = self.budget.deadline_s + HARD_DEADLINE_GRACE_S
            for worker in busy:
                expires = worker.started_at + hard
                if now >= expires and worker.proc.is_alive():
                    # The in-worker watchdog failed to fire: kill from
                    # outside, but keep the honest triage.
                    worker.kill_reason = FAIL_TIMEOUT
                    worker.proc.kill()
                else:
                    timeout = min(timeout, max(0.0, expires - now))
        if not busy:
            if timeout > 0:
                time.sleep(min(timeout, 0.05))
            return
        for conn in connection.wait([w.conn for w in busy], timeout):
            worker = next(w for w in busy if w.conn is conn)
            try:
                index, status, value = conn.recv()
            except (EOFError, OSError):
                continue  # died mid-send; _reap classifies it
            job = worker.job
            worker.job = None
            if job is None or index != job.index:  # pragma: no cover
                continue  # stale message from a job we already settled
            if status == "ok":
                finish(
                    JobResult(
                        index=index,
                        ok=True,
                        value=value,
                        attempts=job.attempt + 1,
                        failures=tuple(job.failures),
                    )
                )
            else:  # task_fn raised: deterministic, retrying won't help
                finish(
                    JobResult(
                        index=index,
                        ok=False,
                        kind="task_error",
                        detail=str(value),
                        attempts=job.attempt + 1,
                        failures=tuple(job.failures),
                    )
                )

    def _reap(
        self,
        workers: list[_Worker],
        pending: deque[_Job],
        finish: Callable[[JobResult], None],
    ) -> None:
        for slot, worker in enumerate(workers):
            if worker.proc.is_alive():
                continue
            worker.proc.join()
            job = worker.job
            worker.conn.close()
            if job is not None:
                if worker.kill_reason is not None:
                    kind, detail = (
                        worker.kill_reason,
                        "killed by supervisor: in-worker watchdog "
                        "unresponsive past the grace period",
                    )
                else:
                    kind, detail = _classify_exit(worker.proc.exitcode)
                job.failures.append(AttemptFailure(kind, detail))
                if job.attempt >= self.retry.max_retries:
                    failures = tuple(job.failures)
                    finish(
                        JobResult(
                            index=job.index,
                            ok=False,
                            kind=triage(failures),
                            detail=detail,
                            attempts=job.attempt + 1,
                            failures=failures,
                        )
                    )
                else:
                    delay = self.retry.delay_s(job.index, job.attempt)
                    job.attempt += 1
                    job.ready_at = time.monotonic() + delay
                    pending.append(job)
            workers[slot] = self._spawn()
