"""Resilience layer: supervised fan-out, budgets, and durable progress.

The paper's construction keeps computation wait-free by pushing every
crash-prone step onto supervised helpers; this package applies the same
discipline to the harness's own long-running workloads.  Campaigns fan
their cells out through a :class:`SupervisedPool` (or, across hosts,
the fabric) whose workers run under :class:`CellBudget` watchdogs,
failed work is retried with deterministic backoff and quarantined with
a triaged kind instead of aborting the sweep, and progress is journaled
append-only so an interrupted run resumes exactly where it stopped.
Deep explorations do not use the pool: they checkpoint themselves and
resume (:mod:`repro.checker.explorer`).

* :mod:`~repro.resilience.supervisor` — the pool: per-worker pipes,
  crash detection and attribution, retry/backoff/jitter, quarantine.
* :mod:`~repro.resilience.budget` — in-worker wall-clock and RSS
  watchdogs with distinct kill exit codes.
* :mod:`~repro.resilience.journal` — append-only JSONL campaign
  journals with fingerprint-pinned resume, idempotent appends,
  CRC32-checked records, and the coordinator's control-plane log
  (lease/expiry/bench events + :func:`recover_control_state`).
* :mod:`~repro.resilience.transport` — length-prefixed JSON frames,
  the fabric's wire protocol (torn frames are survivable, not errors).
* :mod:`~repro.resilience.fabric` — the multi-host coordinator:
  lease-based at-least-once dispatch, idempotent result dedup,
  worker suspicion, graceful degradation to the local pool.
* :mod:`~repro.resilience.worker` — the remote worker agent
  (``python -m repro worker --connect HOST:PORT``) with deterministic
  reconnect backoff, heartbeat-renewed leases, a bounded result spool
  replayed idempotently after outages, and graceful SIGTERM drain.
* :mod:`~repro.resilience.netchaos` — the fault-injecting frame proxy
  the fabric drill routes real traffic through (drop / delay /
  duplicate / truncate / partition).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".budget": (
        "EXIT_OOM",
        "EXIT_TIMEOUT",
        "BudgetWatchdog",
        "CellBudget",
        "current_rss_mb",
    ),
    ".fabric": ("PARTITION_KIND", "FabricConfig", "FabricCoordinator", "FabricStats"),
    ".journal": (
        "CONTROL_KINDS",
        "JOURNAL_FORMAT",
        "JOURNAL_VERSION",
        "CampaignJournal",
        "ControlPlaneState",
        "JournalScan",
        "RecoveredLease",
        "atomic_write_bytes",
        "atomic_write_text",
        "campaign_fingerprint",
        "record_crc",
        "record_fingerprint",
        "recover_control_state",
        "scan_journal",
    ),
    ".netchaos": ("FAULT_KINDS", "ChaosProxy", "FaultPlan", "ProxyStats"),
    ".supervisor": (
        "EXIT_RESUMABLE",
        "FAIL_CRASH",
        "FAIL_FLAKY",
        "FAIL_OOM",
        "FAIL_TIMEOUT",
        "AttemptFailure",
        "JobResult",
        "RetryPolicy",
        "SupervisedPool",
        "backoff_schedule",
        "triage",
    ),
    ".transport": (
        "FrameConnection",
        "FrameDecoder",
        "TransportClosed",
        "TransportError",
        "connect_framed",
        "encode_frame",
        "parse_endpoint",
        "split_frames",
    ),
    ".worker": (
        "ResultSpool",
        "WorkerStats",
        "reconnect_delay_s",
        "run_worker",
        "serve_connection",
    ),
}

if TYPE_CHECKING:
    from .budget import (
        EXIT_OOM,
        EXIT_TIMEOUT,
        BudgetWatchdog,
        CellBudget,
        current_rss_mb,
    )
    from .fabric import (
        PARTITION_KIND,
        FabricConfig,
        FabricCoordinator,
        FabricStats,
    )
    from .journal import (
        CONTROL_KINDS,
        JOURNAL_FORMAT,
        JOURNAL_VERSION,
        CampaignJournal,
        ControlPlaneState,
        JournalScan,
        RecoveredLease,
        atomic_write_bytes,
        atomic_write_text,
        campaign_fingerprint,
        record_crc,
        record_fingerprint,
        recover_control_state,
        scan_journal,
    )
    from .netchaos import FAULT_KINDS, ChaosProxy, FaultPlan, ProxyStats
    from .supervisor import (
        EXIT_RESUMABLE,
        FAIL_CRASH,
        FAIL_FLAKY,
        FAIL_OOM,
        FAIL_TIMEOUT,
        AttemptFailure,
        JobResult,
        RetryPolicy,
        SupervisedPool,
        backoff_schedule,
        triage,
    )
    from .transport import (
        FrameConnection,
        FrameDecoder,
        TransportClosed,
        TransportError,
        connect_framed,
        encode_frame,
        parse_endpoint,
        split_frames,
    )
    from .worker import (
        ResultSpool,
        WorkerStats,
        reconnect_delay_s,
        run_worker,
        serve_connection,
    )
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "PARTITION_KIND",
    "FabricConfig",
    "FabricCoordinator",
    "FabricStats",
    "FAULT_KINDS",
    "ChaosProxy",
    "FaultPlan",
    "ProxyStats",
    "record_fingerprint",
    "FrameConnection",
    "FrameDecoder",
    "TransportClosed",
    "TransportError",
    "connect_framed",
    "encode_frame",
    "parse_endpoint",
    "split_frames",
    "ResultSpool",
    "WorkerStats",
    "reconnect_delay_s",
    "run_worker",
    "serve_connection",
    "EXIT_OOM",
    "EXIT_TIMEOUT",
    "BudgetWatchdog",
    "CellBudget",
    "current_rss_mb",
    "CONTROL_KINDS",
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "CampaignJournal",
    "ControlPlaneState",
    "JournalScan",
    "RecoveredLease",
    "atomic_write_bytes",
    "atomic_write_text",
    "campaign_fingerprint",
    "record_crc",
    "recover_control_state",
    "scan_journal",
    "EXIT_RESUMABLE",
    "FAIL_CRASH",
    "FAIL_FLAKY",
    "FAIL_OOM",
    "FAIL_TIMEOUT",
    "AttemptFailure",
    "JobResult",
    "RetryPolicy",
    "SupervisedPool",
    "backoff_schedule",
    "triage",
]
