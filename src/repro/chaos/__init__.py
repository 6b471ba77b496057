"""Chaos engine: fault-injection campaigns, counterexample shrinking,
and replayable failure bundles.

Every safety claim in *Wait-Freedom with Advice* is universal over
failure patterns, detector histories, and schedules.  This package turns
the reproduction into an adversarial testbed for that quantifier:

* :mod:`~repro.chaos.injectors` — composable fault sources that stay
  inside the EFD model: derived :class:`~repro.core.failures.FailurePattern`
  families (crash storms, cascades, last-survivor), detector-history
  perturbation with swept stabilization times (validated against each
  detector's ``check_history`` oracle), and adversarial scheduler
  mutators (burst starvation, decided-process shadowing, priority
  inversion).
* :mod:`~repro.chaos.campaign` — a declarative
  :class:`~repro.chaos.campaign.CampaignSpec` sweeping the cross-product
  (workload x pattern x scheduler x seed x stabilization time); each
  cell is executed with a trace, verified, and triaged into a structured
  :class:`~repro.chaos.campaign.CampaignReport`.  One failing cell never
  aborts the campaign.
* :mod:`~repro.chaos.shrink` — delta-debugging of a violating cell to a
  locally-minimal failing run (shorter explicit schedule, fewer crashes,
  later stabilization).
* :mod:`~repro.chaos.bundle` — serialization of a shrunk witness into a
  JSON repro bundle that ``python -m repro chaos replay`` re-executes
  deterministically via an explicit schedule.
* :mod:`~repro.chaos.specimens` — intentionally buggy algorithms
  (decide-before-stabilization consensus) used to prove the engine
  actually catches violations end to end.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Re-exported names by submodule, each imported on first access;
#: the ``TYPE_CHECKING`` imports below name the same things.
_EXPORTS = {
    ".bundle": ("bundle_from_shrink", "load_bundle", "replay_bundle", "save_bundle"),
    ".campaign": (
        "BACKENDS",
        "OUTCOME_BUDGET",
        "OUTCOME_DEADLOCK",
        "OUTCOME_ERROR",
        "OUTCOME_FLAKY",
        "OUTCOME_HAZARD",
        "OUTCOME_INVALID_HISTORY",
        "OUTCOME_OK",
        "OUTCOME_OOM",
        "OUTCOME_PARTITION",
        "OUTCOME_SAFETY",
        "OUTCOME_SCHEDULE",
        "OUTCOME_TIMEOUT",
        "OUTCOME_WORKER_CRASH",
        "QUARANTINE_OUTCOMES",
        "CampaignReport",
        "CampaignSpec",
        "CellRecord",
        "CellSpec",
        "Workload",
        "run_campaign",
        "run_cell",
        "smoke_campaign",
        "specimen_campaign",
        "standard_campaign",
    ),
    ".injectors": (
        "BurstStarvationScheduler",
        "DecidedShadowScheduler",
        "PerturbedDetector",
        "PriorityInversionScheduler",
        "crash_cascade",
        "crash_storm",
        "last_survivor",
        "storm_suite",
    ),
    ".shrink": ("ShrinkResult", "shrink_cell"),
}

if TYPE_CHECKING:
    from .bundle import (
        bundle_from_shrink,
        load_bundle,
        replay_bundle,
        save_bundle,
    )
    from .campaign import (
        BACKENDS,
        OUTCOME_BUDGET,
        OUTCOME_DEADLOCK,
        OUTCOME_ERROR,
        OUTCOME_FLAKY,
        OUTCOME_HAZARD,
        OUTCOME_INVALID_HISTORY,
        OUTCOME_OK,
        OUTCOME_OOM,
        OUTCOME_PARTITION,
        OUTCOME_SAFETY,
        OUTCOME_SCHEDULE,
        OUTCOME_TIMEOUT,
        OUTCOME_WORKER_CRASH,
        QUARANTINE_OUTCOMES,
        CampaignReport,
        CampaignSpec,
        CellRecord,
        CellSpec,
        Workload,
        run_campaign,
        run_cell,
        smoke_campaign,
        specimen_campaign,
        standard_campaign,
    )
    from .injectors import (
        BurstStarvationScheduler,
        DecidedShadowScheduler,
        PerturbedDetector,
        PriorityInversionScheduler,
        crash_cascade,
        crash_storm,
        last_survivor,
        storm_suite,
    )
    from .shrink import ShrinkResult, shrink_cell
else:
    __getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "bundle_from_shrink",
    "load_bundle",
    "replay_bundle",
    "save_bundle",
    "BACKENDS",
    "OUTCOME_BUDGET",
    "OUTCOME_DEADLOCK",
    "OUTCOME_ERROR",
    "OUTCOME_FLAKY",
    "OUTCOME_HAZARD",
    "OUTCOME_INVALID_HISTORY",
    "OUTCOME_OK",
    "OUTCOME_OOM",
    "OUTCOME_PARTITION",
    "OUTCOME_SAFETY",
    "OUTCOME_SCHEDULE",
    "OUTCOME_TIMEOUT",
    "OUTCOME_WORKER_CRASH",
    "QUARANTINE_OUTCOMES",
    "CampaignReport",
    "CampaignSpec",
    "CellRecord",
    "CellSpec",
    "Workload",
    "run_campaign",
    "run_cell",
    "smoke_campaign",
    "specimen_campaign",
    "standard_campaign",
    "BurstStarvationScheduler",
    "DecidedShadowScheduler",
    "PerturbedDetector",
    "PriorityInversionScheduler",
    "crash_cascade",
    "crash_storm",
    "last_survivor",
    "storm_suite",
    "ShrinkResult",
    "shrink_cell",
]
