"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SpecificationError(ReproError):
    """A task, environment, or detector specification is malformed."""


class ProtocolError(ReproError):
    """A process automaton violated the step protocol.

    Examples: an S-process issuing a :class:`~repro.runtime.ops.Decide`,
    a C-process issuing a failure-detector query, or an automaton yielding
    an object that is not an operation.
    """


class SchedulingError(ReproError):
    """A scheduler produced an inadmissible choice.

    Examples: scheduling a crashed S-process, or scheduling a fresh
    C-process in a k-concurrent run that is already at its concurrency cap.
    """


class LivenessViolation(ReproError):
    """A bounded execution exhausted its step budget before the required
    processes decided.

    Finite executions cannot witness true non-termination; this error is
    the finitized stand-in for "some live participating C-process never
    decides" and carries the offending run for inspection.
    """

    def __init__(self, message: str, *, result: object | None = None) -> None:
        super().__init__(message)
        self.result = result


class SafetyViolation(ReproError):
    """A run produced an input/output pair outside the task relation."""


class ChaosError(ReproError):
    """The chaos engine was asked something incoherent.

    Examples: shrinking a cell whose run passes, replaying a repro
    bundle in an unknown format version, or a witness whose explicit
    schedule fails to reproduce the recorded outcome.
    """


class ResilienceError(ReproError):
    """The resilience layer was misused or hit unrecoverable state.

    Examples: resuming from a journal whose fingerprint does not match
    the campaign being run, a corrupt (non-trailing) journal line, or an
    explorer checkpoint taken with different reduction knobs.
    """


class CampaignInterrupted(ReproError):
    """A journaled campaign was interrupted (SIGINT/SIGTERM) and shut
    down gracefully: in-flight workers were stopped and every completed
    cell is durable in the journal.  Carries what the caller needs to
    print a resume hint."""

    def __init__(
        self,
        message: str,
        *,
        journal_path: str | None = None,
        completed: int = 0,
        total: int = 0,
    ) -> None:
        super().__init__(message)
        self.journal_path = journal_path
        self.completed = completed
        self.total = total


class ExplorationInterrupted(ReproError):
    """An exhaustive exploration stopped short of a certificate: at its
    deadline or on a signal (``checkpoint_path`` names the frontier
    file it saved for exact resumption, if any), at ``max_runs``, or
    with runs truncated at its depth bound."""

    def __init__(
        self, message: str, *, checkpoint_path: str | None = None
    ) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


class TraceHazard(ReproError):
    """Strict verification found race/atomicity hazards in a trace.

    Raised by :func:`repro.analysis.verify.verify_run` in strict mode
    when the lint trace analyzer flags lost-update or snapshot-
    linearizability hazards; carries the findings for inspection.
    """

    def __init__(self, message: str, *, findings: tuple = ()) -> None:
        super().__init__(message)
        self.findings = tuple(findings)
