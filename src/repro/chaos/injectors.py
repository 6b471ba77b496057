"""Fault injectors: perturb a run mid-flight, strictly inside the model.

Three injection surfaces, one per universal quantifier in the paper's
safety claims:

* **Failure patterns** — derived crash families.  Every derived pattern
  is a legal :class:`~repro.core.failures.FailurePattern`: crashes are
  permanent by construction and at least one S-process stays correct
  (the constructor enforces both), so injected crashes never leave the
  EFD model.
* **Detector histories** — :class:`PerturbedDetector` wraps any detector,
  sweeping its ``stabilization_time`` and adding extra pre-stabilization
  noise by shuffling the history's own prefix cells.  Because the noise
  is sampled from values the detector itself emitted, it stays within
  the detector's output range; because only times before the (possibly
  raised) stabilization point are touched, the eventual clause is
  preserved.  The campaign runner re-validates every perturbed history
  against the detector's ``check_history`` oracle before the run.
* **Schedules** — :class:`~repro.runtime.scheduler.Scheduler` wrappers
  (burst starvation, decided-process shadowing, priority inversion)
  that only ever pick from the executor's schedulable candidates, so
  every mutated schedule is an admissible interleaving.  Each one picks
  through :meth:`~repro.runtime.scheduler.SegmentScheduler.segment`:
  the rest of its current window (a starvation or free stretch, a
  shadow, the run of inverted picks up to the next relief turn), over
  the candidates that window allows, as the inner scheduler's segment
  cut to that length.  ``next()`` is one pick of that segment.
"""

from __future__ import annotations

import copy
import random
from typing import Any, Sequence

from ..core.failures import FailurePattern
from ..core.history import History
from ..detectors.base import FailureDetector
from ..errors import SpecificationError
from ..runtime.scheduler import (
    FIXED,
    Exclusion,
    RoundRobinScheduler,
    Scheduler,
    SchedulerView,
    Segment,
    SegmentScheduler,
)

# -- crash injectors ----------------------------------------------------


def crash_storm(
    n: int, *, at: int = 5, survivors: int = 1, rng: random.Random
) -> FailurePattern:
    """All but ``survivors`` S-processes crash simultaneously at ``at``."""
    if not 1 <= survivors <= n:
        raise SpecificationError(f"need 1 <= survivors <= {n}")
    doomed = rng.sample(range(n), n - survivors)
    return FailurePattern.crash(n, {i: at for i in doomed})


def crash_cascade(
    n: int,
    *,
    start: int = 2,
    gap: int = 7,
    survivors: int = 1,
    rng: random.Random,
) -> FailurePattern:
    """A staggered cascade: one crash every ``gap`` steps from ``start``."""
    if not 1 <= survivors <= n:
        raise SpecificationError(f"need 1 <= survivors <= {n}")
    doomed = rng.sample(range(n), n - survivors)
    return FailurePattern.crash(
        n, {i: start + pos * gap for pos, i in enumerate(doomed)}
    )


def last_survivor(
    n: int, *, horizon: int = 30, rng: random.Random
) -> FailurePattern:
    """Every S-process but one crashes at a random time below ``horizon``;
    the survivor is chosen by the rng."""
    survivor = rng.randrange(n)
    return FailurePattern.crash(
        n,
        {
            i: rng.randrange(horizon)
            for i in range(n)
            if i != survivor
        },
    )


def storm_suite(
    n: int, *, count: int, seed: int = 0
) -> list[FailurePattern]:
    """A seeded, mixed batch of derived patterns for campaign sweeps.

    Cycles through the failure-free pattern, sparse single crashes,
    storms, cascades, and last-survivor patterns until ``count`` patterns
    are produced.  Deterministic per (n, count, seed).
    """
    rng = random.Random(seed)
    out: list[FailurePattern] = []
    makers = [
        lambda: FailurePattern.all_correct(n),
        lambda: FailurePattern.crash(
            n, {rng.randrange(n): rng.randrange(20)}
        ),
        lambda: crash_storm(n, at=rng.randrange(1, 15), rng=rng),
        lambda: crash_cascade(
            n, start=rng.randrange(1, 8), gap=rng.randrange(3, 12), rng=rng
        ),
        lambda: last_survivor(n, horizon=25, rng=rng),
    ]
    while len(out) < count:
        out.append(makers[len(out) % len(makers)]())
    return out


# -- detector-history perturbation -------------------------------------


class ShuffledPrefixHistory:
    """History wrapper that permutes cells before ``noise_until``.

    ``value(q, t)`` for ``t < noise_until`` returns the base history's
    value at a seeded pseudo-random time below ``noise_until`` — extra
    adversarial churn assembled entirely from outputs the detector was
    already willing to emit, hence always within range.  From
    ``noise_until`` on, the base history is untouched.
    """

    def __init__(
        self, base: History, *, noise_until: int, base_seed: int
    ) -> None:
        self.base = base
        self.noise_until = noise_until
        self._base_seed = base_seed

    def value(self, s_index: int, time: int) -> Any:
        if time >= self.noise_until:
            return self.base.value(s_index, time)
        cell = random.Random(
            (self._base_seed * 1_000_003 + s_index) * 1_000_003 + time
        )
        return self.base.value(s_index, cell.randrange(self.noise_until))


class PerturbedDetector(FailureDetector):
    """Wraps a detector with swept stabilization time and extra noise.

    Args:
        base: the detector to perturb.  A shallow copy is taken, so the
            original is never mutated.
        stabilization_time: overrides the base detector's stabilization
            time (the campaign sweep axis); ``None`` keeps the base's.
        noise_until: shuffle history cells before this time (defaults to
            the effective stabilization time, i.e. maximal legal noise).

    ``check_history`` delegates to the base detector, so a perturbation
    that would step outside the base's specification is *rejected by the
    oracle*, not silently accepted — the campaign runner validates every
    built history before executing the cell.
    """

    def __init__(
        self,
        base: FailureDetector,
        *,
        stabilization_time: int | None = None,
        noise_until: int | None = None,
    ) -> None:
        self.base = copy.copy(base)
        if stabilization_time is not None:
            if not hasattr(self.base, "stabilization_time"):
                raise SpecificationError(
                    f"{base.name} has no stabilization time to sweep"
                )
            self.base.stabilization_time = stabilization_time
        base_stab = getattr(self.base, "stabilization_time", 0)
        self.noise_until = base_stab if noise_until is None else noise_until
        if self.noise_until < 0:
            raise SpecificationError("noise_until must be non-negative")
        self.name = f"chaos({self.base.name})"

    @property
    def stabilization_time(self) -> int:
        """Effective stabilization point of the perturbed histories."""
        return max(getattr(self.base, "stabilization_time", 0), self.noise_until)

    def build_history(
        self, pattern: FailurePattern, rng: random.Random
    ) -> History:
        history = self.base.build_history(pattern, rng)
        if self.noise_until <= 0:
            return history
        return ShuffledPrefixHistory(
            history,
            noise_until=self.noise_until,
            base_seed=rng.randrange(2**31),
        )

    def check_history(
        self,
        pattern: FailurePattern,
        history: History,
        *,
        horizon: int,
        stabilized_from: int,
    ) -> bool:
        return self.base.check_history(
            pattern,
            history,
            horizon=horizon,
            stabilized_from=stabilized_from,
        )


# -- scheduler mutators ------------------------------------------------


class BurstStarvationScheduler(SegmentScheduler):
    """Starves a seeded-random victim subset for ``burst`` out of every
    ``period`` steps, re-drawing the victims each window.

    Unlike :class:`~repro.runtime.scheduler.AdversarialScheduler`'s fixed
    victim set, the rotating choice exercises *every* process's slow-path
    over a long run while each individual burst is finite, so fairness
    holds in the limit.

    A segment is the rest of the current starvation (phase below
    ``burst``) or free stretch, over the candidates without the victims
    or all of them; the victims are drawn when a segment starts at
    phase 0, from that segment's candidates.
    """

    def __init__(
        self,
        inner: Scheduler | None = None,
        *,
        period: int = 40,
        burst: int = 15,
        seed: int = 0,
    ) -> None:
        if not 0 < burst < period:
            raise SpecificationError("need 0 < burst < period")
        self.period = period
        self.burst = burst
        self._rng = random.Random(seed)
        self._inner = inner or RoundRobinScheduler()
        self._turn = 0
        self._victims: frozenset = frozenset()
        self._exclude = Exclusion()

    def segment(self, view: SchedulerView) -> Segment:
        self._require(view)
        phase = self._turn % self.period
        if phase == 0:
            pool = sorted(view.candidates)
            size = self._rng.randrange(1, max(2, len(pool)))
            self._victims = frozenset(self._rng.sample(pool, size))
        if phase < self.burst:
            left = self.burst - phase
            view = self._exclude(view, self._victims)
        else:
            left = self.period - phase
        length, kind, pool, state = self._inner.segment(view)
        return min(left, length), kind, pool, state

    def advance(self, n: int) -> None:
        self._turn += n
        self._inner.advance(n)


class DecidedShadowScheduler(SegmentScheduler):
    """Shadows the surviving started C-processes right after a decision.

    Each time the decided set grows, the C-processes that had already
    started but not decided are excluded for the next ``shadow`` steps —
    the moment one process completes, its undecided contemporaries lose
    their helpers.  This targets helping/adoption protocols whose safety
    argument leans on the state a deciding process leaves behind.

    A segment is the rest of the current shadow, over the candidates
    without the shadowed processes, or (no shadow left) the inner
    scheduler's whole segment.
    """

    def __init__(
        self, inner: Scheduler | None = None, *, shadow: int = 12
    ) -> None:
        if shadow < 1:
            raise SpecificationError("shadow must be positive")
        self.shadow = shadow
        self._inner = inner or RoundRobinScheduler()
        self._seen_decided: frozenset = frozenset()
        self._shadowed: frozenset = frozenset()
        self._shadow_left = 0
        self._exclude = Exclusion()

    def segment(self, view: SchedulerView) -> Segment:
        self._require(view)
        if view.decided != self._seen_decided:
            self._shadowed = frozenset(
                pid
                for pid in view.candidates
                if pid.is_computation
                and pid.index in view.started
                and pid.index not in view.decided
            )
            self._shadow_left = self.shadow
            self._seen_decided = view.decided
        left = self._shadow_left
        if not left:
            return self._inner.segment(view)
        length, kind, pool, state = self._inner.segment(
            self._exclude(view, self._shadowed)
        )
        return min(left, length), kind, pool, state

    def advance(self, n: int) -> None:
        if self._shadow_left:
            self._shadow_left -= n
        self._inner.advance(n)


class PriorityInversionScheduler(SegmentScheduler):
    """Inverts the natural scheduling order most of the time.

    Picks the *last* candidate in process order (highest-index S-process
    first territory) on every step except each ``relief``-th, which
    falls back to round-robin so starvation stays finite.

    A segment is ``max(candidates)`` up to the next relief turn, or on
    a relief turn one pick of the fallback round-robin.
    """

    def __init__(self, *, relief: int = 7) -> None:
        if relief < 2:
            raise SpecificationError("relief must be at least 2")
        self.relief = relief
        self._turn = 0
        self._fallback = RoundRobinScheduler()

    def segment(self, view: SchedulerView) -> Segment:
        self._require(view)
        phase = (self._turn + 1) % self.relief  # of the segment's first pick
        if phase:
            return self.relief - phase, FIXED, max(view.candidates), None
        _length, kind, pool, state = self._fallback.segment(view)
        return 1, kind, pool, state

    def advance(self, n: int) -> None:
        if not (self._turn + 1) % self.relief:
            self._fallback.advance(n)
        self._turn += n
