"""View narrowing in the scheduler wrappers (:func:`narrow` and the
memoized :class:`Exclusion`), and scheduler segments.

Each wrapper's pick sequence must equal a reference kept here that
narrows the way the wrappers used to — ``view._replace`` with a fresh
filtered tuple per step — over random view sequences; and within one
starvation window the narrowed candidates must be one tuple object, so
an inner round-robin sorts them once.

Segments (:meth:`Scheduler.segment`): consuming a scheduler's segments
the way the run loops do — pick by pick, cut at every view change and
at random points, each cut reported through ``advance`` — must give
the picks of the per-step references: ``OldBurst``, ``OldShadow`` and
``OldInversion`` below, and the round-robin and seeded ``next()`` the
run loops inline (``OldRoundRobin``, ``OldSeeded``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.injectors import (
    BurstStarvationScheduler,
    DecidedShadowScheduler,
    PriorityInversionScheduler,
)
from repro.core.process import c_process, s_process
from repro.errors import SchedulingError
from repro.runtime.concurrency import FilteredScheduler, KConcurrencyFilter
from repro.runtime.scheduler import (
    FIXED,
    ROUND_ROBIN,
    AdversarialScheduler,
    Exclusion,
    ExplicitScheduler,
    RoundRobinScheduler,
    SchedulerView,
    SeededRandomScheduler,
    narrow,
)

PIDS = (*(c_process(i) for i in range(3)), *(s_process(i) for i in range(3)))


def old_narrowed(view, keep):
    candidates = tuple(pid for pid in view.candidates if keep(pid))
    if not candidates:  # never starve the whole system
        candidates = view.candidates
    return view._replace(candidates=candidates)


class OldBurst(BurstStarvationScheduler):
    def next(self, view):
        self._require(view)
        phase = self._turn % self.period
        self._turn += 1
        if phase == 0:
            pool = sorted(view.candidates)
            size = self._rng.randrange(1, max(2, len(pool)))
            self._victims = frozenset(self._rng.sample(pool, size))
        if phase < self.burst:
            view = old_narrowed(view, lambda pid: pid not in self._victims)
        return self._inner.next(view)


class OldShadow(DecidedShadowScheduler):
    def next(self, view):
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
        if self._shadow_left > 0:
            self._shadow_left -= 1
            view = old_narrowed(view, lambda pid: pid not in self._shadowed)
        return self._inner.next(view)


class OldAdversarial(AdversarialScheduler):
    def next(self, view):
        self._require(view)
        self._turn += 1
        victims = sorted(c for c in view.candidates if c in self.victims)
        others = tuple(c for c in view.candidates if c not in self.victims)
        if victims and (self._turn % self.period == 0 or not others):
            choice = victims[self._victim_cursor % len(victims)]
            self._victim_cursor += 1
            return choice
        return self._fallback.next(view._replace(candidates=others))


class OldRoundRobin(RoundRobinScheduler):
    """The per-step ``next()`` that ``Executor.run`` inlines."""

    def next(self, view):
        self._require(view)
        cands = view.candidates
        if cands is not self._last_cands:
            self._last_cands = cands
            self._last_sorted = sorted(cands)
        ordered = self._last_sorted
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice


class OldSeeded(SeededRandomScheduler):
    """The per-step ``next()`` that ``Executor.run`` inlines."""

    def next(self, view):
        self._require(view)
        cands = view.candidates
        if cands is not self._last_cands:
            self._last_cands = cands
            self._last_sorted = sorted(cands)
        return self._rng.choice(self._last_sorted)


class OldInversion(PriorityInversionScheduler):
    def __init__(self, *, relief=7):
        super().__init__(relief=relief)
        self._fallback = OldRoundRobin()

    def next(self, view):
        self._require(view)
        self._turn += 1
        if self._turn % self.relief == 0:
            return self._fallback.next(view)
        return max(view.candidates)


class OldFiltered(FilteredScheduler):
    def next(self, view):
        for f in self._filters:
            view = view._replace(candidates=tuple(f(view)))
        if not view.candidates:
            raise SchedulingError("all candidates filtered out")
        return self._inner.next(view)


def random_views(seed: int, steps: int):
    """A run-like view sequence: candidates only shrink, started and
    decided only grow; the candidates tuple is usually the previous
    step's object (as the run loops pass it), sometimes a fresh copy."""
    rng = random.Random(seed)
    candidates = PIDS
    started: frozenset = frozenset()
    decided: frozenset = frozenset()
    for time in range(steps):
        roll = rng.random()
        if roll < 0.04 and len(candidates) > 1:
            gone = rng.choice(candidates)
            candidates = tuple(p for p in candidates if p is not gone)
            if gone.is_computation and gone.index in started:
                decided = decided | {gone.index}
        elif roll < 0.12:
            started = started | {rng.randrange(3)}
        elif roll < 0.2:
            candidates = tuple(list(candidates))  # an equal, fresh tuple
        yield SchedulerView(
            time, candidates, started, decided, frozenset(range(3))
        )


def picks(scheduler, views):
    out = []
    for v in views:
        try:
            out.append(scheduler.next(v))
        except SchedulingError as exc:
            out.append(str(exc))
    return out


#: (scheduler, per-step reference) per seed.
PAIRS = {
    "round-robin": lambda seed: (RoundRobinScheduler(), OldRoundRobin()),
    "seeded": lambda seed: (SeededRandomScheduler(seed), OldSeeded(seed)),
    "burst": lambda seed: (
        BurstStarvationScheduler(period=9, burst=5, seed=seed),
        OldBurst(OldRoundRobin(), period=9, burst=5, seed=seed),
    ),
    "burst-seeded": lambda seed: (
        BurstStarvationScheduler(
            SeededRandomScheduler(seed), period=7, burst=3, seed=seed
        ),
        OldBurst(OldSeeded(seed), period=7, burst=3, seed=seed),
    ),
    "shadow": lambda seed: (
        DecidedShadowScheduler(shadow=4),
        OldShadow(OldRoundRobin(), shadow=4),
    ),
    "shadow-over-burst": lambda seed: (
        DecidedShadowScheduler(
            BurstStarvationScheduler(
                SeededRandomScheduler(seed), period=5, burst=2, seed=seed
            ),
            shadow=3,
        ),
        OldShadow(
            OldBurst(OldSeeded(seed), period=5, burst=2, seed=seed),
            shadow=3,
        ),
    ),
    "inversion": lambda seed: (
        PriorityInversionScheduler(relief=2 + seed % 5),
        OldInversion(relief=2 + seed % 5),
    ),
    # Schedulers that implement only next(): one-pick segments.
    "adversarial": lambda seed: (
        AdversarialScheduler([PIDS[seed % 6], PIDS[(seed // 6) % 6]], period=3),
        OldAdversarial([PIDS[seed % 6], PIDS[(seed // 6) % 6]], period=3),
    ),
    "k-concurrent": lambda seed: (
        FilteredScheduler(RoundRobinScheduler(), KConcurrencyFilter(1 + seed % 2)),
        OldFiltered(OldRoundRobin(), KConcurrencyFilter(1 + seed % 2)),
    ),
    "explicit": lambda seed: (
        ExplicitScheduler(
            random.Random(seed).choices(PIDS, k=40), strict=False
        ),
        ExplicitScheduler(
            random.Random(seed).choices(PIDS, k=40), strict=False
        ),
    ),
}


class TestNarrowingEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 160))
    def test_picks_equal_the_replace_reference(self, seed, steps):
        views = list(random_views(seed, steps))
        for name, make in PAIRS.items():
            new, old = make(seed)
            assert picks(new, views) == picks(old, views), name


class TestMemoizedNarrowing:
    def test_burst_window_hands_inner_one_tuple(self):
        inner = RoundRobinScheduler()
        sched = BurstStarvationScheduler(inner, period=10, burst=6, seed=1)
        v = SchedulerView(0, PIDS, frozenset(), frozenset(), frozenset())
        given_cands, sorted_lists = [], []
        for _ in range(6):
            sched.next(v)
            given_cands.append(inner._last_cands)
            sorted_lists.append(inner._last_sorted)
        assert len(given_cands[0]) < len(PIDS)  # narrowed
        assert all(c is given_cands[0] for c in given_cands)
        # The identity sort cache hit: one sorted list for the window.
        assert all(s is sorted_lists[0] for s in sorted_lists)

    def test_shadow_window_hands_inner_one_tuple(self):
        inner = RoundRobinScheduler()
        sched = DecidedShadowScheduler(inner, shadow=5)
        before = SchedulerView(
            0, PIDS, frozenset({0, 1}), frozenset(), frozenset({0, 1, 2})
        )
        sched.next(before)
        after = before._replace(decided=frozenset({0}))
        given_cands = []
        for _ in range(5):
            sched.next(after)
            given_cands.append(inner._last_cands)
        assert c_process(1) not in given_cands[0]
        assert all(c is given_cands[0] for c in given_cands)

    def test_exclusion_keeps_everyone_rather_than_no_one(self):
        exclude = Exclusion()
        few = PIDS[:2]
        v = SchedulerView(0, few, frozenset(), frozenset(), frozenset())
        assert exclude(v, frozenset(PIDS)).candidates is few

    def test_exclusion_misses_on_new_keys(self):
        exclude = Exclusion()
        v = SchedulerView(0, PIDS, frozenset(), frozenset(), frozenset())
        first = exclude(v, frozenset({PIDS[0]})).candidates
        assert first == PIDS[1:]
        assert exclude(v, frozenset({PIDS[1]})).candidates == (
            PIDS[0], *PIDS[2:]
        )
        shrunk = v._replace(candidates=PIDS[2:])
        assert exclude(shrunk, frozenset({PIDS[1]})).candidates == PIDS[2:]

    def test_narrow_replaces_only_the_candidates(self):
        v = SchedulerView(
            3, PIDS, frozenset({1}), frozenset({0}), frozenset({0, 1})
        )
        assert narrow(v, PIDS[:2]) == v._replace(candidates=PIDS[:2])


def segment_picks(scheduler, views, *, cut_rate, seed):
    """Consume ``scheduler``'s segments as the run loops do: take a
    segment pick by pick until it runs out, cut it when the view
    (apart from its time) changes or, with probability ``cut_rate``,
    at any other step, and report the picks taken through
    ``advance`` before asking for the next segment."""
    cuts = random.Random(seed)
    out = []
    length = left = 0
    last = None
    for view in views:
        if last is not None and (
            view.candidates is not last.candidates
            or view.started != last.started
            or view.decided != last.decided
            or cuts.random() < cut_rate
        ):
            length -= left
            left = 0
        last = view
        if not left:
            if length:
                scheduler.advance(length)
                length = 0
            try:
                left, kind, pool, state = scheduler.segment(view)
            except SchedulingError as exc:
                out.append(str(exc))
                continue
            assert left >= 1
            length = left
        left -= 1
        if kind == FIXED:
            out.append(pool)
        elif kind == ROUND_ROBIN:
            out.append(pool[state % len(pool)])
            state += 1
        else:
            n = len(pool)
            r = state(n.bit_length())
            while r >= n:
                r = state(n.bit_length())
            out.append(pool[r])
    if length:
        scheduler.advance(length - left)
    return out


class TestSegments:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 160),
        cut_rate=st.sampled_from((0.0, 0.1, 0.5)),
    )
    def test_segments_equal_the_per_step_references(
        self, seed, steps, cut_rate
    ):
        views = list(random_views(seed, steps))
        for name, make in PAIRS.items():
            new, old = make(seed)
            assert segment_picks(
                new, views, cut_rate=cut_rate, seed=seed
            ) == picks(old, views), name

    def test_windows_are_the_rest_of_the_current_window(self):
        v = SchedulerView(0, PIDS, frozenset(), frozenset(), frozenset())
        burst = BurstStarvationScheduler(period=10, burst=4, seed=0)
        lengths = []
        for taken in (1, 3, 2, 4, 10):
            length, *_ = burst.segment(v)
            lengths.append(length)
            burst.advance(min(taken, length))
        assert lengths == [4, 3, 6, 4, 4]
        inversion = PriorityInversionScheduler(relief=4)
        assert inversion.segment(v)[:3] == (3, FIXED, max(PIDS))
        inversion.advance(3)
        assert inversion.segment(v)[:2] == (1, ROUND_ROBIN)
        inversion.advance(1)
        assert inversion.segment(v)[0] == 3
        shadow = DecidedShadowScheduler(shadow=5)
        shadow.segment(v)
        shadow.advance(1)
        started = v._replace(started=frozenset({0, 1}))
        decided = started._replace(decided=frozenset({0}))
        length, kind, pool, _ = shadow.segment(decided)
        assert length == 5 and c_process(1) not in pool
        shadow.advance(5)
        assert c_process(1) in shadow.segment(decided)[2]
