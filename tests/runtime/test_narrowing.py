"""View narrowing in the scheduler wrappers: :func:`narrow` and the
memoized :class:`Exclusion`.

Each wrapper's pick sequence must equal a reference kept here that
narrows the way the wrappers used to — ``view._replace`` with a fresh
filtered tuple per step — over random view sequences; and within one
starvation window the narrowed candidates must be one tuple object, so
an inner round-robin sorts them once.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.injectors import (
    BurstStarvationScheduler,
    DecidedShadowScheduler,
)
from repro.core.process import c_process, s_process
from repro.errors import SchedulingError
from repro.runtime.concurrency import FilteredScheduler, KConcurrencyFilter
from repro.runtime.scheduler import (
    AdversarialScheduler,
    Exclusion,
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


PAIRS = {
    "burst": lambda seed: (
        BurstStarvationScheduler(period=9, burst=5, seed=seed),
        OldBurst(period=9, burst=5, seed=seed),
    ),
    "burst-seeded": lambda seed: (
        BurstStarvationScheduler(
            SeededRandomScheduler(seed), period=7, burst=3, seed=seed
        ),
        OldBurst(SeededRandomScheduler(seed), period=7, burst=3, seed=seed),
    ),
    "shadow": lambda seed: (
        DecidedShadowScheduler(shadow=4),
        OldShadow(shadow=4),
    ),
    "adversarial": lambda seed: (
        AdversarialScheduler([PIDS[seed % 6], PIDS[(seed // 6) % 6]], period=3),
        OldAdversarial([PIDS[seed % 6], PIDS[(seed // 6) % 6]], period=3),
    ),
    "k-concurrent": lambda seed: (
        FilteredScheduler(RoundRobinScheduler(), KConcurrencyFilter(1 + seed % 2)),
        OldFiltered(RoundRobinScheduler(), KConcurrencyFilter(1 + seed % 2)),
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
