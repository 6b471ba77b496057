"""Unit tests for schedulers."""

import pytest

from repro.core.process import c_process, s_process
from repro.errors import SchedulingError
from repro.runtime.scheduler import (
    AdversarialScheduler,
    ExplicitScheduler,
    PrioritizedScheduler,
    RecordingScheduler,
    RoundRobinScheduler,
    SchedulerView,
    SeededRandomScheduler,
    standard_scheduler_suite,
)


def view(candidates, time=0):
    return SchedulerView(
        time=time,
        candidates=tuple(candidates),
        started=frozenset(),
        decided=frozenset(),
        participants=frozenset(),
    )


PIDS = (c_process(0), c_process(1), s_process(0))


class TestRoundRobin:
    def test_cycles_fairly(self):
        sched = RoundRobinScheduler()
        picks = [sched.next(view(PIDS)) for _ in range(9)]
        for pid in PIDS:
            assert picks.count(pid) == 3

    def test_empty_candidates_raise(self):
        with pytest.raises(SchedulingError):
            RoundRobinScheduler().next(view(()))


class TestSeededRandom:
    def test_deterministic_under_seed(self):
        a = SeededRandomScheduler(3)
        b = SeededRandomScheduler(3)
        picks_a = [a.next(view(PIDS)) for _ in range(20)]
        picks_b = [b.next(view(PIDS)) for _ in range(20)]
        assert picks_a == picks_b

    def test_covers_all_candidates(self):
        sched = SeededRandomScheduler(0)
        picks = {sched.next(view(PIDS)) for _ in range(100)}
        assert picks == set(PIDS)


class TestAdversarial:
    def test_victim_starved_but_not_forever(self):
        victim = c_process(0)
        sched = AdversarialScheduler([victim], period=10)
        picks = [sched.next(view(PIDS)) for _ in range(100)]
        count = picks.count(victim)
        assert 0 < count <= 12

    def test_victim_runs_solo_when_alone(self):
        victim = c_process(0)
        sched = AdversarialScheduler([victim], period=10)
        assert sched.next(view((victim,))) == victim

    def test_bad_period_rejected(self):
        with pytest.raises(SchedulingError):
            AdversarialScheduler([c_process(0)], period=1)

    def test_multiple_victims_all_rotated(self):
        # Regression: with the period dividing the victim turns evenly,
        # indexing victims by the turn counter pinned victims[0] forever
        # and starved the rest of the victim set.
        victims = [c_process(0), c_process(1)]
        sched = AdversarialScheduler(victims, period=2)
        picks = [sched.next(view(PIDS)) for _ in range(40)]
        assert picks.count(victims[0]) > 0
        assert picks.count(victims[1]) > 0

    def test_rotation_covers_three_victims(self):
        sched = AdversarialScheduler(list(PIDS), period=3)
        picks = set(sched.next(view(PIDS)) for _ in range(30))
        assert picks == set(PIDS)


class TestRecording:
    def test_records_inner_choices(self):
        inner = RoundRobinScheduler()
        recorder = RecordingScheduler(inner)
        picks = [recorder.next(view(PIDS)) for _ in range(6)]
        assert recorder.picks == picks

    def test_recorded_sequence_replays_explicitly(self):
        recorder = RecordingScheduler(SeededRandomScheduler(4))
        original = [recorder.next(view(PIDS)) for _ in range(10)]
        replay = ExplicitScheduler(list(recorder.picks))
        assert [replay.next(view(PIDS)) for _ in range(10)] == original


class TestExplicit:
    def test_follows_sequence(self):
        seq = [c_process(1), c_process(0), s_process(0)]
        sched = ExplicitScheduler(seq)
        assert [sched.next(view(PIDS)) for _ in range(3)] == seq
        assert sched.exhausted

    def test_strict_raises_on_unschedulable(self):
        sched = ExplicitScheduler([c_process(5)])
        with pytest.raises(SchedulingError):
            sched.next(view(PIDS))

    def test_strict_raises_when_exhausted(self):
        sched = ExplicitScheduler([])
        with pytest.raises(SchedulingError):
            sched.next(view(PIDS))

    def test_lenient_falls_back(self):
        sched = ExplicitScheduler([c_process(5)], strict=False)
        assert sched.next(view(PIDS)) in PIDS


class TestPrioritized:
    def test_lowest_rank_wins(self):
        sched = PrioritizedScheduler({s_process(0): 0, c_process(0): 1})
        assert sched.next(view(PIDS)) == s_process(0)

    def test_unknown_ids_get_default(self):
        sched = PrioritizedScheduler({}, default=5)
        assert sched.next(view(PIDS)) == min(PIDS)


def test_standard_suite_composition():
    suite = standard_scheduler_suite(PIDS, seeds=(0, 1))
    kinds = [type(s).__name__ for s in suite]
    assert kinds.count("RoundRobinScheduler") == 1
    assert kinds.count("SeededRandomScheduler") == 2
    assert kinds.count("AdversarialScheduler") == len(PIDS)


class TestSchedulerView:
    def test_fields_cannot_be_assigned(self):
        v = view(PIDS)
        with pytest.raises(AttributeError):
            v.candidates = ()
        with pytest.raises(AttributeError):
            v.time = 1

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = view(PIDS, time=4)
        by_position = SchedulerView(
            4, PIDS, frozenset(), frozenset(), frozenset()
        )
        assert by_keyword == by_position
        assert by_keyword.time == 4
        assert by_keyword.candidates == PIDS

    def test_replace_narrows_a_copy(self):
        v = view(PIDS, time=2)
        narrowed = v._replace(candidates=PIDS[:1])
        assert narrowed.candidates == PIDS[:1]
        assert narrowed.time == 2
        assert v.candidates == PIDS
