"""Unit tests for history containers and the stabilizing history."""

import random

from repro.core.history import (
    ConstantHistory,
    FunctionHistory,
    QueryLog,
    RecordedHistory,
    answers_agree,
)
from repro.detectors.base import StabilizingHistory, choose_correct
from repro.core.failures import FailurePattern


class TestContainers:
    def test_constant(self):
        h = ConstantHistory("x")
        assert h.value(0, 0) == "x"
        assert h.value(5, 99) == "x"

    def test_function(self):
        h = FunctionHistory(lambda q, t: (q, t))
        assert h.value(2, 7) == (2, 7)

    def test_recorded_with_default(self):
        h = RecordedHistory({(0, 1): "a"}, default="d")
        assert h.value(0, 1) == "a"
        assert h.value(0, 2) == "d"

    def test_recorded_mutation(self):
        h = RecordedHistory({})
        h.record(1, 3, "late")
        assert h.value(1, 3) == "late"


class TestQueryLog:
    def _logged(self, history, points):
        log = QueryLog(history)
        answers = [log.value(q, t) for q, t in points]
        return answers, log.encode(1 << 10)

    def test_logs_each_query_with_the_repr_of_its_answer(self):
        history = RecordedHistory({(0, 1): (1, 2)}, default="p1")
        answers, text = self._logged(history, [(0, 1), (2, 7)])
        assert answers == [(1, 2), "p1"]
        assert text == "0 1 (1, 2)\n2 7 'p1'"
        assert answers_agree(history, text)

    def test_agreement_reads_only_up_to_the_first_difference(self):
        _, text = self._logged(
            FunctionHistory(lambda q, t: t), [(0, 1), (1, 2), (2, 3)]
        )
        asked = []

        def changed(q, t):
            asked.append((q, t))
            return 0 if t == 2 else t

        assert not answers_agree(FunctionHistory(changed), text)
        assert asked == [(0, 1), (1, 2)]
        assert answers_agree(FunctionHistory(lambda q, t: t), text)

    def test_an_empty_log_agrees_with_every_history(self):
        _, text = self._logged(ConstantHistory(1), [])
        assert text == ""
        assert answers_agree(ConstantHistory(2), text)

    def test_no_encoding_when_too_long_or_ambiguous(self):
        assert self._logged(ConstantHistory("x" * 2000), [(0, 0)])[1] is None
        assert self._logged(ConstantHistory("a\nb"), [(0, 0)])[1] == (
            "0 0 'a\\nb'"
        )

        class Multiline:
            def __repr__(self):
                return "two\nlines"

        assert self._logged(ConstantHistory(Multiline()), [(0, 0)])[1] is None


class TestStabilizingHistory:
    def _history(self, stabilization):
        return StabilizingHistory(
            stable=lambda q: f"stable-{q}",
            noise=lambda q, t, rng: rng.randrange(100),
            stabilization_time=stabilization,
            base_seed=42,
        )

    def test_stable_after_threshold(self):
        h = self._history(10)
        assert h.value(1, 10) == "stable-1"
        assert h.value(1, 1000) == "stable-1"

    def test_noise_before_threshold_is_deterministic(self):
        a = self._history(10)
        b = self._history(10)
        values_a = [a.value(q, t) for q in range(3) for t in range(10)]
        values_b = [b.value(q, t) for q in range(3) for t in range(10)]
        assert values_a == values_b

    def test_cache_consistency(self):
        h = self._history(5)
        first = h.value(0, 2)
        assert h.value(0, 2) == first

    def test_zero_stabilization_means_always_stable(self):
        h = self._history(0)
        assert h.value(2, 0) == "stable-2"


class TestChooseCorrect:
    def test_only_correct_chosen(self):
        pattern = FailurePattern.crash(4, {0: 0, 2: 0})
        for seed in range(10):
            chosen = choose_correct(pattern, random.Random(seed))
            assert chosen in pattern.correct

    def test_deterministic_per_seed(self):
        pattern = FailurePattern.all_correct(5)
        a = choose_correct(pattern, random.Random(3))
        b = choose_correct(pattern, random.Random(3))
        assert a == b
