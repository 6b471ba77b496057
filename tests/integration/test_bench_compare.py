"""Unit tests for the bench comparison helpers: the ``--compare``
delta table and the per-pair kernel speedup gate.

These exercise only the pure functions over results dictionaries; the
timed workloads themselves are covered by running the suite (CI smoke
mode) and are deliberately not re-run here.
"""

from repro.bench import (
    KERNEL_PAIRS,
    KERNEL_SPEEDUP_MIN,
    RATE_KEYS,
    compare_runs,
    kernel_speedup_problems,
)


def _row(table: str, name: str) -> str:
    for line in table.splitlines():
        if line.startswith(name):
            return line
    raise AssertionError(f"no row for {name} in:\n{table}")


class TestCompareRuns:
    def test_delta_factor_for_cases_on_both_sides(self):
        old = {"executor_rw_n8": {"steps_per_s": 100_000.0}}
        new = {"executor_rw_n8": {"steps_per_s": 250_000.0}}
        row = _row(compare_runs(old, new), "executor_rw_n8")
        assert "100000" in row
        assert "250000" in row
        assert "2.50x" in row

    def test_one_sided_case_renders_dashes(self):
        old = {}
        new = {"campaign_compiled_seed_sweep": {"cells_per_s": 38.0}}
        row = _row(compare_runs(old, new), "campaign_compiled_seed_sweep")
        assert "38" in row
        assert "-" in row  # missing old rate and missing delta
        assert "x" not in row

    def test_unknown_name_falls_back_to_wall_seconds(self):
        old = {"some_future_case": {"wall_s": 4.0}}
        new = {"some_future_case": {"wall_s": 2.0}}
        row = _row(compare_runs(old, new), "some_future_case")
        assert "0.50x" in row

    def test_cases_absent_from_both_runs_are_omitted(self):
        table = compare_runs({}, {})
        assert table.splitlines()[0].startswith("benchmark")
        assert len(table.splitlines()) == 1

    def test_known_names_keep_suite_order(self):
        old = {name: {RATE_KEYS[name]: 1.0} for name in RATE_KEYS}
        table = compare_runs(old, old)
        listed = [line.split()[0] for line in table.splitlines()[1:]]
        assert listed == list(RATE_KEYS)


class TestKernelSpeedupGate:
    def test_pair_below_minimum_is_a_problem(self):
        results = {
            "executor_compiled_rw_n8": {"steps_per_s": 100.0},
            "executor_rw_n8": {"steps_per_s": 50.0},
        }
        problems = kernel_speedup_problems(results)
        assert len(problems) == 1
        assert "executor_compiled_rw_n8" in problems[0]
        assert "2.0x" in problems[0]

    def test_pair_meeting_minimum_passes(self):
        results = {
            "campaign_compiled": {"cells_per_s": 30.0},
            "campaign_smoke": {"cells_per_s": 10.0},
        }
        assert kernel_speedup_problems(results) == []

    def test_campaign_pair_gates_at_its_own_threshold(self):
        # 1.3x clears the smoke-mix pair's 1.2x minimum but must still
        # trip the seed-sweep pair's dedicated 1.4x minimum.
        results = {
            "campaign_compiled_seed_sweep": {"cells_per_s": 13.0},
            "campaign_seed_sweep": {"cells_per_s": 10.0},
        }
        problems = kernel_speedup_problems(results)
        assert len(problems) == 1
        assert "campaign_compiled_seed_sweep" in problems[0]

    def test_pair_without_minimum_entry_is_not_gated(self):
        results = {
            "executor_compiled_rw_n8": {"steps_per_s": 100.0},
            "executor_rw_n8": {"steps_per_s": 50.0},
        }
        assert kernel_speedup_problems(results, minimums={}) == []

    def test_unrun_pairs_are_skipped(self):
        assert kernel_speedup_problems({}) == []

    def test_every_gated_pair_is_a_known_pair(self):
        for compiled_name in KERNEL_SPEEDUP_MIN:
            assert compiled_name in KERNEL_PAIRS
            assert compiled_name in RATE_KEYS
