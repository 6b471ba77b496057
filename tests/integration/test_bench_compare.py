"""Unit tests for the bench comparison helpers: the ``--compare``
delta table, the per-pair kernel speedup gate, and the repeated pair
runner it reads.

These exercise only the pure functions over results dictionaries; the
timed workloads themselves are covered by running the suite (CI smoke
mode) and are deliberately not re-run here.
"""

from repro.bench import (
    KERNEL_PAIRS,
    KERNEL_SPEEDUP_MIN,
    PAIR_REPEATS,
    RATE_KEYS,
    _run_pair,
    compare_runs,
    kernel_speedup_problems,
    pair_speedup,
    render,
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
    # Probes sit just around the floors, which are about 0.8x the lower
    # of each pair's full and smoke medians.

    def test_pair_below_minimum_is_a_problem(self):
        results = {
            "executor_compiled_rw_n8": {"steps_per_s": 190.0},
            "executor_rw_n8": {"steps_per_s": 100.0},
        }
        problems = kernel_speedup_problems(results)
        assert len(problems) == 1
        assert "executor_compiled_rw_n8" in problems[0]
        assert "1.90x" in problems[0]
        assert "minimum: 1.95x" in problems[0]

    def test_pair_meeting_minimum_passes(self):
        results = {
            "campaign_compiled": {"cells_per_s": 8.0},
            "campaign_smoke": {"cells_per_s": 10.0},
        }
        assert kernel_speedup_problems(results) == []

    def test_campaign_pair_gates_at_its_own_threshold(self):
        # 0.8x clears the campaign pairs' 0.75x floor but must still
        # trip the paxos-inlined executor pair's 1.05x floor.
        results = {
            "campaign_compiled_seed_sweep": {"cells_per_s": 8.0},
            "campaign_seed_sweep": {"cells_per_s": 10.0},
            "executor_compiled_paxos_inlined": {"steps_per_s": 80.0},
            "executor_paxos_inlined": {"steps_per_s": 100.0},
        }
        problems = kernel_speedup_problems(results)
        assert len(problems) == 1
        assert "executor_compiled_paxos_inlined" in problems[0]

    def test_pair_without_minimum_entry_is_not_gated(self):
        results = {
            "executor_compiled_rw_n8": {"steps_per_s": 190.0},
            "executor_rw_n8": {"steps_per_s": 100.0},
        }
        assert kernel_speedup_problems(results, minimums={}) == []

    def test_unrun_pairs_are_skipped(self):
        assert kernel_speedup_problems({}) == []

    def test_every_gated_pair_is_a_known_pair(self):
        for compiled_name in KERNEL_SPEEDUP_MIN:
            assert compiled_name in KERNEL_PAIRS
            assert compiled_name in RATE_KEYS

    def test_gate_reads_the_median_repetition(self):
        # One repetition far below the floor, and recorded rates whose
        # ratio is below it too: the median repetition decides.
        results = {
            "executor_compiled_rw_n8": {
                "steps_per_s": 150.0,
                "speedup_runs": [1.0, 2.2, 2.4],
            },
            "executor_rw_n8": {"steps_per_s": 100.0},
        }
        assert pair_speedup(results, "executor_compiled_rw_n8") == 2.2
        assert kernel_speedup_problems(results) == []
        assert "[2.20x vs executor_rw_n8]" in render(
            {name: {**m, "wall_s": 1.0} for name, m in results.items()}
        )
        results["executor_compiled_rw_n8"]["speedup_runs"] = [1.0, 1.5, 2.4]
        problems = kernel_speedup_problems(results)
        assert len(problems) == 1
        assert "1.50x" in problems[0]


class TestRunPair:
    def test_sides_alternate_and_records_are_the_median_runs(self):
        calls = []
        interp_rates = iter([30.0, 10.0, 20.0])
        compiled_rates = iter([60.0, 40.0, 30.0])

        def interp():
            calls.append("interp")
            return {"rate": next(interp_rates)}

        def compiled():
            calls.append("compiled")
            return {"rate": next(compiled_rates)}

        interp_record, compiled_record = _run_pair(interp, compiled, "rate")
        assert calls == ["interp", "compiled"] * PAIR_REPEATS
        assert interp_record == {"rate": 20.0}
        assert compiled_record["rate"] == 40.0
        assert compiled_record["speedup_runs"] == [2.0, 4.0, 1.5]
