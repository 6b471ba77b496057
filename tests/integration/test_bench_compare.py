"""Unit tests for the bench comparison helpers: the ``--compare``
delta table, the per-pair kernel speedup gate, the dispatch overhead
gates, and the repeated pair runners they read.

These exercise only the pure functions over results dictionaries; the
timed workloads themselves are covered by running the suite (CI smoke
mode) and are deliberately not re-run here.
"""

import pytest

from repro.bench import (
    KERNEL_PAIRS,
    KERNEL_SPEEDUP_MIN,
    PAIR_REPEATS,
    RATE_KEYS,
    _run_dispatch_pair,
    _run_pair,
    compare_runs,
    fabric_overhead_problems,
    kernel_speedup_problems,
    pair_speedup,
    render,
    supervised_overhead_problems,
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
        new = {"campaign_seed_sweep": {"cells_per_s": 38.0}}
        row = _row(compare_runs(old, new), "campaign_seed_sweep")
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
            "executor_compiled_paxos_inlined": {"steps_per_s": 110.0},
            "executor_paxos_inlined": {"steps_per_s": 100.0},
        }
        assert kernel_speedup_problems(results) == []

    def test_each_pair_gates_at_its_own_threshold(self):
        # 1.4x clears the nop_n32 pair's 1.35x floor but must still
        # trip the rw_n8 pair's 1.95x floor.
        results = {
            "executor_compiled_nop_n32": {"steps_per_s": 140.0},
            "executor_nop_n32": {"steps_per_s": 100.0},
            "executor_compiled_rw_n8": {"steps_per_s": 140.0},
            "executor_rw_n8": {"steps_per_s": 100.0},
        }
        problems = kernel_speedup_problems(results)
        assert len(problems) == 1
        assert "executor_compiled_rw_n8" in problems[0]

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


class _Report:
    """The two members of a campaign report a dispatch pair reads."""

    fabric = None

    def __init__(self, cells):
        self.records = [None] * cells

    def render(self):
        return f"{len(self.records)} cells"


def _dispatch_record(walls):
    """A dispatch pair's record over 10-cell runs whose wall times are
    ``walls``, serial and dispatched alternating; also returns the order
    in which the two sides ran."""
    calls = []
    walls = iter(walls)

    def side(name):
        def run():
            calls.append(name)
            return _Report(10), next(walls)

        return run

    return _run_dispatch_pair(side("serial"), side("dispatched")), calls


class TestDispatchGates:
    def test_runs_alternate_and_the_record_is_the_median_overhead(self):
        record, calls = _dispatch_record([1.0, 1.0, 1.0, 2.0, 1.0, 1.25])
        assert calls == ["serial", "dispatched"] * PAIR_REPEATS
        assert record["overhead_runs"] == pytest.approx([0.0, 0.5, 0.2])
        assert record["overhead_frac"] == pytest.approx(0.2)
        assert record["wall_s"] == 1.25 and record["cells"] == 10

    def test_one_slow_repetition_trips_no_gate(self):
        record, _ = _dispatch_record([1.0, 2.0, 1.0, 1.0, 1.0, 1.05])
        results = {
            "campaign_supervised": record,
            "campaign_fabric_loopback": record,
        }
        assert supervised_overhead_problems(results) == []
        assert fabric_overhead_problems(results) == []
        assert supervised_overhead_problems({}) == []

    def test_a_slow_median_repetition_trips_both_gates(self):
        record, _ = _dispatch_record([1.0, 1.0, 1.0, 2.0, 1.0, 1.25])
        results = {
            "campaign_supervised": record,
            "campaign_fabric_loopback": record,
        }
        (supervised,) = supervised_overhead_problems(results)
        assert supervised.startswith("campaign_supervised: supervised pool")
        assert "20.0% slower" in supervised and "budget: 10%" in supervised
        (fabric,) = fabric_overhead_problems(results)
        assert fabric.startswith("campaign_fabric_loopback: fabric dispatch")
        assert "20.0% slower" in fabric and "budget: 15%" in fabric
