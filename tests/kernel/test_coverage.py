"""The compile-coverage manifest check: regressions and stale compiler
tags both fail it."""

import json

from repro.kernel.compiler import COMPILER_TAG
from repro.kernel.coverage import (
    MANIFEST,
    CoverageRow,
    check_manifest,
    write_manifest,
)

ROWS = [
    CoverageRow("paxos.propose", "inlined", "into paxos.driver"),
    CoverageRow("splitters.moir_anderson_factory", "compiled", "4 sites"),
]


def test_current_manifest_passes(tmp_path):
    write_manifest(ROWS, tmp_path)
    assert check_manifest(ROWS, tmp_path) == []


def test_stale_compiler_tag_is_a_problem(tmp_path):
    path = write_manifest(ROWS, tmp_path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["compiler"] = "2:yield-from-inline+delegate"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    problems = check_manifest(ROWS, tmp_path)
    assert len(problems) == 1
    assert MANIFEST in problems[0]
    assert COMPILER_TAG in problems[0]


def test_coverage_regression_is_a_problem(tmp_path):
    write_manifest(ROWS, tmp_path)
    regressed = [ROWS[0], CoverageRow(ROWS[1].name, "fallback", "why")]
    (problem,) = check_manifest(regressed, tmp_path)
    assert "'compiled' -> 'fallback'" in problem


def test_census_names_the_refusal_of_the_instantiated_closure():
    """A factory-of-factories falls back for its closure's reason, not
    for the outer factory's "not a generator function"."""
    from repro.kernel import dump_all
    from repro.kernel.coverage import coverage_rows

    reasons = {
        row.name: row.detail for row in coverage_rows()
        if row.status == "fallback"
    }
    dump = dump_all()
    for name in (
        "kcode_simulation.figure2_c_factory",
        "kcode_simulation.figure2_s_factory",
        "renaming_figure3.figure3_factory",
        "self_synchronization.interleave_factories",
    ):
        assert reasons[name] == "yield of a non-constructor expression"
        assert (
            f"# {name}: falls back to the interpreter (yield of a "
            "non-constructor expression)"
        ) in dump
