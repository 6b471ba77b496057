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
