"""The kernel's correctness gate, exercised as tests: byte-identical
runs over the battery/reduction/crash-sweep catalog, the footprint
cross-check, and — crucially — a deliberately miscompiled specimen
proving the gate fails loudly instead of silently accepting a wrong
program."""

import dataclasses

import pytest

from repro.core import System
from repro.kernel import CompiledRun, clear_cache, compile_automaton
from repro.kernel.compiler import _INJECTED
from repro.kernel.differential import (
    DiffCase,
    DifferentialFailure,
    all_cases,
    campaign_differential,
    canonical_result,
    footprint_crosscheck,
    run_case,
    verify_case,
)
from repro.runtime import RoundRobinScheduler, ops
from repro.runtime.executor import execute

from .compiled_cells import count_compiled_runs

_SMOKE_CASES = all_cases(smoke=True)


def _case(name):
    return next(c for c in _SMOKE_CASES if c.name == name)


@pytest.mark.parametrize(
    "case", _SMOKE_CASES, ids=lambda c: c.name
)
def test_case_byte_identical_traced_and_untraced(case):
    verify_case(case)  # raises DifferentialFailure on any divergence


def test_battery_cases_cover_the_lint_battery():
    names = {c.name for c in _SMOKE_CASES}
    for expected in (
        "battery:one_concurrent@1",
        "battery:kset_concurrent@1",
        "battery:s_helper",
        "battery:figure4",
        "battery:wsb@2",
        "battery:moir_anderson",
        "battery:kset_vector",
    ):
        assert expected in names


def test_reduction_cases_cover_all_ten_workloads():
    reduction = {
        c.name.split("/")[0].removeprefix("reduction:")
        for c in _SMOKE_CASES
        if c.name.startswith("reduction:")
    }
    assert reduction == {
        "figure4",
        "figure4-violating",
        "kset-mixed",
        "kset-symmetric",
        "kset-violating",
        "identity",
        "wsb",
        "crashes-0",
        "crashes-1",
        "crashes-2",
    }


def test_delegating_kset_vector_now_compiles():
    """kset_vector delegates into paxos via ``yield from`` — once the
    dominant fallback class, now inlined into a flat compiled program,
    and still byte-identical."""
    outcome = run_case(_case("battery:kset_vector"), trace=True)
    assert not outcome.fallback_pids  # inlined, no interpreter
    assert outcome.identical  # ...and did not diverge


def test_fully_compiled_case_reports_no_fallbacks():
    outcome = run_case(_case("battery:s_helper"), trace=False)
    assert not outcome.fallback_pids
    assert outcome.compiled_pids


def test_footprint_crosscheck_clean_over_schema_automata():
    from repro.kernel import warm_cache

    warm_cache()
    checked, mismatches = footprint_crosscheck()
    assert mismatches == []
    assert checked >= 20  # every compiled schema automaton's sites


def test_campaign_reports_byte_identical(tmp_path):
    with count_compiled_runs(tmp_path) as built:
        interp_render, compiled_render = campaign_differential(limit=4)
    assert built() == 4  # the one-concurrent cells
    assert interp_render == compiled_render


# -- the miscompiled specimen ---------------------------------------------


def honest(ctx):
    me = ctx.pid.index
    for i in range(20):
        yield ops.Write(f"cell/{me}/{i}", i)
    value = yield ops.Read(f"cell/{me}/0")
    yield ops.Decide(value)


def _miscompile(factory):
    """Build a tampered CompiledProgram: same shape, wrong registers —
    the kind of bug a codegen regression would introduce."""
    program = compile_automaton(factory)
    bad_source = program.source.replace("cell/", "miscompiled/")
    assert bad_source != program.source
    namespace = dict(factory.__globals__)
    namespace.update(_INJECTED)
    exec(
        compile(bad_source, "<tampered>", "exec"), namespace
    )
    return dataclasses.replace(
        program, source=bad_source, make=namespace["_K_make"]
    )


def test_miscompiled_specimen_trips_the_gate_loudly():
    bad = _miscompile(honest)

    def build():
        return System(inputs=(0, 1), c_factories=[honest] * 2)

    interp = execute(
        build(), RoundRobinScheduler(), max_steps=500, trace=True
    )
    run = CompiledRun(
        build(),
        RoundRobinScheduler(),
        max_steps=500,
        trace=True,
        program_overrides={honest: bad},
    )
    compiled = run.run()
    # The tampered program writes to the wrong registers: the final
    # memory (and the trace) cannot match.
    assert canonical_result(interp) != canonical_result(compiled)
    assert any(
        name.startswith("miscompiled/")
        for name in compiled.memory.snapshot("")
    )
    # And the gate's own comparator reports it as a loud failure, not
    # a silent pass.
    outcome = run_case(
        DiffCase(
            "tampered",
            lambda: (build(), RoundRobinScheduler()),
            max_steps=500,
        ),
        trace=True,
    )
    assert outcome.identical  # sanity: untampered honest program is fine
    with pytest.raises(DifferentialFailure):
        _raise_like_the_gate(
            canonical_result(interp), canonical_result(compiled)
        )


def _raise_like_the_gate(interp_canonical, compiled_canonical):
    """Mirror run_differential's failure path for a single comparison."""
    if interp_canonical != compiled_canonical:
        raise DifferentialFailure("tampered specimen diverged")


def test_clear_cache_between_specimens():
    # Leave no tampered state behind for other test modules.
    clear_cache()
    assert compile_automaton(honest).source.count("miscompiled/") == 0
