"""Unit tests of the compiled run engine: process classification,
incremental advancing, fallback mixing, and the interpreter
delegations."""

import pytest

from repro.core import System
from repro.core.failures import FailurePattern
from repro.errors import ProtocolError
from repro.kernel import CompiledRun, execute_compiled
from repro.kernel.differential import canonical_result
from repro.runtime import RoundRobinScheduler, ops
from repro.runtime.executor import execute
from repro.runtime.scheduler import SeededRandomScheduler


def writer(ctx):
    me = ctx.pid.index
    for i in range(50):
        yield ops.Write(f"w/{me}/{i}", i)
    yield ops.Decide(me)


def delegating(ctx):
    yield from writer(ctx)


def opaque(ctx):
    # Yields a pre-built op object — the one shape the compiler still
    # refuses, keeping this process on the interpreter fallback path.
    me = ctx.pid.index
    for i in range(50):
        op = ops.Write(f"w/{me}/{i}", i)
        yield op
    yield ops.Decide(me)


def build(n=3, factory=writer, **kwargs):
    return System(
        inputs=tuple(range(n)), c_factories=[factory] * n, **kwargs
    )


def test_pid_partition_all_compiled():
    run = CompiledRun(build(), RoundRobinScheduler())
    # Three C-processes plus the system's default S-processes.
    assert len(run.compiled_pids) == 6
    assert not run.fallback_pids


def test_delegating_factory_compiles_and_matches():
    system = System(
        inputs=(0, 1), c_factories=[writer, delegating]
    )
    run = CompiledRun(system, RoundRobinScheduler())
    assert not run.fallback_pids  # yield-from now inlines
    assert run.run().outputs == execute(
        System(inputs=(0, 1), c_factories=[writer, delegating]),
        RoundRobinScheduler(),
    ).outputs


def test_pid_partition_with_fallback():
    system = System(
        inputs=(0, 1), c_factories=[writer, opaque]
    )
    run = CompiledRun(system, RoundRobinScheduler())
    compiled_c = sorted(
        p.name for p in run.compiled_pids if p.is_computation
    )
    assert compiled_c == ["p1"]
    assert sorted(p.name for p in run.fallback_pids) == ["p2"]
    # Mixed systems still match the interpreter exactly.
    assert run.run().outputs == execute(
        System(inputs=(0, 1), c_factories=[writer, opaque]),
        RoundRobinScheduler(),
    ).outputs


def test_advance_in_chunks_equals_single_run():
    whole = CompiledRun(build(), RoundRobinScheduler()).run()
    chunked = CompiledRun(build(), RoundRobinScheduler())
    turns = 0
    while not chunked.advance(7):
        turns += 1
        assert turns < 10_000
    result = chunked.result()
    assert result.steps == whole.steps
    assert result.outputs == whole.outputs
    assert result.reason == whole.reason


def test_advance_past_finish_is_idempotent():
    run = CompiledRun(build(), RoundRobinScheduler())
    assert run.advance(None) is True
    assert run.advance(5) is True
    assert run.result().reason == "all_decided"


def test_result_before_finish_raises():
    run = CompiledRun(build(), RoundRobinScheduler())
    run.advance(3)
    with pytest.raises(ProtocolError):
        run.result()


def test_budget_digest_matches_interpreter():
    def spin(ctx):
        while True:
            yield ops.Nop()

    interp = execute(
        build(factory=spin), RoundRobinScheduler(), max_steps=100
    )
    compiled = CompiledRun(
        build(factory=spin), RoundRobinScheduler(), max_steps=100
    ).run()
    assert compiled.reason == interp.reason == "budget"
    assert compiled.extras == interp.extras


def test_crash_pattern_matches_interpreter():
    def helper_s(ctx):
        while True:
            yield ops.QueryFD()
            yield ops.Nop()

    def build_crashy():
        return System(
            inputs=(0, 1, 2),
            c_factories=[writer] * 3,
            s_factories=[helper_s] * 3,
            pattern=FailurePattern(3, (5, None, 17)),
        )

    interp = execute(
        build_crashy(), SeededRandomScheduler(31), max_steps=2_000
    )
    compiled = CompiledRun(
        build_crashy(), SeededRandomScheduler(31), max_steps=2_000
    ).run()
    assert compiled.steps == interp.steps
    assert compiled.step_counts == interp.step_counts
    assert compiled.outputs == interp.outputs


def opaque_idler(ctx):
    idle = ops.Nop()
    while True:
        yield idle


def _count_compiled_runs(monkeypatch):
    built = []
    real_init = CompiledRun.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledRun, "__init__", counted_init)
    return built


@pytest.mark.parametrize("trace", [False, True])
def test_execute_compiled_runs_the_interpreter_when_nothing_compiles(
    monkeypatch, trace
):
    built = _count_compiled_runs(monkeypatch)

    def system():
        return build(factory=opaque, s_factories=[opaque_idler] * 3)

    result = execute_compiled(
        system(), SeededRandomScheduler(5), max_steps=2_000, trace=trace
    )
    assert built == []
    interp = execute(
        system(), SeededRandomScheduler(5), max_steps=2_000, trace=trace
    )
    assert canonical_result(result) == canonical_result(interp)
    assert (result.trace is not None) == trace


def test_execute_compiled_builds_a_run_when_one_automaton_compiles(
    monkeypatch,
):
    built = _count_compiled_runs(monkeypatch)
    system = System(
        inputs=(0, 1, 2),
        c_factories=[opaque, opaque, writer],
        s_factories=[opaque_idler] * 3,
    )
    result = execute_compiled(system, RoundRobinScheduler(), max_steps=2_000)
    (run,) = built
    assert len(run.compiled_pids) == 1 and len(run.fallback_pids) == 5
    assert result.outputs == (0, 1, 2)


def test_execute_compiled_delegates_stop_when_to_interpreter():
    seen = []

    def stop(executor):
        seen.append(executor.time)
        return executor.time >= 10

    result = execute_compiled(
        build(), RoundRobinScheduler(), stop_when=stop
    )
    assert seen  # the predicate observed a live interpreter Executor
    assert result.steps == 10
    assert result.reason == "predicate"
