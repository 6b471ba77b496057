"""Unit tests of the codegen layer: what compiles, what falls back,
and that the generated artifacts (source, content hash, op sites) are
stable and self-consistent."""

import gc
import weakref

import pytest

from repro.core import System
from repro.kernel import (
    UnsupportedAutomaton,
    cached_programs,
    clear_cache,
    compile_automaton,
    compiled_source,
    dump_all,
    dump_source,
)
from repro.memory import collect_array
from repro.runtime import RoundRobinScheduler, ops


def counter(ctx):
    total = 0
    for _ in range(3):
        value = yield ops.Read(f"c/{ctx.pid.index}")
        total += value or 0
        yield ops.Write(f"c/{ctx.pid.index}", total + 1)
    yield ops.Decide(total)


def delegating(ctx):
    yield from counter(ctx)


def sub_with_return(ctx, base):
    value = yield ops.Read(f"r/{ctx.pid.index}")
    return (value or 0) + base


def delegating_with_result(ctx):
    got = yield from sub_with_return(ctx, 10)
    yield ops.Decide(got)


def collect_then_sum(ctx, size):
    view = yield from collect_array("n/", size)
    return sum(value or 0 for value in view)


def nested_delegating(ctx):
    yield ops.Write(f"n/{ctx.pid.index}", ctx.pid.index + 1)
    total = yield from collect_then_sum(ctx, 2)
    yield ops.Decide(total)


def yields_prebuilt_op(ctx):
    op = ops.Nop()
    yield op


def not_a_generator(ctx):
    return [ops.Nop()]


def annotated(ctx):
    samples: list = []
    total: int = 0
    for i in range(2):
        value = yield ops.Read(f"a/{i}")
        samples.append(value)
        total += 1
    yield ops.Decide(total)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_simple_automaton_compiles_with_expected_sites():
    program = compile_automaton(counter)
    assert program.name == "counter"
    assert program.n_sites == len(program.sites) == 3
    kinds = [site.kind for site in program.sites]
    assert kinds == ["read", "write", "decide"]
    # Register operands are f-strings over ctx — constant prefix known.
    assert program.sites[0].register_prefix == "c/"


def test_unsupported_constructs_raise_and_are_cached():
    with pytest.raises(UnsupportedAutomaton):
        compile_automaton(yields_prebuilt_op)
    with pytest.raises(UnsupportedAutomaton):  # negative result cached
        compile_automaton(yields_prebuilt_op)
    with pytest.raises(UnsupportedAutomaton):
        compile_automaton(not_a_generator)
    assert cached_programs() == []


def test_cached_refusals_keep_no_frames_alive():
    """A cached refusal raises a fresh exception each time, so no raise
    grows a cached traceback that pins the raising frames: the systems
    of runs that fell back are freed."""
    from repro.kernel import CompiledRun, compiler
    from repro.kernel.differential import all_cases

    cases = {case.name: case for case in all_cases(smoke=True)}
    refs = []
    for name in ("catalog:renaming_figure3", "catalog:self_synchronization"):
        case = cases[name]
        for _ in range(5):
            system, scheduler = case.build()
            refs.append(weakref.ref(system))
            run = CompiledRun(system, scheduler, max_steps=case.max_steps)
            assert run.fallback_pids
            run.run()
            del system, scheduler, run
    gc.collect()
    assert [ref() for ref in refs] == [None] * 10
    assert compiler.cached_refusals()
    assert all(
        getattr(entry, "__traceback__", None) is None
        for entry in compiler._CACHE.values()
    )


def test_delegating_automaton_inlines_the_subroutine():
    program = compile_automaton(delegating)
    assert program.n_sites == 3  # counter's sites, flattened in place
    assert [site.kind for site in program.sites] == [
        "read",
        "write",
        "decide",
    ]
    assert any(name.endswith(".counter") for name in program.inlined)


def test_yield_from_return_value_plumbing():
    from repro.kernel import execute_compiled
    from repro.runtime.executor import execute

    program = compile_automaton(delegating_with_result)
    assert any(
        name.endswith(".sub_with_return") for name in program.inlined
    )

    def build():
        return System(
            inputs=(0,), c_factories=[delegating_with_result]
        )

    interp = execute(build(), RoundRobinScheduler(), max_steps=100)
    compiled = execute_compiled(
        build(), RoundRobinScheduler(), max_steps=100
    )
    assert compiled.outputs == interp.outputs == (10,)


def test_nested_delegation_inlines_every_level():
    from repro.kernel import execute_compiled
    from repro.runtime.executor import execute

    program = compile_automaton(nested_delegating)
    assert [site.kind for site in program.sites] == [
        "write",
        "read",
        "decide",
    ]
    assert {name.rsplit(".", 1)[-1] for name in program.inlined} == {
        "collect_then_sum",
        "collect_array",
    }

    def build():
        return System(inputs=(0, 1), c_factories=[nested_delegating] * 2)

    for trace in (False, True):
        interp = execute(
            build(), RoundRobinScheduler(), max_steps=100, trace=trace
        )
        compiled = execute_compiled(
            build(), RoundRobinScheduler(), max_steps=100, trace=trace
        )
        assert compiled.outputs == interp.outputs == (3, 3)
        if trace:
            assert [
                (e.time, e.pid, e.op, e.result) for e in compiled.trace.events
            ] == [(e.time, e.pid, e.op, e.result) for e in interp.trace.events]


def test_cache_returns_same_program_object():
    assert compile_automaton(counter) is compile_automaton(counter)
    assert [p.name for p in cached_programs()] == ["counter"]


def test_content_hash_stable_across_recompiles():
    first = compile_automaton(counter)
    clear_cache()
    second = compile_automaton(counter)
    assert first is not second
    assert first.source == second.source
    assert first.content_hash == second.content_hash
    assert len(first.content_hash) == 64  # sha256 hex


def test_annotated_locals_compile_and_run():
    """Function-body annotations (``x: T = v``) cannot survive into the
    generated ``nonlocal`` scope; the compiler strips them without
    changing behavior."""
    from repro.kernel import execute_compiled
    from repro.runtime.executor import execute

    program = compile_automaton(annotated)
    assert program.n_sites == 2

    def build():
        return System(inputs=(1,), c_factories=[annotated])

    interp = execute(build(), RoundRobinScheduler(), max_steps=100)
    compiled = execute_compiled(
        build(), RoundRobinScheduler(), max_steps=100
    )
    assert compiled.outputs == interp.outputs == (2,)


def test_compiled_source_accessor():
    compile_automaton(counter)
    source = compiled_source(counter)
    assert "def _K_make(" in source
    assert "nonlocal" in source


def test_dump_source_round_trips_through_compile():
    """The CLI dump (``repro kernel --dump NAME``) must be valid Python:
    content-hash header comments plus generated source, re-compilable
    as-is with the ``compile`` builtin."""
    from repro.kernel.compiler import _INJECTED

    compile_automaton(counter)
    dumped = dump_source("counter")
    assert "content-hash: sha256:" in dumped
    code = compile(dumped, "<kernel-dump>", "exec")
    # The generated module's only outward references are the injected
    # kernel names; with those provided it executes standalone.
    namespace: dict = dict(_INJECTED)
    exec(code, namespace)
    assert callable(namespace["_K_make"])


def test_dump_source_unknown_name_raises_key_error():
    with pytest.raises(KeyError):
        dump_source("no-such-automaton")


def test_dump_all_is_compilable_and_reports_fallbacks():
    dumped = dump_all()
    compile(dumped, "<kernel-dump-all>", "exec")  # must parse
    assert "falls back to the interpreter" in dumped
    assert "content-hash: sha256:" in dumped
