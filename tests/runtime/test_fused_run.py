"""The fused run loop (:meth:`Executor.run`) against the paths it must
equal.

* Inline picks: under exactly ``RoundRobinScheduler`` or
  ``SeededRandomScheduler`` the loop picks without calling ``next()``.
  A trivial subclass of each takes the view-building path instead, so
  running both over the same system must give the same run and leave
  the same cursor or RNG state behind.
* Step-by-step driving: the loop keeps its own copy of the common
  operation dispatch; driving :meth:`Executor.step` with the same
  scheduler's picks (through :meth:`Executor.view`) must give the same
  run, for every scheduler kind of the campaign registry.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.registry import (
    build_detector,
    build_pattern,
    build_scheduler,
    build_system,
    build_task,
)
from repro.core import System
from repro.core.failures import FailurePattern
from repro.errors import SchedulingError
from repro.kernel.differential import canonical_result
from repro.runtime import (
    Executor,
    RoundRobinScheduler,
    SeededRandomScheduler,
    ops,
)
from repro.runtime.concurrency import k_concurrent

#: The two task/detector shapes of a crash-storm campaign.
STORM_SHAPES = (
    ({"family": "consensus", "n": 3}, {"family": "omega"}),
    (
        {"family": "set-agreement", "n": 3, "k": 2},
        {"family": "vector-omega", "k": 2},
    ),
)


def storm_system(shape: int, stab: int, crash_times) -> System:
    task_spec, detector_spec = STORM_SHAPES[shape]
    task = build_task(task_spec)
    return build_system(
        task=task,
        algorithm="auto",
        detector=build_detector(
            {**detector_spec, "stabilization_time": stab}, task.n
        ),
        inputs=None,
        pattern=build_pattern(crash_times, task.n),
        seed=0,
    )


def reader_writer(ctx):
    me = ctx.pid.index
    while True:
        yield ops.Write(f"cell/{me}", me)
        yield ops.Read(f"cell/{(me + 1) % ctx.n_computation}")


def short_lived(ctx):
    """Halts without deciding after a few steps (a retirement that is
    neither a decision nor a crash)."""
    for i in range(ctx.pid.index + 2):
        yield ops.Write(f"short/{ctx.pid.index}", i)


def snap_then_decide(ctx):
    yield ops.Snapshot("inp/")
    yield ops.CompareAndSwap("cas", None, ctx.pid.index)
    yield ops.Decide(ctx.pid.index)


def synthetic_system(crash_times) -> System:
    """Every operation kind, halting and deciding C-processes, and a
    crash pattern over the S-processes."""
    n = len(crash_times)
    factories = [reader_writer, short_lived, snap_then_decide]
    return System(
        inputs=tuple(range(n)),
        c_factories=[factories[i % 3] for i in range(n)],
        pattern=FailurePattern(n, tuple(crash_times)),
    )


@st.composite
def crash_patterns(draw, n: int = 3):
    """Crash times over ``n`` S-processes, at least one correct."""
    times = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, 80)), min_size=n, max_size=n
        )
    )
    times[draw(st.integers(0, n - 1))] = None
    return tuple(times)


class SubRoundRobin(RoundRobinScheduler):
    """Not exactly ``RoundRobinScheduler``: the loop builds views."""


class SubSeeded(SeededRandomScheduler):
    """Not exactly ``SeededRandomScheduler``: the loop builds views."""


def scheduler_state(scheduler):
    if isinstance(scheduler, SeededRandomScheduler):
        return scheduler._rng.getstate()
    return scheduler._cursor


def run_pair(build, exact, general, *, max_steps, trace):
    """Run one system under ``exact`` and again under ``general``;
    return both canonical runs and both scheduler states."""
    inline = Executor(build(), exact, max_steps=max_steps, trace=trace).run()
    viewed = Executor(build(), general, max_steps=max_steps, trace=trace).run()
    return (
        (canonical_result(inline), scheduler_state(exact)),
        (canonical_result(viewed), scheduler_state(general)),
    )


class TestInlinePicks:
    @settings(max_examples=12, deadline=None)
    @given(
        shape=st.sampled_from((0, 1)),
        stab=st.sampled_from((0, 12)),
        crash_times=crash_patterns(),
        seed=st.integers(0, 2**30),
        trace=st.booleans(),
    )
    def test_storm_cells(self, shape, stab, crash_times, seed, trace):
        def build():
            return storm_system(shape, stab, crash_times)

        for exact, general in (
            (RoundRobinScheduler(), SubRoundRobin()),
            (SeededRandomScheduler(seed), SubSeeded(seed)),
        ):
            inline, viewed = run_pair(
                build, exact, general, max_steps=6_000, trace=trace
            )
            assert inline == viewed

    @settings(max_examples=40, deadline=None)
    @given(
        crash_times=crash_patterns(n=6),
        seed=st.integers(0, 2**30),
        max_steps=st.integers(1, 300),
        trace=st.booleans(),
    )
    def test_synthetic_systems(self, crash_times, seed, max_steps, trace):
        def build():
            return synthetic_system(crash_times)

        for exact, general in (
            (RoundRobinScheduler(), SubRoundRobin()),
            (SeededRandomScheduler(seed), SubSeeded(seed)),
        ):
            inline, viewed = run_pair(
                build, exact, general, max_steps=max_steps, trace=trace
            )
            assert inline == viewed

    def test_cursor_carries_across_runs(self):
        # The inline cursor is written back, so a scheduler shared by
        # two runs continues where the first run left it.
        exact, general = RoundRobinScheduler(), SubRoundRobin()
        for _ in range(2):
            inline, viewed = run_pair(
                lambda: synthetic_system((None, 5, None)),
                exact,
                general,
                max_steps=37,
                trace=True,
            )
            assert inline == viewed
        assert exact._cursor == general._cursor > 0


def drive_stepwise(system, scheduler, *, max_steps, trace, stop_when=None):
    """The run loop spelled out over the public stepping API."""
    executor = Executor(system, scheduler, max_steps=max_steps, trace=trace)
    reason = "budget"
    while executor.time < max_steps:
        if system.participants <= executor.decided_c:
            reason = "all_decided"
            break
        if stop_when is not None and stop_when(executor):
            reason = "predicate"
            break
        if not executor.schedulable():
            reason = "halted"
            break
        try:
            pid = scheduler.next(executor.view())
        except SchedulingError:
            reason = "schedule_exhausted"
            break
        executor.step(pid)
    return executor.result(reason)


#: One spec per scheduler kind of the campaign registry.
REGISTRY_SPECS = (
    {"kind": "round-robin"},
    {"kind": "seeded", "seed": 11},
    {"kind": "adversarial", "victims": ["p1", "q2"], "period": 5},
    {"kind": "burst", "period": 9, "burst": 4, "seed": 3},
    {"kind": "shadow", "shadow": 6},
    {"kind": "inversion", "relief": 3},
    {"kind": "explicit", "sequence": ["p1", "q1", "p2", "q3"] * 6,
     "strict": False},
    {"kind": "explicit", "sequence": ["p1", "q1", "p2", "p2"], "strict": True},
)


def both_paths(build, make_scheduler, *, max_steps, trace, stop_when=None):
    fused = Executor(
        build(),
        make_scheduler(),
        max_steps=max_steps,
        trace=trace,
        stop_when=stop_when,
    ).run()
    stepped = drive_stepwise(
        build(),
        make_scheduler(),
        max_steps=max_steps,
        trace=trace,
        stop_when=stop_when,
    )
    return canonical_result(fused), canonical_result(stepped)


class TestRunEqualsStepping:
    def test_every_registry_kind_on_storm_cells(self):
        for spec in REGISTRY_SPECS:
            for shape, crash_times in ((0, (None, 1, 1)), (1, (4, None, 30))):
                for trace in (False, True):
                    fused, stepped = both_paths(
                        lambda: storm_system(shape, 12, crash_times),
                        lambda: build_scheduler(spec),
                        max_steps=4_000,
                        trace=trace,
                    )
                    assert fused == stepped, (spec, shape, trace)

    def test_every_registry_kind_on_synthetic_systems(self):
        for spec in REGISTRY_SPECS:
            for max_steps in (3, 90, 400):
                for trace in (False, True):
                    fused, stepped = both_paths(
                        lambda: synthetic_system((None, 2, None, 7, 40, 1)),
                        lambda: build_scheduler(spec),
                        max_steps=max_steps,
                        trace=trace,
                    )
                    assert fused == stepped, (spec, max_steps, trace)

    def test_filtered_scheduler(self):
        for trace in (False, True):
            fused, stepped = both_paths(
                lambda: storm_system(1, 0, (None, None, 9)),
                lambda: k_concurrent(SeededRandomScheduler(5), 1),
                max_steps=4_000,
                trace=trace,
            )
            assert fused == stepped

    def test_exploring_executor_takes_the_step_path(self):
        # History-trie slots resume through their trie, so every step of
        # an exploring executor goes through _step; the run must not
        # change.
        for spec in REGISTRY_SPECS[:4]:
            for trace in (False, True):
                runs = [
                    canonical_result(
                        Executor(
                            synthetic_system((None, 2, None, 7, 40, 1)),
                            build_scheduler(spec),
                            max_steps=300,
                            trace=trace,
                            record_results=exploring,
                        ).run()
                    )
                    for exploring in (False, True)
                ]
                assert runs[0] == runs[1], (spec, trace)

    def test_reasons_are_covered(self):
        # The comparisons above are only as strong as the stop reasons
        # they reach.
        reasons = set()
        for spec in REGISTRY_SPECS:
            for max_steps in (3, 400):
                reasons.add(
                    Executor(
                        synthetic_system((None, 2, None, 7, 40, 1)),
                        build_scheduler(spec),
                        max_steps=max_steps,
                    ).run().reason
                )
        reasons.add(
            Executor(
                storm_system(0, 0, (None, 1, 1)), RoundRobinScheduler()
            ).run().reason
        )
        assert {"budget", "all_decided", "schedule_exhausted"} <= reasons

    def test_stop_when_stops_at_the_same_step(self):
        seen = []

        def stop(executor):
            seen.append(executor.time)
            return bool(executor.decided_c) and executor.time % 7 == 3

        for spec in ({"kind": "round-robin"}, {"kind": "seeded", "seed": 2},
                     {"kind": "burst", "seed": 5}):
            for trace in (False, True):
                seen.clear()
                fused = Executor(
                    storm_system(1, 12, (None, 1, 1)),
                    build_scheduler(spec),
                    max_steps=20_000,
                    trace=trace,
                    stop_when=stop,
                ).run()
                fused_seen = list(seen)
                seen.clear()
                stepped = drive_stepwise(
                    storm_system(1, 12, (None, 1, 1)),
                    build_scheduler(spec),
                    max_steps=20_000,
                    trace=trace,
                    stop_when=stop,
                )
                assert fused.reason == stepped.reason == "predicate"
                assert fused.steps == stepped.steps
                # The predicate saw the same clock at every step.
                assert fused_seen == seen == list(range(fused.steps + 1))
                assert canonical_result(fused) == canonical_result(stepped)
