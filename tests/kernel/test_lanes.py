"""Lane edge cases and the shared copy-on-write lane state: chunk vs
cell-count interactions, seed sweeps sharing one shape group, epoch-0
snapshot sharing, and mixed compiled/fallback lanes over one COW
prefix."""

import dataclasses
import itertools

from repro.chaos import smoke_campaign
from repro.chaos.campaign import run_cell
from repro.core import System
from repro.core.process import s_process
from repro.kernel import (
    CompiledRun,
    LaneState,
    UnsupportedAutomaton,
)
from repro.kernel.lanes import CHUNK, lane_shape_key, run_cells_compiled
from repro.runtime import ops
from repro.runtime.scheduler import ExplicitScheduler


def _collect(jobs, chunk=CHUNK):
    records = {}
    run_cells_compiled(
        jobs,
        strict_traces=False,
        record_result=lambda i, r: records.__setitem__(i, r),
        chunk=chunk,
    )
    return records


def _cells(count):
    cells = list(smoke_campaign().cells())
    assert len(cells) >= count
    return cells[:count]


def _assert_matches_interp(jobs, records):
    assert sorted(records) == sorted(i for i, _ in jobs)
    for index, cell in jobs:
        expected = run_cell(cell, kernel="interp")
        got = records[index]
        assert got.outcome == expected.outcome
        assert got.detail == expected.detail
        assert got.steps == expected.steps


def _seed_sweep(base, seeds):
    sweep = []
    for seed in seeds:
        scheduler = dict(base.scheduler)
        if "seed" in scheduler:
            scheduler["seed"] = seed
        sweep.append(
            dataclasses.replace(base, seed=seed, scheduler=scheduler)
        )
    assert len({lane_shape_key(cell) for cell in sweep}) == 1
    return sweep


def test_chunk_larger_than_cell_count():
    jobs = list(enumerate(_cells(3)))
    _assert_matches_interp(jobs, _collect(jobs, chunk=10**9))


def test_single_seed_single_lane():
    jobs = [(0, _cells(1)[0])]
    _assert_matches_interp(jobs, _collect(jobs))


def test_uneven_final_chunk():
    # A chunk that never divides the step counts evenly: every lane's
    # last advance() is a partial chunk.
    jobs = list(enumerate(_cells(4)))
    _assert_matches_interp(jobs, _collect(jobs, chunk=7))


def test_seed_sweep_shares_one_shape_group():
    sweep = _seed_sweep(_cells(1)[0], range(5))
    jobs = list(enumerate(sweep))
    _assert_matches_interp(jobs, _collect(jobs))


def test_mixed_compiled_and_fallback_lanes_share_cow_prefix(
    monkeypatch,
):
    """Alternate lanes of one seed sweep between fully-compiled and
    forced interpreter fallback; both kinds share one LaneState and the
    records still match a serial interpreted run."""
    from repro.kernel import engine as engine_mod
    from repro.kernel import lanes as lanes_mod

    real_compile = engine_mod.compile_automaton
    real_run = lanes_mod.CompiledRun
    force = {"fallback": False}
    built = []

    def flaky_compile(factory):
        if force["fallback"]:
            raise UnsupportedAutomaton("forced fallback (test)")
        return real_compile(factory)

    toggle = itertools.count()

    def make_run(system, scheduler, **kwargs):
        force["fallback"] = bool(next(toggle) % 2)
        try:
            run = real_run(system, scheduler, **kwargs)
        finally:
            force["fallback"] = False
        built.append(run)
        return run

    monkeypatch.setattr(engine_mod, "compile_automaton", flaky_compile)
    monkeypatch.setattr(lanes_mod, "CompiledRun", make_run)

    sweep = _seed_sweep(_cells(1)[0], range(4))
    jobs = list(enumerate(sweep))
    _assert_matches_interp(jobs, _collect(jobs))
    assert any(run.fallback_pids for run in built)
    assert any(not run.fallback_pids for run in built)
    states = {id(run._lane_state) for run in built}
    assert states == {id(built[0]._lane_state)}  # one shared group


# -- LaneState unit behavior ----------------------------------------------


def writer(ctx):
    me = ctx.pid.index
    for i in range(10):
        yield ops.Write(f"w/{me}/{i}", i)
    yield ops.Decide(me)


def test_epoch0_snapshots_shared_until_first_write():
    def s_probe(ctx):
        # The snapshot result must be *used*: the untraced codegen
        # elides the memory call of a discarded snapshot entirely.
        seen = 0
        while True:
            view = yield ops.Snapshot("")
            seen += len(view)
            yield ops.Nop()

    def build():
        return System(
            inputs=(0,),
            c_factories=[writer],
            s_factories=[s_probe],
        )

    def scheduler():
        # The S-process snapshots twice before any write exists: the
        # first snapshot lands at epoch 0 (shared cache), and the lane
        # later bumps to epoch 1 on the C-process's input write.
        return ExplicitScheduler(
            [s_process(0), s_process(0)], strict=False
        )

    state = LaneState()
    first = CompiledRun(
        build(), scheduler(), lane_state=state, max_steps=500
    ).run()
    cached_after_first = dict(state.snap0)
    second = CompiledRun(
        build(), scheduler(), lane_state=state, max_steps=500
    ).run()
    assert "" in state.snap0 and state.snap0[""] == {}
    # The second lane reused the shared entry (no invalidation by the
    # first lane's writes — siblings never see each other's memory).
    assert state.snap0 == cached_after_first
    solo = CompiledRun(build(), scheduler(), max_steps=500).run()
    assert first.outputs == second.outputs == solo.outputs
    assert first.memory.snapshot("") == solo.memory.snapshot("")
