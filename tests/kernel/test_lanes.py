"""Compiled campaigns one cell at a time, and the shared copy-on-write
lane state: a compiled seed sweep never holds more than one run alive,
mixed compiled/fallback cells still match the interpreter, and runs
sharing one ``LaneState`` (kept for perfbench's traced sweep replay)
match a run without it."""

import dataclasses
import gc
import itertools
import weakref

from repro.chaos import run_campaign
from repro.chaos.campaign import run_cell
from repro.core import System
from repro.core.process import s_process
from repro.kernel import (
    CompiledRun,
    LaneState,
    UnsupportedAutomaton,
)
from repro.kernel.lanes import lane_shape_key
from repro.runtime import ops
from repro.runtime.scheduler import ExplicitScheduler

from .compiled_cells import COMPILING_CELL, CellsCampaign, count_compiled_runs


def _assert_matches_interp(cells, records):
    assert len(records) == len(cells)
    for cell, got in zip(cells, records):
        expected = run_cell(cell, kernel="interp")
        assert got.cell == cell
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


def _compiled_records(cells):
    report = run_campaign(CellsCampaign(cells), kernel="compiled")
    return report.records


def test_single_seed_single_lane(tmp_path):
    cells = [COMPILING_CELL]
    with count_compiled_runs(tmp_path) as built:
        records = _compiled_records(cells)
    assert built() == 1
    _assert_matches_interp(cells, records)


def test_compiled_seed_sweep_holds_one_run_at_a_time(monkeypatch):
    """A 12-seed compiled sweep builds one ``CompiledRun`` per cell and
    drops it before the next cell is built: at no record delivery, and
    at no construction, is more than one run alive."""
    live = weakref.WeakSet()
    peaks = []
    real_init = CompiledRun.__init__

    def counted_init(self, *args, **kwargs):
        gc.collect()
        peaks.append(len(live) + 1)
        real_init(self, *args, **kwargs)
        live.add(self)

    def on_cell(record):
        gc.collect()
        peaks.append(len(live))

    monkeypatch.setattr(CompiledRun, "__init__", counted_init)
    sweep = _seed_sweep(COMPILING_CELL, range(12))
    report = run_campaign(
        CellsCampaign(sweep), kernel="compiled", on_cell=on_cell
    )
    assert report.complete and len(report.records) == 12
    assert len(peaks) == 24  # 12 constructions, 12 deliveries
    assert max(peaks) == 1


def test_mixed_compiled_and_fallback_cells_match_interp(monkeypatch):
    """Alternate the cells of one seed sweep between fully-compiled and
    forced interpreter fallback; a compiled campaign over them still
    matches a serial interpreted run, record for record."""
    from repro.kernel import engine as engine_mod

    real_compile = engine_mod.compile_automaton
    real_init = CompiledRun.__init__
    force = {"fallback": False}
    built = []

    def flaky_compile(factory):
        if force["fallback"]:
            raise UnsupportedAutomaton("forced fallback (test)")
        return real_compile(factory)

    toggle = itertools.count()

    def toggled_init(self, *args, **kwargs):
        force["fallback"] = bool(next(toggle) % 2)
        try:
            real_init(self, *args, **kwargs)
        finally:
            force["fallback"] = False
        built.append(self.fallback_pids)

    monkeypatch.setattr(engine_mod, "compile_automaton", flaky_compile)
    monkeypatch.setattr(CompiledRun, "__init__", toggled_init)

    sweep = _seed_sweep(COMPILING_CELL, range(4))
    _assert_matches_interp(sweep, _compiled_records(sweep))
    assert len(built) == 4
    assert any(built) and not all(built)


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
