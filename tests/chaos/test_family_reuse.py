"""A stabilization-family member takes a finished sibling's verdict
exactly when its history answers every query the sibling's run made
alike, and a campaign's report, rows and journal cell lines stay those
of running every cell.

The digests were taken from full runs of every cell, before campaigns
reused any verdict; each campaign must reproduce them with reuse on and
with the agreement check patched out, and the run counts show that
reuse happened."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import campaign, run_campaign, specimen_campaign
from repro.core.history import FunctionHistory
from repro.detectors import Omega

from ..kernel.compiled_cells import CellsCampaign
from .family_cells import STORM_CELLS, count_runs, reuse_off, storm_shaped

#: name -> (campaign, sha256 of render(), of the verbose rows, of the
#: journal's cell lines in cell order, runs executed with reuse on).
PINNED = {
    "storm-seed-0": (
        lambda: storm_shaped(0),
        "eac2f941385b08ca2fdf108109b9b21188bd01d5139c344ae3542928ae7b3f46",
        "31d0a740e6263bebecf2f927a10765a05cc0a74ebfbb7d3b41a20fe7130af284",
        "94f6920433b80c936b4b3aee54030b38835a572db3aa729cdc4ea0eddd3eb809",
        14,
    ),
    "storm-seed-7": (
        lambda: storm_shaped(7),
        "eac2f941385b08ca2fdf108109b9b21188bd01d5139c344ae3542928ae7b3f46",
        "bb883d6e38e04b999cb44b9118326e4d9f47e66340d425f77c68841f49950d55",
        "16bdd7947efbe0537e85246e227800c3910525559782c70ee05f90efc7c61c02",
        14,
    ),
    "specimen": (
        specimen_campaign,
        "00ccb323ea9f3bc49b7b4c29e3b07e4e3dcea9b94d51896155317fad91cd1eaa",
        "f5c23b5440691e1342c6fe3654dd02631d655740cfb1f8923fb1bc19668f5595",
        "e7e324cb593dceabef4c6f59f31c29db55acd259c8582fe72cd931be4323cfa4",
        69,
    ),
    # Strict traces: every cell runs traced and classification reads
    # the trace, so a reused verdict stands for the sibling's trace.
    "storm-strict-traces": (
        lambda: storm_shaped(0, strict_traces=True),
        "eac2f941385b08ca2fdf108109b9b21188bd01d5139c344ae3542928ae7b3f46",
        "31d0a740e6263bebecf2f927a10765a05cc0a74ebfbb7d3b41a20fe7130af284",
        "94f6920433b80c936b4b3aee54030b38835a572db3aa729cdc4ea0eddd3eb809",
        14,
    ),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(spec, directory):
    """(render, rows, journal cell lines) digests and the runs executed
    of one serial run of ``spec``."""
    journal = directory / "cells.jsonl"
    with count_runs(directory) as executed:
        report = run_campaign(spec, journal=str(journal))
    lines = [
        line
        for line in journal.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["kind"] == "cell"
    ]
    rows = "\n".join(record.format_row() for record in report.records)
    return (
        _sha(report.render()),
        _sha(rows),
        _sha("\n".join(lines)),
    ), executed()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reuse_reproduces_the_pinned_full_runs(tmp_path, name):
    build, render, rows, journal, runs = PINNED[name]
    digests, executed = _digests(build(), tmp_path)
    assert digests == (render, rows, journal)
    assert executed == runs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_reuse_off_runs_every_cell_to_the_same_digests(
    tmp_path, monkeypatch, name
):
    build, render, rows, journal, _ = PINNED[name]
    spec = build()
    reuse_off(monkeypatch)
    digests, executed = _digests(spec, tmp_path)
    assert digests == (render, rows, journal)
    assert executed == sum(1 for _ in spec.cells())


def test_a_log_over_the_bound_is_dropped_and_its_siblings_run(
    tmp_path, monkeypatch
):
    # No job returns a log longer than FAMILY_LOG_CHARS (the bound that
    # keeps fabric frames small), so a later member finds none and runs.
    _, render, rows, journal, _ = PINNED["storm-seed-0"]
    monkeypatch.setattr(campaign, "FAMILY_LOG_CHARS", 0)
    digests, executed = _digests(storm_shaped(0), tmp_path)
    assert digests == (render, rows, journal)
    assert executed == STORM_CELLS


# -- planted histories ---------------------------------------------------

#: A family of two: storm-shaped cells 0 and 1, consensus/Omega under
#: round-robin with stabilization times 0 and 12.
FIRST, SECOND = list(storm_shaped(0).cells())[:2]


class _Recorder:
    """A history that records the points it was asked for."""

    def __init__(self, history):
        self.history = history
        self.points = set()

    def value(self, q, t):
        self.points.add((q, t))
        return self.history.value(q, t)


def _base_history():
    """The first member's history, and the points its run queries."""
    _, system, _ = campaign._prepare_cell(FIRST)
    recorder = _Recorder(system.history)
    system.history = recorder
    campaign.execute(
        system,
        campaign.build_scheduler(FIRST.scheduler),
        max_steps=FIRST.max_steps,
    )
    return system.history.history, frozenset(recorder.points)


BASE, QUERIED = _base_history()


def _plant(patch, changed):
    """Give both members the first member's history, except that the
    second one answers ``changed[(q, t)]`` at those points."""
    real_prepare = campaign._prepare_cell

    def prepare(cell):
        task, system, invalid = real_prepare(cell)
        points = changed if cell == SECOND else {}
        system.history = FunctionHistory(
            lambda q, t: points.get((q, t), BASE.value(q, t))
        )
        return task, system, invalid

    patch.setattr(campaign, "_prepare_cell", prepare)


def _pair_report(directory, changed, *, reuse):
    """Run the planted pair; returns (rows, render, runs executed)."""
    with pytest.MonkeyPatch.context() as patch:
        _plant(patch, changed)
        if not reuse:
            reuse_off(patch)
        with count_runs(directory) as executed:
            report = run_campaign(CellsCampaign([FIRST, SECOND]))
    rows = [record.format_row() for record in report.records]
    return rows, report.render(), executed()


def _other_answer(point, delta=1):
    """A legal Omega answer other than the base history's at ``point``."""
    return (BASE.value(*point) + delta) % 3


def test_the_pair_reuses_without_a_plant(tmp_path):
    assert _pair_report(tmp_path, {}, reuse=True)[2] == 1


def test_one_changed_queried_point_runs_both_members(tmp_path):
    point = min(QUERIED, key=lambda qt: qt[1])
    changed = {point: _other_answer(point)}
    rows, render, executed = _pair_report(tmp_path, changed, reuse=True)
    assert executed == 2
    full_rows, full_render, full_runs = _pair_report(
        tmp_path, changed, reuse=False
    )
    assert (rows, render) == (full_rows, full_render)
    assert full_runs == 2


def test_a_changed_point_never_queried_reuses(tmp_path):
    # q2 crashes at time 1 and never queries again.
    point = (1, 5)
    assert point not in QUERIED
    changed = {point: _other_answer(point)}
    rows, render, executed = _pair_report(tmp_path, changed, reuse=True)
    assert executed == 1
    assert rows[1].split()[:2] == rows[0].split()[:2]
    assert (rows, render) == _pair_report(tmp_path, changed, reuse=False)[:2]


_POINTS = st.one_of(
    st.sampled_from(sorted(QUERIED)),
    st.tuples(st.integers(0, 2), st.integers(0, 9_000)),
)


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(_POINTS, st.integers(1, 2), max_size=3))
def test_reuse_happens_only_when_no_queried_point_changed(
    tmp_path_factory, changes
):
    directory = tmp_path_factory.mktemp("planted")
    changed = {
        point: _other_answer(point, delta) for point, delta in changes.items()
    }
    rows, render, executed = _pair_report(directory, changed, reuse=True)
    assert executed == (2 if QUERIED & changed.keys() else 1)
    assert (rows, render) == _pair_report(directory, changed, reuse=False)[:2]


def test_a_later_member_keeps_its_own_invalid_history_verdict(
    tmp_path, monkeypatch
):
    # The second member's history answers the first member's queries
    # alike, but its own validation rejects it: the later member's
    # history is checked before any reuse, so the verdict stands.
    real_check = Omega.check_history

    def check(self, pattern, history, *, horizon, stabilized_from):
        return stabilized_from == 0 and real_check(
            self,
            pattern,
            history,
            horizon=horizon,
            stabilized_from=stabilized_from,
        )

    monkeypatch.setattr(Omega, "check_history", check)
    with count_runs(tmp_path) as executed:
        report = run_campaign(CellsCampaign([FIRST, SECOND]))
    assert [record.outcome for record in report.records] == [
        "ok",
        "invalid_history",
    ]
    assert executed() == 1
