"""One report whatever the route: backends ``inproc`` and ``pool`` ×
kernels ``interp`` and ``compiled`` × ``strict_traces`` off and on, and
``fabric`` (served by two in-process workers) × ``interp`` ×
``strict_traces`` off and on, over the first 6 smoke cells and two
cells the compiled kernel compiles, render identically and journal
identical cell lines; and a journal cut after its first 3 cell lines
resumes on every backend to the same report and the same cell lines.
Every compiled route, resumed ones included, builds a ``CompiledRun``
for each compiling cell it runs.

A stabilization-swept leg runs the 20 storm-shaped cells, ten families
of two, on every backend: each route executes exactly 14 runs (every
family's first member dispatches before any second member, and six
second members take their sibling's verdict) and matches the serial
report and cell lines, and a resume from three journaled cells runs
only what its journal and its families leave."""

import itertools
import json
import threading

import pytest

from repro.chaos import run_campaign
from repro.resilience import FabricConfig, FabricCoordinator, run_worker

from ..kernel.compiled_cells import count_compiled_runs, mixed_campaign
from .family_cells import count_runs, storm_runs_after_resume, storm_shaped

CELLS = 8
BACKENDS = ("inproc", "pool", "fabric")
ROUTES = [
    *itertools.product(
        ("inproc", "pool"), ("interp", "compiled"), (False, True)
    ),
    # The fabric refuses kernel="compiled": its workers run cell JSON.
    *itertools.product(("fabric",), ("interp",), (False, True)),
]
#: The kernel of the journal each backend's resume leg cuts and resumes.
RESUME_KERNEL = {"inproc": "compiled", "pool": "compiled", "fabric": "interp"}


def _route_id(route):
    backend, kernel, strict = route
    return f"{backend}-{kernel}-{'strict' if strict else 'plain'}"


def _run(backend, kernel, strict, spec=None, **journaling):
    """Run a route over ``spec``, by default the mixed campaign, whose
    two compiling cells come last, so no pool delivers them among its
    first three cells."""
    if spec is None:
        spec = mixed_campaign(CELLS - 2, strict_traces=strict)
    if backend != "fabric":
        workers = 2 if backend == "pool" else 1
        return run_campaign(
            spec,
            backend=backend,
            kernel=kernel,
            workers=workers,
            **journaling,
        )
    coordinator = FabricCoordinator(
        FabricConfig(lease_s=30.0, heartbeat_s=0.5)
    )
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"name": f"w{i}"},
            daemon=True,
        )
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    report = run_campaign(
        spec, backend="fabric", fabric=coordinator, **journaling
    )
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()
    assert not report.fabric.degraded
    return report


def _cell_lines(journal_text):
    """The journal's cell lines in cell order (a two-worker pool appends
    them in completion order)."""
    cells = [
        line
        for line in journal_text.splitlines()
        if json.loads(line)["kind"] == "cell"
    ]
    return sorted(cells, key=lambda line: json.loads(line)["index"])


@pytest.fixture(scope="module")
def route(tmp_path_factory):
    """Run a route once per module: ``(render, journal text, number of
    CompiledRuns built)``."""
    done = {}

    def run(backend, kernel, strict):
        key = (backend, kernel, strict)
        if key not in done:
            directory = tmp_path_factory.mktemp("route")
            journal = directory / "cells.jsonl"
            with count_compiled_runs(directory) as built:
                report = _run(backend, kernel, strict, journal=str(journal))
            assert len(report.records) == CELLS
            done[key] = (
                report.render(),
                journal.read_text(encoding="utf-8"),
                built(),
            )
        return done[key]

    return run


@pytest.mark.parametrize(
    "backend,kernel,strict", ROUTES[1:], ids=map(_route_id, ROUTES[1:])
)
def test_route_matches_serial_interpreted(route, backend, kernel, strict):
    render, journal, built = route(backend, kernel, strict)
    reference_render, reference_journal, _ = route(*ROUTES[0])
    assert built == (2 if kernel == "compiled" else 0)
    assert render == reference_render
    assert _cell_lines(journal) == _cell_lines(reference_journal)


@pytest.mark.parametrize("backend", BACKENDS)
def test_resume_from_three_journaled_cells(route, tmp_path, backend):
    kernel = RESUME_KERNEL[backend]
    _, journal, _ = route(backend, kernel, False)
    header, *lines = journal.splitlines()
    first_three = [
        line for line in lines if json.loads(line)["kind"] == "cell"
    ][:3]
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join([header, *first_three]) + "\n", encoding="utf-8")
    with count_compiled_runs(tmp_path) as built:
        resumed = _run(backend, kernel, False, resume=str(cut))
    assert built() == (2 if kernel == "compiled" else 0)
    reference_render, reference_journal, _ = route(*ROUTES[0])
    assert resumed.render() == reference_render
    assert _cell_lines(cut.read_text(encoding="utf-8")) == _cell_lines(
        reference_journal
    )


@pytest.fixture(scope="module")
def storm_route(tmp_path_factory):
    """Run the storm-shaped campaign on a backend once per module:
    ``(render, journal text, runs executed)``."""
    done = {}

    def run(backend):
        if backend not in done:
            directory = tmp_path_factory.mktemp("storm")
            journal = directory / "cells.jsonl"
            with count_runs(directory) as executed:
                report = _run(
                    backend,
                    "interp",
                    False,
                    storm_shaped(0),
                    journal=str(journal),
                )
            done[backend] = (
                report.render(),
                journal.read_text(encoding="utf-8"),
                executed(),
            )
        return done[backend]

    return run


@pytest.mark.parametrize("backend", BACKENDS)
def test_stabilization_families_run_once_on_every_route(
    storm_route, backend
):
    render, journal, executed = storm_route(backend)
    reference_render, reference_journal, _ = storm_route("inproc")
    assert executed == 14
    assert render == reference_render
    assert _cell_lines(journal) == _cell_lines(reference_journal)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stabilization_resume_runs_what_the_journal_leaves(
    storm_route, tmp_path, backend
):
    _, journal, _ = storm_route(backend)
    header, *lines = journal.splitlines()
    first_three = [
        line for line in lines if json.loads(line)["kind"] == "cell"
    ][:3]
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join([header, *first_three]) + "\n", encoding="utf-8")
    with count_runs(tmp_path) as executed:
        resumed = _run(
            backend, "interp", False, storm_shaped(0), resume=str(cut)
        )
    journaled = {json.loads(line)["index"] for line in first_three}
    assert executed() == storm_runs_after_resume(journaled)
    reference_render, reference_journal, _ = storm_route("inproc")
    assert resumed.render() == reference_render
    assert _cell_lines(cut.read_text(encoding="utf-8")) == _cell_lines(
        reference_journal
    )
