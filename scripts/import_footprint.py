"""Which ``repro`` modules each entry point loads, and their source lines.

Every probe runs in a fresh interpreter whose audit hook logs each
``repro`` module body as it executes, tagged with the process id, so
the count includes worker processes: the pool workers forked by a
supervised campaign and the ``repro worker`` subprocesses of a fabric
run (started here through the same hook).  Phase marks written by the
probe split each log into set-up and timed region.  The entry points:

* a campaign cell: importing ``repro.chaos.campaign``, then one
  storm-shaped cell through the campaign's job function;
* ``repro worker``: start-up until it registers, then its first lease;
* a Figure 4 exploration (the ``explore`` instance, no campaign code);
* ``repro check renaming --n 4 --k 3 --depth 14 --por --dedup``;
* each perfbench workload through ``perfbench/sample.py``'s own
  ``measure``: its set-up, and what its timed region imports in the
  driving process and in its workers.

Nothing is timed: the rows count modules and lines, so they read the
same on every host.  A probe whose run is not correct (a failed cell,
a digest mismatch, other exploration counters) fails the script.  Run
it from the repository root (about 10 s)::

    python scripts/import_footprint.py [--list]

``--list`` also prints the modules of every row.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Prefixed to every probe: logs each ``repro`` module body that runs
#: (audit event ``exec`` of a ``<module>`` code object), one line per
#: module, appended so that forked workers share the log; ``mark``
#: starts a phase.
BOOT = """
import os, sys
_LOG = os.environ["IMPORT_FOOTPRINT_LOG"]
_PREFIX = os.environ["IMPORT_FOOTPRINT_PREFIX"]


def _record(kind, value):
    fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, f"{os.getpid()}\\t{kind}\\t{value}\\n".encode())
    finally:
        os.close(fd)


def _hook(event, args):
    if event == "exec":
        code = args[0]
        name = getattr(code, "co_filename", "")
        if name.startswith(_PREFIX) and code.co_name == "<module>":
            _record("load", name)


sys.addaudithook(_hook)


def mark(phase):
    _record("mark", phase)
"""

#: ``python -m repro``, as run after the hook is installed (the
#: arguments follow ``-c CODE`` on the command line).
RUN_MODULE = """
import runpy
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""
RUN_REPRO = BOOT + RUN_MODULE

CELL = """
mark("set-up")
from repro.chaos.campaign import CampaignSpec, Workload, _run_cell_guarded

spec = CampaignSpec(
    name="footprint",
    workloads=[
        Workload(
            task={"family": "consensus", "n": 3},
            detector={"family": "omega"},
        )
    ],
    patterns=[(None, 1, 1)],
    schedulers=({"kind": "burst", "period": 40, "burst": 15, "seed": 3},),
    seeds=(0,),
    stabilization_times=(12,),
    max_steps=150_000,
)
cell = next(iter(spec.cells()))
mark("cell")
verdict = _run_cell_guarded((cell, False, "interp", None, False))
print(json.dumps({"ok": verdict["outcome"] == "ok"}))
"""

#: Starts ``repro worker`` subprocesses through the hook: perfbench's
#: ``FabricWorkers`` spawns ``python -m repro worker ...``.
HOOK_WORKERS = """
import subprocess

_Popen = subprocess.Popen


def _hooked_popen(args, *rest, **kwargs):
    if list(args[1:4]) == ["-m", "repro", "worker"]:
        args = [args[0], "-c", RUN_REPRO, *args[3:]]
    return _Popen(args, *rest, **kwargs)


subprocess.Popen = _hooked_popen
"""

WORKER = HOOK_WORKERS + """
mark("set-up")
import workloads
from repro.chaos.campaign import run_campaign

fabric = workloads.FabricWorkers(ROOT)
mark("lease")
try:
    report = run_campaign(
        workloads.storm_spec(0), limit=1, backend="fabric",
        fabric=fabric.coordinator,
    )
finally:
    fabric.close()
print(json.dumps({"ok": report.ok and len(report.records) == 1}))
"""

EXPLORE = """
mark("set-up")
from repro.algorithms.renaming_figure4 import figure4_factories
from repro.checker import (
    ScheduleExplorer,
    drop_null_s_processes,
    task_safety_verdict,
)
from repro.core import System
from repro.tasks import RenamingTask

explorer = ScheduleExplorer(
    lambda: System(inputs=(1, 2, 3, None), c_factories=figure4_factories(4)),
    max_depth=14,
    candidate_filter=drop_null_s_processes,
    por=True,
    dedup=True,
)
report = explorer.check(task_safety_verdict(RenamingTask(4, 3, 5)))
print(json.dumps({"ok": report.ok and report.explored == 18586}))
"""

CHECK = 'mark("run")\n' + RUN_MODULE
CHECK_ARGS = ["check", "renaming", "--n", "4", "--k", "3", "--depth", "14",
              "--por", "--dedup"]

#: One perfbench sample of ``workload`` as ``sample.py measure`` takes
#: it, with marks where ``Job.run`` (the timed region) starts and ends.
PERFBENCH = HOOK_WORKERS + """
mark("set-up")
import time

import sample
import workloads

_run = workloads.Job.run


def _marked_run(self):
    mark("timed")
    try:
        return _run(self)
    finally:
        mark("checks")


workloads.Job.run = _marked_run
out = sample.measure(WORKLOAD, 0, time.monotonic(), ROOT, SCRATCH, False)
print(json.dumps({"ok": out["ok"] and not out["failed"]}))
"""


def run_probe(code: str, scratch: Path, argv: list[str], expect: str) -> list[str]:
    """Run ``code`` with ``argv`` in a fresh interpreter; returns its
    log lines, or raises unless it exits 0 and prints ``expect``.  The
    log's first line is the probe's first mark, so it names the
    driving process."""
    log = scratch / "footprint.log"
    log.unlink(missing_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        IMPORT_FOOTPRINT_LOG=str(log),
        IMPORT_FOOTPRINT_PREFIX=str(SRC / "repro") + os.sep,
    )
    prelude = (
        "import json, sys\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        f"ROOT = Path({str(ROOT)!r})\n"
        f"SCRATCH = Path({str(scratch)!r})\n"
        f"RUN_REPRO = {RUN_REPRO!r}\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", BOOT + prelude + code, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0 or expect not in out.stdout:
        raise RuntimeError(
            f"probe failed (exit {out.returncode}):\n{out.stdout}{out.stderr}"
        )
    return log.read_text().splitlines()


def phases(lines: list[str]) -> dict[tuple[str, str], tuple[set[str], set[str]]]:
    """``{(phase, role): (module files, process ids)}``; ``role`` is
    ``main`` for the probe's own process and ``workers`` for every
    other one, and a line belongs to the phase last marked before it."""
    main_pid = lines[0].split("\t", 1)[0]
    phase = ""
    rows: dict = defaultdict(lambda: (set(), set()))
    for line in lines:
        pid, kind, value = line.split("\t", 2)
        if kind == "mark":
            if pid == main_pid:
                phase = value
            continue
        files, pids = rows[phase, "main" if pid == main_pid else "workers"]
        files.add(value)
        pids.add(pid)
    return rows


def module_name(path: str) -> str:
    parts = Path(path).relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def line_count(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list", action="store_true", help="print each row's modules"
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        ok = '"ok": true'
        probes = [
            ("campaign cell", CELL, [], ok, [
                (("set-up", "main"), "import repro.chaos.campaign"),
                (("cell", "main"), "run one cell"),
            ]),
            ("repro worker", WORKER, [], ok, [
                (("set-up", "workers"), "start-up until registered"),
                (("lease", "workers"), "first lease"),
            ]),
            ("Figure 4 exploration", EXPLORE, [], ok, [
                (("set-up", "main"), "depth 14, por + dedup"),
            ]),
            ("repro check", CHECK, CHECK_ARGS, "verdict    : OK", [
                (("run", "main"), "renaming --n 4 --k 3 --depth 14"),
            ]),
        ]
        for workload in ("sweep", "storm", "fabric", "explore"):
            code = PERFBENCH.replace("WORKLOAD", repr(workload))
            probes.append((f"perfbench {workload}", code, [], ok, [
                (("set-up", "main"), "set-up"),
                (("set-up", "workers"), "set-up, workers"),
                (("timed", "main"), "timed region"),
                (("timed", "workers"), "timed region, workers"),
            ]))
        print(f"{'entry point':22} {'phase':34} {'modules':>7} {'lines':>7}")
        for name, code, probe_argv, expect, rows in probes:
            found = phases(run_probe(code, scratch, probe_argv, expect))
            for key, label in rows:
                if key not in found and "workers" in key:
                    continue  # this workload runs no worker processes
                files, pids = found.get(key, (set(), set()))
                if "workers" in key:
                    label += f" ({len(pids)} processes)"
                lines = sum(line_count(path) for path in files)
                print(f"{name:22} {label:34} {len(files):7} {lines:7}")
                if args.list and files:
                    for module in sorted(map(module_name, files)):
                        print(f"    {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
