"""One sample, in a fresh interpreter; prints one JSON object.

    python3 perfbench/sample.py MODE WORKLOAD SEED T0 SCRATCH SECONDS

``run.py`` starts one of these per sample, with ``PYTHONPATH`` set to
the checkout's ``src``, so no sample inherits another's process state.
``T0`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter
start, imports and the workload's own set-up.

MODE is one of

* ``setup`` - set the workload up, report ``setup_s``, stop;
* ``measure`` - set up, run the workload once in the timed region,
  report its wall time, work done, digest, peak memory, and the host
  speed during set-up and during the timed region (``hostspeed.py``);
* ``reference`` - the serial interpreted report of the workload's
  cells, which every campaign sample must reproduce byte for byte;
* ``traced`` - the per-layer run (see ``traced.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads
from hostspeed import HostMeter
from spans import report_digest
from repro.chaos.campaign import run_campaign


def _mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def campaign_summary(report) -> dict:
    """What every check needs from one campaign report."""
    summary = {
        "attempted": len(report.records),
        "failed": sum(r.outcome in workloads.FAILED_OUTCOMES for r in report.records),
        "ok": report.ok and report.complete,
        "steps": sum(r.steps for r in report.records),
        "digest": report_digest(report),
    }
    if report.fabric is not None:
        summary["fabric_results"] = report.fabric.results
        summary["fabric_degraded"] = report.fabric.degraded
    return summary


def measure(workload: str, seed: int, t0: float, root: Path, scratch: Path, setup_only: bool) -> dict:
    meter = HostMeter()
    try:
        job = workloads.Job(workload, seed, root, scratch)
        try:
            setup_s = time.monotonic() - t0
            setup_probe_s = meter.take()
            if setup_only:
                return {"setup_s": setup_s, "setup_probe_s": setup_probe_s}
            start = time.perf_counter()
            out = job.run()
            wall = time.perf_counter() - start
            probe_s = meter.take()
        finally:
            job.close()
    finally:
        meter.close()
    if workload == "explore":
        counters = workloads.exploration_counters(out)
        summary = {
            "attempted": 1,
            "failed": 0,
            # The recorded node count, and no violation.
            "ok": counters == workloads.EXPLORE_EXPECTED and not out.interrupted,
            "steps": out.explored,
            "counters": counters,
        }
    else:
        summary = campaign_summary(out)
    own = _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    workers = _mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        **summary,
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "wall_s": wall,
        "probe_s": probe_s,
        "peak_rss_mb": own,
        # Without worker processes, this process executes the cells.
        "worker_peak_rss_mb": workers if workload in ("storm", "fabric") else own,
    }


def reference(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    report = run_campaign(workloads.campaign_spec(workload, seed))
    wall = time.perf_counter() - start
    return {**campaign_summary(report), "wall_s": wall}


def main(argv: list[str]) -> int:
    mode, workload, seed, t0, scratch, seconds = argv
    root = Path(__file__).resolve().parent.parent
    scratch_dir = Path(scratch)
    if mode in ("setup", "measure"):
        out = measure(workload, int(seed), float(t0), root, scratch_dir, mode == "setup")
    elif mode == "reference":
        out = reference(workload, int(seed))
    elif mode == "traced":
        import traced

        out = traced.run(workload, int(seed), float(seconds), root, scratch_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
