"""Repository benchmark: campaign and explorer workloads, end to end or
per layer.

    python3 perfbench/run.py --workload {sweep,storm,fabric,explore,all}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics untraced: it starts one fresh interpreter per sample
(``sample.py``) until the samples' timed regions fill ``--seconds``,
adds set-up-only samples until it has :data:`MIN_SETUPS` set-up times,
checks every sample's output, and reports medians of times and rates
scaled to the reference host's speed (see ``hostspeed.py``).  ``--trace 1`` runs
``traced.py`` once and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
each metric by name with its unit.  ``--workload all`` runs every
workload in turn and prints one such object per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import speed
from spans import digests_agree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sweep", "storm", "fabric", "explore")
#: The workload seed when ``--seed`` is not given.  Seed 7 is held out:
#: nothing was tuned on it, and it passes every check.
DEFAULT_SEED = 0
MIN_SAMPLES = 5
MAX_SAMPLES = 40
MIN_SETUPS = 5
#: No sample may run longer than this (the whole run must end in 180 s).
SAMPLE_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "nodes_per_s": "nodes/s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}


class SampleFailed(RuntimeError):
    pass


def run_sample(mode: str, workload: str, seed: int, scratch: Path, seconds: float, index: int = 0) -> dict:
    """Run ``sample.py`` in a fresh interpreter, in its own session so
    a timeout can stop it and every process it started.

    Sample ``index`` runs with string hash seed ``index``: a random
    hash seed per interpreter moves dict- and set-heavy work by several
    percent, so every run uses the same hash seeds, in the same order.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(index))
    scratch.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "sample.py"), mode, workload,
            str(seed), repr(t0), str(scratch), repr(seconds),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed(f"{mode} sample of {workload} timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise SampleFailed(f"{mode} sample of {workload} failed:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def untraced(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    samples: list[dict] = []
    timed = 0.0
    while len(samples) < MAX_SAMPLES and (
        len(samples) < MIN_SAMPLES or timed + samples[-1]["wall_s"] / 2 < seconds
    ):
        sample = run_sample("measure", workload, seed, scratch / f"m{len(samples)}", seconds, len(samples))
        samples.append(sample)
        timed += sample["wall_s"]
    setups = list(samples)
    while len(setups) < MIN_SETUPS:
        setups.append(run_sample("setup", workload, seed, scratch / f"s{len(setups)}", seconds, len(setups)))

    problems = [f"sample {i} failed its own checks" for i, s in enumerate(samples) if not s["ok"]]
    if workload == "explore":
        print(f"# explore: counters {samples[0]['counters']}")
        units = [1 / s["wall_s"] for s in samples]
    else:
        ref = run_sample("reference", workload, seed, scratch / "ref", seconds)
        print(f"# {workload}: serial interpreted reference digest {ref['digest'][:16]}")
        if not digests_agree(ref["digest"], [s["digest"] for s in samples]):
            problems.append("a sample's report differs from the serial interpreted report")
        if workload == "fabric":
            problems += [
                f"sample {i}: fabric delivered {s['fabric_results']} results for {s['attempted']} cells"
                for i, s in enumerate(samples)
                if s["fabric_results"] != s["attempted"] or s["fabric_degraded"]
            ]
        units = [s["attempted"] / s["wall_s"] for s in samples]
    speeds = [speed(s["probe_s"]) for s in samples]
    nodes = [s["steps"] / s["wall_s"] for s in samples]
    print(
        f"# {workload}: raw medians: setup_s {statistics.median(s['setup_s'] for s in setups):.4g}, "
        f"cells_per_s {statistics.median(units):.4g}, nodes_per_s {statistics.median(nodes):.4g}, "
        f"host speed {statistics.median(speeds):.3f}"
    )
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * speed(s["setup_probe_s"]) for s in setups),
        "cells_per_s": statistics.median(u / v for u, v in zip(units, speeds)),
        "nodes_per_s": statistics.median(n / v for n, v in zip(nodes, speeds)),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "worker_peak_rss_mb": statistics.median(s["worker_peak_rss_mb"] for s in samples),
    }
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    if failed:
        problems.append(f"{failed} of {attempted} cells ended in error, invalid history or quarantine")
    print(f"# {workload}: {len(samples)} samples, {timed:.1f} s timed, error_frac {failed / attempted:g}")
    return _result(problems, attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced(workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    out = run_sample("traced", workload, seed, scratch / "t", seconds)
    return _result(out["problems"], out["attempted"], out["failed"], {k: tuple(v) for k, v in out["metrics"].items()})


def _result(problems: list[str], attempted: int, failed: int, metrics: dict) -> dict:
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not problems
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": (
            {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
            if correct
            else {}
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    measure = traced if args.trace else untraced
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            try:
                results[name] = measure(name, args.seed, args.seconds, scratch / name)
            except SampleFailed as exc:
                print(f"# {exc}", file=sys.stderr)
                results[name] = _result([str(exc)], 1, 1, {})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
