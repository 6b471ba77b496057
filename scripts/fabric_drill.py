#!/usr/bin/env python
"""Network-chaos drill: the fabric's robustness acceptance test.

The fabric's headline claim mirrors the resilience layer's (and the
paper's): *nothing that happens to the network is visible in the
science*.  This drill proves it by running the same campaign once
serially in-process and once per fault family through the fabric, with
real worker subprocesses whose traffic is routed through the
fault-injecting frame proxy (`repro.resilience.netchaos`) — and
asserting every faulted report renders **byte-identical** to the
serial baseline.

Fault families drilled (one campaign each):

    none        pass-through control arm (proxy in place, no faults)
    drop        frames deleted at random → lost leases/results,
                lease expiry, redispatch
    delay       frames held back → stale results, reordering
    duplicate   frames forwarded twice → idempotent result dedup
                (run with a journal: the durable record must dedup too)
    truncate    a frame torn mid-bytes, connection slammed shut →
                torn-frame tolerance + worker reconnect
    partition   one-way blackhole (worker→coordinator) → heartbeats
                vanish, leases expire, suspicion benches the worker
    sigkill     one worker SIGKILLed mid-campaign, a replacement
                joins under the same name → disconnect requeue +
                mid-campaign (re)join
    coordkill   the *coordinator* SIGKILLed at several points, each
                time restarted with ``--resume`` → control-plane
                recovery from the journal, worker spool replay,
                zero journaled cells recomputed, plus a SIGTERM
                graceful-drain check on one worker

Each proxy family runs two workers: one behind the chaos proxy
("chaotic"), one on a healthy direct link — the fabric must route
around the bad link, never hang, and never let the fault reach the
report.  The drill also asserts the faults *actually happened* (proxy
counters, at least one lease expiry, at least one mid-campaign
reconnect across the run; for coordkill: every planned kill landed, at
least one spooled result was replayed, and recovery redispatched no
journaled cell), so it cannot pass vacuously.

    PYTHONPATH=src python scripts/fabric_drill.py [--smoke] [--cells N]

``--smoke`` drills the 24-cell smoke campaign with tightened timings
(CI per-push); the default is the 200-cell standard campaign (nightly).
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from repro.chaos import run_campaign, smoke_campaign, standard_campaign
from repro.resilience import (
    ChaosProxy,
    FabricConfig,
    FabricCoordinator,
    FaultPlan,
)

FAMILIES = (
    "none",
    "drop",
    "delay",
    "duplicate",
    "truncate",
    "partition",
    "sigkill",
)

#: How many times coordkill SIGKILLs the coordinator mid-campaign.
COORD_KILLS = 3


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(SRC), env.get("PYTHONPATH"))
        if part
    )
    return env


def spawn_worker(
    host: str,
    port: int,
    name: str,
    seed: int,
    *,
    spool: str | None = None,
    max_attempts: int = 60,
) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro", "worker",
        "--connect", f"{host}:{port}",
        "--name", name,
        "--seed", str(seed),
        "--max-attempts", str(max_attempts),
    ]
    if spool is not None:
        cmd += ["--spool", spool]
    return subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_env(),
    )


def reap(workers: list[subprocess.Popen]) -> None:
    for proc in workers:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def drill_family(
    family: str,
    spec,
    cells: int,
    *,
    seed: int,
    lease_s: float,
    heartbeat_s: float,
    journal_path: str | None,
) -> tuple[str, object, object]:
    """Run one faulted fabric campaign; returns
    ``(rendered report, FabricStats, ProxyStats | None)``."""
    coordinator = FabricCoordinator(
        FabricConfig(
            lease_s=lease_s,
            heartbeat_s=heartbeat_s,
            register_grace_s=30.0,
            degrade_after_s=60.0,
        )
    )
    chost, cport = coordinator.address
    proxy = None
    workers: list[subprocess.Popen] = []
    completed = 0
    killer: threading.Thread | None = None

    def on_cell(record) -> None:
        nonlocal completed
        completed += 1

    try:
        if family == "sigkill":
            # Both workers direct; murder one mid-campaign and bring a
            # replacement back under the same name.
            workers.append(spawn_worker(chost, cport, "victim", seed))
            workers.append(spawn_worker(chost, cport, "healthy", seed))

            def murder_and_replace() -> None:
                threshold = max(2, cells // 4)
                deadline = time.monotonic() + 600
                while completed < threshold:
                    if time.monotonic() > deadline:  # pragma: no cover
                        return
                    time.sleep(0.05)
                os.kill(workers[0].pid, signal.SIGKILL)
                workers.append(
                    spawn_worker(chost, cport, "victim", seed)
                )

            killer = threading.Thread(target=murder_and_replace)
            killer.start()
        else:
            plan = FaultPlan(
                kind=family,
                seed=seed,
                rate=0.2,
                delay_s=min(0.2, lease_s / 8),
                after_frames=10,
            )
            proxy = ChaosProxy((chost, cport), plan)
            phost, pport = proxy.start()
            workers.append(spawn_worker(phost, pport, "chaotic", seed))
            workers.append(spawn_worker(chost, cport, "healthy", seed))

        report = run_campaign(
            spec,
            limit=cells,
            backend="fabric",
            fabric=coordinator,
            journal=journal_path,
            on_cell=on_cell,
        )
    finally:
        if killer is not None:
            killer.join(timeout=30)
        if proxy is not None:
            proxy.stop()
        reap(workers)
    return report.render(), report.fabric, (
        proxy.stats if proxy is not None else None
    )


def _journal_cell_records(journal_path: str) -> int:
    """Count ``kind == "cell"`` records (physical lines, pre-dedup).

    The coordinator journals control-plane events (lease / expiry /
    bench / spool) into the same file, so a raw line count no longer
    measures cell dedup.
    """
    count = 0
    for line in Path(journal_path).read_bytes().splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            continue
        if record.get("kind") == "cell":
            count += 1
    return count


def drill_coordinator_kill(
    cells: int,
    *,
    smoke: bool,
    seed: int,
    lease_s: float,
    baseline: str,
    workdir: Path,
) -> int:
    """Coordinator-kill family: SIGKILL the coordinator subprocess at
    :data:`COORD_KILLS` increasing journal-progress points, restart it
    each time with ``--resume``, and require the final report to come
    out byte-identical with **zero journaled cells recomputed** and
    **zero spooled worker results lost**.  Also SIGTERMs one worker
    mid-campaign and requires a graceful drain (exit 0).

    Returns the number of failures (0 = family passed).
    """
    t0 = time.monotonic()
    journal = workdir / "coordkill.jsonl"

    # Pin a free port up front so every restarted coordinator — and
    # every reconnecting worker — agrees on the address.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    workers = [
        spawn_worker(
            "127.0.0.1",
            port,
            name,
            seed + i,
            spool=str(workdir / f"{name}.spool.jsonl"),
            max_attempts=400,
        )
        for i, name in enumerate(("survivor-a", "survivor-b", "drainee"))
    ]
    drainee = workers[2]

    def cell_count() -> int:
        try:
            return _journal_cell_records(str(journal))
        except FileNotFoundError:
            return 0

    base_cmd = [
        sys.executable, "-m", "repro", "chaos", "run",
        "--seed", str(seed),
        "--cells", str(cells),
        "--backend", "fabric",
        "--listen", f"127.0.0.1:{port}",
        "--lease-s", str(lease_s),
        "--register-grace-s", "60",
    ]
    if smoke:
        base_cmd.append("--smoke")

    # Kill at ~20% / 50% / 75% journaled progress; progress is
    # guaranteed to grow between kills, so the loop is bounded.
    targets = sorted(
        {max(2, cells // 5), max(3, cells // 2), max(4, (3 * cells) // 4)}
    )[:COORD_KILLS]
    drain_target = targets[-1] + max(2, cells // 12)

    killed = 0
    runs = 0
    out = ""
    rc: int | None = None
    try:
        while True:
            resume_args = (
                ["--journal", str(journal)]
                if runs == 0
                else ["--resume", str(journal)]
            )
            runs += 1
            proc = subprocess.Popen(
                base_cmd + resume_args,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env=_env(),
            )
            if killed < len(targets):
                target = targets[killed]
                deadline = time.monotonic() + 600
                while (
                    proc.poll() is None
                    and cell_count() < target
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                    killed += 1
                    continue
                # The run finished before the kill could land; fall
                # through — the vacuity check below flags it.
            # Final run: exercise the graceful SIGTERM drain on one
            # worker while the coordinator is alive mid-campaign.
            deadline = time.monotonic() + 600
            while (
                proc.poll() is None
                and cell_count() < drain_target
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            if drainee.poll() is None:
                drainee.send_signal(signal.SIGTERM)
            try:
                out, _ = proc.communicate(timeout=600)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                out, _ = proc.communicate()
            rc = proc.returncode
            break
    finally:
        reap(workers)
    wall = time.monotonic() - t0

    failures = 0

    def fail(message: str) -> None:
        nonlocal failures
        failures += 1
        print(f"[coordkill] {message}")

    identical = out == baseline + "\n"
    if rc != 0:
        fail(f"final resumed run exited {rc} (want 0)")
    if not identical:
        fail("REPORT DIFFERS after coordinator kills")
        sys.stdout.writelines(
            difflib.unified_diff(
                (baseline + "\n").splitlines(keepends=True),
                out.splitlines(keepends=True),
                fromfile="serial baseline",
                tofile="fabric across coordinator kills",
            )
        )
    if killed < len(targets):
        fail(
            f"VACUOUS: only {killed}/{len(targets)} coordinator kills "
            f"landed (campaign finished too fast?)"
        )

    # Journal forensics: the journal is append-only across restarts, so
    # file order is time order.  A lease grant *after* the same index's
    # cell record means a recovered-as-complete cell was redispatched.
    seen_cells: set[int] = set()
    cell_records = 0
    recomputed = 0
    spool_events = 0
    try:
        for line in journal.read_bytes().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue
            kind = record.get("kind")
            if kind == "cell":
                seen_cells.add(record["index"])
                cell_records += 1
            elif kind == "lease" and record.get("index") in seen_cells:
                recomputed += 1
            elif kind == "spool":
                spool_events += 1
    except FileNotFoundError:  # pragma: no cover
        fail("journal was never created")
    if cell_records != cells:
        fail(
            f"JOURNAL NOT DEDUPED: {cell_records} cell records for "
            f"{cells} cells"
        )
    if recomputed:
        fail(
            f"{recomputed} already-journaled cell(s) were redispatched "
            f"after recovery (want 0)"
        )
    if killed and spool_events < 1:
        fail(
            "VACUOUS: no worker result was spool-replayed across any "
            "coordinator outage"
        )

    # Worker hygiene: every worker (including the drained one) must
    # exit 0, and no spool may still hold undelivered results.
    for proc, name in zip(workers, ("survivor-a", "survivor-b", "drainee")):
        if proc.returncode != 0:
            fail(f"worker {name} exited {proc.returncode} (want 0)")
        spool_path = workdir / f"{name}.spool.jsonl"
        if spool_path.exists():
            leftover = sum(
                1
                for line in spool_path.read_bytes().splitlines()
                if line.strip()
            )
            if leftover:
                fail(
                    f"worker {name} lost {leftover} spooled result(s) "
                    f"(spool not drained at exit)"
                )

    status = "ok" if failures == 0 else "FAILED"
    print(
        f"[coordkill] {status:14} {wall:6.1f}s  "
        f"{killed} coordinator kill(s) over {runs} run(s), "
        f"{spool_events} spool-replayed result(s), "
        f"{recomputed} recomputed cell(s), 1 drained worker"
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="24-cell smoke campaign with tightened timings (CI)",
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=None,
        help="cell count (default: 24 smoke / 200 full)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.smoke:
        spec = smoke_campaign(seed=args.seed)
        cells = args.cells or 24
        lease_s, heartbeat_s = 2.0, 0.4
    else:
        spec = standard_campaign(seed=args.seed)
        cells = args.cells or 200
        lease_s, heartbeat_s = 5.0, 1.0

    workdir = Path(tempfile.mkdtemp(prefix="fabric-drill-"))

    print(
        f"[baseline] serial in-process run "
        f"({spec.name} campaign, {cells} cells)..."
    )
    baseline = run_campaign(spec, limit=cells).render()

    total_expiries = 0
    total_reconnects = 0
    failures = 0
    for family in FAMILIES:
        journal_path = (
            str(workdir / "duplicate.jsonl")
            if family == "duplicate"
            else None
        )
        t0 = time.monotonic()
        rendered, stats, proxy_stats = drill_family(
            family,
            spec,
            cells,
            seed=args.seed + 7,
            lease_s=lease_s,
            heartbeat_s=heartbeat_s,
            journal_path=journal_path,
        )
        wall = time.monotonic() - t0
        total_expiries += stats.lease_expiries
        total_reconnects += stats.reconnects
        identical = rendered == baseline
        injected = (
            proxy_stats.faults_injected if proxy_stats is not None else 1
        )
        status = "ok" if identical else "REPORT DIFFERS"
        if not identical:
            failures += 1
        print(
            f"[{family:9}] {status:14} {wall:6.1f}s  {stats.summary()}"
        )
        if proxy_stats is not None:
            print(f"            proxy: {proxy_stats}")
        if not identical:
            sys.stdout.writelines(
                difflib.unified_diff(
                    baseline.splitlines(keepends=True),
                    rendered.splitlines(keepends=True),
                    fromfile="serial baseline",
                    tofile=f"fabric under {family}",
                )
            )
        if stats.degraded:
            print(
                f"[{family:9}] DEGRADED: fabric fell back to the local "
                f"pool — no real worker exercised the fault"
            )
            failures += 1
        if family != "none" and proxy_stats is not None and injected == 0:
            print(
                f"[{family:9}] VACUOUS: proxy injected no faults "
                f"(workload too small for the fault rate?)"
            )
            failures += 1
        if journal_path:
            # Physical cell-record count (scan_journal's cells dedup by
            # index and would hide double-appends); control-plane events in
            # the same file don't count.
            physical = _journal_cell_records(journal_path)
            if physical != cells:
                print(
                    f"[{family:9}] JOURNAL NOT DEDUPED: "
                    f"{physical} cell records for {cells} cells"
                )
                failures += 1

    failures += drill_coordinator_kill(
        cells,
        smoke=args.smoke,
        seed=args.seed,
        lease_s=lease_s,
        baseline=baseline,
        workdir=workdir,
    )

    if total_expiries < 1:
        print("DRILL INCOMPLETE: no lease expiry was exercised")
        failures += 1
    if total_reconnects < 1:
        print("DRILL INCOMPLETE: no mid-campaign reconnect was exercised")
        failures += 1
    if failures:
        print(f"FAILED: {failures} problem(s)")
        return 1
    print(
        f"OK: {len(FAMILIES) + 1} fault families × {cells} cells all "
        f"rendered byte-identical to the serial baseline "
        f"({total_expiries} lease expiries, {total_reconnects} "
        f"reconnects, {COORD_KILLS} coordinator kills exercised)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
