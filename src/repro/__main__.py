"""Command-line front door: ``python -m repro <command>``.

Commands:
    hierarchy [--n N]       print the Theorem 10 task hierarchy table
    solve TASK [--seed S]   run a built-in task through the solver
    check TASK              exhaustively certify a built-in restricted
                            algorithm over every gated interleaving of
                            one small instance (explorer knobs:
                            --depth, --max-runs, --dedup, --por,
                            --symmetry; preemption knobs:
                            --deadline-s, --checkpoint, --resume)
    check-renaming J NAMES  decide 2-process solvability of strong
                            2-renaming with the given namespace size
    extract                 run the Figure 1 extraction demo
    lint [--strict]         check every algorithm against the EFD step
                            model (AST rules + semantic CFG passes;
                            --strict adds the traced battery: race
                            detection and the POR footprint audit).
                            Output: --format text|json|sarif [--out
                            FILE]; pass selection: --list-passes,
                            --enable/--disable ID; suppression:
                            --baseline FILE, --write-baseline FILE.
                            Exit 0 clean/warnings-only, 1 error
                            findings, 2 analyzer crash.
    chaos run               sweep a fault-injection campaign (crash
                            storms, perturbed detector histories,
                            mutated schedules) and triage every cell;
                            resilience knobs: --journal, --resume,
                            --deadline-s, --rss-mb, --retries;
                            dispatch backend: --backend
                            auto|inproc|pool|fabric (fabric shards
                            cells across socket-connected workers
                            with lease-based at-least-once dispatch);
                            execution kernel: --kernel interp|compiled
    chaos replay BUNDLE     deterministically re-execute a shrunk
                            failure bundle and compare outcomes
    worker                  join a campaign fabric as a remote worker:
                            python -m repro worker --connect HOST:PORT
                            (reconnects with deterministic backoff;
                            exits 0 on coordinator shutdown)
    kernel                  compiled execution kernel: --dump NAME
                            prints one automaton's generated source
                            (content-hashed), --list surveys compiled
                            vs fallback automata, --dump-all emits the
                            CI source artifact; with no flags runs the
                            kernel-vs-interpreter differential gate
                            (--full for the nightly battery)
    bench                   run the tracked execution-core benchmark
                            suite and write BENCH_core.json

Interrupted-but-resumable commands (``chaos run`` with a journal,
``check`` with a checkpoint) exit with status 75 (``EX_TEMPFAIL``) and
print the exact command that continues them.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path


@contextlib.contextmanager
def _graceful_sigterm():
    """Translate SIGTERM into KeyboardInterrupt for the duration, so a
    supervisor's ``kill`` gets the same flush-and-journal shutdown path
    as Ctrl-C."""

    def _raise(signum, frame):  # pragma: no cover - signal delivery
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _strip_option(argv: list[str], name: str) -> list[str]:
    """Drop ``name <value>`` / ``name=<value>`` from an argv copy (used
    to rebuild a resumable command line without a stale ``--resume``)."""
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg == name:
            skip = True
            continue
        if arg.startswith(name + "="):
            continue
        out.append(arg)
    return out


def _resume_command(
    argv: list[str], resume_path: str, *, listen: str | None = None
) -> str:
    """Rebuild the exact command that resumes an interrupted campaign
    or ``check`` from ``resume_path`` (its journal or frontier file):
    ``argv`` minus any stale ``--journal``/``--resume``, plus — for
    fabric runs — ``--listen`` pinned to the actually-bound address
    (an ephemeral port 0 would otherwise re-bind somewhere the
    surviving workers are not reconnecting to)."""
    args = _strip_option(
        _strip_option(list(argv), "--journal"), "--resume"
    )
    if listen is not None:
        args = _strip_option(args, "--listen") + ["--listen", listen]
    return "python -m repro " + " ".join([*args, "--resume", resume_path])


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from .classify import build_hierarchy, format_hierarchy

    print(format_hierarchy(build_hierarchy(args.n)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from . import solve_task
    from .detectors import Omega, VectorOmegaK
    from .tasks import ConsensusTask, SetAgreementTask, StrongRenamingTask

    if args.task == "consensus":
        task = ConsensusTask(args.n)
        detector = Omega()
    elif args.task == "set-agreement":
        task = SetAgreementTask(args.n, args.k)
        detector = VectorOmegaK(args.n, args.k)
    elif args.task == "strong-renaming":
        task = StrongRenamingTask(args.n, args.n - 1)
        detector = Omega()
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.task)
    result = solve_task(task, detector=detector, seed=args.seed)
    print(f"task     : {task.name}")
    print(f"detector : {detector.name}")
    print(f"inputs   : {result.inputs}")
    print(f"outputs  : {result.outputs}")
    print(f"steps    : {result.steps}")
    return 0


#: ``check`` exit code for an exploration stopped by ``--max-runs``
#: without a violation: it certifies nothing (0 = no violation, a
#: certificate when no run was truncated; 1 = violations; 75 =
#: interrupted and resumable).
EXIT_CHECK_CAPPED = 3


def _cmd_check(args: argparse.Namespace) -> int:
    import time

    from .algorithms.dispatch import (
        algorithm_for_task,
        default_inputs,
        task_concurrency_class,
    )
    from .classify import explore_k_concurrent
    from .tasks import (
        ConsensusTask,
        RenamingTask,
        SetAgreementTask,
        WeakSymmetryBreakingTask,
    )

    if args.task == "consensus":
        task = ConsensusTask(args.n)
    elif args.task == "set-agreement":
        task = SetAgreementTask(args.n, args.k)
    elif args.task == "renaming":
        task = RenamingTask(args.n, args.n - 1, args.n - 1 + args.k - 1)
    elif args.task == "wsb":
        task = WeakSymmetryBreakingTask(args.n, args.n - 1)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.task)
    k = args.k if args.task != "wsb" else task_concurrency_class(task)
    factories = algorithm_for_task(task, k)
    if args.inputs:
        parts = args.inputs.split(",")
        if len(parts) != args.n:
            print(f"--inputs needs {args.n} comma-separated values")
            return 2
        inputs = tuple(
            None if part.strip().lower() in ("none", "-") else int(part)
            for part in parts
        )
        if not task.is_input(inputs):
            print(f"{inputs} is not a valid input vector for {task.name}")
            return 2
    else:
        inputs = default_inputs(task)
    t0 = time.perf_counter()
    report = explore_k_concurrent(
        task,
        factories,
        k,
        inputs,
        max_depth=args.depth,
        max_runs=args.max_runs,
        dedup=args.dedup,
        por=args.por,
        symmetry=args.symmetry,
        deadline_s=args.deadline_s,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
        handle_signals=True,
    )
    wall = time.perf_counter() - t0
    print(f"task       : {task.name}")
    print(f"inputs     : {inputs}")
    print(f"concurrency: {k}")
    # A resumed report counts the checkpoint's nodes too; the rate is
    # this invocation's own.
    explored = report.explored - report.resumed_explored
    this_run = f" ({explored} this run)" if args.resume else ""
    print(
        f"explored   : {report.explored} nodes{this_run} in {wall:.2f}s, "
        f"{explored / wall:.0f} nodes/s (depth {args.depth})"
    )
    print(
        f"runs       : {report.completed_runs} completed, "
        f"{report.truncated_runs} truncated"
    )
    print(
        f"pruned     : {report.deduplicated} dedup, "
        f"{report.por_pruned} por, {report.symmetry_pruned} symmetry"
    )
    conclusion = report.conclusion
    if conclusion == "interrupted":
        from .resilience import EXIT_RESUMABLE

        print("verdict    : INTERRUPTED (deadline or signal)")
        if report.checkpoint_path:
            print(f"frontier checkpointed to {report.checkpoint_path}")
            print(
                "resume with: "
                + _resume_command(sys.argv[1:], report.checkpoint_path)
            )
        return EXIT_RESUMABLE
    if report.capped:
        print(
            f"capped     : stopped at --max-runs {args.max_runs} with "
            "schedules left unexplored"
        )
    if conclusion == "violated":
        schedule, _ = report.violations[0]
        print(
            f"verdict    : {len(report.violations)} VIOLATION(S); first "
            f"witness: {[str(pid) for pid in schedule]}"
        )
        return 1
    if conclusion == "capped":
        print("verdict    : CAPPED — no violation found, nothing certified")
        return EXIT_CHECK_CAPPED
    if conclusion == "bounded":
        print(
            f"verdict    : OK to depth {args.depth} — "
            f"{report.truncated_runs} runs truncated: a bounded check, "
            "not a certificate"
        )
    else:
        print("verdict    : OK — no interleaving leaves the task relation")
    return 0


def _cmd_check_renaming(args: argparse.Namespace) -> int:
    from .tasks import StrongRenamingTask
    from .topology import decide_two_process_solvability

    task = StrongRenamingTask(
        max(3, args.names), 2, namespace=tuple(range(1, args.names + 1))
    )
    verdict = decide_two_process_solvability(task)
    print(
        f"strong 2-renaming, {args.names} original names: "
        f"{'SOLVABLE' if verdict.solvable else 'UNSOLVABLE'} "
        "2-concurrently"
    )
    if verdict.obstruction:
        print(f"obstruction: {verdict.obstruction}")
    return 0 if verdict.solvable else 1


def _cmd_extract(args: argparse.Namespace) -> int:
    import runpy
    from pathlib import Path

    demo = Path(__file__).resolve().parents[2] / "examples" / "extract_advice.py"
    if demo.exists():  # running from a source checkout
        runpy.run_path(str(demo), run_name="__main__")
        return 0
    print("extraction demo script not found; see examples/extract_advice.py")
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    # Exit codes: 0 = clean (or warnings only), 1 = error findings,
    # 2 = analyzer crash (bad pass id, unreadable baseline, internal
    # error) — so CI can distinguish "code is wrong" from "the
    # analyzer is wrong".
    try:
        from .lint import (
            all_passes,
            lint_algorithms,
            load_baseline,
            render_report,
            write_baseline,
        )

        if args.list_passes:
            for cls in all_passes():
                evidence = "+".join(cls.evidence_required)
                print(f"{cls.pass_id:18} [{evidence}] {cls.title}")
            return 0
        baseline = (
            load_baseline(args.baseline) if args.baseline else None
        )
        report = lint_algorithms(
            strict=args.strict,
            enable=tuple(args.enable) if args.enable else None,
            disable=tuple(args.disable) if args.disable else None,
            baseline=baseline,
        )
        if args.write_baseline:
            write_baseline(report, args.write_baseline)
            print(
                f"wrote baseline with "
                f"{len(report.findings) + len(report.suppressed)} "
                f"finding(s) to {args.write_baseline}"
            )
            return 0
        rendered = render_report(report, args.format)
        if args.out:
            Path(args.out).write_text(rendered + "\n")
        else:
            print(rendered)
        return 1 if report.has_errors else 0
    except Exception as exc:  # analyzer crash, not a lint verdict
        print(f"lint: analyzer error: {exc}", file=sys.stderr)
        return 2


#: ``chaos run`` exit-code contract (also documented in its --help):
#: 0 = campaign ok and complete; 1 = safety violations, invalid
#: histories, or engine errors; 3 = no violations but at least one cell
#: quarantined (timeout/oom/worker_crash/flaky/partition) — coverage
#: was lost, CI must not silently pass; 75 = interrupted but journaled
#: (rerun with --resume).
EXIT_QUARANTINED = 3


def chaos_exit_code(report) -> int:
    """Map a campaign report onto the ``chaos run`` exit contract."""
    if not report.ok:
        return 1
    if not report.complete:
        return EXIT_QUARANTINED
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .chaos import (
        bundle_from_shrink,
        run_campaign,
        save_bundle,
        shrink_cell,
        smoke_campaign,
        specimen_campaign,
        standard_campaign,
    )
    from .errors import CampaignInterrupted, ResilienceError
    from .resilience import (
        EXIT_RESUMABLE,
        CellBudget,
        FabricConfig,
        RetryPolicy,
        parse_endpoint,
    )

    if args.specimen:
        spec = specimen_campaign(seed=args.seed)
    elif args.smoke:
        spec = smoke_campaign(seed=args.seed)
    else:
        spec = standard_campaign(seed=args.seed)

    def progress(record) -> None:
        if args.verbose:
            print(record.format_row())

    budget = None
    if args.deadline_s is not None or args.rss_mb is not None:
        budget = CellBudget(deadline_s=args.deadline_s, rss_mb=args.rss_mb)
    retry = None
    if args.retries is not None:
        retry = RetryPolicy(max_retries=args.retries, seed=args.seed)
    fabric = None
    listen_actual = None
    if args.backend == "fabric":
        from .resilience import FabricCoordinator

        # Bind before running so the (possibly ephemeral) port is
        # printed while workers can still be pointed at it; fabric
        # diagnostics go to stderr so stdout stays byte-identical to a
        # serial run.  A malformed or unbindable --listen is a usage
        # error.
        try:
            host, port = parse_endpoint(args.listen)
            fabric = FabricCoordinator(
                FabricConfig(
                    host=host,
                    port=port,
                    lease_s=args.lease_s,
                    register_grace_s=args.register_grace_s,
                )
            )
        except (ValueError, ResilienceError) as exc:
            print(f"chaos run: {exc}", file=sys.stderr)
            return 2
        bound_host, bound_port = fabric.address
        listen_actual = f"{bound_host}:{bound_port}"
        print(
            f"fabric: coordinator listening on "
            f"{listen_actual} — connect workers with: "
            f"python -m repro worker --connect {listen_actual}",
            file=sys.stderr,
        )
    try:
        with _graceful_sigterm():
            report = run_campaign(
                spec,
                limit=args.cells,
                on_cell=progress,
                workers=args.workers,
                budget=budget,
                retry=retry,
                journal=args.journal,
                resume=args.resume,
                backend=args.backend,
                kernel=args.kernel,
                fabric=fabric,
                inject_worker_kill=args.inject_worker_kill,
            )
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}")
        if exc.journal_path:
            # The exact command, ready to paste: for fabric runs the
            # listen address is pinned to the port that was actually
            # bound, so surviving workers reconnect to the restarted
            # coordinator and are re-admitted with their leases.
            print(
                "resume with: "
                + _resume_command(
                    sys.argv[1:], exc.journal_path, listen=listen_actual
                )
            )
        else:
            print(
                "(no --journal was given, so completed cells were not "
                "durable; rerun with --journal PATH to make the sweep "
                "resumable)"
            )
        return EXIT_RESUMABLE
    except ResilienceError as exc:
        # A setting or journal the campaign refuses is a usage error.
        print(f"chaos run: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if report.fabric is not None:
        print(f"fabric: {report.fabric.summary()}", file=sys.stderr)

    if args.specimen:
        # A specimen campaign is *supposed* to fail: shrink the first
        # violation to a repro bundle and succeed iff one was found.
        if not report.violations:
            print("specimen campaign found no violation — engine bug?")
            return 1
        shrunk = shrink_cell(
            report.violations[0].cell, kernel=args.kernel
        )
        print(shrunk.summary())
        if args.bundle:
            bundle = bundle_from_shrink(
                shrunk,
                campaign=spec.name,
                note="planted decide-before-stabilization bug",
            )
            path = save_bundle(args.bundle, bundle)
            print(f"repro bundle written to {path}")
        return 0
    return chaos_exit_code(report)


def _cmd_kernel(args: argparse.Namespace) -> int:
    from . import kernel

    if args.dump is not None:
        try:
            print(kernel.dump_source(args.dump))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0
    if args.dump_all:
        print(kernel.dump_all())
        return 0
    if args.list:
        kernel.warm_cache()
        for module, name, program in kernel.iter_schema_programs():
            if isinstance(program, kernel.UnsupportedAutomaton):
                print(f"{module}.{name:40} interp-fallback ({program})")
            else:
                print(
                    f"{module}.{name:40} compiled "
                    f"sha256:{program.content_hash[:16]} "
                    f"({program.n_sites} sites)"
                )
        return 0
    if args.coverage:
        from .kernel.coverage import (
            check_manifest,
            coverage_rows,
            render_coverage,
            write_manifest,
        )

        rows = coverage_rows()
        print(render_coverage(rows))
        if args.write:
            path = write_manifest(rows)
            print(f"coverage manifest written to {path}")
            return 0
        if args.check:
            problems = check_manifest(rows)
            for problem in problems:
                print(f"COVERAGE: {problem}")
            return 1 if problems else 0
        return 0
    # default: the differential gate
    from .kernel.differential import run_differential

    def progress(name: str) -> None:
        if args.verbose:
            print(f"  case {name}", file=sys.stderr)

    report = run_differential(
        smoke=not args.full, campaign=True, on_case=progress
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .bench import (
        BENCH_SCHEMA,
        compare_against_baseline,
        compare_runs,
        fabric_overhead_problems,
        kernel_speedup_problems,
        load_baseline,
        render,
        run_benchmarks,
        supervised_overhead_problems,
    )

    if args.compare:
        old_path, new_path = args.compare
        print(compare_runs(load_baseline(old_path), load_baseline(new_path)))
        return 0

    results = run_benchmarks(smoke=args.smoke, workers=args.workers)
    print(render(results))
    overhead_problems = (
        supervised_overhead_problems(results)
        + fabric_overhead_problems(results)
        + kernel_speedup_problems(results)
    )
    for problem in overhead_problems:
        print(f"OVERHEAD: {problem}")
    payload = {
        "schema": BENCH_SCHEMA,
        "smoke": args.smoke,
        "benchmarks": results,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"results written to {args.out}")
    if args.baseline:
        problems = compare_against_baseline(
            results,
            load_baseline(args.baseline),
            fail_threshold=args.fail_threshold,
        )
        for problem in problems:
            print(f"REGRESSION: {problem}")
        if problems:
            return 1
        print(
            f"no benchmark more than {args.fail_threshold:g}x below "
            f"{args.baseline}"
        )
    return 1 if overhead_problems else 0


def _cmd_chaos_replay(args: argparse.Namespace) -> int:
    from .chaos import replay_bundle

    replay = replay_bundle(args.bundle)
    print(replay.summary())
    return 0 if replay.reproduced else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    import threading

    from .resilience import parse_endpoint, run_worker

    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    log = None
    if args.verbose:
        log = lambda message: print(message, file=sys.stderr)  # noqa: E731
    # SIGTERM = graceful drain, not abort: finish the in-flight cell,
    # flush the spool, exit 0.  The event is polled between leases, so
    # no cell is ever torn mid-execution.
    drain = threading.Event()

    def _request_drain(signum, frame):  # pragma: no cover - signal
        drain.set()

    try:
        signal.signal(signal.SIGTERM, _request_drain)
    except ValueError:  # pragma: no cover - not the main thread
        pass
    return run_worker(
        host,
        port,
        name=args.name,
        seed=args.seed,
        max_attempts=args.max_attempts,
        log=log,
        spool_path=args.spool,
        drain=drain,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hierarchy", help="print the Theorem 10 table")
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("solve", help="solve a built-in task")
    p.add_argument(
        "task",
        choices=["consensus", "set-agreement", "strong-renaming"],
    )
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "check",
        help="exhaustively certify a restricted algorithm "
        "(explorer knobs exposed)",
    )
    p.add_argument(
        "task",
        choices=["consensus", "set-agreement", "renaming", "wsb"],
    )
    p.add_argument(
        "--n", type=int, default=3, help="C-process count (default 3)"
    )
    p.add_argument(
        "--k",
        type=int,
        default=2,
        help="concurrency level / task parameter (default 2)",
    )
    p.add_argument(
        "--depth",
        type=int,
        default=14,
        help="schedule-length bound of the exploration (default 14)",
    )
    p.add_argument(
        "--max-runs",
        type=int,
        default=200_000,
        help="hard cap on completed+truncated runs (default 200000); "
        "an exploration stopped by it certifies nothing and exits 3",
    )
    p.add_argument(
        "--dedup",
        action="store_true",
        help="prune states whose fingerprint was already explored "
        "(changes node counts, never the verdict)",
    )
    p.add_argument(
        "--por",
        action="store_true",
        help="sleep-set partial-order reduction: prune sibling orders "
        "of commuting steps (changes node counts, never the verdict)",
    )
    p.add_argument(
        "--symmetry",
        action="store_true",
        help="prune interchangeable same-input C-processes and "
        "canonicalize dedup fingerprints over process orbits",
    )
    p.add_argument(
        "--inputs",
        default=None,
        help="comma-separated input vector overriding the task default "
        "('none' or '-' marks a non-participant), e.g. 1,1,1,1 or "
        "1,2,none",
    )
    p.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="wall-clock budget; at expiry the exploration stops, "
        "checkpoints its frontier (with --checkpoint), and exits 75",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="write the frontier here when interrupted by the deadline "
        "or SIGINT/SIGTERM",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="continue a checkpointed exploration exactly (same task, "
        "inputs, and explorer knobs required)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "check-renaming", help="Lemma 11 solvability crossover"
    )
    p.add_argument("names", type=int)
    p.set_defaults(func=_cmd_check_renaming)

    p = sub.add_parser("extract", help="Figure 1 extraction demo")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "lint", help="check algorithms against the EFD step model"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="also run the traced battery (race detection + POR "
        "footprint audit)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report output format",
    )
    p.add_argument(
        "--out", help="write the report to this file instead of stdout"
    )
    p.add_argument(
        "--enable",
        action="append",
        metavar="PASS",
        help="run only the named pass (repeatable)",
    )
    p.add_argument(
        "--disable",
        action="append",
        metavar="PASS",
        help="skip the named pass (repeatable)",
    )
    p.add_argument(
        "--baseline",
        help="suppress findings listed in this baseline file",
    )
    p.add_argument(
        "--write-baseline",
        help="record the current findings as the new baseline",
    )
    p.add_argument(
        "--list-passes",
        action="store_true",
        help="list registered passes and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "chaos", help="fault-injection campaigns, shrinking, replay"
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)

    p = chaos_sub.add_parser(
        "run",
        help="sweep a chaos campaign",
        description="Sweep a fault-injection campaign and triage "
        "every cell.",
        epilog=(
            "exit codes: 0 = campaign ok and complete; "
            "1 = safety violations, invalid histories, or engine "
            "errors; 3 = no violations but at least one cell was "
            "quarantined (timeout/oom/worker_crash/flaky/partition) — "
            "coverage was lost, so CI cannot silently pass; "
            "2 = usage error: a bad argument, or settings the campaign "
            "refuses (e.g. --deadline-s with --backend inproc, --kernel "
            "compiled with --backend fabric, a --resume journal of "
            "another campaign, a --listen address it cannot parse or "
            "bind); "
            "75 = interrupted with progress journaled (rerun with "
            "--resume)."
        ),
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed-seed campaign (CI gate: zero violations)",
    )
    p.add_argument(
        "--specimen",
        action="store_true",
        help="hunt the planted decide-before-stabilization bug and "
        "shrink its witness",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cells",
        type=int,
        default=None,
        help="run at most this many cells of the campaign",
    )
    p.add_argument(
        "--bundle",
        metavar="PATH",
        default=None,
        help="with --specimen: write the shrunk repro bundle here",
    )
    p.add_argument(
        "--verbose", action="store_true", help="print each cell as it runs"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan cells out over this many worker processes "
        "(reports are byte-identical to serial runs)",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append every completed cell to this JSONL journal; an "
        "interrupted sweep exits 75 and can be continued with --resume",
    )
    p.add_argument(
        "--resume",
        metavar="PATH",
        default=None,
        help="resume from a journal: replay its completed cells and "
        "execute only the remainder (fingerprint-pinned to the exact "
        "same campaign/seed/--cells); with --backend fabric this also "
        "recovers the coordinator's lease/suspicion state from the "
        "journal's control-plane events and re-admits reconnecting "
        "workers that still hold valid leases",
    )
    p.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-cell wall-clock budget enforced inside workers; a "
        "cell that exceeds it is retried, then quarantined as timeout",
    )
    p.add_argument(
        "--rss-mb",
        type=float,
        default=None,
        help="per-cell resident-set budget (MiB) enforced inside "
        "workers; breaching cells are quarantined as oom",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=None,
        help="supervised retry budget per cell before quarantine "
        "(default: RetryPolicy's 2)",
    )
    p.add_argument(
        "--inject-worker-kill",
        type=int,
        metavar="CELL",
        default=None,
        help="fault drill: SIGKILL the worker assigned this cell index "
        "on its first attempt (the report must come out identical)",
    )
    p.add_argument(
        "--backend",
        choices=["auto", "inproc", "pool", "fabric"],
        default="auto",
        help="dispatch substrate: in-process, local worker pool, or "
        "the multi-host fabric (lease-based at-least-once dispatch "
        "over sockets; degrades to the local pool if no worker "
        "registers); reports are byte-identical across backends.  "
        "Only pool workers enforce --deadline-s, --rss-mb and "
        "--inject-worker-kill: inproc and fabric refuse them",
    )
    p.add_argument(
        "--kernel",
        choices=["interp", "compiled"],
        default="interp",
        help="execution kernel per cell: the interpreted executor, or "
        "compiled step functions with per-automaton fallback; every "
        "backend runs one cell at a time either way, and reports are "
        "byte-identical across kernels",
    )
    p.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default="127.0.0.1:0",
        help="with --backend fabric: coordinator listen address "
        "(port 0 picks an ephemeral port, printed to stderr); bind "
        "0.0.0.0 to accept remote workers (default: %(default)s)",
    )
    p.add_argument(
        "--lease-s",
        type=float,
        default=5.0,
        help="with --backend fabric: per-cell lease deadline; "
        "heartbeats renew it, silence past it requeues the cell "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--register-grace-s",
        type=float,
        default=5.0,
        help="with --backend fabric: how long to wait for the first "
        "worker before degrading to local execution "
        "(default: %(default)s)",
    )
    p.set_defaults(func=_cmd_chaos_run)

    p = chaos_sub.add_parser(
        "replay", help="re-execute a repro bundle deterministically"
    )
    p.add_argument("bundle", help="path to a bundle JSON file")
    p.set_defaults(func=_cmd_chaos_replay)

    p = sub.add_parser(
        "worker",
        help="join a campaign fabric as a remote worker",
        description="Connect to a fabric coordinator, serve leased "
        "campaign cells (heartbeating each lease), and reconnect "
        "with capped deterministic backoff when the link drops.",
        epilog="exit codes: 0 = coordinator sent shutdown (campaign "
        "done) or SIGTERM drain (in-flight cell finished, spool "
        "flushed); 1 = gave up after --max-attempts consecutive "
        "failed connection attempts.",
    )
    p.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="coordinator address (see 'chaos run --backend fabric')",
    )
    p.add_argument(
        "--name",
        default=None,
        help="stable worker name (default: worker-<pid>); reconnects "
        "under the same name are attributed as reconnects",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="determinism seed for the reconnect-backoff jitter",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=30,
        help="consecutive failed connection attempts before giving "
        "up (default: %(default)s)",
    )
    p.add_argument(
        "--spool",
        metavar="PATH",
        default=None,
        help="disk-back the bounded result spool: completed results "
        "that cannot reach the coordinator are buffered here and "
        "replayed idempotently on reconnect (default: in-memory)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="log connects, reconnects, and shutdown to stderr",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "kernel",
        help="compiled execution kernel: dump, list, differential gate",
        description="Inspect the schema-to-Python compiled kernel and "
        "run its kernel-vs-interpreter differential gate.",
        epilog="exit codes (differential mode): 0 = all comparisons "
        "byte-identical and footprints consistent; 1 = divergence.",
    )
    p.add_argument(
        "--dump",
        metavar="NAME",
        default=None,
        help="print the generated source (with content hash) for one "
        "automaton or module, e.g. 's_helper' or "
        "'kset_vector.kset_c_factory'",
    )
    p.add_argument(
        "--dump-all",
        action="store_true",
        help="print every generated program plus interpreter-fallback "
        "notes (the CI generated-source artifact)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="one line per declared automaton: compiled (hash, sites) "
        "or interp-fallback (reason)",
    )
    p.add_argument(
        "--coverage",
        action="store_true",
        help="per-automaton compiled/inlined/fallback table with "
        "reasons; combine with --check to fail if coverage shrank "
        "vs the committed KERNEL_COVERAGE.json, or --write to "
        "refresh the manifest",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="with --coverage: exit 1 if any automaton's coverage "
        "regressed relative to the committed manifest",
    )
    p.add_argument(
        "--write",
        action="store_true",
        help="with --coverage: rewrite the committed manifest from "
        "the current compiler's results",
    )
    p.add_argument(
        "--full",
        action="store_true",
        help="differential mode: run the full battery (nightly) "
        "instead of the smoke subset",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="differential mode: print each case to stderr",
    )
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser(
        "bench", help="run the tracked execution-core benchmarks"
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="shrunken workloads for CI (same benchmark names)",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_core.json",
        help="write results here (default: %(default)s)",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="compare throughput against this results file and fail "
        "on regressions past --fail-threshold",
    )
    p.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="print a per-case delta table between two results files "
        "and exit without running the suite",
    )
    p.add_argument(
        "--fail-threshold",
        type=float,
        default=3.0,
        help="maximum tolerated slowdown factor vs the baseline "
        "(default: %(default)s)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the campaign benchmark",
    )
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
