#!/usr/bin/env python
"""Deep naive-vs-reduced exploration differential (resumable).

Runs the exhaustive task-safety check at depths too slow for per-PR CI
and fails if any reduction (por / dedup / symmetry, in the strongest
combinations) reports a different verdict than the naive explorer, if
pure sleep-set POR visits a different state *set*, or if any phase
explores another number of nodes than the one pinned in ``MATRIX`` (a
change in how the explorer identifies states or trie edges that merged
or split two states would pass the verdict checks).  Wired to the
scheduled `deep-exploration` CI job; runnable locally:

    PYTHONPATH=src python scripts/deep_exploration_differential.py

The job is *resumable*: ``--deadline-s`` bounds one invocation's
wall-clock; at expiry the in-flight exploration checkpoints its
frontier into ``--checkpoint-dir`` (finished phases persist their
summaries there too) and the script exits 75 (``EX_TEMPFAIL``).
Re-running the same command skips finished phases and resumes the
interrupted one exactly — the reported node counts are identical to an
uninterrupted run.  A fully successful run clears the directory.
"""

from __future__ import annotations

import argparse
import pickle
import sys
import time
from pathlib import Path

#: Exit code for "out of budget, progress checkpointed — rerun to
#: continue" (mirrors repro.resilience.EXIT_RESUMABLE).
EXIT_RESUMABLE = 75


def _figure4_case(n, j, l, inputs):
    from repro.algorithms.renaming_figure4 import figure4_factories
    from repro.checker import drop_null_s_processes
    from repro.core import System
    from repro.tasks import RenamingTask

    task = RenamingTask(n, j, l)

    def build():
        return System(inputs=inputs, c_factories=figure4_factories(n))

    return task, build, drop_null_s_processes


def _kset_case(n, k, inputs):
    from repro.algorithms.kset_concurrent import kset_concurrent_factories
    from repro.checker import concurrency_gate, drop_null_s_processes
    from repro.core import System
    from repro.tasks import SetAgreementTask

    task = SetAgreementTask(n, k)

    def build():
        return System(
            inputs=inputs, c_factories=kset_concurrent_factories(n, k)
        )

    def gate(executor, candidates):
        return concurrency_gate(k)(
            executor, drop_null_s_processes(executor, candidates)
        )

    return task, build, gate


# (name, case, depth, compare-state-sets, naive explored count,
#  [(reduction config, explored count), ...]); the counts are pinned
MATRIX = [
    (
        "figure4-renaming-d18",
        _figure4_case(3, 2, 3, (1, 2, None)),
        18,
        True,
        4_913,
        [
            ({"por": True}, 1_539),
            ({"por": True, "dedup": True}, 222),
            ({"symmetry": True, "por": True, "dedup": True}, 222),
        ],
    ),
    (
        "kset-symmetric-d18",
        _kset_case(4, 2, (1, 1, 1, 1)),
        18,
        False,  # naive state collection at this depth is the slow part
        108_185,
        [
            ({"por": True, "dedup": True}, 1_207),
            ({"symmetry": True, "dedup": True}, 82),
            ({"symmetry": True, "por": True, "dedup": True}, 82),
        ],
    ),
    (
        # ~600k naive nodes: the slow half of this job.
        "figure4-4proc-d12",
        _figure4_case(4, 3, 5, (1, 2, 3, None)),
        12,
        False,
        603_322,
        [
            ({"por": True}, 183_712),
            ({"por": True, "dedup": True}, 4_668),
            ({"symmetry": True, "por": True, "dedup": True}, 4_668),
        ],
    ),
    (
        # ~3.6M naive nodes, five processes, mixed inputs.
        "kset-5proc-d18",
        _kset_case(5, 2, (1, 1, 1, 1, 2)),
        18,
        False,
        3_571_601,
        [
            ({"por": True, "dedup": True}, 7_151),
            ({"symmetry": True, "por": True, "dedup": True}, 476),
        ],
    ),
    (
        "kset-mixed-d16",
        _kset_case(3, 2, (1, 1, 0)),
        16,
        True,
        4_099,
        [
            ({"por": True}, 2_827),
            ({"por": True, "dedup": True}, 202),
            ({"symmetry": True, "por": True, "dedup": True}, 112),
        ],
    ),
]


class OutOfBudget(Exception):
    """The invocation's wall-clock budget expired; progress is saved."""


class PhaseRunner:
    """Runs one exploration phase at a time, persisting finished-phase
    summaries and interrupted-phase frontiers under ``checkpoint_dir``."""

    def __init__(self, checkpoint_dir: Path, deadline_s: float | None):
        self.dir = checkpoint_dir
        self.deadline_at = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )

    def _remaining(self) -> float | None:
        if self.deadline_at is None:
            return None
        return self.deadline_at - time.monotonic()

    def run(self, key, task, build, gate, depth, collect_states, **knobs):
        """Explore one phase; returns ``(report, states, wall_s,
        skipped)``.  Raises :class:`OutOfBudget` when the budget expires
        (after checkpointing the frontier and the collected states)."""
        from repro.checker import ScheduleExplorer, task_safety_verdict

        done_path = self.dir / f"{key}.done.pkl"
        ckpt_path = self.dir / f"{key}.ckpt"
        states_path = self.dir / f"{key}.states.pkl"
        if done_path.exists():
            report, states = pickle.loads(done_path.read_bytes())
            return report, states, 0.0, True
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            raise OutOfBudget(f"budget expired before phase {key}")

        # States collected before an interrupt live in a sidecar file —
        # the explorer checkpoint only knows about its own frontier.
        states: set = (
            pickle.loads(states_path.read_bytes())
            if states_path.exists()
            else set()
        )
        base = task_safety_verdict(task)

        def verdict(executor):
            if collect_states:
                states.add(executor.fingerprint())
            return base(executor)

        explorer = ScheduleExplorer(
            build,
            max_depth=depth,
            candidate_filter=gate,
            max_runs=5_000_000,
            **knobs,
        )
        self.dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        report = explorer.check(
            verdict,
            deadline_s=remaining,
            checkpoint_path=str(ckpt_path),
            resume_from=str(ckpt_path) if ckpt_path.exists() else None,
            handle_signals=True,
        )
        wall = time.perf_counter() - t0
        if report.interrupted:
            if collect_states:
                states_path.write_bytes(pickle.dumps(states))
            raise OutOfBudget(
                f"phase {key} checkpointed at {report.explored} nodes"
            )
        done_path.parent.mkdir(parents=True, exist_ok=True)
        done_path.write_bytes(pickle.dumps((report, states)))
        ckpt_path.unlink(missing_ok=True)
        states_path.unlink(missing_ok=True)
        return report, states, wall, False

    def clear(self) -> None:
        if self.dir.exists():
            for path in self.dir.iterdir():
                path.unlink()
            self.dir.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="overall wall-clock budget for this invocation; at expiry "
        "progress is checkpointed and the script exits 75",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=Path(".deep-exploration-ckpt"),
        help="where finished-phase summaries and interrupted frontiers "
        "live between invocations (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    runner = PhaseRunner(args.checkpoint_dir, args.deadline_s)

    failures = []
    try:
        for (
            name, (task, build, gate), depth, check_states, naive_pin, configs
        ) in MATRIX:
            naive, naive_states, wall, skipped = runner.run(
                f"{name}--naive", task, build, gate, depth, check_states
            )
            print(
                f"{name}: naive {naive.explored} nodes, ok={naive.ok} "
                f"({'cached' if skipped else f'{wall:.1f}s'})"
            )
            if naive.explored != naive_pin:
                failures.append(
                    f"{name} [naive]: explored {naive.explored} nodes, "
                    f"pinned {naive_pin}"
                )
            for knobs, pin in configs:
                tag = "+".join(sorted(k for k, v in knobs.items() if v))
                pure_por = knobs == {"por": True}
                reduced, reduced_states, wall, skipped = runner.run(
                    f"{name}--{tag}",
                    task, build, gate, depth,
                    check_states and pure_por,
                    **knobs,
                )
                print(
                    f"{name}: {tag} {reduced.explored} nodes, "
                    f"ok={reduced.ok} "
                    f"({'cached' if skipped else f'{wall:.1f}s'})"
                )
                if reduced.explored != pin:
                    failures.append(
                        f"{name} [{tag}]: explored {reduced.explored} "
                        f"nodes, pinned {pin}"
                    )
                if reduced.ok != naive.ok:
                    failures.append(
                        f"{name} [{tag}]: verdict {reduced.ok} != "
                        f"naive {naive.ok}"
                    )
                if bool(reduced.violations) != bool(naive.violations):
                    failures.append(
                        f"{name} [{tag}]: violation presence differs"
                    )
                if check_states and pure_por and reduced_states != naive_states:
                    failures.append(
                        f"{name} [por]: visited-state set differs from "
                        f"naive ({len(reduced_states)} vs "
                        f"{len(naive_states)})"
                    )
    except OutOfBudget as exc:
        print(f"\nout of budget: {exc}")
        print(
            "progress saved; rerun the same command to continue "
            f"(checkpoints in {args.checkpoint_dir})"
        )
        return EXIT_RESUMABLE
    if failures:
        print("\nDIFFERENTIAL FAILURES:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    runner.clear()
    print("\nall deep differentials agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
