"""Kernel/interpreter differential harness: the compiled kernel's
correctness gate.

The compiled kernel (:mod:`repro.kernel.engine`) claims *exact*
equivalence with the interpreted executor.  This module is the
enforcement mechanism:

* :func:`all_cases` enumerates differential workloads — mirrors of the
  strict-lint battery (:mod:`repro.lint.battery`), the ten
  ``tests/checker/test_reduction.py`` workloads, randomized
  crash-schedule sweeps, and one specimen per module in
  :data:`repro.algorithms.LINT_SCHEMAS` (so every schema either
  compiles or demonstrably falls back — never silently diverges);
* :func:`run_case` executes one case through both kernels, traced and
  untraced, and canonicalizes each :class:`~repro.core.run.RunResult`
  with :func:`canonical_result` — byte-comparable strings covering
  outputs, step counts, stop reason, final memory, extras, and every
  trace event;
* :func:`footprint_crosscheck` compares the compiler's per-site
  register metadata (:class:`~repro.kernel.compiler.OpSite`) against
  the linter's :class:`~repro.lint.ir.footprint.StaticFootprint` for
  the same automata, so the footprints the partial-order reduction
  trusts stay sound for compiled code;
* :func:`run_differential` drives the whole gate (CI entry point:
  ``repro kernel --differential``).

A mismatch raises :class:`DifferentialFailure` carrying the first
divergent canonical line — loud by design; the deliberately
miscompiled specimen in ``tests/kernel/test_differential.py`` proves
the gate trips.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator

from ..core.failures import FailurePattern
from ..core.process import c_process
from ..core.run import RunResult
from ..core.system import INPUT_REGISTER_PREFIX, System
from ..runtime import ops
from ..runtime.executor import execute
from ..runtime.scheduler import (
    AdversarialScheduler,
    RoundRobinScheduler,
    SeededRandomScheduler,
)
from .compiler import cached_programs
from .engine import CompiledRun

__all__ = [
    "DiffCase",
    "CaseOutcome",
    "DifferentialFailure",
    "canonical_result",
    "run_case",
    "all_cases",
    "run_differential",
    "footprint_crosscheck",
    "campaign_differential",
]


class DifferentialFailure(AssertionError):
    """The two kernels produced observably different runs."""


@dataclass(frozen=True)
class DiffCase:
    """One differential workload: a fresh (system, scheduler) builder.

    ``build`` must construct *everything* fresh on each call — systems
    and schedulers are stateful.  ``full_only`` cases are skipped in
    smoke mode (CI per-push); the nightly full battery runs them all.
    """

    name: str
    build: Callable[[], tuple[System, Any]]
    max_steps: int = 50_000
    full_only: bool = False


@dataclass
class CaseOutcome:
    """Both kernels' canonical outputs for one case (one trace mode)."""

    case: str
    traced: bool
    interp: str
    compiled: str
    compiled_pids: tuple[str, ...] = ()
    fallback_pids: tuple[str, ...] = ()

    @property
    def identical(self) -> bool:
        return self.interp == self.compiled

    def first_divergence(self) -> str:
        for i, (a, b) in enumerate(
            zip(self.interp.splitlines(), self.compiled.splitlines())
        ):
            if a != b:
                return f"line {i}: interp {a!r} != compiled {b!r}"
        return (
            f"lengths differ: interp {len(self.interp)} chars, "
            f"compiled {len(self.compiled)} chars"
        )


def canonical_result(result: RunResult) -> str:
    """Byte-comparable canonical form of a run (trace included)."""
    lines = [
        repr(result.inputs),
        repr(result.outputs),
        repr(sorted(result.participants)),
        repr(result.steps),
        repr(
            sorted((p.name, c) for p, c in result.step_counts.items())
        ),
        result.reason,
        repr(result.pattern.crash_times),
        repr(sorted(result.memory.snapshot("").items())),
        repr(sorted(result.extras.items())),
    ]
    if result.trace is not None:
        lines.extend(
            f"{e.time} {e.pid.name} {e.op!r} {e.result!r}"
            for e in result.trace.events
        )
    return "\n".join(lines)


def run_case(case: DiffCase, *, trace: bool) -> CaseOutcome:
    """Execute ``case`` through both kernels; canonicalize both runs."""
    system, scheduler = case.build()
    interp = execute(
        system, scheduler, max_steps=case.max_steps, trace=trace
    )
    system, scheduler = case.build()
    run = CompiledRun(
        system, scheduler, max_steps=case.max_steps, trace=trace
    )
    compiled = run.run()
    return CaseOutcome(
        case=case.name,
        traced=trace,
        interp=canonical_result(interp),
        compiled=canonical_result(compiled),
        compiled_pids=tuple(
            sorted(p.name for p in run.compiled_pids)
        ),
        fallback_pids=tuple(
            sorted(p.name for p in run.fallback_pids)
        ),
    )


def verify_case(case: DiffCase) -> list[CaseOutcome]:
    """Run ``case`` traced and untraced; raise on any divergence."""
    outcomes = []
    for trace in (False, True):
        outcome = run_case(case, trace=trace)
        if not outcome.identical:
            raise DifferentialFailure(
                f"{case.name} (traced={trace}): "
                f"{outcome.first_divergence()}"
            )
        outcomes.append(outcome)
    return outcomes


# -- workloads: battery mirrors ------------------------------------------


def _battery_cases() -> Iterator[DiffCase]:
    """Mirrors of the seven strict-lint battery recipes
    (:func:`repro.lint.battery.battery_runs` — same factories, same
    seeds, same envelopes)."""
    from ..algorithms.kset_concurrent import kset_concurrent_factories
    from ..algorithms.kset_vector import kset_factories
    from ..algorithms.one_concurrent import one_concurrent_factories
    from ..algorithms.renaming_figure4 import figure4_factories
    from ..algorithms.s_helper import helper_c_factory, helper_s_factory
    from ..algorithms.splitters import moir_anderson_factories
    from ..algorithms.wsb_concurrent import wsb_concurrent_factories
    from ..detectors import VectorOmegaK
    from ..runtime import k_concurrent
    from ..tasks import ConsensusTask

    yield DiffCase(
        "battery:one_concurrent@1",
        lambda: (
            System(
                inputs=(0, 1, 1),
                c_factories=one_concurrent_factories(ConsensusTask(3)),
            ),
            k_concurrent(SeededRandomScheduler(7), 1),
        ),
    )
    yield DiffCase(
        "battery:kset_concurrent@1",
        lambda: (
            System(
                inputs=(3, 4, 5),
                c_factories=kset_concurrent_factories(3, 2),
            ),
            k_concurrent(SeededRandomScheduler(11), 1),
        ),
    )
    yield DiffCase(
        "battery:s_helper",
        lambda: (
            System(
                inputs=(6, 7, 8),
                c_factories=[helper_c_factory] * 3,
                s_factories=[helper_s_factory] * 3,
            ),
            SeededRandomScheduler(13),
        ),
    )
    yield DiffCase(
        "battery:figure4",
        lambda: (
            System(inputs=(1, 2, None), c_factories=figure4_factories(3)),
            SeededRandomScheduler(17),
        ),
    )
    yield DiffCase(
        "battery:wsb@2",
        lambda: (
            System(
                inputs=(1, None, 3),
                c_factories=wsb_concurrent_factories(3, 2),
            ),
            k_concurrent(SeededRandomScheduler(19), 2),
        ),
    )
    yield DiffCase(
        "battery:moir_anderson",
        lambda: (
            System(
                inputs=(1, 2, 3, None, None),
                c_factories=moir_anderson_factories(5, 3),
            ),
            SeededRandomScheduler(23),
        ),
    )

    def build_kset_vector() -> tuple[System, Any]:
        c_factories, s_factories = kset_factories(2, 1)
        return (
            System(
                inputs=(0, 1),
                c_factories=c_factories,
                s_factories=s_factories,
                detector=VectorOmegaK(2, 1),
                seed=3,
            ),
            SeededRandomScheduler(29),
        )

    # Smoke bound keeps CI fast; the full battery replays the linter's
    # exact 200k budget.
    yield DiffCase(
        "battery:kset_vector", build_kset_vector, max_steps=20_000
    )
    yield DiffCase(
        "battery:kset_vector-full",
        build_kset_vector,
        max_steps=200_000,
        full_only=True,
    )


# -- workloads: reduction-test mirrors -----------------------------------


def _reduction_cases() -> Iterator[DiffCase]:
    """Mirrors of the ten ``tests/checker/test_reduction.py`` workloads
    (same tasks, inputs, and crash patterns), each run under both a
    round-robin and a seeded scheduler."""
    from ..algorithms.kset_concurrent import kset_concurrent_factories
    from ..algorithms.renaming_figure4 import figure4_factories
    from ..algorithms.wsb_concurrent import wsb_concurrent_factories
    from ..tasks import identity_factories

    builders: dict[str, Callable[[], System]] = {
        "figure4": lambda: System(
            inputs=(1, 2, None), c_factories=figure4_factories(3)
        ),
        "figure4-violating": lambda: System(
            inputs=(1, 2, None), c_factories=figure4_factories(3)
        ),
        "kset-mixed": lambda: System(
            inputs=(1, 1, 0), c_factories=kset_concurrent_factories(3, 2)
        ),
        "kset-symmetric": lambda: System(
            inputs=(1, 1, 1), c_factories=kset_concurrent_factories(3, 2)
        ),
        "kset-violating": lambda: System(
            inputs=(0, 1, 2), c_factories=kset_concurrent_factories(3, 1)
        ),
        "identity": lambda: System(
            inputs=(0, 1, 0), c_factories=identity_factories(3)
        ),
        "wsb": lambda: System(
            inputs=(1, None, 3), c_factories=wsb_concurrent_factories(3, 2)
        ),
    }
    for seed in range(3):
        rng = random.Random(seed)
        times = tuple(
            rng.randrange(1, 8) if rng.random() < 0.7 else None
            for _ in range(3)
        )
        builders[f"crashes-{seed}"] = (
            lambda times=times: System(
                inputs=(1, 2, None),
                c_factories=figure4_factories(3),
                pattern=FailurePattern(3, times),
            )
        )
    for name, build_system in builders.items():
        for sched_name, make_sched in (
            ("rr", RoundRobinScheduler),
            ("seeded", lambda: SeededRandomScheduler(5)),
        ):
            yield DiffCase(
                f"reduction:{name}/{sched_name}",
                lambda b=build_system, m=make_sched: (b(), m()),
                max_steps=5_000,
            )


# -- workloads: crash-schedule sweeps ------------------------------------


def _crash_sweep_cases() -> Iterator[DiffCase]:
    """Randomized S-crash patterns over the s_helper system — the
    workload where crash retirement, candidate-list maintenance, and
    the seeded-scheduler RNG stream all interact."""
    from ..algorithms.s_helper import helper_c_factory, helper_s_factory

    rng = random.Random(0xC0FFEE)
    for i in range(6):
        times = [
            rng.randrange(1, 80) if rng.random() < 0.6 else None
            for _ in range(3)
        ]
        if all(t is not None for t in times):
            times[rng.randrange(3)] = None  # >=1 correct S-process
        pattern = tuple(times)

        def build(pattern=pattern) -> System:
            return System(
                inputs=(6, 7, 8),
                c_factories=[helper_c_factory] * 3,
                s_factories=[helper_s_factory] * 3,
                pattern=FailurePattern(3, pattern),
            )

        for sched_name, make_sched in (
            ("rr", RoundRobinScheduler),
            ("seeded", lambda i=i: SeededRandomScheduler(100 + i)),
            (
                "adversarial",
                lambda i=i: AdversarialScheduler(
                    [c_process(i % 3)], period=5 + i
                ),
            ),
        ):
            yield DiffCase(
                f"crash-sweep:{i}/{sched_name}",
                lambda b=build, m=make_sched: (b(), m()),
                max_steps=4_000,
            )


# -- workloads: one specimen per LINT_SCHEMAS module ---------------------


def _echo_code(ctx):
    """Simulated BG code: decide own (virtual) input."""
    value = yield ops.Read(f"{INPUT_REGISTER_PREFIX}{ctx.pid.index}")
    yield ops.Decide(value)


def _counting_code(ctx):
    """Simulated Figure 2 code: bump own counter forever."""
    count = 0
    while True:
        yield ops.Write(f"count/{ctx.pid.index}", count)
        count += 1


def _null_c(ctx):
    while True:
        yield ops.Nop()


def _catalog_cases(*, smoke: bool) -> Iterator[DiffCase]:
    """One executable specimen per ``LINT_SCHEMAS`` module not already
    exercised by the battery/reduction mirrors, so the differential
    gate covers every declared schema (directly or as a subroutine of
    one): bg_simulation (+ safe_agreement), dispatch
    (+ kconcurrent_solver, kset_vector, paxos), extraction,
    kcode_simulation, renaming_figure3, self_synchronization,
    set_agreement_ext.
    """
    from ..algorithms.bg_simulation import BGSpec, bg_factories
    from ..algorithms.extraction import (
        ExtractionConfig,
        ExtractionEngine,
        extraction_s_factory,
    )
    from ..algorithms.kcode_simulation import F2Spec, figure2_factories
    from ..algorithms.kset_concurrent import kset_concurrent_factories
    from ..algorithms.kset_vector import kset_c_factory, kset_s_factory
    from ..algorithms.renaming_figure3 import figure3_factories
    from ..algorithms.self_synchronization import interleave_factories
    from ..algorithms.s_helper import helper_c_factory, helper_s_factory
    from ..algorithms.set_agreement_ext import ax_factories
    from ..algorithms.dispatch import build_solver_system
    from ..detectors import Omega, VectorOmegaK
    from ..runtime import k_concurrent
    from ..tasks import ConsensusTask

    for agreement in ("cas", "safe"):

        def build_bg(agreement=agreement) -> tuple[System, Any]:
            spec = BGSpec(
                name="bg",
                code_factories=[_echo_code] * 4,
                simulators=2,
                static_inputs=(10, 11, 12, 13),
                agreement=agreement,
            )
            return (
                System(inputs=(0, 1), c_factories=bg_factories(spec)),
                RoundRobinScheduler(),
            )

        yield DiffCase(
            f"catalog:bg_simulation/{agreement}",
            build_bg,
            max_steps=6_000,
        )

    def build_extraction() -> tuple[System, Any]:
        n, k = 2, 1

        def engine_builder(dag: Any) -> ExtractionEngine:
            return ExtractionEngine(
                n=n,
                k=k,
                c_factories=[kset_c_factory(k)] * n,
                s_factories=[kset_s_factory(k)] * n,
                dag=dag,
                input_vectors=[(0, 1)],
                config=ExtractionConfig(max_depth=120, max_calls=400),
            )

        s_factories = [
            extraction_s_factory(
                n=n, k=k, engine_builder=engine_builder, sample_rounds=12
            )
            for _ in range(n)
        ]
        return (
            System(
                inputs=(1, 1),
                c_factories=[_null_c] * n,
                s_factories=s_factories,
                detector=Omega(leader=0),
                pattern=FailurePattern.all_correct(n),
            ),
            RoundRobinScheduler(),
        )

    yield DiffCase(
        "catalog:extraction", build_extraction, max_steps=2_000
    )

    def build_kcode() -> tuple[System, Any]:
        spec = F2Spec(
            k=2, code_factories=[_counting_code] * 2, n=3
        )
        c_factories, s_factories = figure2_factories(spec)
        return (
            System(
                inputs=(0, 1, 2),
                c_factories=c_factories,
                s_factories=s_factories,
                detector=VectorOmegaK(spec.n, spec.k),
                seed=0,
            ),
            SeededRandomScheduler(0),
        )

    yield DiffCase("catalog:kcode_simulation", build_kcode,
                   max_steps=4_000)

    yield DiffCase(
        "catalog:renaming_figure3",
        lambda: (
            System(
                inputs=(1, 2, None),
                c_factories=figure3_factories(3, 2),
            ),
            SeededRandomScheduler(41),
        ),
        max_steps=30_000,
    )

    yield DiffCase(
        "catalog:self_synchronization",
        lambda: (
            System(
                inputs=(6, 7, 8),
                c_factories=[
                    interleave_factories(
                        helper_c_factory, helper_s_factory
                    )
                ]
                * 3,
            ),
            SeededRandomScheduler(43),
        ),
        max_steps=10_000,
    )

    def build_ax() -> tuple[System, Any]:
        n, k, x = 5, 2, 3
        factories = ax_factories(
            x, n, kset_concurrent_factories(k + 1, k)
        )
        inputs = tuple(i if i < x else None for i in range(n))
        return (
            System(inputs=inputs, c_factories=factories),
            k_concurrent(SeededRandomScheduler(3), k),
        )

    yield DiffCase(
        "catalog:set_agreement_ext",
        build_ax,
        max_steps=8_000 if smoke else 60_000,
    )

    def build_dispatch() -> tuple[System, Any]:
        system = build_solver_system(
            ConsensusTask(3), detector=Omega(), seed=1
        )
        return system, SeededRandomScheduler(9)

    yield DiffCase(
        "catalog:dispatch",
        build_dispatch,
        max_steps=6_000 if smoke else 40_000,
    )


def all_cases(*, smoke: bool = True) -> list[DiffCase]:
    """Every differential workload (``smoke`` drops ``full_only`` ones
    and shortens the heavy catalog budgets)."""
    cases = [
        *_battery_cases(),
        *_reduction_cases(),
        *_crash_sweep_cases(),
        *_catalog_cases(smoke=smoke),
    ]
    if smoke:
        cases = [case for case in cases if not case.full_only]
    return cases


# -- the footprint cross-check -------------------------------------------


def footprint_crosscheck(
    programs: list | None = None,
) -> tuple[int, list[str]]:
    """Check compiled op-site metadata against the linter's static
    footprints.

    For every cached :class:`~repro.kernel.compiler.CompiledProgram`
    whose source function is a declared ``LINT_SCHEMAS`` automaton, each
    compiled suspension site must be *covered* by the corresponding
    :class:`~repro.lint.ir.footprint.StaticFootprint` — otherwise the
    compiler found a register access the linter (and therefore the
    partial-order reduction) does not know about.  Returns
    ``(n_checked_sites, mismatches)``.
    """
    from ..lint.runner import build_units

    units, _findings = build_units()
    footprints: dict[tuple[str, str], Any] = {}
    for unit in units:
        for air in unit.automata:
            footprints[(unit.module.__name__, air.name.split(".")[0])] = (
                air.footprint
            )

    checked = 0
    mismatches: list[str] = []
    for program in programs if programs is not None else cached_programs():
        root = program.qualname.split(".<locals>.")[0]
        footprint = footprints.get((program.module, root))
        if footprint is None:
            continue  # not a declared automaton (test helper, inline)
        for site in program.sites:
            checked += 1
            if not _site_covered(site, footprint):
                mismatches.append(
                    f"{program.module}.{root} site {site.site} "
                    f"({site.kind} {site.register or site.register_prefix!r})"
                    f" not covered by static footprint"
                )
    return checked, mismatches


def _site_covered(site: Any, fp: Any) -> bool:
    if site.kind == "nop":
        return True
    if site.kind == "query":
        return fp.queries
    if site.kind == "decide":
        return fp.decides
    if site.kind == "delegate":
        # A dynamic ``yield from`` site drives an unresolvable callee
        # and may perform any operation at runtime; only an *open*
        # footprint (the linter admits unresolved delegation too) can
        # soundly cover it.
        return not fp.closed
    if not fp.closed:
        # The linter itself admits unresolved/delegated sites; nothing
        # stronger can be asserted for this automaton.
        return True
    reads = fp.reads | fp.read_prefixes
    writes = fp.writes | fp.write_prefixes

    def overlaps(text: str | None, declared: frozenset) -> bool:
        if text is None:
            return False
        return any(
            text.startswith(d) or d.startswith(text) for d in declared
        )

    if site.kind == "read":
        if site.register is not None:
            return fp.covers_read(site.register)
        return overlaps(site.register_prefix, reads)
    if site.kind == "snapshot":
        prefix = (
            site.register
            if site.register is not None
            else site.register_prefix
        )
        return prefix is not None and (
            prefix == "" or fp.covers_snapshot(prefix)
            or overlaps(prefix, fp.read_prefixes)
        )
    if site.kind == "write":
        if site.register is not None:
            return fp.covers_write(site.register)
        return overlaps(site.register_prefix, writes)
    if site.kind == "cas":
        if site.register is not None:
            return fp.covers_read(site.register) and fp.covers_write(
                site.register
            )
        return overlaps(site.register_prefix, reads) and overlaps(
            site.register_prefix, writes
        )
    return False  # unknown kind: fail loudly


# -- campaign-report differential ----------------------------------------


def campaign_differential(*, limit: int = 6) -> tuple[str, str]:
    """Render the first ``limit`` cells of the smoke campaign, and as
    many of the same sweep over the one-concurrent consensus solver,
    through both kernels; the two reports must be byte-identical.
    Returns (interp_render, compiled_render).

    The smoke campaign's Theorem 9 cells run on the interpreter under
    either kernel (their Figure 2 automata do not compile); the
    one-concurrent cells run compiled step functions.
    """
    from ..chaos.campaign import Workload, run_campaign, smoke_campaign

    smoke = smoke_campaign()
    specs = (
        smoke,
        replace(
            smoke,
            name="smoke-one-concurrent",
            workloads=[
                Workload(
                    task={"family": "consensus", "n": 3},
                    detector={"family": "none"},
                    algorithm="one-concurrent",
                )
            ],
        ),
    )
    interp, compiled = (
        "".join(
            run_campaign(spec, limit=limit, kernel=kernel).render()
            for spec in specs
        )
        for kernel in ("interp", "compiled")
    )
    return interp, compiled


# -- orchestration -------------------------------------------------------


@dataclass
class DifferentialReport:
    """Summary of one full differential sweep."""

    cases: int = 0
    compared: int = 0
    failures: list[str] = field(default_factory=list)
    fallbacks: dict[str, tuple[str, ...]] = field(default_factory=dict)
    footprint_sites: int = 0
    footprint_mismatches: list[str] = field(default_factory=list)
    campaign_identical: bool | None = None

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and not self.footprint_mismatches
            and self.campaign_identical is not False
        )

    def render(self) -> str:
        lines = [
            f"kernel differential: {self.compared} comparisons over "
            f"{self.cases} cases — "
            f"{'OK' if self.ok else 'DIVERGED'}",
        ]
        fallback = {
            name: pids for name, pids in self.fallbacks.items() if pids
        }
        lines.append(
            f"  fallback automata in {len(fallback)}/{self.cases} cases"
        )
        lines.append(
            f"  footprint cross-check: {self.footprint_sites} sites, "
            f"{len(self.footprint_mismatches)} mismatches"
        )
        if self.campaign_identical is not None:
            lines.append(
                "  campaign reports: "
                + (
                    "byte-identical"
                    if self.campaign_identical
                    else "DIVERGED"
                )
            )
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        for mismatch in self.footprint_mismatches:
            lines.append(f"  FOOTPRINT {mismatch}")
        return "\n".join(lines)


def run_differential(
    *,
    smoke: bool = True,
    campaign: bool = True,
    on_case: Callable[[str], None] | None = None,
) -> DifferentialReport:
    """Run the full gate: every case traced+untraced, the footprint
    cross-check over everything that compiled, and (optionally) the
    campaign-report byte-compare."""
    report = DifferentialReport()
    for case in all_cases(smoke=smoke):
        report.cases += 1
        if on_case is not None:
            on_case(case.name)
        for trace in (False, True):
            outcome = run_case(case, trace=trace)
            report.compared += 1
            if not outcome.identical:
                report.failures.append(
                    f"{case.name} (traced={trace}): "
                    f"{outcome.first_divergence()}"
                )
            report.fallbacks[case.name] = outcome.fallback_pids
    report.footprint_sites, report.footprint_mismatches = (
        footprint_crosscheck()
    )
    if campaign:
        interp_render, compiled_render = campaign_differential()
        report.campaign_identical = interp_render == compiled_render
    return report
