"""Compiled execution kernel: schema-to-Python codegen.

The kernel lowers automaton generators into flat step functions
(:mod:`.compiler`), drives whole systems through them with exact
interpreter semantics (:mod:`.engine`), and proves equivalence against
the interpreter (:mod:`.differential`).  Campaigns run compiled cells
one at a time, through the same job function as interpreted ones;
:mod:`.lanes` keeps only the names perfbench's traced sweep replay
imports.  See ``docs/performance.md`` ("Compiled execution kernel") for
the architecture.
"""

from __future__ import annotations

from typing import Iterator

from .compiler import (
    CompiledProgram,
    OpSite,
    UnsupportedAutomaton,
    cached_programs,
    clear_cache,
    compile_automaton,
    compiled_source,
)
from .engine import CompiledRun, LaneState, execute_compiled

__all__ = [
    "CompiledProgram",
    "OpSite",
    "UnsupportedAutomaton",
    "CompiledRun",
    "LaneState",
    "execute_compiled",
    "compile_automaton",
    "compiled_source",
    "cached_programs",
    "clear_cache",
    "dump_source",
    "dump_all",
    "warm_cache",
    "iter_schema_programs",
]


def warm_cache() -> int:
    """Compile every automaton of the differential catalog's specimen
    systems (without running them), so the cache — and therefore
    ``dump_source``/``dump_all`` — reflects what a differential sweep
    would execute.  Returns the number of compiled programs cached."""
    from .differential import all_cases

    for case in all_cases(smoke=True):
        system, _scheduler = case.build()
        for factory in (*system.c_factories, *system.s_factories):
            try:
                compile_automaton(factory)
            except UnsupportedAutomaton:
                pass
    return len(cached_programs())


def iter_schema_programs() -> Iterator[tuple[str, str, object]]:
    """Yield ``(module_name, automaton_name, program_or_error)`` for
    every automaton declared in :data:`repro.algorithms.LINT_SCHEMAS`.

    A declared name whose factory was already compiled (any closure it
    produced shares one cached program) yields that cached program; one
    whose closures were only refused yields the closures' cached
    refusal.  Otherwise compilation of the declared object itself is
    attempted, and the resulting :class:`UnsupportedAutomaton` is
    yielded for factory-of-factory declarations that were never
    instantiated — call :func:`warm_cache` first for full coverage.
    """
    import importlib

    from .. import algorithms
    from .compiler import cached_refusals

    by_root: dict[tuple[str, str], CompiledProgram | UnsupportedAutomaton] = {}
    for program in cached_programs():
        module = program.module.rsplit(".", 1)[-1]
        root = program.qualname.split(".<locals>.")[0]
        by_root.setdefault((module, root), program)
    for refusal in cached_refusals():
        root, closure, _ = refusal.qualname.partition(".<locals>.")
        if closure:  # a closure a factory built, not a declared object
            module = refusal.module.rsplit(".", 1)[-1]
            by_root.setdefault(
                (module, root), UnsupportedAutomaton(refusal.reason)
            )

    for module_name, schema in sorted(algorithms.LINT_SCHEMAS.items()):
        module = importlib.import_module(
            f"repro.algorithms.{module_name}"
        )
        for name in sorted(schema.checked_functions):
            cached = by_root.get((module_name, name.split(".")[0]))
            if cached is not None:
                yield module_name, name, cached
                continue
            obj: object = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
                if obj is None:
                    break
            if obj is None:
                continue
            try:
                yield module_name, name, compile_automaton(obj)
            except UnsupportedAutomaton as exc:
                yield module_name, name, exc


def dump_source(name: str) -> str:
    """Human-readable dump of generated source for ``name``.

    ``name`` selects automata by ``module``, ``module.automaton``, or a
    bare automaton name; compiled cache entries (closures instantiated
    by factories) are searched too, so post-run dumps show exactly what
    executed.  Each program is prefixed with its content hash.
    """
    wanted = name.strip()
    sections: list[str] = []
    seen: set[str] = set()

    def emit(module: str, automaton: str, program: object) -> None:
        key = f"{module}.{automaton}"
        if key in seen:
            return
        seen.add(key)
        if isinstance(program, UnsupportedAutomaton):
            sections.append(
                f"# {key}: falls back to the interpreter "
                f"({program})\n"
            )
            return
        sections.append(
            f"# {key}\n"
            f"# content-hash: sha256:{program.content_hash}\n"
            f"{program.source}"
        )

    def scan_cache() -> None:
        # Cached programs are what actually ran (or would run).
        for program in cached_programs():
            module = program.module.rsplit(".", 1)[-1]
            root = program.qualname.split(".<locals>.")[0]
            if wanted in (module, root, f"{module}.{root}"):
                emit(module, root, program)

    scan_cache()
    if not sections:
        warm_cache()
        scan_cache()
    if not sections:
        for module_name, automaton, program in iter_schema_programs():
            if wanted in (
                module_name,
                automaton,
                f"{module_name}.{automaton}",
            ):
                emit(module_name, automaton, program)
    if not sections:
        raise KeyError(
            f"no compiled automaton matches {name!r} (try a module "
            f"name from repro.algorithms.LINT_SCHEMAS, or run a "
            f"workload first so its programs are cached)"
        )
    return "\n".join(sections)


def dump_all() -> str:
    """Every compiled program (cache warmed from the differential
    catalog first), plus the declared automata that fall back — the
    generated-source artifact CI uploads."""
    warm_cache()
    sections: list[str] = []
    for program in sorted(
        cached_programs(), key=lambda p: (p.module, p.qualname)
    ):
        root = program.qualname.split(".<locals>.")[0]
        sections.append(
            f"# {program.module}.{root}\n"
            f"# content-hash: sha256:{program.content_hash}\n"
            f"{program.source}"
        )
    for module_name, automaton, program in iter_schema_programs():
        if isinstance(program, UnsupportedAutomaton):
            sections.append(
                f"# {module_name}.{automaton}: falls back to the "
                f"interpreter ({program})\n"
            )
    return "\n".join(sections)
