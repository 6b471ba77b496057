"""Declarative lint passes over the automaton IR.

Importing this package registers the built-in passes in their default
execution order: the five step-model rules first (stable report
ordering for existing consumers), then the semantic CFG passes, then
the strict-mode battery passes.  Third parties add their own with
:func:`~repro.lint.passes.registry.register_pass`.
"""

from __future__ import annotations

from .base import (
    AutomatonIR,
    LintPass,
    ModuleUnit,
    PassContext,
    PassResult,
)
from .registry import (
    all_passes,
    pass_by_id,
    register_pass,
    resolve_passes,
)

# Import order is registration order is default execution order.
from . import protocol_rules  # noqa: E402,F401
from . import reachability  # noqa: E402,F401
from . import ownership  # noqa: E402,F401
from . import query_discipline  # noqa: E402,F401
from . import footprints  # noqa: E402,F401
from . import trace_races  # noqa: E402,F401

__all__ = [
    "AutomatonIR",
    "LintPass",
    "ModuleUnit",
    "PassContext",
    "PassResult",
    "all_passes",
    "pass_by_id",
    "register_pass",
    "resolve_passes",
]
