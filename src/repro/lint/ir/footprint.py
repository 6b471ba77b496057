"""Static register-footprint inference per automaton.

Aggregates the registers an automaton can statically be shown to read
and write, in the same ``(reads, read_prefixes, writes)`` vocabulary
the sleep-set POR's independence relation uses
(:func:`repro.runtime.ops.footprint` via
:mod:`repro.checker.independence`).  An automaton whose yields are all
resolved is *closed*: its dynamic op-log footprint must be covered by
the static sets, and the strict-mode audit pass
(:class:`repro.lint.passes.footprints.FootprintAudit`) checks exactly
that.  Any dynamic yield, unresolved register operand, or ``yield
from`` delegation makes the footprint *open* — the audit then skips the
coverage check for that automaton rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...runtime import ops
from .cfg import CFG

__all__ = ["StaticFootprint", "infer_footprint"]


@dataclass(frozen=True)
class StaticFootprint:
    """Statically inferred register footprint of one automaton."""

    #: exact register names read (``Read``/``CompareAndSwap``)
    reads: frozenset[str]
    #: register-name prefixes read (``Snapshot`` families and reads
    #: whose operand resolved only to a leading prefix)
    read_prefixes: frozenset[str]
    #: exact register names written (``Write``/``CompareAndSwap``)
    writes: frozenset[str]
    #: prefixes written (operand resolved only to a leading prefix)
    write_prefixes: frozenset[str]
    #: yields ``QueryFD`` somewhere
    queries: bool
    #: yields ``Decide`` somewhere
    decides: bool
    #: plain yields whose op or register could not be resolved
    unresolved: int
    #: ``yield from`` delegations (footprint hidden in the subroutine)
    delegated: int

    @property
    def closed(self) -> bool:
        """Every step's registers are statically accounted for."""
        return self.unresolved == 0 and self.delegated == 0

    # -- coverage queries (dynamic op vs static sets) ------------------

    def covers_read(self, register: str) -> bool:
        return register in self.reads or any(
            register.startswith(prefix) for prefix in self.read_prefixes
        )

    def covers_snapshot(self, prefix: str) -> bool:
        return any(
            prefix.startswith(declared)
            for declared in self.read_prefixes
        )

    def covers_write(self, register: str) -> bool:
        return register in self.writes or any(
            register.startswith(prefix)
            for prefix in self.write_prefixes
        )

    def as_fact(self) -> dict[str, object]:
        """JSON-ready summary for the ``StaticFootprints`` fact pass."""
        return {
            "reads": sorted(self.reads),
            "read_prefixes": sorted(self.read_prefixes),
            "writes": sorted(self.writes),
            "write_prefixes": sorted(self.write_prefixes),
            "queries": self.queries,
            "decides": self.decides,
            "closed": self.closed,
        }


def infer_footprint(cfg: CFG) -> StaticFootprint:
    """Aggregate the static footprint of one automaton's CFG."""
    reads: set[str] = set()
    read_prefixes: set[str] = set()
    writes: set[str] = set()
    write_prefixes: set[str] = set()
    queries = False
    decides = False
    unresolved = 0
    delegated = 0
    for y in cfg.yields():
        if y.is_from:
            delegated += 1
            continue
        if y.op is None:
            unresolved += 1
            continue
        if y.op is ops.QueryFD:
            queries = True
            continue
        if y.op is ops.Decide:
            decides = True
            continue
        if y.op is ops.Nop:
            continue
        register = y.register
        if y.op is ops.Snapshot:
            # A snapshot operand is a family prefix by definition, so
            # even an exactly-resolved operand lands in read_prefixes.
            if register is None:
                unresolved += 1
            else:
                read_prefixes.add(register.text)
            continue
        if register is None:
            unresolved += 1
            continue
        if y.op is ops.Read:
            (reads if register.exact else read_prefixes).add(
                register.text
            )
        elif y.op is ops.Write:
            (writes if register.exact else write_prefixes).add(
                register.text
            )
        elif y.op is ops.CompareAndSwap:
            (reads if register.exact else read_prefixes).add(
                register.text
            )
            (writes if register.exact else write_prefixes).add(
                register.text
            )
    return StaticFootprint(
        reads=frozenset(reads),
        read_prefixes=frozenset(read_prefixes),
        writes=frozenset(writes),
        write_prefixes=frozenset(write_prefixes),
        queries=queries,
        decides=decides,
        unresolved=unresolved,
        delegated=delegated,
    )
