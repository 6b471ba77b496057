"""Leader-based shared-memory consensus (single decree).

Figure 2 of the paper simulates each step of a simulated process through
"an instance of a leader-based consensus algorithm [10]".  We implement
the classic register-based single-decree protocol (the shared-memory
rendering of Paxos [24], a la Disk Paxos with one block per proposer):

* every potential proposer owns a *block* register holding
  ``(mbal, bal, val)``;
* a proposer with ballot ``b`` first announces ``mbal = b`` and reads
  all blocks (phase 1); if nobody moved past ``b`` it adopts the value
  of the highest accepted ballot (or its own proposal), accepts
  ``bal = b`` (phase 2), re-reads, and on success publishes the decision.

Safety (agreement + validity) holds under any interleaving and any
number of competing proposers; termination needs a proposer that
eventually runs alone — which is exactly what the paper's leader oracles
(Omega, positions of vector-Omega-k) provide.

All entry points are subroutine generators (compose with ``yield from``).
Ballots are made unique by ``ballot = round * n_slots + slot + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..runtime import ops

#: Value used to mark "no decision yet" in decision registers.  ``None``
#: would be ambiguous because ``None`` is the unwritten-register value —
#: which is exactly what we want here, so decisions simply use ``None``
#: for "undecided" and wrap decided values.
_DECIDED = "decided"


@dataclass(frozen=True)
class Block:
    """One proposer's state in an instance."""

    mbal: int
    bal: int
    val: Any


def decision_register(name: str) -> str:
    """The register holding instance ``name``'s decision: ``None`` until
    decided, then ``("decided", value)``."""
    return f"{name}/dec"


def make_ballot(round_number: int, slot: int, n_slots: int) -> int:
    """A ballot unique to ``slot`` and increasing in ``round_number``."""
    return round_number * n_slots + slot + 1


def read_decision(name: str):
    """Subroutine: the decided value, or ``None`` if undecided."""
    cell = yield ops.Read(decision_register(name))
    if cell is None:
        return None
    return cell[1]


def propose(name: str, slot: int, n_slots: int, ballot: int, value: Any):
    """Subroutine: one proposal attempt with the given ballot.

    Returns the decided value on success and ``None`` on abort (a higher
    ballot was observed; retry with a larger one).  ``value`` must not be
    ``None``.
    """
    if value is None:
        raise ValueError("cannot propose None")
    # A decision may already exist; adopt it.  Register names are built
    # once per proposal: the decision register is read and written, and
    # every block is read twice.
    decision = decision_register(name)
    cell = yield ops.Read(decision)
    if cell is not None:
        return cell[1]
    block_registers = [f"{name}/blk/{i}" for i in range(n_slots)]
    own_block = f"{name}/blk/{slot}"
    # Phase 1: announce the ballot on our own block.
    own: Block | None = yield ops.Read(own_block)
    bal = own.bal if own is not None else 0
    val = own.val if own is not None else None
    yield ops.Write(own_block, Block(mbal=ballot, bal=bal, val=val))
    blocks = []
    for register in block_registers:
        block = yield ops.Read(register)
        blocks.append(block)
    if any(
        b is not None and (b.mbal > ballot or b.bal > ballot) for b in blocks
    ):
        return None
    # Choose the value of the highest accepted ballot, else our own.
    accepted = [b for b in blocks if b is not None and b.bal > 0]
    chosen = max(accepted, key=lambda b: b.bal).val if accepted else value
    # Phase 2: accept.
    yield ops.Write(own_block, Block(mbal=ballot, bal=ballot, val=chosen))
    blocks = []
    for register in block_registers:
        block = yield ops.Read(register)
        blocks.append(block)
    if any(b is not None and b.mbal > ballot for b in blocks):
        return None
    yield ops.Write(decision, (_DECIDED, chosen))
    return chosen


def propose_until_decided(
    name: str, slot: int, n_slots: int, value: Any, *, start_round: int = 0
):
    """Subroutine: keep proposing with rising ballots until decided.

    Only terminates if this proposer eventually runs uncontested; callers
    gate it behind a leader oracle.  Returns the decided value.
    """
    round_number = start_round
    while True:
        decided = yield from propose(
            name, slot, n_slots, make_ballot(round_number, slot, n_slots), value
        )
        if decided is not None:
            return decided
        round_number += 1


def await_decision(name: str):
    """Subroutine: spin reading the decision register until decided."""
    while True:
        decided = yield from read_decision(name)
        if decided is not None:
            return decided
