"""Figure 2: n simulators run k codes using vector-Omega-k (Theorem 14).

The paper's construction decides "the next state of simulated process
``p'_j``" through a leader-based consensus instance per simulated step,
with the leader for position ``j`` being either the j-th smallest
registered simulator (while at most ``k`` simulators are registered) or
the S-process named by position ``j`` of vector-Omega-k.

Our executable rendering agrees on a *step log* instead of on state
vectors: consensus instance ``t`` decides the t-th log entry
``("step", j, inputs)`` — "simulated process ``p'_j`` takes the next
step; these task inputs have been written so far".  Every simulator
replays the agreed log in its own deterministic replica
(:class:`~repro.runtime.simulated.SimulatedWorld`), so agreeing on the
log is equivalent to agreeing on the state evolution, with two bonuses:
proposals are tiny, and S-process leaders can propose without running
replicas (they read the real input registers and name a position).
Each entry carries the proposer's snapshot of the real input registers,
which is how task inputs flow into the simulated world (the replica
writes them to ``input_prefix`` registers before applying the step).

Liveness: eventually some vector position ``j*`` pins the same correct
S-process everywhere; that leader's proposals stop being contested, the
log grows with steps of ``p'_{j*}``, and at least one simulated process
takes infinitely many steps — Theorem 14's guarantee.  The registered
count also bounds participation: a position ``j`` is only ever proposed
when ``j < min(k, ell)`` where ``ell`` is the number of simulators that
ever registered, giving the ``min(k, ell)`` clause of the theorem.

Simulated-process decisions surface in two ways: through
``result_register`` (a simulated-memory register per real C-process;
when it becomes non-bottom the C-simulator departs and decides — the
Theorem 9 composition points it at the BG layer's decision registers)
and through real ``mirror`` registers (for tests and observability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.process import ProcessContext, c_process
from ..core.system import INPUT_REGISTER_PREFIX
from ..runtime import ops
from ..runtime.simulated import SimulatedWorld
from . import paxos

#: Placeholder input for the (input-less) simulated codes; the paper's
#: abstract simulation runs "restricted input-less algorithms" (App. C.1).
CODE_TOKEN = "f2-token"

#: Leader patience window, in own-loop iterations per position of rank.
#: A rank-``j`` leader watches the current log instance for ``j *
#: PATIENCE`` of its own iterations before contending it, giving the
#: rank-0 leader (who needs about one proposal's worth of steps) room to
#: decide uncontested.  Purely a liveness/performance device: consensus
#: safety never depends on who proposes when.
PATIENCE = 8


@dataclass
class F2Spec:
    """Configuration of one Figure 2 simulation.

    Args:
        k: number of simulated codes (and detector vector length).
        code_factories: the ``k`` simulated automata (algorithm ``B``).
        n: number of real C-simulators (= S-processes).
        name: unique register-family prefix.
        input_prefix: simulated-memory register family into which the
            real task inputs are injected (code ``B`` reads them there).
        result_register: maps a real C-process index to the
            simulated-memory register whose value, once set, is that
            process's decision; ``None`` disables deciding (the
            simulators then run forever, which standalone tests bound
            with ``stop_when``).
    """

    k: int
    code_factories: Sequence[Callable]
    n: int
    name: str = "f2"
    input_prefix: str = "taskinp/"
    result_register: Callable[[int], str] | None = None

    def log_instance(self, t: int) -> str:
        return f"{self.name}/log/{t}"

    def active_register(self, i: int) -> str:
        return f"{self.name}/R/{i}"

    def ever_register(self, i: int) -> str:
        return f"{self.name}/Rever/{i}"

    def mirror_register(self, j: int) -> str:
        return f"{self.name}/mirror/{j}"

    @property
    def slots(self) -> int:
        return 2 * self.n  # C-simulators then S-processes

    def make_replica(self) -> SimulatedWorld:
        return SimulatedWorld(
            inputs=(CODE_TOKEN,) * self.k,
            c_factories=list(self.code_factories),
        )


def _entry(j: int, inputs_snapshot: dict[str, Any]) -> tuple:
    return ("step", j, tuple(sorted(inputs_snapshot.items())))


def _apply_entry(
    spec: F2Spec, replica: SimulatedWorld, entry: tuple, injected: set[str]
) -> None:
    """Inject the entry's task inputs into ``replica``, then step the
    entry's code.  ``injected`` names the real input registers this
    replica has already taken: they are write-once, so each is injected
    (and its target read) once, not once per entry that carries it."""
    _, j, input_items = entry
    for register, value in input_items:
        if register in injected:
            continue
        injected.add(register)
        index = register[len(INPUT_REGISTER_PREFIX):]
        target = f"{spec.input_prefix}{index}"
        if replica.memory.read(target) is None:
            replica.memory.write(target, value)
    replica.step(c_process(j))


def figure2_c_factory(spec: F2Spec, simulator_index: int):
    """Automaton for real C-simulator ``p_{simulator_index+1}``.

    Registers itself, then loops: depart if its result appeared in the
    replica; apply newly decided log entries; act as position-``j``
    leader while at most ``k`` simulators are registered and it is the
    j-th smallest of them (Figure 2's Task 2, lines 33-34).

    Only ``_apply_entry`` changes the replica, so its result register
    and decisions are checked once at start and then only after an
    entry is applied; a poll that applies nothing re-checks nothing.
    Each log instance gets its own polling loop, and every poll yields
    an operation built before that loop: each operation local is bound
    at one site, so the linter resolves it (the compiled kernel does
    not, and runs these automata on the interpreter).
    """

    def factory(ctx: ProcessContext):
        me = simulator_index
        k = spec.k
        active_register = spec.active_register(me)
        result_register = (
            None if spec.result_register is None else spec.result_register(me)
        )
        yield ops.Write(active_register, 1)
        yield ops.Write(spec.ever_register(me), 1)
        replica = spec.make_replica()
        injected: set[str] = set()
        # Polls yield prebuilt operations: the registration snapshot and
        # the idle step are built once, the decision read once per log
        # instance.
        active_prefix = f"{spec.name}/R/"
        poll_active = ops.Snapshot(active_prefix)
        idle = ops.Nop()
        cut = len(active_prefix)
        parsed = None  # the registration snapshot ``active`` was parsed from
        active: list[int] = []
        mirrored: set[int] = set()
        # Whether the replica changed since its result register and
        # decisions were last checked: only ``_apply_entry`` changes it.
        applied = True
        t = 0
        while True:
            # One log instance: poll its decision until an entry lands
            # (``paxos.read_decision``, with the register named once).
            poll_decision = ops.Read(
                paxos.decision_register(spec.log_instance(t))
            )
            ballot_round = 0
            waited = 0
            backoff = 0
            while True:
                if applied:
                    applied = False
                    # Depart as soon as our own result exists (Figure 2
                    # line 28).
                    if result_register is not None:
                        value = replica.memory.read(result_register)
                        if value is not None:
                            yield ops.Write(active_register, "departed")
                            yield ops.Decide(value)
                            return
                    # Mirror simulated decisions for observers.
                    if len(mirrored) < k:
                        for j in range(k):
                            if j not in mirrored and j in replica.decisions:
                                yield ops.Write(
                                    spec.mirror_register(j),
                                    replica.decisions[j],
                                )
                                mirrored.add(j)
                # Catch up on the agreed log.
                cell = yield poll_decision
                if cell is not None:
                    _apply_entry(spec, replica, cell[1], injected)
                    applied = True
                    break
                # Lead while few simulators are registered.
                active_cells = yield poll_active
                if active_cells != parsed:
                    parsed = active_cells
                    active = sorted(
                        int(name[cut:])
                        for name, value in active_cells.items()
                        if value == 1
                    )
                if len(active) <= k and me in active:
                    j = active.index(me)
                    # Defer to lower-ranked leaders first, and after an
                    # aborted proposal hold back for a stretch that
                    # grows with the round at a per-slot slope — two
                    # persistent rivals' retry cadences diverge until
                    # one proposal lands uncontested (the E-CHAOS
                    # lock-step livelock).
                    if waited < j * PATIENCE:
                        waited += 1
                        yield idle
                        continue
                    if backoff > 0:
                        backoff -= 1
                        yield idle
                        continue
                    inputs_snapshot = yield ops.Snapshot(INPUT_REGISTER_PREFIX)
                    decided = yield from paxos.propose(
                        spec.log_instance(t),
                        me,
                        spec.slots,
                        paxos.make_ballot(ballot_round, me, spec.slots),
                        _entry(j, inputs_snapshot),
                    )
                    if decided is None:
                        ballot_round += 1
                        backoff = (me + 1) * ballot_round
                    continue
                yield idle
            t += 1

    return factory


def figure2_s_factory(spec: F2Spec, s_index: int):
    """Automaton for S-process ``q_{s_index+1}``.

    Queries the detector; for each vector position naming it — and lying
    below ``min(k, ell)`` where ``ell`` simulators ever registered —
    proposes a step of that position's code at the first undecided log
    instance.  The led positions depend only on the advice vector and
    ``ell``, so they are rebuilt only when either differs from the
    values they were last built from.  Polls yield prebuilt operations,
    as in :func:`figure2_c_factory`.
    """

    def factory(ctx: ProcessContext):
        me = s_index
        slot = spec.n + me
        ever_prefix = f"{spec.name}/Rever/"
        # Polls yield prebuilt operations, as in the C-simulators.
        query = ops.QueryFD()
        poll_ever = ops.Snapshot(ever_prefix)
        idle = ops.Nop()
        # The advice and registered count ``positions`` was built from.
        led_vector = None
        led_ell = -1
        positions: list[int] = []
        t = 0
        while True:
            # One log instance: contend it until its decision lands.
            poll_decision = ops.Read(
                paxos.decision_register(spec.log_instance(t))
            )
            ballot_round = 0
            waited = 0
            backoff = 0
            while True:
                advice = yield query
                vector = advice if isinstance(advice, tuple) else (advice,)
                cell = yield poll_decision
                if cell is not None:
                    break
                ever_cells = yield poll_ever
                ell = len(ever_cells)
                if vector != led_vector or ell != led_ell:
                    led_vector = vector
                    led_ell = ell
                    limit = min(spec.k, ell)
                    positions = [
                        j
                        for j in range(min(spec.k, len(vector)))
                        if vector[j] == me and j < limit
                    ]
                if not positions:
                    yield idle
                    continue
                j = positions[0]
                # Same contention damping as the C-simulators: patience
                # proportional to the led position (two stable vector
                # positions can pin *different* correct leaders, who
                # would otherwise duel forever at one log instance — the
                # E-CHAOS vecOmega-2 livelock under lock-step
                # round-robin), plus a slot-sloped growing backoff after
                # every aborted proposal.
                if waited < j * PATIENCE:
                    waited += 1
                    yield idle
                    continue
                if backoff > 0:
                    backoff -= 1
                    yield idle
                    continue
                inputs_snapshot = yield ops.Snapshot(INPUT_REGISTER_PREFIX)
                decided = yield from paxos.propose(
                    spec.log_instance(t),
                    slot,
                    spec.slots,
                    paxos.make_ballot(ballot_round, slot, spec.slots),
                    _entry(j, inputs_snapshot),
                )
                if decided is None:
                    ballot_round += 1
                    backoff = (slot + 1) * ballot_round
            t += 1

    return factory


def figure2_factories(spec: F2Spec):
    """(C-factories, S-factories) for a complete Figure 2 system."""
    c_factories = [figure2_c_factory(spec, i) for i in range(spec.n)]
    s_factories = [figure2_s_factory(spec, i) for i in range(spec.n)]
    return c_factories, s_factories


def replay_log(spec: F2Spec, memory) -> SimulatedWorld:
    """Rebuild the replica state from the decided log in ``memory``
    (observability helper for tests and experiment reports)."""
    replica = spec.make_replica()
    injected: set[str] = set()
    t = 0
    while True:
        cell = memory.read(f"{spec.log_instance(t)}/dec")
        if cell is None:
            return replica
        _apply_entry(spec, replica, cell[1], injected)
        t += 1
