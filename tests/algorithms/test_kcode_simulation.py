"""E-F2: Figure 2 / Theorem 14 — n simulators run k codes with
vector-Omega-k."""

import pytest

from repro.algorithms.kcode_simulation import (
    F2Spec,
    figure2_factories,
    replay_log,
)
from repro.core import System, c_process
from repro.core.system import INPUT_REGISTER_PREFIX
from repro.detectors import VectorOmegaK
from repro.runtime import (
    SeededRandomScheduler,
    execute,
    ops,
)


def counting_code(ctx):
    """Endless code: keeps bumping its own simulated counter."""
    count = 0
    while True:
        yield ops.Write(f"count/{ctx.pid.index}", count)
        count += 1


def adopt_input_code(ctx):
    """Decides the smallest injected task input it observes."""
    while True:
        snapshot = yield ops.Snapshot("taskinp/")
        if snapshot:
            yield ops.Decide(min(snapshot.values()))
            return


def butler_code(ctx):
    """Serves every real process: writes a result for each injected
    input, forever watching for newcomers."""
    served = set()
    while True:
        snapshot = yield ops.Snapshot("taskinp/")
        for register, value in sorted(snapshot.items()):
            index = register[len("taskinp/"):]
            if index not in served:
                yield ops.Write(f"resreg/{index}", value * 10)
                served.add(index)
        yield ops.Nop()


def log_length(spec, memory):
    t = 0
    while memory.read(f"{spec.log_instance(t)}/dec") is not None:
        t += 1
    return t


def run_figure2(spec, inputs, *, detector=None, seed=0, stop_when,
                max_steps=400_000, scheduler=None):
    c_factories, s_factories = figure2_factories(spec)
    system = System(
        inputs=inputs,
        c_factories=c_factories,
        s_factories=s_factories,
        detector=detector or VectorOmegaK(spec.n, spec.k),
        seed=seed,
    )
    return execute(
        system,
        scheduler or SeededRandomScheduler(seed),
        max_steps=max_steps,
        stop_when=stop_when,
    )


class TestProgressAndParticipation:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (4, 3)])
    def test_some_code_takes_many_steps(self, n, k):
        spec = F2Spec(k=k, code_factories=[counting_code] * k, n=n)
        result = run_figure2(
            spec,
            tuple(range(n)),
            stop_when=lambda ex: log_length(spec, ex.memory) >= 25,
        )
        replica = replay_log(spec, result.memory)
        active_codes = [
            c for c in range(k)
            if replica.step_counts.get(c_process(c), 0) > 0
        ]
        assert active_codes, "no simulated code ever advanced"
        assert replica.steps_taken >= 25

    @pytest.mark.parametrize("n,k", [(4, 2), (4, 3), (5, 3)])
    def test_at_most_min_k_ell_codes_participate(self, n, k):
        """Theorem 14: with ell registered simulators, at most
        min(k, ell) simulated processes take steps."""
        # Only two real C-processes participate (ell = 2).
        inputs = tuple(i if i < 2 else None for i in range(n))
        spec = F2Spec(k=k, code_factories=[counting_code] * k, n=n)
        result = run_figure2(
            spec,
            inputs,
            stop_when=lambda ex: log_length(spec, ex.memory) >= 20,
        )
        replica = replay_log(spec, result.memory)
        active_codes = [
            c for c in range(k)
            if replica.step_counts.get(c_process(c), 0) > 0
        ]
        assert len(active_codes) <= min(k, 2)

    def test_stable_leader_drives_progress(self):
        n, k = 4, 2
        spec = F2Spec(k=k, code_factories=[counting_code] * k, n=n)
        detector = VectorOmegaK(
            n, k, stabilization_time=40, stable_position=1, leader=2
        )
        result = run_figure2(
            spec,
            tuple(range(n)),
            detector=detector,
            stop_when=lambda ex: log_length(spec, ex.memory) >= 30,
        )
        assert log_length(spec, result.memory) >= 30


class TestInputInjectionAndDecisions:
    def test_injected_inputs_reach_codes(self):
        n, k = 3, 2
        spec = F2Spec(k=k, code_factories=[adopt_input_code] * k, n=n)
        result = run_figure2(
            spec,
            (7, 5, 9),
            stop_when=lambda ex: ex.memory.read(spec.mirror_register(0))
            is not None,
        )
        mirrored = result.memory.read(spec.mirror_register(0))
        assert mirrored in (5, 7, 9)

    @pytest.mark.parametrize("seed", range(4))
    def test_full_decide_path(self, seed):
        """C-simulators depart with the values the simulated butler code
        writes for them."""
        n, k = 3, 2
        spec = F2Spec(
            k=k,
            code_factories=[butler_code] * k,
            n=n,
            result_register=lambda i: f"resreg/{i}",
        )
        result = run_figure2(
            spec,
            (1, 2, 3),
            seed=seed,
            stop_when=lambda ex: False,
        )
        assert result.reason == "all_decided"
        assert result.outputs == (10, 20, 30)

    def test_late_arrivals_are_served(self):
        from repro.runtime import k_concurrent

        n, k = 3, 1
        spec = F2Spec(
            k=k,
            code_factories=[butler_code] * k,
            n=n,
            result_register=lambda i: f"resreg/{i}",
        )
        c_factories, s_factories = figure2_factories(spec)
        system = System(
            inputs=(4, 5, 6),
            c_factories=c_factories,
            s_factories=s_factories,
            detector=VectorOmegaK(n, k),
            seed=2,
        )
        scheduler = k_concurrent(SeededRandomScheduler(2), 1)
        result = execute(system, scheduler, max_steps=400_000)
        assert result.reason == "all_decided"
        assert result.outputs == (40, 50, 60)

    def test_replicas_converge(self):
        """All simulators replay the same log: the mirrored decisions of
        any code are unique."""
        n, k = 3, 2
        spec = F2Spec(k=k, code_factories=[adopt_input_code] * k, n=n)
        seen = set()
        for seed in range(4):
            result = run_figure2(
                spec,
                (3, 1, 2),
                seed=seed,
                stop_when=lambda ex: ex.memory.read(
                    spec.mirror_register(0)
                )
                is not None,
            )
            replica = replay_log(spec, result.memory)
            if 0 in replica.decisions:
                seen.add(replica.decisions[0])
                assert replica.decisions[0] in (1, 2, 3)
        assert seen


class TestPrebuiltPolls:
    def test_polls_of_one_kind_share_one_operation(self):
        """Each simulator yields one prebuilt operation per polling
        kind: its idle ``Nop``, its ``QueryFD``, its registration
        snapshot, and, per log instance, its decision read.  A
        proposal's own decision read (the step after the proposer's
        input snapshot) is built by ``paxos.propose`` and is no poll."""
        n, k = 3, 2
        spec = F2Spec(
            k=k,
            code_factories=[butler_code] * k,
            n=n,
            result_register=lambda i: f"resreg/{i}",
        )
        c_factories, s_factories = figure2_factories(spec)
        system = System(
            inputs=(1, 2, 3),
            c_factories=c_factories,
            s_factories=s_factories,
            detector=VectorOmegaK(n, k),
            seed=0,
        )
        result = execute(
            system, SeededRandomScheduler(0), max_steps=400_000, trace=True
        )
        assert result.reason == "all_decided"
        polls = {}
        last_prefix = {}
        for event in result.trace.events:
            op = event.op
            proposing = last_prefix.get(event.pid) == INPUT_REGISTER_PREFIX
            last_prefix[event.pid] = getattr(op, "prefix", None)
            if isinstance(op, (ops.Nop, ops.QueryFD)):
                kind = type(op).__name__
            elif isinstance(op, ops.Snapshot):
                if op.prefix == INPUT_REGISTER_PREFIX:
                    continue
                kind = op.prefix
            elif isinstance(op, ops.Read) and op.register.endswith("/dec"):
                if proposing:
                    continue
                kind = op.register  # one kind per log instance
            else:
                continue
            polls.setdefault((event.pid, kind), []).append(op)
        kinds = {kind for _, kind in polls}
        assert {"Nop", "QueryFD", "f2/R/", "f2/Rever/", "f2/log/0/dec"} <= kinds
        assert max(len(same) for same in polls.values()) > 10
        for key, same in polls.items():
            assert all(op is same[0] for op in same), key


class TestDeparture:
    def test_departed_simulators_leave_active_set(self):
        """After a C-simulator decides, its R register shows 'departed'
        (Figure 2 line 28), shrinking the active leader pool."""
        n, k = 3, 1
        spec = F2Spec(
            k=k,
            code_factories=[butler_code] * k,
            n=n,
            result_register=lambda i: f"resreg/{i}",
        )
        result = run_figure2(
            spec, (1, 2, 3), stop_when=lambda ex: False
        )
        assert result.reason == "all_decided"
        for i in range(n):
            assert result.memory.read(spec.active_register(i)) == "departed"
            assert result.memory.read(spec.ever_register(i)) == 1

    def test_no_participants_means_no_log(self):
        """With no real C-process participating, no step is ever
        proposed (min(k, ell) with ell = 0)."""
        n, k = 2, 1
        spec = F2Spec(k=k, code_factories=[counting_code] * k, n=n)
        c_factories, s_factories = figure2_factories(spec)
        from repro.core import System as _System
        from repro.detectors import VectorOmegaK as _V
        from repro.runtime import execute as _execute, SeededRandomScheduler as _S

        system = _System(
            inputs=(None, None),
            c_factories=c_factories,
            s_factories=s_factories,
            detector=_V(n, k),
        )
        result = _execute(system, _S(1), max_steps=3_000)
        assert log_length(spec, result.memory) == 0

    def test_spec_helpers(self):
        spec = F2Spec(k=2, code_factories=[counting_code] * 2, n=3)
        assert spec.slots == 6
        assert spec.log_instance(5).endswith("/log/5")
        replica = spec.make_replica()
        assert replica.n_c == 2


class TestLockStepLiveness:
    """Regression for the E-CHAOS vecOmega-2 livelock: two stable vector
    positions pinned *different* correct S-leaders, who perpetually
    aborted each other's proposals at the same log instance under
    lock-step round-robin scheduling.  Position-proportional leader
    patience plus slot-sloped growing abort backoff break the duel."""

    def test_vec_omega_2_solver_decides_under_round_robin(self):
        from repro.algorithms.dispatch import build_solver_system
        from repro.runtime import Executor, RoundRobinScheduler
        from repro.tasks import SetAgreementTask

        task = SetAgreementTask(3, 2)
        system = build_solver_system(
            task, inputs=(0, 1, 2), detector=VectorOmegaK(3, 2), seed=0
        )
        executor = Executor(
            system, RoundRobinScheduler(), max_steps=100_000
        )
        result = executor.run()
        assert result.reason == "all_decided"
        # The livelocked run managed 6 log entries in 400k steps; the
        # fixed one decides comfortably within a quarter of that.
        assert result.steps < 100_000
        outputs = tuple(
            executor.decisions.get(i) for i in range(task.n)
        )
        assert task.allows((0, 1, 2), outputs)

    def test_dueling_stable_leaders_make_log_progress(self):
        """Direct Figure 2 rendering of the duel: a constant detector
        vector naming two different S-leaders forever."""
        from repro.core.history import ConstantHistory
        from repro.runtime import Executor, RoundRobinScheduler

        class ConstantVector:
            def __init__(self, vector):
                self.vector = vector

            def build_history(self, pattern, rng):
                return ConstantHistory(self.vector)

        n, k = 3, 2
        spec = F2Spec(k=k, code_factories=[counting_code] * k, n=n)
        c_factories, s_factories = figure2_factories(spec)
        system = System(
            inputs=(1, 2, 3),
            c_factories=c_factories,
            s_factories=s_factories,
            detector=ConstantVector((2, 1)),
        )
        executor = Executor(
            system,
            RoundRobinScheduler(),
            max_steps=60_000,
            stop_when=lambda ex: False,
        )
        executor.run()
        assert log_length(spec, executor.memory) >= 20
