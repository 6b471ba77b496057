"""The anti-Omega-k detector (paper Section 2.3, following [26, 28]).

``anti-Omega-k`` outputs, at every S-process and time, a set of ``n - k``
S-process ids, and guarantees that some correct process is eventually
never output at any correct process.  It is the weakest failure detector
for k-set agreement (Proposition 6) and, by Theorem 10, for every task
of concurrency class k.
"""

from __future__ import annotations

import random

from ..core.failures import FailurePattern
from ..core.history import History
from ..errors import SpecificationError
from .base import FailureDetector, StabilizingHistory, choose_correct


class AntiOmegaK(FailureDetector):
    """anti-Omega-k over ``n`` S-processes.

    Args:
        n: number of S-processes.
        k: the set-agreement parameter (1 <= k < n); outputs have size
            ``n - k``.
        stabilization_time: time from which the safe process is never
            output.
        safe: force the eventually-never-output correct process.
    """

    def __init__(
        self,
        n: int,
        k: int,
        *,
        stabilization_time: int = 0,
        safe: int | None = None,
    ) -> None:
        if not 1 <= k < n:
            raise SpecificationError(f"need 1 <= k < n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.stabilization_time = stabilization_time
        self.safe = safe
        self.name = f"anti-Omega-{k}"

    def build_history(
        self, pattern: FailurePattern, rng: random.Random
    ) -> History:
        if pattern.n != self.n:
            raise SpecificationError(
                f"detector built for n={self.n}, pattern has n={pattern.n}"
            )
        safe = self.safe
        if safe is None:
            safe = choose_correct(pattern, rng)
        elif safe not in pattern.correct:
            raise SpecificationError(
                f"forced safe process q{safe + 1} is faulty in the pattern"
            )
        size = self.n - self.k
        all_ids = list(range(self.n))

        def noise(q: int, t: int, cell_rng: random.Random) -> frozenset[int]:
            return frozenset(cell_rng.sample(all_ids, size))

        def stable_for(q: int) -> frozenset[int]:
            # Converged outputs may still vary per process; we emit a
            # deterministic set that simply never contains the safe
            # process.  (The specification allows any such behaviour.)
            return frozenset(
                sorted(i for i in range(self.n) if i != safe)[:size]
            )

        return StabilizingHistory(
            stable=stable_for,
            noise=noise,
            stabilization_time=self.stabilization_time,
            base_seed=rng.randrange(2**31),
        )

    def check_history(
        self,
        pattern: FailurePattern,
        history: History,
        *,
        horizon: int,
        stabilized_from: int,
    ) -> bool:
        """Finitized anti-Omega-k validity.

        Range check on all of ``[0, horizon)``; the eventual clause is
        checked as: some *correct* process appears in no output of any
        correct process during ``[stabilized_from, horizon)``.
        """
        size = self.n - self.k
        for q in range(pattern.n):
            for t in range(horizon):
                v = history.value(q, t)
                if not isinstance(v, frozenset) or len(v) != size:
                    return False
                if not all(isinstance(i, int) and 0 <= i < self.n for i in v):
                    return False
        ever_output: set[int] = set()
        for q in pattern.correct:
            for t in range(stabilized_from, horizon):
                ever_output.update(history.value(q, t))
        return bool(pattern.correct - ever_output)
