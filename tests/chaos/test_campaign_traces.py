"""Pinned traces of the campaign path.

Every smoke-campaign cell, plus ten crash-storm cells (both campaign
workloads under the five registry schedulers, pattern ``(None, 1, 1)``,
stabilization 12) and four sweep-shaped cells (2-set agreement over
vecOmega-2, no crashes, one seeded scheduler, stabilization 8: the
first four cells of perfbench ``sweep``'s seed 0), run interpreted and
traced through :func:`~repro.chaos.run_cell`.  Each cell's digest is a
sha256 over ``f"{time}|{pid}|{op!r}|{result!r}"`` for every trace
event, followed by ``f"{reason}|{steps}|{outputs!r}"``.

The digests below were computed before the Figure 2/Paxos loops and the
scheduler segments were optimized (the sweep-shaped ones before the
Figure 2 loops stopped re-deriving their replica checks and led
positions on every poll), and they do not depend on
``PYTHONHASHSEED``.  A change to the campaign path that moves one step,
one operation or one result of any of these runs fails this test.  Run
it with ``PYTHONPATH=src python -m pytest -q
tests/chaos/test_campaign_traces.py`` (about 4 s).
"""

import hashlib

import pytest

from repro.chaos import (
    CampaignSpec,
    Workload,
    run_cell,
    smoke_campaign,
    standard_campaign,
)

#: sha256 trace digest per cell, keyed by ``cell.label()``.
PINNED = {
    "consensus(n=3)/auto/omega@8/crashes=0/round-robin/seed=0": (
        "061cf18ae190359dc44651e2b922a39317dc882e5fa508e9b2bcd3910a1c7f03"
    ),
    "consensus(n=3)/auto/omega@8/crashes=0/round-robin/seed=1": (
        "4dcc541bd64c774ed3161fc1cd9687e6f7763f14e3d80c1f13056dc77ea91ffd"
    ),
    "consensus(n=3)/auto/omega@8/crashes=0/seeded/seed=0": (
        "6bc53495ad279283797d2f1315411c05b36691bf8451e5be357b39dac2978413"
    ),
    "consensus(n=3)/auto/omega@8/crashes=0/seeded/seed=1": (
        "c8ec3a6c23ff11115290c7f02dfdd850f4af0027dd0217248b2e704b22afed6a"
    ),
    "consensus(n=3)/auto/omega@8/crashes=0/burst/seed=0": (
        "98db46e57063793ab750012a7d67c56c3573f85f0c757b846bc6877b89216320"
    ),
    "consensus(n=3)/auto/omega@8/crashes=0/burst/seed=1": (
        "9a90c1380929d580ba1b482c5033b00b4b45fd030aab64463518655270e381ae"
    ),
    "consensus(n=3)/auto/omega@8/crashes=1/round-robin/seed=0": (
        "584c7601756365d93f89911df4d786ce0919d33c6c954b39bd7b5a3a95d99361"
    ),
    "consensus(n=3)/auto/omega@8/crashes=1/round-robin/seed=1": (
        "5858faefe50cc51b09a41b5d113f29ef83072563a089df011deacced1e00e6ca"
    ),
    "consensus(n=3)/auto/omega@8/crashes=1/seeded/seed=0": (
        "c0c126e64a2d5aade7036b46cfe69604cb67badd193f24c2d0dededa88ead8bd"
    ),
    "consensus(n=3)/auto/omega@8/crashes=1/seeded/seed=1": (
        "c9263a4d5076cca13d0edb5f8e84a85ecbf4d56103fd92e9348abf6ae9c98d7a"
    ),
    "consensus(n=3)/auto/omega@8/crashes=1/burst/seed=0": (
        "1d00838eafe6615dc39a6381592c0c24be6b0d0341af8843a277965d1bf22f10"
    ),
    "consensus(n=3)/auto/omega@8/crashes=1/burst/seed=1": (
        "7ca3fa9650adaa40d21ab1a5dfd8b5709c51ae40021889af17a734ba2abaf276"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/round-robin/seed=0": (
        "2e33d75d1fea828303de08599661d4d1015f6ec4e7b51d8ea5da3f607c19d0d9"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/round-robin/seed=1": (
        "b80f327ef04d8287692082548190572de6afb7a4245511438391cad656ece29f"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/seeded/seed=0": (
        "0ed30c5aa6fcd4b441ff19997e68384d34a784d61b89c25176d3294a1abbdf2e"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/seeded/seed=1": (
        "c2d7a6897ec87e9b67dc08b67c89d2066773c5bfe759012677cb3e4502dcfc67"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/burst/seed=0": (
        "bd78ed834233379fd7208bf554aa4295825af74292f115e911764fa2cdbe8f39"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/burst/seed=1": (
        "a597b08ac86405c203290e778306586eb314e82b62ddb458c660f7132af84b20"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=1/round-robin/seed=0": (
        "f8a6fb49af096362260a8350c193acc931f057352880d7a17f205454bcc4d7a6"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=1/round-robin/seed=1": (
        "701dab9bd1c0f701b76278ffa93f5ad4e009f1aaf0c679b0a503ae4149c7716a"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=1/seeded/seed=0": (
        "1ebe71ce06066891f5f042c19a65d74da47f9001a7823765768596ba1116a571"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=1/seeded/seed=1": (
        "a43538fd9b746b689bff335e4ee361e836080ea69458ccd387a42ef84230620d"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=1/burst/seed=0": (
        "a0a0edf5e259f1673ee35e1387ef8930b8ccd2e2fc1aae7dceaad6c25fc667a3"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=1/burst/seed=1": (
        "34ae7b9593f25a034974d04a94cdbad35f4cf73051b8c7fa83c71813f5b54a5a"
    ),
    "consensus(n=3)/auto/omega@12/crashes=2/round-robin/seed=0": (
        "7a1c2ab0845a3628b2292b5b183589a06a1155c3e71cf4989bfcfdf385861dd4"
    ),
    "consensus(n=3)/auto/omega@12/crashes=2/seeded/seed=0": (
        "d7966f90549ae440c5d56f7f97a1c7d9e11c2788c42ad6e3d0070500bf1eed70"
    ),
    "consensus(n=3)/auto/omega@12/crashes=2/burst/seed=0": (
        "8aecef7a8bb6ad0aad2e3cc8bea73cf519fac4fe967bdc8ceb0c4c0efe20d0dc"
    ),
    "consensus(n=3)/auto/omega@12/crashes=2/shadow/seed=0": (
        "9f07e4f4b03d8d071c95bf01b752a181ae242bdb2556c01aeb893d172e3da13e"
    ),
    "consensus(n=3)/auto/omega@12/crashes=2/inversion/seed=0": (
        "250edde21ad0c6a5c27aa0fd0a9116a43a547d8e493802d03358bcf1475a2d74"
    ),
    "set-agreement(n=3)/auto/vector-omega@12/crashes=2/round-robin/seed=0": (
        "915b223bf9c8aa04e6f29ac2b9c5938cf3fd44c98a0e84002ef34e00c12b1c51"
    ),
    "set-agreement(n=3)/auto/vector-omega@12/crashes=2/seeded/seed=0": (
        "f7d32f483429477d7379da830ad2367b998b7bc3faeb19b678553cfe0a5b9e2f"
    ),
    "set-agreement(n=3)/auto/vector-omega@12/crashes=2/burst/seed=0": (
        "56ca2cd3839f18a4fcafef5e9164e59c73187eba7aadab9a6433aa144351bfe4"
    ),
    "set-agreement(n=3)/auto/vector-omega@12/crashes=2/shadow/seed=0": (
        "76c125766cea16d8f58f39ba3da161f2a8799edb7734fbb86d71adfa7c7c7860"
    ),
    "set-agreement(n=3)/auto/vector-omega@12/crashes=2/inversion/seed=0": (
        "c1253b9165eedc124715ab2467810c3a095383b67312c2945c35cada2747d3d4"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/seeded/seed=903170602": (
        "35c132ad3bb4179239bcdbff96407468464220e6652d813ad80b0d797a705ee2"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/seeded/seed=86939546": (
        "4192bb64e5a469fad5685539aaf16b401a607afcf9b0258a935139e080650daf"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/seeded/seed=556019485": (
        "f83f9c37f698295368a501979e30860cc44303e39b806cbfaa6f907007d22f7d"
    ),
    "set-agreement(n=3)/auto/vector-omega@8/crashes=0/seeded/seed=1043521778": (
        "3fe4c3a00bf3e7fe07a5e41207930ce84e3feb5c82a51ee1555a9861524bf5c5"
    ),
}

#: The sweep-shaped cells' scheduler seed and detector seeds.
SWEEP_SCHEDULER_SEED = 827307999
SWEEP_SEEDS = (903170602, 86939546, 556019485, 1043521778)


def pinned_cells():
    """The smoke campaign's 24 cells, the ten crash-storm cells, then
    the four sweep-shaped cells."""
    standard = standard_campaign()
    storm = CampaignSpec(
        name="pinned-storm",
        workloads=list(standard.workloads),
        patterns=[(None, 1, 1)],
        schedulers=standard.schedulers,
        seeds=(0,),
        stabilization_times=(12,),
        max_steps=150_000,
    )
    sweep = CampaignSpec(
        name="pinned-sweep",
        workloads=[
            Workload(
                task={"family": "set-agreement", "n": 3, "k": 2},
                detector={"family": "vector-omega", "k": 2},
            )
        ],
        patterns=[[]],
        schedulers=({"kind": "seeded", "seed": SWEEP_SCHEDULER_SEED},),
        seeds=SWEEP_SEEDS,
        stabilization_times=(8,),
        max_steps=60_000,
    )
    return [*smoke_campaign().cells(), *storm.cells(), *sweep.cells()]


def trace_digest(cell) -> str:
    result = run_cell(cell).result
    digest = hashlib.sha256()
    for event in result.trace.events:
        digest.update(
            f"{event.time}|{event.pid}|{event.op!r}|{event.result!r}".encode()
        )
    digest.update(
        f"{result.reason}|{result.steps}|{result.outputs!r}".encode()
    )
    return digest.hexdigest()


CELLS = pinned_cells()


def test_cells_are_the_pinned_ones():
    labels = [cell.label() for cell in CELLS]
    assert len(labels) == len(set(labels)) == 38
    assert set(labels) == set(PINNED)


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.label())
def test_trace_matches_pin(cell):
    assert trace_digest(cell) == PINNED[cell.label()]
