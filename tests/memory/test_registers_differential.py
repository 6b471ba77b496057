"""Differential tests: the bucketed register file, and the digested one
an exploring executor undoes writes on, must be observationally
identical to a plain dict-scan reference."""

import random

from repro.memory import RegisterFile
from repro.memory.registers import DigestedRegisterFile, register_term


class ReferenceFile:
    """Reference semantics: one dict scanned per snapshot, results in
    canonical (sorted-by-name) order."""

    def __init__(self):
        self.cells = {}

    def read(self, name):
        return self.cells.get(name)

    def write(self, name, value):
        self.cells[name] = value

    def compare_and_swap(self, name, expected, new):
        prior = self.cells.get(name)
        if prior == expected:
            self.cells[name] = new
        return prior

    def snapshot(self, prefix):
        return dict(
            sorted(
                (name, value)
                for name, value in self.cells.items()
                if name.startswith(prefix)
            )
        )


NAMES = [
    "flat",
    "other",
    "inp/0",
    "inp/1",
    "inp/2",
    "a/0",
    "a/1",
    "a/b/0",
    "a/b/1",
    "a/b/c/0",
    "x/lev/3",
    "x/lev/7",
    "x/other",
]

PREFIXES = ["", "inp/", "a/", "a/b/", "a/b", "x/", "x/lev/", "fla", "zzz", "a"]


def random_ops(rng, count):
    for _ in range(count):
        roll = rng.random()
        name = rng.choice(NAMES)
        if roll < 0.45:
            yield ("write", name, rng.randrange(100))
        elif roll < 0.6:
            yield ("cas", name, rng.randrange(4), rng.randrange(100))
        elif roll < 0.8:
            yield ("read", name)
        else:
            yield ("snapshot", rng.choice(PREFIXES))


class TestDifferential:
    def test_random_sequences_match_reference(self):
        for seed in range(20):
            rng = random.Random(seed)
            real, ref = RegisterFile(), ReferenceFile()
            for op in random_ops(rng, 300):
                if op[0] == "write":
                    real.write(op[1], op[2])
                    ref.write(op[1], op[2])
                elif op[0] == "cas":
                    assert real.compare_and_swap(
                        op[1], op[2], op[3]
                    ) == ref.compare_and_swap(op[1], op[2], op[3])
                elif op[0] == "read":
                    assert real.read(op[1]) == ref.read(op[1])
                else:
                    got, want = real.snapshot(op[1]), ref.snapshot(op[1])
                    # Same content AND canonical sorted order: snapshot
                    # iteration order is observable by automata, so it
                    # must not leak the write order (state identity in
                    # the exhaustive checker depends on this).
                    assert list(got.items()) == list(want.items())

    def test_snapshots_survive_reverts(self):
        # An exploring executor undoes writes in last-in-first-out order:
        # after any such revert the file (snapshot caches and digest
        # included) must match the reference at the same point.
        for seed in range(20):
            rng = random.Random(seed)
            real = DigestedRegisterFile()
            writes = []
            states = [{}]
            for op in random_ops(rng, 300):
                if op[0] == "write":
                    real.write(op[1], op[2])
                    writes.append(real.last_write)
                    states.append({**states[-1], op[1]: op[2]})
                elif op[0] == "snapshot":
                    want = ReferenceFile()
                    want.cells = states[-1]
                    assert list(real.snapshot(op[1]).items()) == list(
                        want.snapshot(op[1]).items()
                    )
                elif writes:  # reads and CASes stand in for undos here
                    real.revert(*writes.pop())
                    states.pop()
                assert real.digest == sum(
                    register_term(name, value)
                    for name, value in states[-1].items()
                )
