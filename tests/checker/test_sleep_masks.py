"""The explorer's sleep-set bookkeeping in bitmasks, against the set
version it replaced.

The explorer keeps sleep sets as bitmasks over slot positions and its
dedup map as one mask per fingerprint (a list only for incomparable
visits).  Here :func:`_seen_covers` answers random sequences of
``(fingerprint, sleep set)`` visits exactly as ``OldSeen``, a copy of
the frozenset version, does, and records the same visits; and
:func:`_sleep_children` computes the same pruned branches and child
sleep sets as ``old_sleep_children`` on random footprints.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.explorer import _seen_covers, _sleep_bits, _sleep_children
from repro.checker.independence import StepFootprint, commutes
from repro.core import System
from repro.core.process import c_process, s_process
from repro.core.system import null_automaton

#: four C- and four S-processes: masks over eight slots
SYSTEM = System(inputs=(1, 2, 3, 4), c_factories=[null_automaton] * 4)
PIDS = SYSTEM.all_pids()


def mask_of(sleep):
    """The mask of a set of pids, by the definition: bit ``i`` stands
    for ``system.all_pids()[i]``."""
    return sum(1 << PIDS.index(pid) for pid in sleep)


def set_of(mask):
    return frozenset(pid for i, pid in enumerate(PIDS) if mask >> i & 1)


class OldSeen:
    """The explorer's ``_seen_covers`` over frozensets, as it was before
    sleep sets became masks."""

    def __init__(self):
        self.seen = {}

    def covers(self, fingerprint, sleep):
        prior = self.seen.get(fingerprint)
        if prior is None:
            self.seen[fingerprint] = [sleep]
            return False
        if any(s <= sleep for s in prior):
            return True
        prior[:] = [s for s in prior if not sleep < s]
        prior.append(sleep)
        return False


def old_sleep_children(schedule, branches, sleep, footprints):
    """The explorer's expansion of one node over frozensets, as it was
    before sleep sets became masks."""
    children = []
    pruned = 0
    taken = []
    for pid in branches:
        if pid in sleep:
            pruned += 1
            continue
        pid_fp = footprints[pid]
        child_sleep = frozenset(
            t for t in sleep.union(taken) if commutes(footprints[t], pid_fp)
        )
        children.append((schedule + (pid,), child_sleep))
        taken.append(pid)
    return children, pruned


def recorded(seen, fingerprint):
    """The sleep sets ``seen`` records for ``fingerprint``."""
    masks = seen[fingerprint]
    return {set_of(mask) for mask in (masks if type(masks) is list else [masks])}


sleep_sets = st.frozensets(st.sampled_from(PIDS), max_size=len(PIDS))


@settings(max_examples=300, deadline=None)
@given(
    visits=st.lists(
        st.tuples(st.sampled_from([b"a", b"b", b"c"]), sleep_sets),
        max_size=40,
    )
)
def test_seen_masks_answer_as_frozensets(visits):
    seen = {}
    old = OldSeen()
    for fingerprint, sleep in visits:
        assert _seen_covers(seen, fingerprint, mask_of(sleep)) == old.covers(
            fingerprint, sleep
        )
        assert recorded(seen, fingerprint) == set(old.seen[fingerprint])


def test_seen_mask_list_appears_only_for_incomparable_visits():
    seen = {}
    p1, p2, p3 = (mask_of({pid}) for pid in PIDS[:3])
    assert not _seen_covers(seen, b"x", p1 | p2)
    assert not _seen_covers(seen, b"x", p2)  # strictly dominates: replaces
    assert seen[b"x"] == p2
    assert _seen_covers(seen, b"x", p2)
    assert not _seen_covers(seen, b"x", p1 | p3)  # incomparable
    assert seen[b"x"] == [p2, p1 | p3]
    assert not _seen_covers(seen, b"x", 0)  # dominates both
    assert seen[b"x"] == 0


names = st.sampled_from(["a", "b", "c", "d/x", "d/y"])
footprint_parts = st.tuples(
    st.lists(names, max_size=2),
    st.lists(st.sampled_from(["", "d/"]), max_size=1),
    st.lists(names, max_size=2),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(footprint_parts, min_size=len(PIDS), max_size=len(PIDS)),
    branches=st.permutations(PIDS).flatmap(
        lambda order: st.integers(0, len(order)).map(
            lambda n: tuple(order[:n])
        )
    ),
    sleep=sleep_sets,
)
def test_child_masks_match_frozenset_children(parts, branches, sleep):
    footprints = {
        pid: StepFootprint(
            pid, tuple(reads), tuple(prefixes), tuple(writes), universal
        )
        for pid, (reads, prefixes, writes, universal) in zip(PIDS, parts)
    }
    schedule = (c_process(0), s_process(1))
    children, pruned = _sleep_children(
        schedule, branches, mask_of(sleep), footprints.__getitem__,
        _sleep_bits(SYSTEM),
    )
    assert (
        [(child, set_of(mask)) for child, mask in children],
        pruned,
    ) == old_sleep_children(schedule, branches, sleep, footprints)
