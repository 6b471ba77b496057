"""Distributed tasks (paper Section 2.1).

A task for ``n`` C-processes is a triple ``(I, O, Delta)``: a set of
input vectors, a set of output vectors, and a total relation mapping each
input vector to allowed output vectors.  ``None`` plays the paper's
bottom: a ``None`` input marks a non-participating process, a ``None``
output an undecided one.  ``I`` and ``O`` are prefix-closed, and ``Delta``
satisfies the three closure conditions of Section 2.1:

1. a non-participant never outputs;
2. every prefix of an allowed output is allowed;
3. extending the input preserves extendability of the output.

Two concrete representations are provided:

* :class:`EnumeratedTask` — fully tabulated, for the small tasks fed to
  the topology checker and the classifier.  Construction validates all
  closure conditions.
* Predicate-style tasks (see :mod:`repro.tasks`) subclass :class:`Task`
  directly and implement the membership tests semantically, which scales
  to any ``n``.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..errors import SpecificationError

#: An input or output vector; index i belongs to C-process p_{i+1};
#: ``None`` is the paper's bottom.
Vector = tuple[Any, ...]


def participants(vector: Vector) -> frozenset[int]:
    """Indices with a non-bottom entry."""
    return frozenset(i for i, v in enumerate(vector) if v is not None)


def is_prefix(shorter: Vector, longer: Vector) -> bool:
    """Paper's prefix order: ``shorter`` agrees with ``longer`` wherever
    it is non-bottom, and has at least one non-bottom entry."""
    if len(shorter) != len(longer):
        return False
    if all(v is None for v in shorter):
        return False
    return all(s is None or s == l for s, l in zip(shorter, longer))


def proper_prefixes(vector: Vector) -> Iterator[Vector]:
    """All prefixes of ``vector`` other than ``vector`` itself."""
    present = sorted(participants(vector))
    for size in range(1, len(present)):
        for keep in itertools.combinations(present, size):
            kept = set(keep)
            yield tuple(
                v if i in kept else None for i, v in enumerate(vector)
            )


def restrict(vector: Vector, keep: Iterable[int]) -> Vector:
    """The prefix of ``vector`` supported on ``keep``."""
    kept = set(keep)
    return tuple(v if i in kept else None for i, v in enumerate(vector))


class Task(ABC):
    """Abstract task interface.

    Subclasses define membership of the input set and of the Delta
    relation.  ``allows`` must implement the *partial-output* semantics:
    ``allows(I, O)`` holds when ``O`` (which may contain bottoms) is a
    prefix of — or equal to — some output vector related to ``I``.
    """

    #: Human-readable task name (used in reports and the hierarchy table).
    name: str = "task"
    #: Number of C-processes.
    n: int
    #: Whether the task is colorless (Proposition 5): a process may adopt
    #: the input or output of any other participant.
    colorless: bool = False

    @abstractmethod
    def is_input(self, vector: Vector) -> bool:
        """Whether ``vector`` is in the (prefix-closed) input set."""

    @abstractmethod
    def allows(self, inputs: Vector, outputs: Vector) -> bool:
        """Whether ``(inputs, outputs)`` is in Delta (partial outputs ok)."""

    @abstractmethod
    def input_vectors(self) -> Iterator[Vector]:
        """Enumerate the input set (finite per the paper's assumption)."""

    def maximal_input_vectors(self) -> Iterator[Vector]:
        """Input vectors that are not a proper prefix of another input."""
        all_inputs = list(self.input_vectors())
        for vec in all_inputs:
            if not any(
                other != vec and is_prefix(vec, other) for other in all_inputs
            ):
                yield vec

    def check_run(self, inputs: Vector, outputs: Vector) -> bool:
        """Safety check used by the executors: inputs well-formed and the
        (possibly partial) outputs allowed."""
        return self.is_input(inputs) and self.allows(inputs, outputs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name}, n={self.n})"


class EnumeratedTask(Task):
    """A task given by explicit vector sets and an explicit relation.

    Args:
        n: number of C-processes.
        delta: mapping from each input vector to the collection of
            *complete* (relative to that input's participants) output
            vectors allowed for it.  Prefix-closure of inputs, outputs,
            and the relation is completed automatically, then validated.
        name: task name.
        colorless: see :class:`Task`.

    Raises:
        SpecificationError: if the completed relation violates the
            paper's conditions (e.g. an output for a non-participant, or
            an input extension with no output extension).
    """

    def __init__(
        self,
        n: int,
        delta: Mapping[Vector, Iterable[Vector]],
        *,
        name: str = "enumerated",
        colorless: bool = False,
    ) -> None:
        self.n = n
        self.name = name
        self.colorless = colorless
        self._delta: dict[Vector, frozenset[Vector]] = {}
        self._given: set[Vector] = set()
        for inp, outs in delta.items():
            self._add_pairs(tuple(inp), [tuple(o) for o in outs])
        self._given = set(self._delta)
        self._close_under_prefixes()
        self._prune_unextendable()
        self._validate()

    # -- construction -------------------------------------------------

    def _add_pairs(self, inp: Vector, outs: Sequence[Vector]) -> None:
        if len(inp) != self.n:
            raise SpecificationError(
                f"input vector {inp} has length {len(inp)}, expected {self.n}"
            )
        if not participants(inp):
            raise SpecificationError("input vectors must have a participant")
        bucket = set(self._delta.get(inp, frozenset()))
        for out in outs:
            if len(out) != self.n:
                raise SpecificationError(
                    f"output vector {out} has length {len(out)}, expected {self.n}"
                )
            if not participants(out) <= participants(inp):
                raise SpecificationError(
                    f"output {out} decides for a non-participant of {inp}"
                )
            if not participants(out):
                raise SpecificationError(
                    "output vectors must have a non-bottom entry"
                )
            bucket.add(out)
        self._delta[inp] = frozenset(bucket)

    def _close_under_prefixes(self) -> None:
        # Condition (2): every prefix of an allowed output is allowed.
        for inp, outs in list(self._delta.items()):
            closed = set(outs)
            for out in outs:
                closed.update(proper_prefixes(out))
            self._delta[inp] = frozenset(closed)
        # Prefix closure of the input set, with outputs induced by
        # restriction (the standard completion: for a sub-input, allow
        # the restrictions of the super-input's outputs to the
        # sub-input's participants).
        for inp in list(self._delta):
            for sub in proper_prefixes(inp):
                if sub in self._delta:
                    continue
                induced: set[Vector] = set()
                for sup, outs in self._delta.items():
                    if is_prefix(sub, sup):
                        for out in outs:
                            r = restrict(out, participants(sub))
                            if participants(r):
                                induced.add(r)
                if induced:
                    self._delta[sub] = frozenset(induced)

    def _prune_unextendable(self) -> None:
        # The automatic prefix completion induces sub-input outputs by
        # restriction, which may create pairs violating condition (3)
        # (an output with no extension at some larger input).  Prune
        # those *induced* pairs, from the largest inputs downward so the
        # buckets we prune against are already final.  A user-given pair
        # that would have to be pruned is a genuine specification error
        # and is reported by _validate instead.
        by_size = sorted(
            self._delta, key=lambda v: len(participants(v)), reverse=True
        )
        for inp in by_size:
            if inp in self._given:
                continue
            supers = [
                sup
                for sup in self._delta
                if sup != inp and is_prefix(inp, sup)
            ]
            kept = frozenset(
                out
                for out in self._delta[inp]
                if all(
                    any(
                        out == bigger or is_prefix(out, bigger)
                        for bigger in self._delta[sup]
                    )
                    for sup in supers
                )
            )
            self._delta[inp] = kept

    def _validate(self) -> None:
        inputs = set(self._delta)
        for inp, outs in self._delta.items():
            if not outs:
                raise SpecificationError(f"Delta is not total at {inp}")
        # Condition (3): input extension preserves output extendability.
        for inp in inputs:
            for sup in inputs:
                if sup == inp or not is_prefix(inp, sup):
                    continue
                for out in self._delta[inp]:
                    extended = any(
                        out == bigger or is_prefix(out, bigger)
                        for bigger in self._delta[sup]
                    )
                    if not extended:
                        raise SpecificationError(
                            f"output {out} for {inp} cannot be extended "
                            f"for the larger input {sup}"
                        )

    # -- Task interface ------------------------------------------------

    def is_input(self, vector: Vector) -> bool:
        return tuple(vector) in self._delta

    def allows(self, inputs: Vector, outputs: Vector) -> bool:
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        if inputs not in self._delta:
            return False
        if not participants(outputs):
            # The empty (all-undecided) output is always acceptable for a
            # *partial* run; the paper's O-vectors are non-empty, but a
            # run in which nobody decided yet violates nothing.
            return True
        allowed = self._delta[inputs]
        return outputs in allowed or any(
            is_prefix(outputs, out) for out in allowed
        )

    def input_vectors(self) -> Iterator[Vector]:
        return iter(sorted(self._delta, key=_vector_key))


def _vector_key(vec: Vector) -> tuple:
    return tuple((v is None, v if v is not None else 0) for v in vec)
