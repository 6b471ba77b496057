"""The shared-memory substrate: an atomic multi-writer register file.

Registers are named by strings; hierarchical names use ``/`` by
convention (e.g. ``inp/3``, ``paxos/cons:0/R/2``) so that
:class:`~repro.runtime.ops.Snapshot` can atomically read a whole family
by prefix.  Unwritten registers hold ``None`` (the paper's bottom).

All operations are applied atomically by the executor, giving the
standard atomic (linearizable) register semantics assumed by the paper.

Performance notes
-----------------
``snapshot(prefix)`` used to scan every cell on every call, making the
snapshot-heavy algorithms O(total registers) per step.  The file now
keeps a *bucket index* keyed by each name's directory part (everything
up to and including the last ``/``), so the overwhelmingly common
directory-style prefixes (``inp/``, ``x/lev/``) cost O(matching
registers).  Snapshot results are returned in *canonical* (sorted by
register name) order: two runs that wrote the same registers with the
same values produce literally equal snapshots no matter which order
the writes landed in.  This matters for state identity — the executor
fingerprint digests snapshot results, and the exhaustive checker's
dedup and partial-order reductions treat runs whose snapshots differ
only by write order as distinct states unless the order is normalized
at the source.

The sort is amortized by a per-prefix result cache, invalidated by any
write the prefix covers: snapshot-heavy loops over a quiescent family
(the common pattern in the paper's algorithms — write once, then poll)
pay the sort on the first call and a plain dict copy afterwards.

An exploring executor backtracks by undoing steps, and identifies
states by a digest of their memory.  Its :class:`DigestedRegisterFile`
keeps that digest up to date on every write — the sum of one
:func:`register_term` per written register, so no snapshot is scanned
to fingerprint a state — and remembers each write's prior state so
:meth:`~DigestedRegisterFile.revert` can undo it.  The executor
caches each write's term on the history-trie node that performs it and
hands it to :meth:`~DigestedRegisterFile.write_term`, the one place
the digests are updated on a write.

The file also keeps the same sum per bucket, and counts for every
directory prefix how many buckets extend it.  When a snapshot's prefix
is exactly one bucket's key and no other bucket extends it, the result
is that bucket's contents, and :meth:`~DigestedRegisterFile.
snapshot_digest` returns the bucket's digest: equal ``(name,
repr(value))`` sets give equal sums, and distinct ones collide with
probability about 2^-128 — the argument the memory digest rests on.  An
exploring executor keys such a snapshot's history-trie edge by that
digest, so a known edge is followed without building the snapshot.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import TYPE_CHECKING, Any, Iterator

from ..errors import ProtocolError

if TYPE_CHECKING:  # imported lazily to avoid a memory <-> runtime cycle
    from ..runtime import ops


def _bucket_of(name: str) -> str:
    """Directory part of a register name (empty for flat names)."""
    cut = name.rfind("/")
    return "" if cut < 0 else name[: cut + 1]


class RegisterFile:
    """A mapping from register names to values with atomic step semantics."""

    def __init__(self) -> None:
        #: canonical storage, in global insertion order
        self._cells: dict[str, Any] = {}
        #: bucket key -> {full name -> value}; values alias ``_cells``
        self._buckets: dict[str, dict[str, Any]] = {}
        #: prefix -> sorted snapshot result; entries are dropped by any
        #: write whose name the prefix covers, so snapshot-heavy loops
        #: over a quiescent family pay the sort once
        self._snap_cache: dict[str, dict[str, Any]] = {}

    # -- operations -----------------------------------------------------

    def read(self, name: str) -> Any:
        return self._cells.get(name)

    def write(self, name: str, value: Any) -> None:
        self._cells[name] = value
        bucket = self._buckets.get(_bucket_of(name))
        if bucket is None:
            bucket = self._buckets[_bucket_of(name)] = {}
        bucket[name] = value
        if self._snap_cache:
            stale = [
                prefix
                for prefix in self._snap_cache
                if name.startswith(prefix)
            ]
            for prefix in stale:
                del self._snap_cache[prefix]

    def compare_and_swap(self, name: str, expected: Any, new: Any) -> Any:
        """Returns the prior value; the write happened iff it equals
        ``expected``."""
        prior = self._cells.get(name)
        if prior == expected:
            self.write(name, new)
        return prior

    def snapshot(self, prefix: str) -> dict[str, Any]:
        """Atomic view of every written register whose name starts with
        ``prefix``, in canonical (sorted-by-name) order."""
        cached = self._snap_cache.get(prefix)
        if cached is None:
            cached = self._snap_cache[prefix] = self._scan(prefix)
        return dict(cached)

    def _scan(self, prefix: str) -> dict[str, Any]:
        if not prefix:
            return dict(sorted(self._cells.items()))
        # A name matches iff (a) it lives in the bucket named by the
        # prefix's own directory part and its leaf extends the prefix, or
        # (b) its whole bucket key extends the prefix.  Leaves contain no
        # "/", so exactly one bucket can contribute partial matches.
        home_key = _bucket_of(prefix)
        home = self._buckets.get(home_key)
        spanning = [
            key
            for key in self._buckets
            if key != home_key and key.startswith(prefix)
        ]
        if not spanning:
            if home is None:
                return {}
            if home_key == prefix:
                return dict(sorted(home.items()))
            return dict(
                sorted(
                    (name, value)
                    for name, value in home.items()
                    if name.startswith(prefix)
                )
            )
        # Rare multi-bucket prefix: fall back to a global scan.
        return dict(
            sorted(
                (name, value)
                for name, value in self._cells.items()
                if name.startswith(prefix)
            )
        )

    def names(self) -> Iterator[str]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class _Unwritten:
    def __repr__(self) -> str:
        return "<unwritten>"


#: The prior state of a register that had never been written (the
#: paper's bottom), which is not the same as a written ``None``.
UNWRITTEN: Any = _Unwritten()

#: Memory digests are used mod 2**128: ``digest & DIGEST_MASK``.
DIGEST_MASK = (1 << 128) - 1


def register_term(name: str, value: Any) -> int:
    """One written register's term in a memory digest: blake2b over
    ``repr((name, value))``, as a 128-bit integer.  No Python ``hash``
    enters it, so digests do not change with ``PYTHONHASHSEED``."""
    return int.from_bytes(
        blake2b(repr((name, value)).encode(), digest_size=16).digest(),
        "little",
    )


class DigestedRegisterFile(RegisterFile):
    """The register file of an exploring executor.

    ``digest`` is the sum of :func:`register_term` over the written
    registers (use it masked with ``DIGEST_MASK``): it is updated on
    every write and every :meth:`revert`, does not depend on the order
    of the writes, and tells unwritten registers from written ``None``
    ones.  Each bucket keeps the same sum over its own registers (see
    :meth:`snapshot_digest`).  After each write, ``last_write`` holds
    what :meth:`revert` needs to undo it: ``(name, prior value or
    UNWRITTEN, prior term)``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.digest = 0
        #: register name -> its current term
        self._terms: dict[str, int] = {}
        #: bucket key -> the sum of its registers' terms (gone with the
        #: bucket's last register)
        self._bucket_digests: dict[str, int] = {}
        #: directory prefix -> how many bucket keys strictly extend it
        #: (absent when none does)
        self._extended: dict[str, int] = {}
        self.last_write: tuple[str, Any, int] | None = None

    def write(self, name: str, value: Any) -> None:
        self.write_term(name, value, register_term(name, value))

    def write_term(self, name: str, value: Any, term: int) -> None:
        """:meth:`write`, given the write's ``register_term(name,
        value)``."""
        key = _bucket_of(name)
        prior_term = self._terms.get(name)
        if prior_term is None:
            self.last_write = (name, UNWRITTEN, 0)
            self.digest += term
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = {}
                self._bucket_digests[key] = term
                self._count_extension(key, 1)
            else:
                self._bucket_digests[key] += term
        else:
            self.last_write = (name, self._cells[name], prior_term)
            self.digest += term - prior_term
            bucket = self._buckets[key]
            self._bucket_digests[key] += term - prior_term
        self._terms[name] = term
        self._cells[name] = value
        bucket[name] = value
        if self._snap_cache:
            self._drop_cached(name)

    def term(self, name: str) -> int:
        """The digest term of register ``name`` (0 while unwritten)."""
        return self._terms.get(name, 0)

    def snapshot_digest(self, prefix: str) -> int | None:
        """When ``prefix`` is exactly one bucket's key and no other
        bucket extends it, that bucket's sum of terms, which identifies
        ``snapshot(prefix)`` up to a 2^-128 collision, as :attr:`digest`
        identifies the memory; ``None`` for every other prefix (a
        partial leaf, ``""``, one that spans buckets)."""
        if not prefix or prefix in self._extended:
            return None
        return self._bucket_digests.get(prefix)

    def revert(self, name: str, prior: Any, prior_term: int) -> None:
        """Undo a write, given its ``last_write``.  A register that was
        unwritten is deleted again: its cell, its bucket entry (the
        bucket and its digest too, if it empties) and every cached
        snapshot covering it go."""
        term = self._terms[name]
        key = _bucket_of(name)
        self.digest += prior_term - term
        bucket = self._buckets[key]
        if prior is not UNWRITTEN:
            self._terms[name] = prior_term
            self._bucket_digests[key] += prior_term - term
            self._cells[name] = prior
            bucket[name] = prior
        else:
            del self._terms[name]
            del self._cells[name]
            del bucket[name]
            if bucket:
                self._bucket_digests[key] -= term
            else:
                del self._buckets[key]
                del self._bucket_digests[key]
                self._count_extension(key, -1)
        if self._snap_cache:
            self._drop_cached(name)

    def _drop_cached(self, name: str) -> None:
        """Drop every cached snapshot whose prefix covers ``name`` (the
        plain :meth:`RegisterFile.write` does this inline)."""
        stale = [
            prefix for prefix in self._snap_cache if name.startswith(prefix)
        ]
        for prefix in stale:
            del self._snap_cache[prefix]

    def _count_extension(self, key: str, delta: int) -> None:
        """Count bucket ``key`` in (``delta`` 1) or out (-1) of every
        directory prefix it strictly extends: ``a/`` and ``a/b/`` for
        ``a/b/c/``.  Buckets come and go only with a directory's first
        register, so no write scans the buckets."""
        extended = self._extended
        cut = key.find("/")
        while 0 <= cut < len(key) - 1:
            prefix = key[: cut + 1]
            count = extended.get(prefix, 0) + delta
            if count:
                extended[prefix] = count
            else:
                del extended[prefix]
            cut = key.find("/", cut + 1)


#: :mod:`repro.runtime.ops`, imported by the first :func:`apply_operation`
#: call and cached here (the runtime imports this module, so importing
#: it at load time would be circular).
_ops: Any = None


def apply_operation(memory: RegisterFile, op: "ops.Operation") -> Any:
    """Apply one memory operation atomically and return its result.

    ``QueryFD`` and ``Decide`` are not memory operations and must be
    handled by the caller; passing them here is a protocol violation.
    """
    global _ops
    ops = _ops
    if ops is None:
        from ..runtime import ops

        _ops = ops
    if isinstance(op, ops.Read):
        return memory.read(op.register)
    if isinstance(op, ops.Write):
        memory.write(op.register, op.value)
        return None
    if isinstance(op, ops.Snapshot):
        return memory.snapshot(op.prefix)
    if isinstance(op, ops.CompareAndSwap):
        return memory.compare_and_swap(op.register, op.expected, op.new)
    if isinstance(op, ops.Nop):
        return None
    raise ProtocolError(f"not a memory operation: {op!r}")
