"""Append-only JSONL progress journals, the campaign resume substrate.

A journal mirrors the paper's discipline of separating crash-prone work
from durable state: every completed cell is appended (and fsynced) the
moment its outcome is known, so a SIGKILLed worker, an OOMed host, or a
Ctrl-C'd orchestrator loses at most the cells that were in flight.
``python -m repro chaos run --resume <journal>`` replays the journal's
completed cells into the report and executes only the remainder; the
final report is byte-identical to an uninterrupted run because cell
outcomes are fully determined by their specs.

Beyond cell outcomes, the journal doubles as the fabric coordinator's
*control-plane log*: lease grants, lease expiries, worker bench events,
and spool replays are appended alongside cells, so a coordinator that
dies with a SIGKILL can be restarted with ``--resume`` and rebuild its
lease table, dedup set, and suspicion state from disk
(:func:`recover_control_state`).

Line format (one JSON object per line, each carrying a CRC32 ``crc``):

* header — ``{"kind": "header", "format": ..., "version": ...,
  "campaign": name, "fingerprint": <sha256 over the enumerated cell
  specs>, "cells": N}``
* cell — ``{"kind": "cell", "index": i, "outcome": ..., "detail": ...,
  "steps": ..., "attempts": k, "cell": <CellSpec JSON>}``
* lease — ``{"kind": "lease", "index": i, "worker": name,
  "deadline_unix": t}`` (a dispatch; ``"readmitted": true`` when the
  lease was re-bound to a reconnecting holder after recovery)
* expiry — ``{"kind": "expiry", "index": i, "worker": name}``
* bench — ``{"kind": "bench", "worker": name, "suspicion": n,
  "penalty_until_unix": t}`` (``suspicion: 0`` is rehabilitation)
* spool — ``{"kind": "spool", "index": i, "worker": name}`` (a result
  that arrived from a worker's local spool rather than a live lease)

A torn trailing line (crash mid-append) is tolerated and ignored on
load.  A corrupt record *before* the tail (bit rot, a flipped byte) is
caught by its CRC32, quarantined, and skipped — the rest of the journal
stays readable.  The fingerprint pins the journal to one exact
campaign: resuming against a different spec, seed, or cell limit is
refused instead of silently mixing sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..errors import ResilienceError

JOURNAL_FORMAT = "repro-chaos-journal"
# Version 2 adds the mandatory per-record CRC32 suffix and the
# control-plane event kinds.  Version-1 journals (no ``crc`` fields)
# still load — they simply get no mid-file corruption detection.
JOURNAL_VERSION = 2

#: Journal record kinds that carry coordinator control-plane state.
CONTROL_KINDS = ("lease", "expiry", "bench", "spool")


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory temp file and
    ``os.replace``, so readers never observe a half-written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Binary sibling of :func:`atomic_write_text` (explorer
    checkpoints must never be observable half-written either)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return path


def campaign_fingerprint(
    name: str, cells: Iterable[Any], strict_traces: bool
) -> str:
    """Stable identity of one enumerated campaign (order included)."""
    payload = json.dumps(
        {
            "name": name,
            "strict_traces": strict_traces,
            "cells": [cell.to_json() for cell in cells],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def record_fingerprint(record: Mapping[str, Any]) -> str:
    """Canonical dedup key of one journal record: sha256 over its
    sorted JSON.  Retried and redispatched cells are deterministic
    re-executions, so their records hash identically — the fabric's
    at-least-once delivery becomes exactly-once durability."""
    payload = json.dumps(
        dict(record), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def record_crc(record: Mapping[str, Any]) -> int:
    """CRC32 of a record's canonical JSON, excluding the ``crc`` field
    itself.  Cheap enough to compute per append, strong enough to catch
    the flipped byte / truncated rewrite that still parses as JSON."""
    body = {key: value for key, value in record.items() if key != "crc"}
    payload = json.dumps(
        body, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


@dataclass
class JournalScan:
    """Everything a recovery pass needs from one journal read.

    ``entries`` preserves file order — which *is* time order, because
    the journal is append-only across coordinator restarts.  ``cells``
    keeps the last record per index (re-runs of the same cell are
    byte-identical anyway).  ``corrupt_records`` counts quarantined
    mid-file records; ``torn_tail`` flags a crash mid-append."""

    path: Path
    header: dict[str, Any]
    entries: list[dict[str, Any]] = field(default_factory=list)
    cells: dict[int, dict[str, Any]] = field(default_factory=dict)
    corrupt_records: int = 0
    torn_tail: bool = False

    def events(self, *kinds: str) -> list[dict[str, Any]]:
        """Entries of the given kinds (all control kinds by default),
        in file order."""
        wanted = kinds or CONTROL_KINDS
        return [e for e in self.entries if e.get("kind") in wanted]


@dataclass(frozen=True)
class RecoveredLease:
    """A lease that was outstanding when the coordinator died."""

    index: int
    worker: str
    deadline_unix: float


@dataclass
class ControlPlaneState:
    """Coordinator state reconstructed from the journal by
    :func:`recover_control_state`.

    ``completed`` are journaled cell indices (never redispatched);
    ``leases`` are grants with no matching expiry or cell record —
    their holders may still be computing and must be given a chance to
    reconnect before the cells are requeued; ``suspicion`` is the last
    journaled bench state per worker name."""

    completed: set[int] = field(default_factory=set)
    leases: dict[int, RecoveredLease] = field(default_factory=dict)
    #: worker name -> (suspicion count, penalty deadline, unix time)
    suspicion: dict[str, tuple[int, float]] = field(default_factory=dict)


def scan_journal(path: str | Path) -> JournalScan:
    """Read a journal defensively: CRC-check every record, quarantine
    corrupt mid-file records, tolerate a torn trailing line.

    The header must survive — a journal whose first line is unreadable
    identifies nothing and is refused.  In version-2 journals every
    record must carry a *valid* ``crc``: a missing checksum is itself
    corruption (a bit flip can mangle the ``crc`` key and would
    otherwise smuggle an unchecked record through).  Version-1 journals
    (written before checksums existed) load unchecked.
    """
    path = Path(path)
    try:
        raw_lines = path.read_bytes().splitlines()
    except OSError as exc:
        raise ResilienceError(f"cannot read journal {path}: {exc}") from exc
    scan: JournalScan | None = None
    checked = False  # version >= 2: records must carry a valid crc
    for lineno, raw_bytes in enumerate(raw_lines):
        if not raw_bytes.strip():
            continue
        last = lineno == len(raw_lines) - 1
        try:
            # Decode per line: a crash can tear the tail *inside* a
            # UTF-8 multibyte sequence, which must read as a torn line,
            # not as a corrupt journal.
            line = json.loads(raw_bytes.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if last:
                if scan is not None:
                    scan.torn_tail = True
                    break
            if scan is None:
                raise ResilienceError(
                    f"{path}:{lineno + 1}: corrupt journal header"
                ) from exc
            scan.corrupt_records += 1
            continue
        if not isinstance(line, dict):
            if scan is None:
                raise ResilienceError(
                    f"{path}:{lineno + 1}: corrupt journal header"
                )
            scan.corrupt_records += 1
            continue
        if "crc" in line and line["crc"] != record_crc(line):
            if scan is None:
                raise ResilienceError(
                    f"{path}:{lineno + 1}: journal header fails its CRC"
                )
            if last:
                scan.torn_tail = True
                break
            scan.corrupt_records += 1
            continue
        kind = line.get("kind")
        if kind == "header":
            if line.get("format") != JOURNAL_FORMAT:
                raise ResilienceError(
                    f"{path}: not a {JOURNAL_FORMAT} document"
                )
            version = line.get("version")
            if version not in (1, JOURNAL_VERSION):
                raise ResilienceError(
                    f"{path}: unsupported journal version {version!r}"
                )
            checked = version >= 2
            if checked and "crc" not in line:
                raise ResilienceError(
                    f"{path}:{lineno + 1}: journal header fails its CRC"
                )
            scan = JournalScan(path=path, header=line)
            continue
        if scan is None:
            raise ResilienceError(f"{path}: journal has no header line")
        if checked and "crc" not in line:
            if last:
                scan.torn_tail = True
                break
            scan.corrupt_records += 1
            continue
        scan.entries.append(line)
        if kind == "cell":
            scan.cells[int(line["index"])] = line
    if scan is None:
        raise ResilienceError(f"{path}: journal has no header line")
    return scan


def recover_control_state(scan: JournalScan) -> ControlPlaneState:
    """Replay the control-plane log into coordinator state.

    The walk is a single forward pass in file order: a lease grant adds
    to the lease table, a matching expiry or completed cell removes it,
    and the last bench record per worker wins (``suspicion: 0`` clears
    it).  This is the Simple-CHT move — the restarted observer extracts
    what it needs from persisted history instead of trusting anything
    volatile.
    """
    state = ControlPlaneState()
    for entry in scan.entries:
        kind = entry.get("kind")
        if kind == "cell":
            index = int(entry["index"])
            state.completed.add(index)
            state.leases.pop(index, None)
        elif kind == "lease":
            index = int(entry["index"])
            if index not in state.completed:
                state.leases[index] = RecoveredLease(
                    index=index,
                    worker=str(entry.get("worker", "")),
                    deadline_unix=float(entry.get("deadline_unix", 0.0)),
                )
        elif kind == "expiry":
            state.leases.pop(int(entry["index"]), None)
        elif kind == "bench":
            worker = str(entry.get("worker", ""))
            suspicion = int(entry.get("suspicion", 0))
            if suspicion <= 0:
                state.suspicion.pop(worker, None)
            else:
                state.suspicion[worker] = (
                    suspicion,
                    float(entry.get("penalty_until_unix", 0.0)),
                )
    return state


class CampaignJournal:
    """Append-only writer; durable after every :meth:`append_cell`.

    Appends are *idempotent by fingerprint*: every record line carries
    a dedup key, the writer remembers the keys it has seen (including
    across :meth:`reopen`, which reloads them from disk), and a
    duplicate :meth:`append_idempotent` is a no-op.  At-least-once
    producers — supervised retries, fabric redispatches — can therefore
    all write through the same journal without double-counting.

    Control-plane events (:meth:`append_event`) are deliberately *not*
    idempotent: every grant/expiry/bench is a distinct point in time,
    and recovery replays them in order."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = None
        self._seen: set[str] = set()

    def open(self, header: Mapping[str, Any]) -> "CampaignJournal":
        """Create/truncate the journal and write its header line."""
        self._handle = open(self.path, "w", encoding="utf-8")
        self._seen = set()
        self._append(
            {
                "kind": "header",
                "format": JOURNAL_FORMAT,
                "version": JOURNAL_VERSION,
                **dict(header),
            }
        )
        return self

    def reopen(self) -> "CampaignJournal":
        """Continue appending to an existing journal (resume mode),
        reloading the already-written fingerprints so idempotence
        holds across the interruption."""
        scan = scan_journal(self.path)
        self._seen = {
            line["fingerprint"]
            for line in scan.cells.values()
            if "fingerprint" in line
        }
        self._handle = open(self.path, "a", encoding="utf-8")
        return self

    def _append(self, line: Mapping[str, Any]) -> None:
        assert self._handle is not None, "journal not opened"
        record = dict(line)
        record["crc"] = record_crc(record)
        # ensure_ascii=False: details may carry non-ASCII (detector
        # names, ψ-stabilization notes), and emitting real UTF-8 means
        # a crash can tear the tail *inside* a multibyte sequence —
        # scan_journal treats that as a torn line, not corruption.
        self._handle.write(
            json.dumps(record, ensure_ascii=False, separators=(",", ":"))
            + "\n"
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_idempotent(
        self, fingerprint: str, record: Mapping[str, Any]
    ) -> bool:
        """Durably append ``record`` unless a record with this
        ``fingerprint`` was already written (in this session or, after
        :meth:`reopen`, a previous one).  Returns True when the record
        was actually appended.

        This is *the* dedup API: callers must not re-derive their own
        keys ad hoc — pass :func:`record_fingerprint` of the identity-
        determining fields (the fabric uses the cell spec; attempt
        counters and timings stay out of the key).
        """
        if fingerprint in self._seen:
            return False
        self._seen.add(fingerprint)
        self._append({**dict(record), "fingerprint": fingerprint})
        return True

    def append_event(self, record: Mapping[str, Any]) -> None:
        """Durably append one control-plane event (lease grant, lease
        expiry, bench, spool replay).  Not deduplicated: events are
        points in time and recovery replays them in file order."""
        self._append(dict(record))

    def append_cell(
        self,
        index: int,
        verdict: Mapping[str, Any],
        cell_json: Mapping[str, Any],
    ) -> bool:
        """Append one completed campaign cell: its verdict (the mapping
        :meth:`~repro.chaos.campaign.CellRecord.verdict` returns) and
        its spec.  Idempotent: the dedup key is the cell's index + spec,
        so a redispatched or retried cell lands in the journal exactly
        once."""
        fingerprint = record_fingerprint(
            {"index": index, "cell": dict(cell_json)}
        )
        return self.append_idempotent(
            fingerprint,
            {
                "kind": "cell",
                "index": index,
                **verdict,
                "cell": dict(cell_json),
            },
        )

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
