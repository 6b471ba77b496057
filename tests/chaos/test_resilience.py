"""Supervised campaigns: budgets, retries, quarantine, journaled resume.

Planted specimens (an infinite spin, an unbounded allocator) prove the
watchdogs actually fire; kill-injection drills prove a murdered worker
costs nothing; journal round-trips prove interrupted sweeps resume to
byte-identical reports.
"""

import json
import multiprocessing
import time

import pytest

from repro.chaos import run_campaign, smoke_campaign
from repro.chaos.campaign import (
    OUTCOME_OOM,
    OUTCOME_TIMEOUT,
    CampaignSpec,
    Workload,
)
from repro.errors import CampaignInterrupted, ResilienceError
from repro.resilience import (
    AttemptFailure,
    CellBudget,
    RetryPolicy,
    SupervisedPool,
    backoff_schedule,
    current_rss_mb,
    scan_journal,
    triage,
)

#: No-retry policy with negligible backoff, so specimen tests stay fast.
FAST_QUARANTINE = RetryPolicy(max_retries=0, backoff_base_s=0.01)


#: The header and first cell line of a 2-cell smoke journal, as written
#: since journal version 2.  Every resume reads cell lines back, so a
#: renamed or reordered key would strand the journals already written.
SMOKE_HEADER_2_CELLS = (
    '{"kind":"header","format":"repro-chaos-journal","version":2,'
    '"campaign":"smoke","fingerprint":'
    '"6a06b2af5e3ca07c405fc10cde59aeedb04a1c22331914435167a5e065621a14",'
    '"cells":2,"crc":663070464}'
)
SMOKE_CELL_0_LINE = (
    '{"kind":"cell","index":0,"outcome":"ok","detail":"","steps":14737,'
    '"attempts":1,"cell":{"task":{"family":"consensus","n":3},'
    '"detector":{"family":"omega","stabilization_time":8},'
    '"algorithm":"auto","pattern":[null,null,null],'
    '"scheduler":{"kind":"round-robin"},"seed":0,"inputs":null,'
    '"max_steps":80000},"fingerprint":'
    '"d48564d95de879cc6bcedce2e9fa97ddaeb421ddb01d6c721ee965d48bbc564a",'
    '"crc":3621162227}'
)


def _ok(detail: str = "", *, steps: int = 1) -> dict:
    """An ``ok`` cell verdict, keyed as ``CellRecord.verdict`` keys it."""
    return {"outcome": "ok", "detail": detail, "steps": steps, "attempts": 1}


def specimen_spec(algorithm: str) -> CampaignSpec:
    """One-cell campaign over a planted-resource-bug specimen."""
    return CampaignSpec(
        name=f"budget:{algorithm}",
        workloads=[
            Workload(
                task={"family": "consensus", "n": 3},
                detector={"family": "none"},
                algorithm=algorithm,
            ),
        ],
        patterns=((None, None, None),),
        schedulers=({"kind": "round-robin"},),
        seeds=(0,),
        stabilization_times=(0,),
        max_steps=2_000,
    )


class TestBudgetEnforcement:
    def test_spin_specimen_quarantines_as_timeout(self):
        report = run_campaign(
            specimen_spec("specimen-spin"),
            budget=CellBudget(deadline_s=0.5, poll_interval_s=0.02),
            retry=FAST_QUARANTINE,
        )
        assert [r.outcome for r in report.records] == [OUTCOME_TIMEOUT]
        assert not report.complete
        assert report.quarantined == report.records
        assert "quarantined" in report.render()

    def test_hog_specimen_quarantines_as_oom(self):
        # The worker forks from this process, so budget relative to the
        # current RSS; the hog retains ~24 MiB per scheduling round.
        report = run_campaign(
            specimen_spec("specimen-hog"),
            budget=CellBudget(
                deadline_s=30.0,  # backstop only; RSS must fire first
                rss_mb=current_rss_mb() + 80,
                poll_interval_s=0.02,
            ),
            retry=FAST_QUARANTINE,
        )
        assert [r.outcome for r in report.records] == [OUTCOME_OOM]
        assert not report.complete

    def test_job_finishing_past_its_deadline_is_a_timeout(self):
        # The watchdog never polls within the job (60 s grain), so only
        # the check at completion can see the 0.2 s job overrun 0.05 s.
        pool = SupervisedPool(
            time.sleep,
            workers=1,
            budget=CellBudget(deadline_s=0.05, poll_interval_s=60.0),
            retry=FAST_QUARANTINE,
        )
        (result,) = pool.run([(0, 0.2)])
        assert not result.ok
        assert result.kind == "timeout"

    @pytest.mark.parametrize("backend", ["inproc", "fabric"])
    @pytest.mark.parametrize(
        "knob",
        [
            {"budget": CellBudget(deadline_s=1e-6)},
            {"inject_worker_kill": 0},
        ],
        ids=["budget", "inject_worker_kill"],
    )
    def test_backends_without_watchdogs_refuse_the_knobs(
        self, backend, knob
    ):
        # Only supervised pool workers enforce budgets and kill drills:
        # in-process cells would come back ``ok`` past a 1 µs deadline,
        # and fabric workers run no watchdog.  Refused before any cell
        # runs or any coordinator binds.
        (name,) = knob
        with pytest.raises(ResilienceError, match=name):
            run_campaign(
                smoke_campaign(), limit=2, backend=backend, **knob
            )


class TestRetryAndQuarantine:
    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(max_retries=3, seed=42)
        assert backoff_schedule(policy, 7) == backoff_schedule(policy, 7)
        assert backoff_schedule(policy, 7) != backoff_schedule(policy, 8)
        reseeded = RetryPolicy(max_retries=3, seed=43)
        assert backoff_schedule(policy, 7) != backoff_schedule(reseeded, 7)
        for attempt, delay in enumerate(backoff_schedule(policy, 7)):
            raw = min(
                policy.backoff_cap_s,
                policy.backoff_base_s * policy.backoff_factor**attempt,
            )
            assert raw <= delay <= raw * (1.0 + policy.jitter)

    def test_triage_kinds(self):
        crash = AttemptFailure("worker_crash", "")
        slow = AttemptFailure("timeout", "")
        assert triage([slow, slow]) == "timeout"
        assert triage([crash]) == "worker_crash"
        assert triage([crash, slow]) == "flaky"

    def test_supervised_kill_injection_retries_to_identical_report(self):
        spec = smoke_campaign()
        serial = run_campaign(spec, limit=6)
        drilled = run_campaign(
            spec,
            limit=6,
            workers=2,
            inject_worker_kill=1,
            retry=RetryPolicy(max_retries=2, backoff_base_s=0.01),
        )
        assert drilled.render() == serial.render()
        assert drilled.records[1].attempts == 2
        assert all(r.attempts == 1 for r in serial.records)


class TestJournalResume:
    def test_interrupted_campaign_resumes_byte_identically(self, tmp_path):
        spec = smoke_campaign()
        serial = run_campaign(spec, limit=8)
        journal = str(tmp_path / "campaign.jsonl")
        seen = 0

        def interrupt_after_four(record):
            nonlocal seen
            seen += 1
            if seen == 4:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(
                spec, limit=8, journal=journal, on_cell=interrupt_after_four
            )
        assert excinfo.value.journal_path == journal
        assert excinfo.value.completed >= 4
        assert excinfo.value.total == 8

        resumed = run_campaign(spec, limit=8, resume=journal)
        assert resumed.render() == serial.render()
        scan = scan_journal(journal)
        assert scan.header["cells"] == 8
        assert set(scan.cells) == set(range(8))

    def test_cell_line_is_pinned_byte_for_byte(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(smoke_campaign(), limit=2, journal=str(journal))
        header, cell_0, _ = journal.read_text(encoding="utf-8").splitlines()
        assert header == SMOKE_HEADER_2_CELLS
        assert cell_0 == SMOKE_CELL_0_LINE

    def test_pinned_journal_resumes(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        journal.write_text(
            f"{SMOKE_HEADER_2_CELLS}\n{SMOKE_CELL_0_LINE}\n", encoding="utf-8"
        )
        resumed = run_campaign(smoke_campaign(), limit=2, resume=str(journal))
        fresh = run_campaign(smoke_campaign(), limit=2)
        assert resumed.render() == fresh.render()
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [SMOKE_HEADER_2_CELLS, SMOKE_CELL_0_LINE]
        assert [json.loads(line)["index"] for line in lines[1:]] == [0, 1]

    def test_journal_pins_the_exact_campaign(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(smoke_campaign(), limit=4, journal=journal)
        with pytest.raises(ResilienceError, match="fingerprint"):
            run_campaign(smoke_campaign(), limit=6, resume=journal)

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        spec = smoke_campaign()
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(spec, limit=4, journal=journal)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "index": 9')  # crash mid-append
        assert set(scan_journal(journal).cells) == set(range(4))
        resumed = run_campaign(spec, limit=4, resume=journal)
        assert resumed.render() == run_campaign(spec, limit=4).render()

    def test_resumed_cells_are_not_reexecuted(self, tmp_path, monkeypatch):
        from repro.chaos import campaign

        spec = smoke_campaign()
        journal = str(tmp_path / "campaign.jsonl")
        run_campaign(spec, limit=4, journal=journal)
        before = scan_journal(journal).cells
        runs = []
        body = campaign._run_cell_body

        def counting_body(cell, **kwargs):
            runs.append(cell)
            return body(cell, **kwargs)

        monkeypatch.setattr(campaign, "_run_cell_body", counting_body)
        resumed = run_campaign(spec, limit=4, resume=journal)
        after = scan_journal(journal).cells
        assert after == before  # nothing re-run, nothing re-journaled
        assert runs == []
        # The counter is live: a fresh run of the same cells hits it.
        fresh = run_campaign(spec, limit=4)
        assert len(runs) == 4
        assert resumed.render() == fresh.render()


class TestIdempotentAppend:
    def _journal(self, tmp_path):
        from repro.resilience import CampaignJournal

        return CampaignJournal(tmp_path / "j.jsonl").open(
            {"campaign": "t", "fingerprint": "fp", "cells": 2}
        )

    def test_duplicate_fingerprint_is_a_noop(self, tmp_path):
        from repro.resilience import record_fingerprint

        record = {"kind": "cell", "index": 0, "outcome": "ok"}
        key = record_fingerprint({"index": 0})
        with self._journal(tmp_path) as journal:
            assert journal.append_idempotent(key, record)
            assert not journal.append_idempotent(key, record)
        assert list(scan_journal(tmp_path / "j.jsonl").cells) == [0]

    def test_append_cell_dedups_redispatches(self, tmp_path):
        with self._journal(tmp_path) as journal:
            verdict = _ok(steps=3)
            assert journal.append_cell(0, verdict, {"seed": 7})
            # Same cell again (a fabric redispatch whose first result
            # was delayed, not lost) — even with different attempt
            # accounting, the durable record must stay single-entry.
            assert not journal.append_cell(
                0, {**verdict, "attempts": 2}, {"seed": 7}
            )
            assert journal.append_cell(1, verdict, {"seed": 7})
        raw = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(raw) == 3  # header + two distinct cells

    def test_idempotence_survives_reopen(self, tmp_path):
        from repro.resilience import CampaignJournal

        with self._journal(tmp_path) as journal:
            journal.append_cell(0, _ok(), {"seed": 7})
        with CampaignJournal(tmp_path / "j.jsonl").reopen() as journal:
            assert not journal.append_cell(0, _ok(), {"seed": 7})

    def test_tail_torn_inside_multibyte_char_is_tolerated(self, tmp_path):
        # A crash can cut the final line anywhere — including between
        # the bytes of one UTF-8 code point.  That must read as a torn
        # line, never as a corrupt journal.
        path = tmp_path / "j.jsonl"
        with self._journal(tmp_path) as journal:
            journal.append_cell(0, _ok("plain"), {"seed": 7})
            journal.append_cell(1, _ok("ψ-stabilized ✓"), {"seed": 8})
        data = path.read_bytes()
        psi = "ψ".encode("utf-8")
        cut = data.rindex(psi) + 1  # one byte INTO the 2-byte ψ
        path.write_bytes(data[:cut])
        scan = scan_journal(path)
        assert set(scan.cells) == {0}  # the torn record is simply gone
        assert scan.header["fingerprint"] == "fp"

    def test_corrupt_middle_record_is_quarantined(self, tmp_path):
        # Bit rot before the tail must not take the journal down: the
        # broken record is quarantined and every healthy record around
        # it still loads.
        path = tmp_path / "j.jsonl"
        with self._journal(tmp_path) as journal:
            for index in (0, 1):
                journal.append_cell(index, _ok(), {"seed": 7 + index})
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(2, b'{"kind": "cell", "ind\xff\n')
        path.write_bytes(b"".join(lines))
        scan = scan_journal(path)
        assert scan.corrupt_records == 1
        assert not scan.torn_tail
        assert set(scan.cells) == {0, 1}

    def test_crc_mismatch_quarantines_the_record(self, tmp_path):
        # A record that still parses as JSON but fails its CRC (a
        # flipped byte inside a value) is quarantined the same way.
        path = tmp_path / "j.jsonl"
        with self._journal(tmp_path) as journal:
            for index in (0, 1):
                journal.append_cell(
                    index, _ok("healthy"), {"seed": 7 + index}
                )
        lines = path.read_bytes().splitlines(keepends=True)
        assert b'"healthy"' in lines[1]
        lines[1] = lines[1].replace(b'"healthy"', b'"haelthy"')
        path.write_bytes(b"".join(lines))
        scan = scan_journal(path)
        assert scan.corrupt_records == 1
        assert set(scan.cells) == {1}

    def test_corrupt_header_still_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with self._journal(tmp_path) as journal:
            journal.append_cell(0, _ok(), {"seed": 7})
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = lines[0][:10] + b"\xff" + lines[0][11:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(ResilienceError, match="header"):
            scan_journal(path)

    def test_version1_journal_without_crcs_still_loads(self, tmp_path):
        # Pre-checksum journals must stay readable (no crc fields, no
        # corruption detection) — only version-2 records are strict.
        import json as jsonlib

        from repro.resilience import JOURNAL_FORMAT

        path = tmp_path / "v1.jsonl"
        lines = [
            {
                "kind": "header",
                "format": JOURNAL_FORMAT,
                "version": 1,
                "campaign": "t",
                "fingerprint": "fp",
                "cells": 1,
            },
            {"kind": "cell", "index": 0, "outcome": "ok"},
        ]
        path.write_text(
            "".join(jsonlib.dumps(line) + "\n" for line in lines)
        )
        scan = scan_journal(path)
        assert scan.header["version"] == 1
        assert set(scan.cells) == {0}

    def test_crc_is_canonical_under_key_order(self):
        from repro.resilience import record_crc

        a = {"kind": "cell", "index": 3, "outcome": "ok"}
        b = {"outcome": "ok", "kind": "cell", "index": 3}
        assert record_crc(a) == record_crc(b)
        assert record_crc({**a, "crc": record_crc(a)}) == record_crc(a)
        assert record_crc(a) != record_crc({**a, "index": 4})

    def test_bit_flip_fuzz_never_mangles_a_surviving_record(
        self, tmp_path
    ):
        # Flip one bit anywhere after the header: the scan must never
        # raise, and any cell record it *does* return must be byte-for-
        # byte the original — corruption is quarantined, never
        # reinterpreted.  (CRC32 detects every single-bit error.)
        import random

        path = tmp_path / "j.jsonl"
        with self._journal(tmp_path) as journal:
            for index in range(4):
                journal.append_cell(
                    index,
                    _ok(f"ψ-cell-{index}", steps=index + 1),
                    {"seed": 7 + index},
                )
        pristine = path.read_bytes()
        originals = scan_journal(path).cells
        header_end = pristine.index(b"\n") + 1
        rng = random.Random(0xC5C)
        for _ in range(200):
            pos = rng.randrange(header_end, len(pristine))
            flipped = pristine[pos] ^ (1 << rng.randrange(8))
            path.write_bytes(
                pristine[:pos] + bytes([flipped]) + pristine[pos + 1 :]
            )
            scan = scan_journal(path)
            for index, record in scan.cells.items():
                assert record == originals[index]
            assert (
                scan.corrupt_records > 0
                or scan.torn_tail
                or scan.cells == originals
            )


def _schedules_in_child(args):
    """Computed in a spawned interpreter: must equal the parent's."""
    policy, jobs = args
    return [backoff_schedule(policy, job) for job in jobs]


class TestBackoffDeterminism:
    def test_schedule_is_pure(self):
        policy = RetryPolicy(max_retries=4, seed=11)
        assert backoff_schedule(policy, 3) == backoff_schedule(policy, 3)
        assert backoff_schedule(policy, 3) != backoff_schedule(policy, 4)

    def test_schedule_identical_across_process_boundaries(self):
        # The jitter is str-seeded (SHA-512), so the same (seed, job,
        # attempt) triple must yield bit-identical delays in a freshly
        # spawned interpreter — no inherited hash randomization, no
        # fork-shared RNG state.  Guards the pickling path: the policy
        # travels to workers by value.
        policy = RetryPolicy(max_retries=5, seed=11, jitter=0.5)
        jobs = [0, 1, 17, 999_983]
        parent = [backoff_schedule(policy, job) for job in jobs]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            (child,) = pool.map(_schedules_in_child, [(policy, jobs)])
        assert child == parent

    def test_reconnect_delay_identical_across_processes(self):
        from repro.resilience import reconnect_delay_s

        args = [(7, "w1", a) for a in range(1, 6)]
        parent = [reconnect_delay_s(*a) for a in args]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.starmap(reconnect_delay_s, args)
        assert child == parent
