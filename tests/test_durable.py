"""Append-only logs (repro.durable): torn-tail repair, resume, cut, reader.

The torn-tail drill is the crash model the four JSONL logs share: only
the bytes after the last newline can be torn (ENOSPC, power loss), so
for every byte offset of the last record the file is cut there,
reopened, appended to and read back.  The result must be the
whole-record prefix plus the new record, with contiguous ``seq`` (and,
for the audit journal, a chain that still verifies).  A journal torn
mid-record used to resume at seq 3 and glue the next record onto the
fragment, which made the whole file unreadable.
"""

from __future__ import annotations

import pytest

from repro.durable import AppendLog, read_log
from repro.fleet import AuditEntry, AuditJournal, read_journal, verify_journal
from repro.obs import eventlog
from repro.obs.eventlog import EventLog, load_events
from repro.serve import DeadLetterQueue, EventJournal

from .serve.test_guard import make_event

N = 3


def _audit_entry(i: int) -> AuditEntry:
    return AuditEntry(
        seq=i, ts=float(i), day=i, kind="action", action="watch",
        drive_id=i, prev_status="active", new_status="watched",
        risk=0.5, reason="drill", cost=0.5,
    )


def _append_journal(path, i):
    with EventJournal(path) as log:
        log.record(make_event(i, i))


def _append_dlq(path, i):
    with DeadLetterQueue(path) as log:
        log.divert("late", "drill", event=make_event(i, i), drive_id=i, age_days=i)


def _append_eventlog(path, i):
    with EventLog(path) as log:
        log.emit("drill.event", f"event {i}", level="info", n=i)


def _append_audit(path, i):
    with AuditJournal(path) as log:
        log.append(_audit_entry(i))


LOGS = {
    "journal": (
        _append_journal,
        lambda p: [body["seq"] for body in EventJournal.read(p)],
    ),
    "dlq": (_append_dlq, lambda p: [e.seq for e in DeadLetterQueue.read(p)]),
    "eventlog": (_append_eventlog, lambda p: [r["seq"] for r in load_events(p)]),
    "audit": (_append_audit, lambda p: [e.seq for e in read_journal(p)]),
}


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_torn_tail_at_every_offset_of_last_record(tmp_path, kind):
    append, read_seqs = LOGS[kind]
    ref = tmp_path / "ref.jsonl"
    for i in range(N):
        append(ref, i)
    data = ref.read_bytes()
    start = data.rindex(b"\n", 0, len(data) - 1) + 1  # last record's offset
    for k in range(start, len(data) + 1):
        path = tmp_path / f"cut-{k}.jsonl"
        path.write_bytes(data[:k])
        # Only the bare newline may be missing for the record to count.
        whole = N if k >= len(data) - 1 else N - 1
        torn = start < k < len(data) - 1
        assert read_seqs(path) == list(range(whole)), k
        assert path.read_bytes() == data[:k]  # readers never repair

        warn_path = tmp_path / f"warn-{k}.jsonl"
        with EventLog(warn_path) as sink, eventlog.activate(sink):
            append(path, whole)
        assert read_seqs(path) == list(range(whole + 1)), k
        assert path.read_bytes().startswith(data[: data.rindex(b"\n", 0, k) + 1])
        warnings = load_events(warn_path, kind_prefix="durable.log.torn_tail")
        if torn:
            assert len(warnings) == 1, k
            assert warnings[0]["level"] == "warn"
            assert warnings[0]["path"] == str(path)
            assert warnings[0]["dropped_bytes"] == k - start
        else:
            assert warnings == [], k
        if kind == "audit":
            report = verify_journal(path)
            assert report.ok, (k, report.problems)
            assert report.n_entries == whole + 1


class TestAppendLog:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n\n')
        assert AppendLog(path).appended == 2
        assert [rec for _, rec in read_log(path, "log")] == [{"a": 1}, {"a": 2}]

    def test_cut_by_byte_offset_keeps_blank_lines_before_cut(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n{"a": 3}\n')
        log = AppendLog(path)
        log.cut(2)
        assert path.read_text() == '{"a": 1}\n\n{"a": 2}\n'
        assert (log.appended, log.last_line) == (2, '{"a": 2}')
        log.write('{"a": 4}')
        log.close()
        assert [rec["a"] for _, rec in read_log(path, "log")] == [1, 2, 4]

    def test_sync_with_and_without_open_handle(self, tmp_path):
        log = AppendLog(tmp_path / "log.jsonl")
        log.sync()  # no file yet: nothing to do
        log.write("{}")
        log.sync()
        log.close()
        AppendLog(log.path).sync()  # unopened existing file
        assert log.path.read_text() == "{}\n"
