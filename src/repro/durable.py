"""Durable files: append-only JSONL logs and atomic whole-file writes.

The one place the repo decides how a durable record reaches the disk
(DESIGN.md §19).  :class:`AppendLog` frames, resumes, repairs, syncs
and cuts the append-only logs — the accepted-event journal and DLQ
(:mod:`repro.serve.dlq`), the event log (:mod:`repro.obs.eventlog`)
and the audit journal (:mod:`repro.fleet.audit`), each of which only
encodes its own record body — and :func:`read_log` reads them back.
:func:`atomic_write` replaces files written whole.

Only the standard library is imported (the event log lazily, to warn
about a torn tail), so :mod:`repro.obs` can build on this module.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, TextIO

__all__ = ["AppendLog", "atomic_write", "read_log"]


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb") -> Iterator[IO[Any]]:
    """Write a file atomically: tmp + fsync + ``os.replace`` + dir fsync.

    The target keeps its old content or gets the complete new content,
    never a hybrid.  The tmp file sits next to the target (same
    filesystem, so the rename is atomic) and is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    fh = open(tmp, mode)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        fh.close()
        tmp.unlink(missing_ok=True)
        raise


class AppendLog:
    """An append-only file of one JSON document per line.

    Each :meth:`write` appends the caller's JSON text plus ``"\\n"`` and
    flushes, so a killed process leaves whole lines.  Only the bytes
    after the last newline can be torn (ENOSPC, power loss): on open, a
    torn tail that parses as JSON gets its newline back and any other
    is truncated away, with a ``durable.log.torn_tail`` warning on the
    event log.  ``appended`` then counts the whole non-blank lines —
    callers number records from it, so a restart never reuses a
    ``seq`` — and ``last_line`` is the newest one (``None`` if empty).

    The file opens lazily on the first write; ``create=True`` creates
    it at once, for a log that must exist even when empty.
    """

    def __init__(self, path: str | Path, *, create: bool = False) -> None:
        self.path = Path(path)
        self._fh: TextIO | None = None
        self.appended = 0
        self.last_line: str | None = None
        if self.path.exists():
            self._recover()
        elif create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()

    def _scan(self, keep: int | None = None) -> tuple[int, bytes, int, bytes]:
        """``(whole lines, last one, byte offset after it, torn tail)``,
        stopping after ``keep`` whole lines when given."""
        count = offset = 0
        last = b""
        if self.path.exists():
            with open(self.path, "rb") as fh:
                for line in fh:
                    if count == keep:
                        break
                    if not line.endswith(b"\n"):
                        return count, last, offset, line
                    offset += len(line)
                    if not line.isspace():
                        count += 1
                        last = line
        return count, last, offset, b""

    def _resume(self, count: int, last: bytes) -> None:
        self.appended = count
        self.last_line = last.decode("utf-8").rstrip("\n") if last else None

    def _recover(self) -> None:
        count, last, offset, tail = self._scan()
        if tail:
            try:
                json.loads(tail)
            except ValueError:
                self._truncate(offset)
                from .obs import eventlog  # lazy: repro.obs imports this module

                eventlog.emit(
                    "durable.log.torn_tail",
                    f"dropped a torn final line ({len(tail)} bytes) of {self.path}",
                    level="warn",
                    path=str(self.path),
                    dropped_bytes=len(tail),
                )
            else:
                with open(self.path, "ab") as fh:
                    fh.write(b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                count, last = count + 1, tail
        self._resume(count, last)

    def _truncate(self, offset: int) -> None:
        with open(self.path, "r+b") as fh:
            fh.truncate(offset)
            os.fsync(fh.fileno())

    def write(self, line: str) -> None:
        """Append one record (``line`` holds no newline) and flush it."""
        fh = self._fh
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self._fh = open(self.path, "a", encoding="utf-8")
        fh.write(line + "\n")
        fh.flush()
        self.appended += 1
        self.last_line = line

    def sync(self) -> None:
        """Flush + fsync: every line on disk so far survives power loss."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        elif self.path.exists():
            with open(self.path, "rb") as fh:
                os.fsync(fh.fileno())

    def cut(self, keep: int) -> None:
        """Truncate back to the first ``keep`` whole lines, in place.

        The cut is a byte offset (``truncate`` + fsync), never a rewrite;
        ``ValueError`` if the file holds fewer lines.
        """
        if keep == self.appended:
            return
        count, last, offset, _ = self._scan(keep)
        if count < keep:
            raise ValueError(f"{self.path} has {count} line(s), cannot keep {keep}")
        self._truncate(offset)
        self._resume(count, last)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_log(
    path: str | Path, what: str, error: type[Exception] = ValueError
) -> Iterator[tuple[int, Any]]:
    """Yield ``(line number, parsed JSON)`` for every record of a log.

    Blank lines are skipped and a torn final line that does not parse
    is ignored; the file is never written.  A missing file raises
    ``error``, and so does any other line that does not parse (the
    message names the line).
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{what} {path} does not exist")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                if not line.endswith("\n"):
                    return
                raise error(
                    f"{what} {path} line {lineno} is not valid JSON ({exc})"
                ) from None
            yield lineno, record
