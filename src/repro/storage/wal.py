"""Write-ahead log with record-level value logging.

Each mutation appends a :class:`LogRecord` carrying before/after images of
the affected record, which makes redo and undo idempotent at the record
level (see :mod:`repro.storage.recovery`).  The commit of a transaction
that logged a mutation appends a COMMIT record and forces the log; a
transaction that changed nothing never touches the log.  Data pages are
written lazily (STEAL/NO-FORCE).

On-disk format per record::

    <u32 payload_len> <u32 crc32(payload)> <payload>

where payload is ``<u64 lsn> <u64 txid> <u8 kind> <i64 rid>
<u32 before_len> before <u32 after_len> after``.  A torn *tail* (partial
last record or CRC mismatch with nothing valid after it) is treated as the
end of the log, as a real WAL would after a crash mid-write.  *Interior*
corruption — a bad frame with valid frames still decodable after it —
means committed history was damaged; :meth:`WriteAheadLog.replay` raises
:class:`~repro.errors.WALError` carrying salvage info rather than silently
dropping committed transactions.

The log tracks its last-fsynced offset so :meth:`WriteAheadLog.crash` can
simulate a real process death: everything after the last force is dropped,
exactly what the page cache would lose at power-off.

**One force path.**  :meth:`WriteAheadLog.force` is the only fsync: commits,
checkpoints and the buffer pool's write-ahead staging all call it.  It
reads its goal (the bytes appended so far) under the mutex, returns at
once when an earlier fsync already covered that goal, and otherwise
fsyncs *outside* the mutex, so appenders never queue behind the device.
Durability is prefix-based, so a COMMIT covered by someone else's fsync
is exactly as durable as one covered by its own.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import struct
import threading
import zlib
from collections.abc import Iterator

from repro import obs
from repro.errors import WALError
from repro.faults.injector import NULL_INJECTOR, FaultInjector, with_retry

_FRAME = struct.Struct("<II")  # payload_len, crc
_PAYLOAD_HEAD = struct.Struct("<QQBq")  # lsn, txid, kind, rid
_LEN = struct.Struct("<I")

#: Upper bound on a sane payload length, used when re-synchronizing after
#: a corrupt frame — anything larger is noise, not a frame header.
_MAX_SANE_PAYLOAD = 1 << 24


class LogRecordKind(enum.IntEnum):
    """The kinds of log record the engines emit."""

    #: No longer appended; still decoded so older logs replay.
    BEGIN = 1
    INSERT = 2
    UPDATE = 3
    DELETE = 4
    COMMIT = 5
    ABORT = 6
    SET_ROOT = 8


@dataclasses.dataclass(frozen=True)
class LogRecord:
    """One entry in the write-ahead log."""

    lsn: int
    txid: int
    kind: LogRecordKind
    rid: int = -1
    before: bytes = b""
    after: bytes = b""

    def encode(self) -> bytes:
        payload = (
            _PAYLOAD_HEAD.pack(self.lsn, self.txid, int(self.kind), self.rid)
            + _LEN.pack(len(self.before))
            + self.before
            + _LEN.pack(len(self.after))
            + self.after
        )
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload

    def inverse(self) -> "LogRecord":
        """The compensation record that undoes this mutation.

        Logged (and applied) by the engines' abort paths so that crash
        recovery can replay aborted transactions with plain redo.
        """
        kind_map = {
            LogRecordKind.INSERT: LogRecordKind.DELETE,
            LogRecordKind.DELETE: LogRecordKind.INSERT,
            LogRecordKind.UPDATE: LogRecordKind.UPDATE,
            LogRecordKind.SET_ROOT: LogRecordKind.SET_ROOT,
        }
        if self.kind not in kind_map:
            raise WALError(f"{self.kind.name} records have no inverse")
        return LogRecord(
            0, self.txid, kind_map[self.kind], self.rid, self.after, self.before
        )

    @classmethod
    def decode(cls, payload: bytes) -> "LogRecord":
        lsn, txid, kind, rid = _PAYLOAD_HEAD.unpack_from(payload, 0)
        pos = _PAYLOAD_HEAD.size
        (blen,) = _LEN.unpack_from(payload, pos)
        pos += _LEN.size
        before = payload[pos : pos + blen]
        pos += blen
        (alen,) = _LEN.unpack_from(payload, pos)
        pos += _LEN.size
        after = payload[pos : pos + alen]
        return cls(lsn, txid, LogRecordKind(kind), rid, bytes(before), bytes(after))


class WalStatsView:
    """Metrics adapter exposing the log's counters under a ``wal.*`` prefix.

    The counters themselves live on the engine's ``StorageStats`` (the WAL
    increments them there); this view re-exports the log-related subset so
    dashboards can read ``wal.group_piggybacks`` next to ``wal.log_forces``
    without knowing the storage layout.  ``reset`` is a no-op — the storage
    source owns the fields and resets them.
    """

    def __init__(self, stats) -> None:
        self._stats = stats

    def snapshot(self) -> dict[str, int]:
        stats = self._stats
        return {
            "log_records": stats.log_records,
            "log_forces": stats.log_forces,
            "group_piggybacks": stats.group_piggybacks,
        }

    def reset(self) -> None:
        pass


class WriteAheadLog:
    """Append-only log file with CRC framing and explicit force points."""

    def __init__(
        self, path: str, stats=None, injector: FaultInjector = NULL_INJECTOR
    ):
        self.path = str(path)
        self.injector = injector
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._stats = stats
        # Whatever is on disk at open survived (or was already forced);
        # appends grow _size, forces advance _synced_size to match.
        self._size = os.fstat(self._fd).st_size
        self._synced_size = self._size
        self._closed = False
        # Serializes append/force/truncate: concurrent sessions share one
        # log (the engine mutex already covers the common paths; this keeps
        # the WAL safe even when driven directly, e.g. by tests).
        self._mutex = threading.RLock()
        # Bumped by truncate(): a force whose fsync straddled a truncate
        # must not raise _synced_size to a goal in the discarded log.
        self._truncations = 0
        try:
            self._next_lsn = self._scan_next_lsn()
        except WALError:
            os.close(self._fd)
            self._closed = True
            raise

    def _scan_next_lsn(self) -> int:
        last = 0
        for record in self.replay():
            last = record.lsn
        return last + 1

    def _count_retry(self) -> None:
        if self._stats is not None:
            self._stats.io_retries += 1

    # -- appending -------------------------------------------------------------

    def append(
        self,
        txid: int,
        kind: LogRecordKind,
        rid: int = -1,
        before: bytes = b"",
        after: bytes = b"",
    ) -> LogRecord:
        """Append a record, returning it (with its assigned LSN)."""
        if self._closed:
            raise WALError("log is closed")
        with self._mutex:
            record = LogRecord(
                self._next_lsn, txid, kind, rid, bytes(before), bytes(after)
            )
            self._next_lsn += 1
            frame = record.encode()

            def op():
                data, crash_after = self.injector.fire_write(
                    "wal.append", frame, lsn=record.lsn, kind=kind.name
                )
                os.write(self._fd, data)
                self._size += len(data)
                if crash_after:
                    # A torn append the power cut made durable: fsync the
                    # partial frame so the simulated crash keeps it and
                    # recovery has a real torn tail to truncate.
                    os.fsync(self._fd)
                    self._synced_size = self._size
                    self.injector.crash_pending("wal.append")

            with_retry(op, on_retry=self._count_retry)
        if self._stats is not None:
            self._stats.log_records += 1
        if obs.ENABLED:
            obs.emit(
                "wal.append",
                lsn=record.lsn,
                txid=txid,
                record=kind.name,
                rid=rid,
                bytes=len(frame),
            )
        return record

    def force(self) -> None:
        """Make every byte appended so far durable (the only fsync path).

        The goal is read under the mutex.  If an earlier fsync already
        covered it, nothing is issued (counted in ``group_piggybacks``).
        Otherwise the fsync runs outside the mutex, between the
        ``wal.force`` and ``wal.force.after`` failpoints, and
        ``_synced_size`` then rises to the goal — only to a goal read
        before a completed fsync, and never across a :meth:`truncate`.
        """
        with self._mutex:
            goal = self._size
            truncations = self._truncations
            if self._synced_size >= goal:
                if self._stats is not None:
                    self._stats.group_piggybacks += 1
                return

        def op():
            self.injector.fire("wal.force")  # crash here: the goal is not durable
            os.fsync(self._fd)

        with_retry(op, on_retry=self._count_retry)
        with self._mutex:
            if truncations == self._truncations and goal > self._synced_size:
                self._synced_size = goal
        self.injector.fire("wal.force.after")  # crash here: the goal is durable
        if self._stats is not None:
            self._stats.log_forces += 1
        if obs.ENABLED:
            obs.emit("wal.force", synced_bytes=goal)

    #: An alias, not a second body: ``perf/micro.py`` and ``perf/trace.py``
    #: name it.
    force_now = force

    # -- reading -----------------------------------------------------------------

    def replay(self) -> Iterator[LogRecord]:
        """Yield every complete record from the start of the log.

        Stops silently at a torn or corrupt *tail* — exactly the state a
        crash mid-append leaves behind.  If valid frames are still
        decodable *after* the bad one, the damage is interior (committed
        history was corrupted, not torn off): raises
        :class:`~repro.errors.WALError` whose ``salvage`` attribute maps
        out what survives on either side of the damage.
        """
        with open(self.path, "rb") as fh:
            buf = fh.read()
        offset = 0
        yielded = 0
        while True:
            if len(buf) - offset < _FRAME.size:
                return
            payload_len, crc = _FRAME.unpack_from(buf, offset)
            payload = buf[offset + _FRAME.size : offset + _FRAME.size + payload_len]
            if len(payload) < payload_len or zlib.crc32(payload) != crc:
                self._check_interior_corruption(buf, offset, yielded)
                return
            yield LogRecord.decode(payload)
            yielded += 1
            offset += _FRAME.size + payload_len

    @staticmethod
    def _check_interior_corruption(
        buf: bytes, bad_offset: int, records_before: int
    ) -> None:
        """Raise if any valid frame exists after the bad one at *bad_offset*."""
        resync = None
        for pos in range(bad_offset + 1, len(buf) - _FRAME.size + 1):
            payload_len, crc = _FRAME.unpack_from(buf, pos)
            if not 0 < payload_len <= _MAX_SANE_PAYLOAD:
                continue
            payload = buf[pos + _FRAME.size : pos + _FRAME.size + payload_len]
            if len(payload) == payload_len and zlib.crc32(payload) == crc:
                resync = pos
                break
        if resync is None:
            return  # nothing valid follows: an ordinary torn tail
        # Count what survives from the re-sync point.
        records_after = 0
        pos = resync
        while len(buf) - pos >= _FRAME.size:
            payload_len, crc = _FRAME.unpack_from(buf, pos)
            payload = buf[pos + _FRAME.size : pos + _FRAME.size + payload_len]
            if len(payload) < payload_len or zlib.crc32(payload) != crc:
                break
            records_after += 1
            pos += _FRAME.size + payload_len
        error = WALError(
            f"interior log corruption at byte {bad_offset}: "
            f"{records_before} record(s) decode before the damage and "
            f"{records_after} more from byte {resync} — refusing to "
            "silently drop committed history; salvage the tail manually"
        )
        error.salvage = {
            "records_before": records_before,
            "corrupt_offset": bad_offset,
            "resync_offset": resync,
            "records_after": records_after,
        }
        raise error

    # -- truncation (post-checkpoint) ----------------------------------------------

    def truncate(self) -> None:
        """Discard the log contents (called after a checkpoint)."""
        self.injector.fire("wal.truncate")

        def op():
            os.ftruncate(self._fd, 0)
            os.fsync(self._fd)

        with self._mutex:
            with_retry(op, on_retry=self._count_retry)
            self._size = 0
            self._synced_size = 0
            self._next_lsn = 1
            self._truncations += 1

    def size_bytes(self) -> int:
        return os.fstat(self._fd).st_size

    def synced_bytes(self) -> int:
        """Bytes of log guaranteed durable (fsynced)."""
        return self._synced_size

    def crash(self) -> None:
        """Die like a real process: drop everything after the last fsync.

        No failpoints fire and no final fsync happens — the unforced log
        tail is truncated away, exactly what the OS page cache loses at
        power-off.  (``ftruncate`` here *simulates* the loss; a real crash
        needs no syscall to lose unforced data.)
        """
        if not self._closed:
            os.ftruncate(self._fd, self._synced_size)
            os.close(self._fd)
            self._closed = True

    def close(self) -> None:
        if not self._closed:
            os.fsync(self._fd)
            self._synced_size = self._size
            os.close(self._fd)
            self._closed = True
