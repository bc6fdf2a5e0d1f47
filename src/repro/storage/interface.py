"""The one transactional shell both storage engines run on.

The Ode object manager needs only a small contract from its storage manager:
transactional reads and writes of uninterpreted byte records addressed by
record identifiers, plus locking and recovery.  Record identifiers (*rids*)
are opaque non-negative integers; the disk engine packs a page number and a
slot number into one, the main-memory engine hands out a counter.

A distinguished *root* slot stores the rid of the object manager's catalog
so a reopened database can find its metadata (EOS similarly exposes a root
entry point).

Everything transactional lives here, once: the lock manager, the engine
mutex, per-transaction undo lists, WAL append/force and the commit
protocol with its failpoints, degrade-to-read-only, the root pointer,
redo/undo, recovery at open, and the checkpoint/close/crash sequences.
What differs between EOS-like Ode and Dali-like MM-Ode is only *where a
record's bytes live* — a :class:`Records` layer (slotted pages in
:mod:`repro.storage.disk`, a dict plus a snapshot file in
:mod:`repro.storage.mainmem`).  That is the paper's §5.6 claim that the
two systems share one run-time system, taken down to the storage layer.
"""

from __future__ import annotations

import dataclasses
import struct
import threading
from collections.abc import Callable, Iterator
from typing import Protocol

from repro.errors import (
    ReadOnlyStorageError,
    RecordNotFoundError,
    StorageError,
    UnrecoverableMediaError,
)
from repro.faults.injector import FaultInjector
from repro.obs.metrics import Stats
from repro.storage.locks import LockManager, LockMode
from repro.storage.recovery import RecoveryStats, recover
from repro.storage.wal import LogRecord, LogRecordKind, WriteAheadLog

_ROOT_RESOURCE = "ROOT"
_ROOT = struct.Struct("<q")  # SET_ROOT before/after images
_S = LockMode.S


@dataclasses.dataclass
class StorageStats(Stats):
    """Counters exposed by every engine for the benchmark harness."""

    reads: int = 0
    #: every write() and write_merged(), unchanged ones included
    writes: int = 0
    #: writes whose bytes equalled the stored record: nothing logged or put
    unchanged_writes: int = 0
    inserts: int = 0
    deletes: int = 0
    commits: int = 0
    aborts: int = 0
    log_records: int = 0
    log_forces: int = 0
    #: forces whose bytes were already durable (no fsync issued)
    group_piggybacks: int = 0
    page_hits: int = 0
    page_misses: int = 0
    page_evictions: int = 0
    io_retries: int = 0


class Records(Protocol):
    """Where record bytes live: the shell's only engine-specific seam.

    Untransactional and unlocked — the shell calls every method under its
    engine mutex and has already logged whatever it applies.
    """

    def load(self) -> int:
        """Open the checkpointed state; return its root rid."""

    def save(self, root: int) -> None:
        """Checkpoint: make the whole current state (and *root*) durable."""

    def get(self, rid: int) -> bytes:
        """The record at *rid*; raises ``RecordNotFoundError``."""

    def has(self, rid: int) -> bool:
        """Whether a record currently exists at *rid*."""

    def new(self, data: bytes) -> int:
        """Store *data* at a fresh rid and return it."""

    def put(self, rid: int, data: bytes) -> None:
        """Make *rid* hold *data*, re-creating it at that rid if absent."""

    def remove(self, rid: int) -> None:
        """Make *rid* absent (a no-op if it already is)."""

    def rids(self) -> Iterator[int]:
        """Every live record's rid, ascending."""

    def degrade(self) -> None:
        """The medium failed: never write to it again."""

    def close(self) -> None:
        """Release OS resources without flushing; volatile state is gone."""


class StorageManager:
    """Transactional record store over a :class:`Records` layer.

    All data operations take the *txid* of an open transaction; the shell
    acquires the appropriate locks (shared for reads, exclusive for
    mutations) through its :class:`~repro.storage.locks.LockManager` and
    logs mutations so that :meth:`abort_transaction` and crash recovery can
    undo them.

    Crash model: :meth:`simulate_crash` drops every volatile byte *and the
    unforced WAL tail* (``WriteAheadLog.crash``), so only fsynced state
    survives and a missing force shows up as a lost commit.  Media model:
    an :class:`~repro.errors.UnrecoverableMediaError` on any write path
    degrades the store to read-only — committed state stays readable,
    every later mutation raises :class:`~repro.errors.ReadOnlyStorageError`,
    and close drops the unforced log tail so no half-acknowledged commit
    surfaces after restart (DESIGN §13).
    """

    NO_ROOT = -1

    #: Callback invoked exactly once, at the active → read-only
    #: transition (the database wires metrics/obs through it; see
    #: DESIGN §13 on the degradation state machine).
    degrade_listener = None

    def __init__(
        self,
        path: str | None,
        log_path: str | None,
        injector: FaultInjector,
        open_records: Callable[[WriteAheadLog | None, StorageStats], Records],
    ) -> None:
        self.stats = StorageStats()
        self.path = path
        #: The fault injector threaded through the engine's I/O paths.
        self.injector = injector
        self.degraded = False
        self._locks = LockManager()
        # Engine-wide mutex for threaded sessions: guards the record
        # layer, per-txn undo lists, and the root.  Record locks are
        # always taken *outside* it — a blocking lock wait must never
        # hold the engine mutex.
        self._mutex = threading.RLock()
        self._active: dict[int, list[LogRecord]] = {}
        self._closed = False
        self.last_recovery: RecoveryStats | None = None
        #: ``None`` for a volatile store: nothing is logged or forced.
        self._wal = (
            None
            if log_path is None
            else WriteAheadLog(log_path, stats=self.stats, injector=injector)
        )
        self._records = None
        try:
            self._records = open_records(self._wal, self.stats)
            self._root = self._records.load()
            if self._wal is not None:
                self.last_recovery = recover(
                    self._wal.replay(), self._redo, self._undo
                )
                self.checkpoint()
        except BaseException:
            # Construction failed (corrupt log, injected crash, ...): do
            # not leak the file descriptors — the crash harness reopens
            # the same path hundreds of times in one process.
            if self._records is not None:
                self._records.close()
            if self._wal is not None:
                self._wal.crash()
            raise

    # -- redo / undo (recovery and abort) -----------------------------------

    def _redo(self, record: LogRecord) -> None:
        """Re-apply a mutation's after-image (idempotent: set-to-value)."""
        if record.kind is LogRecordKind.SET_ROOT:
            (self._root,) = _ROOT.unpack(record.after)
        elif record.kind is LogRecordKind.DELETE:
            self._records.remove(record.rid)
        else:  # INSERT, UPDATE
            self._records.put(record.rid, record.after)

    def _undo(self, record: LogRecord) -> None:
        """Restore a mutation's before-image: redo of its compensation."""
        self._redo(record.inverse())

    # -- media degrade --------------------------------------------------------

    def _degrade(self) -> None:
        """The medium failed permanently: stop writing, keep reading."""
        if self.degraded:
            return
        self.degraded = True
        self._records.degrade()
        listener = self.degrade_listener
        if listener is not None:
            listener()

    def _media_failed(self, what: str) -> ReadOnlyStorageError:
        """Degrade after a permanent media error; return the error to raise."""
        self._degrade()
        return ReadOnlyStorageError(
            f"{self.path}: {what} failed permanently; "
            "database degraded to read-only"
        )

    def _check_mutable(self, txid: int) -> None:
        self._check_open()
        if self.degraded:
            raise ReadOnlyStorageError(
                f"{self.path}: degraded to read-only after a media error"
            )
        self._require_active(txid)

    def _log(self, txid, kind, rid=-1, before=b"", after=b"") -> LogRecord:
        """WAL append that degrades the engine on permanent media failure."""
        if self._wal is None:
            return LogRecord(0, txid, kind, rid, bytes(before), bytes(after))
        try:
            return self._wal.append(txid, kind, rid, before, after)
        except UnrecoverableMediaError as exc:
            raise self._media_failed("log append") from exc

    def _logged(self, txid, kind, rid, before, after) -> None:
        """Log one mutation and keep it for abort (mutex held)."""
        self._active[txid].append(self._log(txid, kind, rid, before, after))

    # -- transaction control --------------------------------------------------

    def begin_transaction(self, txid: int) -> None:
        """Register *txid* as an open transaction.

        Nothing is logged: a transaction enters the log with its first
        mutation, which is all recovery needs to call it a loser.
        """
        if self._closed:
            self._check_open()
        with self._mutex:
            if txid in self._active:
                raise StorageError(f"transaction {txid} already active")
            self._active[txid] = []

    def commit_transaction(self, txid: int) -> None:
        """Commit *txid* and release its locks.

        A transaction that logged mutations appends a COMMIT record and
        forces the log before its locks go.  One that changed nothing
        (empty undo list) logs nothing and forces nothing: everything it
        read was already durable, because writers release their locks —
        and MVCC publishes its heads — only after their own force.  A
        write of the bytes a record already holds logs nothing either
        (:meth:`write`), so a transaction whose writes all left their
        records as they were — an MVCC merge of a perpetual trigger group
        that ends where it began — commits this way too.
        """
        if self._closed:
            self._check_open()
        with self._mutex:
            records = self._active.get(txid)
            if records is None:
                self._require_active(txid)
            if self.degraded and records:
                raise ReadOnlyStorageError(
                    f"cannot commit transaction {txid}: "
                    "database degraded to read-only with logged mutations"
                )
            durable = self._wal is not None and bool(records)
            if durable:
                self.injector.fire("txn.commit.begin", txid=txid)
                self._log(txid, LogRecordKind.COMMIT)
            else:
                del self._active[txid]
                self.stats.commits += 1
        if durable:
            # The durability fsync runs OUTSIDE the engine mutex: WAL
            # durability is prefix-based, so overlapping appends are safe
            # and an fsync covering later records covers this COMMIT too.
            # The txid stays in ``_active`` until durable so an
            # abort-after-failure can still undo it.
            try:
                self._wal.force()
            except UnrecoverableMediaError as exc:
                raise self._media_failed(f"commit of transaction {txid}") from exc
            self.injector.fire("txn.commit.durable", txid=txid)
            with self._mutex:
                del self._active[txid]
                self.stats.commits += 1
        # Outside the mutex: releasing grants queued requests FIFO and
        # wakes the blocked sessions that now hold their locks.
        self._locks.release_all(txid)

    def abort_transaction(self, txid: int) -> None:
        """Undo every effect of *txid* and release its locks.

        Each undone mutation logs its compensation, then an ABORT record
        closes the transaction; one with nothing to undo logs nothing.
        """
        self._check_open()
        with self._mutex:
            records = self._require_active(txid)
            for record in reversed(records):
                compensation = record.inverse()
                if not self.degraded:
                    try:
                        self._log(
                            txid,
                            compensation.kind,
                            compensation.rid,
                            compensation.before,
                            compensation.after,
                        )
                    except ReadOnlyStorageError:
                        # Keep undoing in memory; recovery replays the
                        # loser from the (fsynced prefix of the) log.
                        pass
                self._redo(compensation)
            if records and not self.degraded:
                try:
                    self._log(txid, LogRecordKind.ABORT)
                except ReadOnlyStorageError:
                    pass
            del self._active[txid]
            self.stats.aborts += 1
        self._locks.release_all(txid)

    def _require_active(self, txid: int) -> list[LogRecord]:
        try:
            return self._active[txid]
        except KeyError:
            raise StorageError(f"transaction {txid} is not active") from None

    def active_transactions(self) -> frozenset[int]:
        """Return the set of currently open transaction ids."""
        return frozenset(self._active)

    # -- data operations ------------------------------------------------------

    def insert(self, txid: int, data: bytes) -> int:
        """Store a new record, returning its rid."""
        self._check_mutable(txid)
        data = bytes(data)
        with self._mutex:
            rid = self._records.new(data)
        # A fresh rid is invisible to other transactions: the X lock is
        # granted immediately, it just records the holding for 2PL.
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            try:
                self._logged(txid, LogRecordKind.INSERT, rid, b"", data)
            except ReadOnlyStorageError:
                self._records.remove(rid)  # un-place the unlogged record
                raise
            self.stats.inserts += 1
        return rid

    def read(self, txid: int, rid: int) -> bytes:
        """Return the record at *rid*; raises ``RecordNotFoundError``.

        The read half of every dereference: the open and active checks
        are one inline test each, raising through the check that owns
        the error."""
        if self._closed:
            self._check_open()
        if txid not in self._active:
            self._require_active(txid)
        self._locks.lock(txid, rid, _S)
        with self._mutex:
            self.stats.reads += 1
            return self._records.get(rid)

    def write(self, txid: int, rid: int, data: bytes) -> None:
        """Replace the record at *rid* with *data*.

        The X lock is taken whatever the bytes.  A write of the bytes the
        record already holds then changes nothing: no UPDATE is logged, no
        undo entry kept and nothing is put (counted in
        ``unchanged_writes``, and in ``writes`` like any other)."""
        self._check_mutable(txid)
        self._locks.lock(txid, rid, LockMode.X)
        self._update(txid, rid, bytes(data))

    def lock_for_write(self, txid: int, rid: int) -> None:
        """What :meth:`write` does before it changes anything: refuse on
        a read-only store, then X-lock *rid*.  A caller that defers its
        write to commit (a 2PL trigger group) takes the lock here, when it
        changes the record, so lock waits and deadlocks stay where a write
        would put them."""
        self._check_mutable(txid)
        self._locks.lock(txid, rid, LockMode.X)

    def write_merged(self, txid: int, rid: int, data: bytes) -> None:
        """Replace the record at *rid* **without acquiring its lock**.

        The MVCC commit-time merge path (DESIGN.md §15): the caller — the
        :class:`~repro.core.versioned.TriggerVersionManager` — serializes
        merges under its own commit mutex, so the record lock would add
        nothing but the E6 read→write amplification this scheme removes.
        The mutation is WAL-logged exactly like :meth:`write` (``UPDATE``
        with a before-image, nothing when the merged bytes equal the
        stored ones), so abort and crash recovery are unchanged.  Never
        use this outside commit-time merging.
        """
        self._check_mutable(txid)
        self._update(txid, rid, bytes(data))

    def _update(self, txid: int, rid: int, data: bytes) -> None:
        with self._mutex:
            before = self._records.get(rid)
            if before == data:
                # The record already holds the write: abort, redo and
                # undo would have nothing to do for it.
                self.stats.unchanged_writes += 1
            else:
                self._logged(txid, LogRecordKind.UPDATE, rid, before, data)
                self._records.put(rid, data)
            self.stats.writes += 1

    def peek(self, rid: int) -> bytes:
        """Return *rid*'s current bytes without locking or a transaction.

        Used to load MVCC version chains lazily: sound only for records
        whose every mutation is serialized elsewhere (trigger states under
        ``trigger_cc="mvcc"`` — their rids become visible to other
        transactions only after the activating transaction committed).
        Raises ``RecordNotFoundError``.
        """
        self._check_open()
        with self._mutex:
            return self._records.get(rid)

    def delete(self, txid: int, rid: int) -> None:
        """Remove the record at *rid*."""
        self._check_mutable(txid)
        self._locks.lock(txid, rid, LockMode.X)
        with self._mutex:
            before = self._records.get(rid)
            self._logged(txid, LogRecordKind.DELETE, rid, before, b"")
            self._records.remove(rid)
            self.stats.deletes += 1

    def exists(self, txid: int, rid: int) -> bool:
        """Return whether a record currently exists at *rid*."""
        self._check_open()
        self._require_active(txid)
        with self._mutex:
            return self._records.has(rid)

    def scan(self, txid: int) -> Iterator[tuple[int, bytes]]:
        """Yield every ``(rid, data)`` pair (shared-locking each record)."""
        self._check_open()
        self._require_active(txid)
        return self._scan(txid)

    def peek_scan(self) -> Iterator[tuple[int, bytes]]:
        """Yield every ``(rid, data)`` pair as :meth:`peek` sees it: no
        locks, no transaction.  Sound only for what the caller has
        serialized some other way."""
        self._check_open()
        return self._scan(None)

    def _scan(self, txid: int | None) -> Iterator[tuple[int, bytes]]:
        with self._mutex:
            rids = list(self._records.rids())
        for rid in rids:
            if txid is not None:
                self._locks.lock(txid, rid, LockMode.S)
            with self._mutex:
                try:
                    data = self._records.get(rid)
                except RecordNotFoundError:
                    continue  # deleted since the listing
            yield rid, data

    # -- root pointer ---------------------------------------------------------

    def get_root(self) -> int:
        """Return the catalog rid stored in the root slot (NO_ROOT if unset)."""
        self._check_open()
        return self._root

    def set_root(self, txid: int, rid: int) -> None:
        """Store *rid* in the root slot (transactionally)."""
        self._check_mutable(txid)
        self._locks.lock(txid, _ROOT_RESOURCE, LockMode.X)
        with self._mutex:
            self._logged(
                txid,
                LogRecordKind.SET_ROOT,
                -1,
                _ROOT.pack(self._root),
                _ROOT.pack(rid),
            )
            self._root = rid

    # -- lifecycle ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Make the committed state durable compactly and truncate the log."""
        self._check_open()
        if self.degraded:
            return  # nothing new can be made durable on a failed medium
        if self._active:
            raise StorageError("cannot checkpoint with active transactions")
        if self._wal is None:
            return
        try:
            self.injector.fire("checkpoint.begin")
            with self._mutex:
                self._records.save(self._root)
                self.injector.fire("checkpoint.before_truncate")
                self._wal.truncate()
            self.injector.fire("checkpoint.end")
        except UnrecoverableMediaError as exc:
            raise self._media_failed("checkpoint") from exc

    def close(self) -> None:
        """Flush committed state and release OS resources."""
        if self._closed:
            return
        for txid in list(self._active):
            self.abort_transaction(txid)
        if not self.degraded:
            try:
                self.checkpoint()
            except ReadOnlyStorageError:
                pass  # fall through to the degraded shutdown below
        if self._wal is not None:
            if self.degraded:
                # The app may have been told a commit *failed* while its
                # COMMIT record sits unforced in the log: dropping the
                # unforced tail keeps the refusal honest across restarts.
                self._wal.crash()
            else:
                self._wal.close()
        self._records.close()
        self._closed = True

    def simulate_crash(self) -> None:
        """Die abruptly: volatile state is lost, only fsynced state survives.

        Cached pages / in-memory records vanish with the process and the
        *unforced* WAL tail is dropped (a real crash loses whatever the OS
        page cache held) — so a missing ``force()`` in the engine shows up
        as lost commits in tests instead of being papered over.
        """
        if self._closed:
            return
        if self._wal is not None:
            self._wal.crash()
        self._records.close()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("storage manager is closed")

    @property
    def lock_manager(self) -> LockManager:
        """The engine's :class:`~repro.storage.locks.LockManager`."""
        return self._locks
