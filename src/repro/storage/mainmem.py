"""The Dali-like main-memory storage manager (MM-Ode's substrate).

Records live in a plain dictionary; transactions keep in-memory undo lists.
Durability (whenever a path is given) follows Dali's
checkpoint + redo-log design: mutations are appended to an operation log,
and :meth:`checkpoint` writes a snapshot of the committed store and
truncates the log.  Reopening loads the snapshot and replays the log.
Everything but the dictionary and the snapshot file is the transactional
shell in :mod:`repro.storage.interface` — the same code the disk engine
runs, mirroring how MM-Ode "shares a great deal of run-time system code"
with disk Ode (paper Section 5.6).

Without a path the engine is purely volatile (no files touched), which
is the configuration the performance experiments use to isolate
main-memory costs.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterator

from repro.errors import RecordNotFoundError, StorageError
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.storage.interface import StorageManager

_SNAP_HEAD = struct.Struct("<8sqqq")  # magic, next_rid, root, count
_SNAP_REC = struct.Struct("<qI")  # rid, length
_MAGIC = b"ODEREPMM"


class MainMemoryStorageManager(StorageManager):
    """Transactional in-memory record store with optional durability."""

    def __init__(self, path: str | None = None, injector: FaultInjector = NULL_INJECTOR):
        path = str(path) if path is not None else None
        super().__init__(
            path,
            path + ".oplog" if path is not None else None,
            injector,
            lambda wal, stats: HeapRecords(path, injector),
        )

    # perf/trace.py wraps these by ``vars(cls)[name]``, so each engine
    # binds the shell's single function in its own namespace.
    read = StorageManager.read
    write = StorageManager.write
    insert = StorageManager.insert
    delete = StorageManager.delete
    commit_transaction = StorageManager.commit_transaction
    abort_transaction = StorageManager.abort_transaction


class HeapRecords:
    """A dict of rid -> bytes, checkpointed to a snapshot file."""

    def __init__(self, path: str | None, injector: FaultInjector):
        #: Snapshot prefix; ``None`` for a volatile store.
        self.path = path
        self._injector = injector
        self._store: dict[int, bytes] = {}
        self._next_rid = 1

    def _snapshot_path(self) -> str:
        return self.path + ".snap"

    def load(self) -> int:
        if self.path is None:
            return StorageManager.NO_ROOT
        try:
            with open(self._snapshot_path(), "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            return StorageManager.NO_ROOT
        magic, self._next_rid, root, count = _SNAP_HEAD.unpack_from(raw, 0)
        if magic != _MAGIC:
            raise StorageError(f"{self.path}: not an MM-Ode-repro snapshot")
        pos = _SNAP_HEAD.size
        for _ in range(count):
            rid, length = _SNAP_REC.unpack_from(raw, pos)
            pos += _SNAP_REC.size
            self._store[rid] = raw[pos : pos + length]
            pos += length
        return root

    def save(self, root: int) -> None:
        parts = [_SNAP_HEAD.pack(_MAGIC, self._next_rid, root, len(self._store))]
        for rid, data in self._store.items():
            parts.append(_SNAP_REC.pack(rid, len(data)))
            parts.append(data)
        tmp = self._snapshot_path() + ".tmp"
        self._injector.fire("snapshot.write")
        with open(tmp, "wb") as fh:
            fh.write(b"".join(parts))
            fh.flush()
            os.fsync(fh.fileno())
        # Atomic rename: a crash on either side leaves a usable snapshot
        # (the old one before, the new one after).
        self._injector.fire("snapshot.replace")
        os.replace(tmp, self._snapshot_path())

    def get(self, rid: int) -> bytes:
        try:
            return self._store[rid]
        except KeyError:
            raise RecordNotFoundError(f"rid {rid} not found") from None

    def has(self, rid: int) -> bool:
        return rid in self._store

    def new(self, data: bytes) -> int:
        rid = self._next_rid
        self._next_rid += 1
        self._store[rid] = data
        return rid

    def put(self, rid: int, data: bytes) -> None:
        self._store[rid] = data
        if rid >= self._next_rid:  # redo of an INSERT the snapshot predates
            self._next_rid = rid + 1

    def remove(self, rid: int) -> None:
        self._store.pop(rid, None)

    def rids(self) -> Iterator[int]:
        return iter(sorted(self._store))

    def degrade(self) -> None:
        pass  # only checkpoints write, and the shell stops those

    def close(self) -> None:
        self._store.clear()
