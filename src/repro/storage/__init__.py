"""Storage-manager substrates for the Ode reproduction.

The Ode object manager runs on top of a storage manager that supplies
"locking, logging, transactions, etc." (paper Section 2).  The original
system used the disk-based EOS storage manager for regular Ode and the
main-memory Dali storage manager for MM-Ode; both share the object-manager
code above them.  This package reproduces that split:

* :class:`~repro.storage.interface.StorageManager` — the one
  transactional shell: strict two-phase locking, a write-ahead log with
  value logging (redo committed work, undo losers), the commit protocol,
  degrade-to-read-only, checkpoints and crash simulation.
* :class:`~repro.storage.disk.DiskStorageManager` — the shell over
  EOS-like slotted pages cached by an LRU buffer pool (``PagedRecords``).
* :class:`~repro.storage.mainmem.MainMemoryStorageManager` — the shell
  over a Dali-like in-memory dict made durable by snapshots
  (``HeapRecords``), or purely volatile.

The object manager (and thus the whole trigger system) is therefore
engine-agnostic, and so is everything transactional below it, exactly as
Ode and MM-Ode "share a great deal of run-time system code" (paper
Section 5.6).
"""

from repro.storage.buffer import BufferPool, PagedFile
from repro.storage.disk import DiskStorageManager
from repro.storage.interface import StorageManager, StorageStats
from repro.storage.locks import LockManager, LockMode, LockRequestStatus
from repro.storage.mainmem import MainMemoryStorageManager
from repro.storage.page import PAGE_SIZE, SlottedPage
from repro.storage.wal import LogRecord, LogRecordKind, WriteAheadLog

__all__ = [
    "PAGE_SIZE",
    "BufferPool",
    "DiskStorageManager",
    "LockManager",
    "LockMode",
    "LockRequestStatus",
    "LogRecord",
    "LogRecordKind",
    "MainMemoryStorageManager",
    "PagedFile",
    "SlottedPage",
    "StorageManager",
    "StorageStats",
    "WriteAheadLog",
    "open_storage",
]


def open_storage(path, engine: str = "disk", **kwargs) -> StorageManager:
    """Open a storage manager of the requested *engine* at *path*.

    ``engine`` is ``"disk"`` (EOS-like) or ``"mm"`` (Dali-like).  Extra
    keyword arguments are forwarded to the engine constructor.
    """
    if engine == "disk":
        return DiskStorageManager(path, **kwargs)
    if engine == "mm":
        return MainMemoryStorageManager(path, **kwargs)
    raise ValueError(f"unknown storage engine {engine!r} (expected 'disk' or 'mm')")
