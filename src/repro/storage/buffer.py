"""Paged file and LRU buffer pool for the disk engine.

:class:`PagedFile` gives page-granular I/O over an ordinary OS file.
:class:`BufferPool` caches :class:`~repro.storage.page.SlottedPage` frames
with pin counts and LRU replacement of unpinned frames; dirty frames are
written back on eviction or on an explicit flush (NO-FORCE at commit — the
write-ahead log makes committed work durable, not page flushes).

Robustness hooks threaded through this layer:

* every page carries a trailing CRC32 (see :mod:`repro.storage.page`),
  stamped on write and verified on read — torn page writes and bit rot
  raise :class:`~repro.errors.PageChecksumError` instead of decoding
  garbage;
* transient ``OSError``s around ``pread``/``pwrite``/``fsync`` are retried
  with bounded exponential backoff (:func:`repro.faults.injector.retry_failed`
  after an inline first attempt);
* named failpoints (``page.read``, ``page.write``, ``page.sync``,
  ``pool.evict``) let the fault injector crash, corrupt, or fail each
  physical operation deterministically.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections import OrderedDict

from repro import obs
from repro.errors import BufferPoolError, PageChecksumError, PageError
from repro.faults.injector import NULL_INJECTOR, FaultInjector, retry_failed
from repro.storage.page import CHECKSUM, PAGE_SIZE, USABLE_END, SlottedPage


def stamp_checksum(raw: bytearray) -> None:
    """Write the CRC32 of the page body into its trailing checksum field."""
    CHECKSUM.pack_into(raw, USABLE_END, zlib.crc32(bytes(raw[:USABLE_END])))


def checksum_ok(raw: bytes | bytearray) -> bool:
    """Whether a page's stored CRC matches its body.

    An all-zero page is accepted as a valid never-initialized page: its
    checksum field was never stamped, and there is no content to protect.
    """
    (stored,) = CHECKSUM.unpack_from(raw, USABLE_END)
    if stored == zlib.crc32(bytes(raw[:USABLE_END])):
        return True
    return not any(raw)


class PagedFile:
    """Page-granular I/O over a single OS file."""

    def __init__(
        self,
        path: str,
        *,
        injector: FaultInjector = NULL_INJECTOR,
        stats=None,
    ):
        self.path = str(path)
        self.injector = injector
        self._stats = stats
        flags = os.O_RDWR | os.O_CREAT
        self._fd = os.open(self.path, flags, 0o644)
        size = os.fstat(self._fd).st_size
        if size % PAGE_SIZE:
            # A torn append: the process died while extending the file.
            # The partial tail page was never acknowledged to anyone (page
            # allocation is only durable once the header/WAL says so), so
            # discard it rather than refuse to open.
            size -= size % PAGE_SIZE
            os.ftruncate(self._fd, size)
        #: Pages in the file; only :meth:`allocate_page` grows it.  A plain
        #: attribute, read on every record read.
        self.num_pages = size // PAGE_SIZE
        self._closed = False

    def _count_retry(self) -> None:
        if self._stats is not None:
            self._stats.io_retries += 1

    def allocate_page(self) -> int:
        """Append a zeroed (checksum-stamped) page, returning its number."""
        page_no = self.num_pages
        raw = bytearray(PAGE_SIZE)
        stamp_checksum(raw)
        self._write_raw(page_no, bytes(raw))
        self.num_pages += 1
        return page_no

    def read_page(self, page_no: int) -> bytearray:
        if not 0 <= page_no < self.num_pages:
            raise PageError(f"page {page_no} out of range (have {self.num_pages})")
        try:
            raw = self._pread(page_no)
        except OSError as error:
            raw = retry_failed(
                error, self._pread, page_no, on_retry=self._count_retry
            )
        data = bytearray(raw)
        if not checksum_ok(data):
            (stored,) = CHECKSUM.unpack_from(data, USABLE_END)
            raise PageChecksumError(
                page_no, stored, zlib.crc32(bytes(data[:USABLE_END]))
            )
        return data

    def write_page(self, page_no: int, raw: bytes | bytearray) -> None:
        if len(raw) != PAGE_SIZE:
            raise PageError(f"write_page needs {PAGE_SIZE} bytes, got {len(raw)}")
        if not 0 <= page_no < self.num_pages:
            raise PageError(f"page {page_no} out of range (have {self.num_pages})")
        stamped = bytearray(raw)
        stamp_checksum(stamped)
        # Faults mangle the bytes *after* the checksum is stamped, so
        # injected corruption is always detectable on the next read.
        self._write_raw(page_no, bytes(stamped))

    def sync(self) -> None:
        try:
            self._fsync()
        except OSError as error:
            retry_failed(error, self._fsync, on_retry=self._count_retry)

    def _write_raw(self, page_no: int, raw: bytes) -> None:
        try:
            self._pwrite(page_no, raw)
        except OSError as error:
            retry_failed(
                error, self._pwrite, page_no, raw, on_retry=self._count_retry
            )

    # One attempt at each physical operation; the callers above retry a
    # transient OSError through retry_failed.

    def _pread(self, page_no: int) -> bytes:
        self.injector.fire("page.read", page_no=page_no)
        return os.pread(self._fd, PAGE_SIZE, page_no * PAGE_SIZE)

    def _pwrite(self, page_no: int, raw: bytes) -> None:
        data, crash_after = self.injector.fire_write(
            "page.write", raw, page_no=page_no
        )
        os.pwrite(self._fd, data, page_no * PAGE_SIZE)
        if crash_after:
            os.fsync(self._fd)
            self.injector.crash_pending("page.write")

    def _fsync(self) -> None:
        self.injector.fire("page.sync")
        os.fsync(self._fd)

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True


class _Frame:
    __slots__ = ("page", "pin_count", "dirty")

    def __init__(self, page: SlottedPage):
        self.page = page
        self.pin_count = 0
        self.dirty = False


class BufferPool:
    """Fixed-capacity page cache with pinning and LRU replacement.

    When :attr:`read_only` is set (the engine degraded after an
    unrecoverable media error) the pool stops writing entirely: flushes
    become no-ops and eviction discards only *clean* frames, growing past
    capacity rather than touching the failed medium.
    """

    def __init__(self, file: PagedFile, capacity: int = 128, stats=None, pre_write=None):
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        self.file = file
        self.capacity = capacity
        self.read_only = False
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self._stats = stats
        # Serializes frame-table mutation for threaded sessions (the disk
        # engine's mutex covers its own calls; this keeps the pool safe
        # when driven directly).
        self._mutex = threading.RLock()
        # Called before any dirty frame reaches disk — the engine forces the
        # WAL here so the write-ahead rule holds even for STEAL evictions.
        self._pre_write = pre_write

    # -- pin/unpin protocol -------------------------------------------------

    def fetch(self, page_no: int) -> SlottedPage:
        """Pin and return the page; loads (and possibly evicts) as needed."""
        with self._mutex:
            frame = self._fetch_locked(page_no)
            frame.pin_count += 1
            return frame.page

    def _fetch_locked(self, page_no: int) -> _Frame:
        """*page_no*'s frame, loaded (evicting another) on a miss; unpinned."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self._frames.move_to_end(page_no)
            if self._stats is not None:
                self._stats.page_hits += 1
            if obs.ENABLED:
                obs.emit("page.hit", page_no=page_no)
            return frame
        if self._stats is not None:
            self._stats.page_misses += 1
        if obs.ENABLED:
            obs.emit("page.miss", page_no=page_no)
        self._ensure_room()
        frame = _Frame(SlottedPage(self.file.read_page(page_no)))
        self._frames[page_no] = frame
        return frame

    def slot(self, page_no: int, slot_no: int) -> bytes | None:
        """The bytes in one slot of *page_no* (``None`` when the slot is out
        of range or tombstoned), read under one mutex hold.

        The page is loaded and counted exactly as :meth:`fetch` does it,
        but never pinned: nothing can evict it while the mutex is held,
        and the bytes returned are a copy.
        """
        with self._mutex:
            return self._fetch_locked(page_no).page.get(slot_no)

    def unpin(self, page_no: int, *, dirty: bool) -> None:
        with self._mutex:
            frame = self._frames.get(page_no)
            if frame is None or frame.pin_count == 0:
                raise BufferPoolError(f"page {page_no} is not pinned")
            frame.pin_count -= 1
            frame.dirty = frame.dirty or dirty

    # -- flushing -----------------------------------------------------------

    def flush_page(self, page_no: int) -> None:
        if self.read_only:
            return
        with self._mutex:
            frame = self._frames.get(page_no)
            if frame is not None and frame.dirty:
                if self._pre_write is not None:
                    self._pre_write()
                self.file.write_page(page_no, frame.page.raw)
                frame.dirty = False

    def flush_all(self) -> None:
        if self.read_only:
            return
        with self._mutex:
            for page_no in list(self._frames):
                self.flush_page(page_no)
            self.file.sync()

    def drop_all(self) -> None:
        """Forget every frame without writing (used after crash simulation)."""
        if any(frame.pin_count for frame in self._frames.values()):
            raise BufferPoolError("cannot drop frames while pages are pinned")
        self._frames.clear()

    # -- internals -----------------------------------------------------------

    def _ensure_room(self) -> None:
        if len(self._frames) < self.capacity:
            return
        for page_no, frame in self._frames.items():
            if frame.pin_count == 0:
                was_dirty = frame.dirty
                if frame.dirty:
                    if self.read_only:
                        continue  # never write through a failed medium
                    self.file.injector.fire("pool.evict", page_no=page_no)
                    if self._pre_write is not None:
                        self._pre_write()
                    self.file.write_page(page_no, frame.page.raw)
                del self._frames[page_no]
                if self._stats is not None:
                    self._stats.page_evictions += 1
                if obs.ENABLED:
                    obs.emit("page.evict", page_no=page_no, dirty=was_dirty)
                return
        if self.read_only:
            return  # grow past capacity rather than touch the medium
        raise BufferPoolError("buffer pool exhausted: every frame is pinned")

    def cached_pages(self) -> frozenset[int]:
        return frozenset(self._frames)

    def __len__(self) -> int:
        return len(self._frames)
