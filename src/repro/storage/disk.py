"""The EOS-like disk storage manager.

Records live in slotted pages cached by an LRU buffer pool; mutations are
value-logged to a write-ahead log (STEAL/NO-FORCE: dirty pages may be
evicted before commit — the pool forces the log first — and commit forces
only the log).  Strict two-phase locking at record granularity.  All of
that but the pages is the shared :class:`~repro.storage.interface.
StorageManager` shell; this module is the paged record layer under it.

Record identifiers pack a page number and slot number
(``rid = page_no << 16 | slot_no``).  Updates that outgrow their page leave
a *forwarding* record at the home slot so rids stay stable — essential
because the object manager hands rids out as persistent pointers.

Physical record encoding (first byte is a flag):

* ``0x00`` + u16 length + data (padded to ≥ 9 bytes) — stored inline; the
  padding guarantees an in-place upgrade to a forward pointer is always
  possible, even on a full page,
* ``0x01`` + 8-byte rid — forwarded; the body lives at the target rid,
* ``0x02`` + data — a body (or final body segment); skipped by scans,
* ``0x03`` + 8-byte next rid + data — a body segment with a continuation:
  records larger than a page span a chain of segments, so B-tree nodes and
  other big values fit the engine.

Page 0 is a header page holding a magic string and the checkpointed root
rid.  :mod:`repro.fsck` reads these files directly and imports the format
constants from here.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.errors import PageError, PageFullError, RecordNotFoundError, StorageError
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.storage.buffer import BufferPool, PagedFile
from repro.storage.interface import StorageManager
from repro.storage.page import PAGE_SIZE, USABLE_END, SlottedPage

MAGIC = b"ODEREPRO"
_HEADER_FMT = struct.Struct("<8sq")  # magic, root rid
SLOT_BITS = 16
_SLOT_MASK = (1 << SLOT_BITS) - 1

FLAG_INLINE = 0
FLAG_FORWARD = 1
FLAG_MOVED = 2  # body (or final body segment) of a forwarded record
FLAG_SEGMENT = 3  # body segment with a continuation: 8-byte next rid + chunk
#: Flags of a record's home slot (what a rid addresses); the other two
#: mark body records, reachable only through a forward pointer.
HEAD_FLAGS = (FLAG_INLINE, FLAG_FORWARD)
RECORD_FLAGS = (FLAG_INLINE, FLAG_FORWARD, FLAG_MOVED, FLAG_SEGMENT)

FWD = struct.Struct("<q")

#: Largest record data stored inline / per body segment.  Anything bigger
#: is spanned across a chain of segment records (flag 3 ... flag 2), so
#: records of arbitrary size — B-tree nodes included — fit the engine.
_MAX_CHUNK = 3500

# Inline payloads are length-prefixed and padded to at least the size of a
# forward pointer (9 bytes), so converting an inline record to a forward
# can always be done in place — even on a completely full page.
_INLINE_HEAD = struct.Struct("<BH")  # flag, data length
_INLINE_DATA = _INLINE_HEAD.size  # where an inline record's data starts
_MIN_PAYLOAD = 1 + FWD.size


def _inline_payload(data: bytes) -> bytes:
    payload = _INLINE_HEAD.pack(FLAG_INLINE, len(data)) + data
    if len(payload) < _MIN_PAYLOAD:
        payload += b"\x00" * (_MIN_PAYLOAD - len(payload))
    return payload


def _inline_data(payload: bytes) -> bytes:
    _, length = _INLINE_HEAD.unpack_from(payload, 0)
    return payload[_INLINE_DATA : _INLINE_DATA + length]


def _forward(body: int) -> bytes:
    return bytes([FLAG_FORWARD]) + FWD.pack(body)


def pack_rid(page_no: int, slot_no: int) -> int:
    """Combine a page number and slot number into a record id."""
    return (page_no << SLOT_BITS) | slot_no


def unpack_rid(rid: int) -> tuple[int, int]:
    """Split a record id into its page number and slot number."""
    return rid >> SLOT_BITS, rid & _SLOT_MASK


class DiskStorageManager(StorageManager):
    """Transactional slotted-page store with WAL recovery and 2PL."""

    def __init__(
        self,
        path: str,
        buffer_capacity: int = 128,
        injector: FaultInjector = NULL_INJECTOR,
    ):
        path = str(path)
        super().__init__(
            path,
            path + ".wal",
            injector,
            lambda wal, stats: PagedRecords(
                path, wal, buffer_capacity, injector, stats
            ),
        )

    # perf/trace.py wraps these by ``vars(cls)[name]``, so each engine
    # binds the shell's single function in its own namespace.
    read = StorageManager.read
    write = StorageManager.write
    insert = StorageManager.insert
    delete = StorageManager.delete
    commit_transaction = StorageManager.commit_transaction
    abort_transaction = StorageManager.abort_transaction


class PagedRecords:
    """Slotted pages, buffer pool, free map, forwarding and body chains."""

    def __init__(self, path, wal, buffer_capacity, injector, stats):
        self.path = path
        self._injector = injector
        self._file = PagedFile(path + ".data", injector=injector, stats=stats)
        # The write-ahead rule: the log is durable before any page reaches
        # disk.  ``force`` returns at once when it already is, so a STEAL
        # eviction pays an fsync only for log bytes not yet durable.
        self._force = wal.force
        self._pool = BufferPool(
            self._file, capacity=buffer_capacity, stats=stats, pre_write=self._force
        )
        self._page_free: dict[int, int] = {}

    # -- header page and checkpoint ---------------------------------------------

    def load(self) -> int:
        root = StorageManager.NO_ROOT
        if self._file.num_pages == 0:
            self._file.allocate_page()  # header page
            self._write_header(root)
        else:
            raw = self._file.read_page(0)
            magic, stored = _HEADER_FMT.unpack_from(raw, 0)
            if magic == MAGIC:
                root = stored
            elif not any(raw[:USABLE_END]):
                # A crash between allocating page 0 and stamping the
                # header leaves a zeroed (CRC-only) page: finish that
                # interrupted bootstrap.
                self._write_header(root)
            else:
                raise StorageError(f"{self.path}: not an Ode-repro data file")
        for page_no in range(1, self._file.num_pages):  # rebuild the free map
            page = self._pool.fetch(page_no)
            self._unpin(page_no, page, dirty=False)
        return root

    def save(self, root: int) -> None:
        self._force()  # log before pages, even when none is dirty
        self._pool.flush_all()
        self._injector.fire("checkpoint.after_flush")
        self._write_header(root)
        self._file.sync()

    def _write_header(self, root: int) -> None:
        raw = bytearray(PAGE_SIZE)
        _HEADER_FMT.pack_into(raw, 0, MAGIC, root)
        self._file.write_page(0, raw)

    def degrade(self) -> None:
        self._pool.read_only = True

    def close(self) -> None:
        self._file.close()

    # -- the record contract -------------------------------------------------------

    def get(self, rid: int) -> bytes:
        # The read half of every dereference, in one frame: _head's
        # home-slot check, then _inline_data's slice.  A body or segment
        # rid, page 0, a page past the file and a tombstone are all "not
        # found".
        page_no = rid >> SLOT_BITS
        if 1 <= page_no < self._file.num_pages:
            payload = self._pool.slot(page_no, rid & _SLOT_MASK)
            if payload:
                flag = payload[0]
                if flag == FLAG_INLINE:
                    length = _INLINE_HEAD.unpack_from(payload, 0)[1]
                    return payload[_INLINE_DATA : _INLINE_DATA + length]
                if flag == FLAG_FORWARD:
                    return self._read_body(FWD.unpack_from(payload, 1)[0])
        raise RecordNotFoundError(f"rid {rid} not found")

    def has(self, rid: int) -> bool:
        return self._head(rid) is not None

    def new(self, data: bytes) -> int:
        if len(data) <= _MAX_CHUNK:
            return self._place(_inline_payload(data))
        return self._place(_forward(self._place_body(data)))

    def put(self, rid: int, data: bytes) -> None:
        head = self._head(rid)
        if head is None:
            self._insert_at(rid, data)
        else:
            self._rewrite(rid, head, data)

    def remove(self, rid: int) -> None:
        head = self._head(rid)
        if head is None:
            return
        if head[0] == FLAG_FORWARD:
            self._delete_body(FWD.unpack_from(head, 1)[0])
        self._delete_slot(rid)

    def rids(self) -> Iterator[int]:
        for page_no in range(1, self._file.num_pages):
            page = self._pool.fetch(page_no)
            try:
                heads = [
                    pack_rid(page_no, slot_no)
                    for slot_no, data in page.records()
                    if data and data[0] in HEAD_FLAGS
                ]
            finally:
                self._pool.unpin(page_no, dirty=False)
            yield from heads

    # -- slots and the free map -----------------------------------------------------

    def _payload(self, rid: int) -> bytes | None:
        """The bytes in *rid*'s slot, or None for a missing page/empty slot."""
        page_no, slot_no = unpack_rid(rid)
        if not 1 <= page_no < self._file.num_pages:
            return None
        return self._pool.slot(page_no, slot_no)

    def _head(self, rid: int) -> bytes | None:
        """*rid*'s slot bytes if it holds a record (not a body), else None."""
        payload = self._payload(rid)
        return payload if payload and payload[0] in HEAD_FLAGS else None

    def _unpin(self, page_no: int, page: SlottedPage, *, dirty: bool) -> None:
        self._pool.unpin(page_no, dirty=dirty)
        self._page_free[page_no] = page.free_space()

    def _find_page_for(self, payload_len: int) -> int:
        need = payload_len + 4  # slot entry
        for page_no, free in self._page_free.items():
            if free >= need:
                return page_no
        page_no = self._file.allocate_page()
        self._page_free[page_no] = PAGE_SIZE
        return page_no

    def _place(self, payload: bytes) -> int:
        """Store one flagged payload (≤ a page) somewhere; returns its rid."""
        if len(payload) > _MAX_CHUNK + FWD.size + 1:
            raise StorageError(
                f"internal: payload of {len(payload)} bytes must be chained"
            )
        while True:
            page_no = self._find_page_for(len(payload))
            page = self._pool.fetch(page_no)
            try:
                slot_no = page.insert(payload)
            except PageFullError:
                self._unpin(page_no, page, dirty=False)
                # free-map estimate was stale; mark exhausted and retry
                self._page_free[page_no] = 0
                continue
            self._unpin(page_no, page, dirty=True)
            return pack_rid(page_no, slot_no)

    def _update_slot(self, rid: int, payload: bytes) -> bool:
        """Rewrite *rid*'s slot in place; False if its page is too full."""
        page_no, slot_no = unpack_rid(rid)
        page = self._pool.fetch(page_no)
        try:
            page.update(slot_no, payload)
        except PageFullError:
            self._unpin(page_no, page, dirty=False)
            return False
        self._unpin(page_no, page, dirty=True)
        return True

    def _delete_slot(self, rid: int) -> None:
        page_no, slot_no = unpack_rid(rid)
        page = self._pool.fetch(page_no)
        page.delete(slot_no)
        self._unpin(page_no, page, dirty=True)

    # -- body chains: records of any size span segment records ------------------

    def _place_body(self, data: bytes) -> int:
        """Store *data* as a (possibly chained) body; returns the head rid."""
        chunks = [data[i : i + _MAX_CHUNK] for i in range(0, len(data), _MAX_CHUNK)]
        if not chunks:
            chunks = [b""]
        next_rid: int | None = None
        # Build the chain back to front so each segment knows its successor.
        for chunk in reversed(chunks):
            if next_rid is None:
                payload = bytes([FLAG_MOVED]) + chunk
            else:
                payload = bytes([FLAG_SEGMENT]) + FWD.pack(next_rid) + chunk
            next_rid = self._place(payload)
        return next_rid

    def _segment(self, rid: int) -> bytes:
        """The body segment at *rid*; raises where the chain is broken."""
        payload = self._payload(rid)
        if payload is None or payload[0] not in (FLAG_MOVED, FLAG_SEGMENT):
            raise RecordNotFoundError(f"rid {rid}: broken body chain")
        return payload

    def _read_body(self, rid: int) -> bytes:
        parts = []
        while True:
            payload = self._segment(rid)
            if payload[0] == FLAG_MOVED:
                parts.append(payload[1:])
                return b"".join(parts)
            (rid,) = FWD.unpack_from(payload, 1)
            parts.append(payload[9:])

    def _delete_body(self, rid: int) -> None:
        while True:
            payload = self._segment(rid)
            self._delete_slot(rid)
            if payload[0] == FLAG_MOVED:
                return
            (rid,) = FWD.unpack_from(payload, 1)

    # -- placing a record at its rid --------------------------------------------------

    def _insert_at(self, rid: int, data: bytes) -> None:
        """Re-create *rid* at its own slot (redo of INSERT, undo of DELETE)."""
        page_no, slot_no = unpack_rid(rid)
        while self._file.num_pages <= page_no:
            new_page = self._file.allocate_page()
            self._page_free[new_page] = PAGE_SIZE
        if len(data) <= _MAX_CHUNK:
            page = self._pool.fetch(page_no)
            try:
                page.insert_at(slot_no, _inline_payload(data))
                self._unpin(page_no, page, dirty=True)
                return
            except PageFullError:
                self._unpin(page_no, page, dirty=False)
        body = self._place_body(data)
        page = self._pool.fetch(page_no)
        page.insert_at(slot_no, _forward(body))
        self._unpin(page_no, page, dirty=True)

    def _rewrite(self, rid: int, head: bytes, data: bytes) -> None:
        """Replace the live record at *rid* (whose slot holds *head*)."""
        if head[0] == FLAG_FORWARD:
            (body,) = FWD.unpack_from(head, 1)
            # Single-segment body: try an in-place target update.
            if (
                self._segment(body)[0] == FLAG_MOVED
                and len(data) <= _MAX_CHUNK
                and self._update_slot(body, bytes([FLAG_MOVED]) + data)
            ):
                return
            self._delete_body(body)
        elif len(data) <= _MAX_CHUNK and self._update_slot(rid, _inline_payload(data)):
            return  # an inline record that still fits inline
        # A forward pointer replaces another one, or an inline record
        # (padded to >= 9 bytes), in place — even on a full page.
        if not self._update_slot(rid, _forward(self._place_body(data))):
            raise PageError(f"rid {rid}: no room for a forward pointer")
