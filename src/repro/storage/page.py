"""Slotted pages — the on-disk unit of the EOS-like engine.

A page is a fixed-size byte array laid out in the classic slotted style::

    +------------------+-----------------------------+------------------+
    | header (4 bytes) | slot directory (grows ->)   | <- record heap   |
    +------------------+-----------------------------+------------------+

Header fields: ``slot_count`` and ``free_end`` (offset one past the byte
where the next record will end, i.e. records are packed from the tail).
Each slot is an ``(offset, length)`` pair; a deleted slot has offset
``TOMBSTONE`` so slot numbers stay stable (rids embed them) while the space
is reclaimed lazily by :meth:`SlottedPage.compact`.

The trailing :data:`CHECKSUM_SIZE` bytes of every page are reserved for a
CRC32 stamped by ``PagedFile.write_page`` and verified on read — torn page
writes and bit rot surface as :class:`~repro.errors.PageChecksumError`
instead of silently decoding garbage.  The heap therefore packs against
``PAGE_SIZE - CHECKSUM_SIZE``, never into the checksum field.

Every operation reads the header once, and an operation that walks the slot
directory (compaction, the tombstone search, :meth:`SlottedPage.records`)
copies it out in one C-level unpack rather than slot by slot.  How a record
is placed — slot order, packing from ``USABLE_END``, when compaction runs,
which tombstone is reused — is part of the on-disk format: the write-ahead
log and recovery see these bytes, so a faster walk must leave every page
image byte-identical.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterator

from repro.errors import PageError, PageFullError

PAGE_SIZE = 4096
CHECKSUM_SIZE = 4  # trailing CRC32, stamped/verified by PagedFile
USABLE_END = PAGE_SIZE - CHECKSUM_SIZE

PAGE_HEADER = struct.Struct("<HH")  # slot_count, free_end
SLOT = struct.Struct("<HH")  # offset, length
CHECKSUM = struct.Struct("<I")  # the trailing CRC32, at USABLE_END
_HEADER_SIZE = PAGE_HEADER.size
_SLOT_SIZE = SLOT.size

TOMBSTONE = 0xFFFF

#: A slot added to the directory ahead of its record (``insert_at``).
_EMPTY_SLOT = SLOT.pack(TOMBSTONE, 0)
#: The directory is little-endian; ``array("H")`` is native.
_SWAP = sys.byteorder != "little"


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` of :data:`PAGE_SIZE`."""

    def __init__(self, raw: bytearray | None = None):
        if raw is None:
            raw = bytearray(PAGE_SIZE)
            PAGE_HEADER.pack_into(raw, 0, 0, USABLE_END)
        if len(raw) != PAGE_SIZE:
            raise PageError(f"page must be exactly {PAGE_SIZE} bytes, got {len(raw)}")
        self.raw = raw
        # Every write keeps the page's size, so this export never blocks
        # one; :meth:`get` copies a record out through it in one step.
        self._view = memoryview(raw)

    # -- header accessors -----------------------------------------------------

    @property
    def slot_count(self) -> int:
        return PAGE_HEADER.unpack_from(self.raw, 0)[0]

    @property
    def free_end(self) -> int:
        return PAGE_HEADER.unpack_from(self.raw, 0)[1]

    def _locate(self, slot_no: int) -> tuple[int, int, int]:
        """``(slot_count, free_end, slot position)`` for an in-range *slot_no*."""
        count, free_end = PAGE_HEADER.unpack_from(self.raw, 0)
        if not 0 <= slot_no < count:
            raise PageError(f"slot {slot_no} out of range (count={count})")
        return count, free_end, _HEADER_SIZE + slot_no * _SLOT_SIZE

    def _directory(self, count: int) -> array:
        """The first *count* slots as ``[offset0, length0, offset1, ...]``."""
        slots = array("H", self.raw[_HEADER_SIZE : _HEADER_SIZE + count * _SLOT_SIZE])
        if _SWAP:
            slots.byteswap()
        return slots

    # -- space accounting -------------------------------------------------------

    def free_space(self) -> int:
        """Contiguous bytes available between the directory and the heap."""
        count, free_end = PAGE_HEADER.unpack_from(self.raw, 0)
        return free_end - _HEADER_SIZE - count * _SLOT_SIZE

    def fits(self, data_len: int, *, reuse_slot: bool = False) -> bool:
        """Whether a record of *data_len* bytes can be inserted now."""
        need = data_len if reuse_slot else data_len + _SLOT_SIZE
        return self.free_space() >= need

    # -- record operations --------------------------------------------------------

    def insert(self, data: bytes) -> int:
        """Insert *data*, returning its slot number.

        Reuses a tombstoned slot when one exists (keeping the directory
        small); compacts the heap first if fragmentation is the only thing
        standing in the way.
        """
        size = len(data)
        if size > USABLE_END - _HEADER_SIZE - _SLOT_SIZE:
            raise PageFullError(f"record of {size} bytes can never fit in a page")
        raw = self.raw
        count, free_end = PAGE_HEADER.unpack_from(raw, 0)
        slot_no = self._find_tombstone(count)
        need = size if slot_no is not None else size + _SLOT_SIZE
        directory_end = _HEADER_SIZE + count * _SLOT_SIZE
        if free_end - directory_end < need:
            free_end = self._compact(count)
            if free_end - directory_end < need:
                raise PageFullError(
                    f"no room for {size} bytes (free={free_end - directory_end})"
                )
        if slot_no is None:
            slot_no = count
            count += 1
        new_end = free_end - size
        raw[new_end:free_end] = data
        PAGE_HEADER.pack_into(raw, 0, count, new_end)
        SLOT.pack_into(raw, _HEADER_SIZE + slot_no * _SLOT_SIZE, new_end, size)
        return slot_no

    def insert_at(self, slot_no: int, data: bytes) -> None:
        """Re-insert *data* at a specific (tombstoned or new) slot.

        Used by recovery/undo, where the rid — and hence the slot number —
        must be preserved.
        """
        raw = self.raw
        count, free_end = PAGE_HEADER.unpack_from(raw, 0)
        if slot_no < 0:
            raise PageError(f"slot {slot_no} out of range (count={count})")
        if slot_no >= count:
            free_end = self._extend(count, free_end, slot_no + 1)
            count = slot_no + 1
        if SLOT.unpack_from(raw, _HEADER_SIZE + slot_no * _SLOT_SIZE)[0] != TOMBSTONE:
            raise PageError(f"slot {slot_no} is occupied; cannot insert_at")
        self._put(slot_no, data, count, free_end)

    def get(self, slot_no: int) -> bytes | None:
        """The record stored at *slot_no*, or ``None`` when the slot is
        out of range or tombstoned — one header and one slot unpack, and
        one copy of the record's bytes."""
        raw = self.raw
        if not 0 <= slot_no < PAGE_HEADER.unpack_from(raw, 0)[0]:
            return None
        offset, length = SLOT.unpack_from(raw, _HEADER_SIZE + slot_no * _SLOT_SIZE)
        if offset == TOMBSTONE:
            return None
        return self._view[offset : offset + length].tobytes()

    def update(self, slot_no: int, data: bytes) -> None:
        """Replace the record at *slot_no* with *data* (may relocate it)."""
        count, free_end, at = self._locate(slot_no)
        raw = self.raw
        offset, length = SLOT.unpack_from(raw, at)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot_no} is deleted")
        if len(data) <= length:
            raw[offset : offset + len(data)] = data
            SLOT.pack_into(raw, at, offset, len(data))
            return
        # Grow: tombstone the old copy and re-place at the heap tail.
        old_data = bytes(raw[offset : offset + length])
        SLOT.pack_into(raw, at, TOMBSTONE, length)
        try:
            self._put(slot_no, data, count, free_end)
        except PageFullError:
            # _put may have compacted the page (moving every record)
            # before giving up, so the old offset is meaningless now —
            # re-insert the saved bytes instead.  This cannot fail: the
            # record occupied at least this much space a moment ago.
            self._put(slot_no, old_data, count, self.free_end)
            raise

    def delete(self, slot_no: int) -> None:
        """Tombstone the record at *slot_no* (slot number stays allocated)."""
        _, _, at = self._locate(slot_no)
        offset, length = SLOT.unpack_from(self.raw, at)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot_no} is already deleted")
        SLOT.pack_into(self.raw, at, TOMBSTONE, length)

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot_no, data)`` for every live record."""
        raw = self.raw
        count = PAGE_HEADER.unpack_from(raw, 0)[0]
        directory = raw[_HEADER_SIZE : _HEADER_SIZE + count * _SLOT_SIZE]
        for slot_no, (offset, length) in enumerate(SLOT.iter_unpack(directory)):
            if offset != TOMBSTONE:
                yield slot_no, bytes(raw[offset : offset + length])

    def compact(self) -> None:
        """Repack live records against the page tail, erasing fragmentation."""
        self._compact(self.slot_count)

    # -- helpers -----------------------------------------------------------------

    def _compact(self, count: int) -> int:
        """Repack the live records in slot order, the first one ending at
        ``USABLE_END``; tombstones keep ``(TOMBSTONE, length)``.  Records
        already where that puts them stay; the others move a run of
        neighbours at a time, the heap in one slice and the directory in
        one pack.  Returns the new ``free_end``."""
        raw = self.raw
        slots = self._directory(count)
        stop = 2 * count
        low = USABLE_END  # start of the records that stay
        i = 0
        while i < stop:
            offset = slots[i]
            if offset != TOMBSTONE:
                if offset + slots[i + 1] != low:
                    break
                low = offset
            i += 2
        # A run: records in slot order that already sit back to back; each
        # new run appends the one before it (the first append is empty).
        runs = []
        run_start = run_end = -1
        end = low
        for i in range(i, stop, 2):
            offset = slots[i]
            if offset != TOMBSTONE:
                length = slots[i + 1]
                if offset + length != run_start:
                    runs.append(raw[run_start:run_end])
                    run_end = offset + length
                run_start = offset
                end -= length
                slots[i] = end
        runs.append(raw[run_start:run_end])
        runs.reverse()
        heap = b"".join(runs)
        raw[low - len(heap) : low] = heap
        if _SWAP:
            slots.byteswap()
        raw[_HEADER_SIZE : _HEADER_SIZE + count * _SLOT_SIZE] = slots
        PAGE_HEADER.pack_into(raw, 0, count, end)
        return end

    def _extend(self, count: int, free_end: int, want: int) -> int:
        """Grow the directory from *count* to *want* empty slots, compacting
        if they do not fit; returns the ``free_end`` after.  When even a
        compacted page has no room, as many slots as fit are added before
        :class:`PageFullError` is raised."""
        raw = self.raw
        directory_end = _HEADER_SIZE + count * _SLOT_SIZE
        grow = want - count
        if free_end - directory_end < grow * _SLOT_SIZE:
            free_end = self._compact(count)
            room = (free_end - directory_end) // _SLOT_SIZE
            if room < grow:
                raw[directory_end : directory_end + room * _SLOT_SIZE] = _EMPTY_SLOT * room
                PAGE_HEADER.pack_into(raw, 0, count + room, free_end)
                raise PageFullError("no room to extend slot directory")
        raw[directory_end : directory_end + grow * _SLOT_SIZE] = _EMPTY_SLOT * grow
        PAGE_HEADER.pack_into(raw, 0, want, free_end)
        return free_end

    def _put(self, slot_no: int, data: bytes, count: int, free_end: int) -> None:
        """Place *data* at the tombstoned in-range *slot_no*, compacting
        first if fragmentation is the only thing standing in the way."""
        size = len(data)
        directory_end = _HEADER_SIZE + count * _SLOT_SIZE
        if free_end - directory_end < size:
            free_end = self._compact(count)
            if free_end - directory_end < size:
                raise PageFullError(f"no room for {size} bytes at slot {slot_no}")
        raw = self.raw
        new_end = free_end - size
        raw[new_end:free_end] = data
        PAGE_HEADER.pack_into(raw, 0, count, new_end)
        SLOT.pack_into(raw, _HEADER_SIZE + slot_no * _SLOT_SIZE, new_end, size)

    def _find_tombstone(self, count: int) -> int | None:
        """The lowest tombstoned slot among the first *count*, or ``None``."""
        try:
            return self._directory(count)[::2].index(TOMBSTONE)
        except ValueError:
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(1 for _ in self.records())
        return (
            f"<SlottedPage slots={self.slot_count} live={live} "
            f"free={self.free_space()}>"
        )
