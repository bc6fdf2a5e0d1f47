"""Slotted pages — the on-disk unit of the EOS-like engine.

A page is a fixed-size byte array laid out in the classic slotted style::

    +------------------+-----------------------------+------------------+
    | header (8 bytes) | slot directory (grows ->)   | <- record heap   |
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
"""

from __future__ import annotations

import struct
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


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` of :data:`PAGE_SIZE`."""

    def __init__(self, raw: bytearray | None = None):
        if raw is None:
            raw = bytearray(PAGE_SIZE)
            PAGE_HEADER.pack_into(raw, 0, 0, USABLE_END)
        if len(raw) != PAGE_SIZE:
            raise PageError(f"page must be exactly {PAGE_SIZE} bytes, got {len(raw)}")
        self.raw = raw

    # -- header accessors -----------------------------------------------------

    @property
    def slot_count(self) -> int:
        return PAGE_HEADER.unpack_from(self.raw, 0)[0]

    @property
    def free_end(self) -> int:
        return PAGE_HEADER.unpack_from(self.raw, 0)[1]

    def _set_header(self, slot_count: int, free_end: int) -> None:
        PAGE_HEADER.pack_into(self.raw, 0, slot_count, free_end)

    def _slot(self, slot_no: int) -> tuple[int, int]:
        if not 0 <= slot_no < self.slot_count:
            raise PageError(f"slot {slot_no} out of range (count={self.slot_count})")
        return SLOT.unpack_from(self.raw, _HEADER_SIZE + slot_no * _SLOT_SIZE)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        SLOT.pack_into(self.raw, _HEADER_SIZE + slot_no * _SLOT_SIZE, offset, length)

    # -- space accounting -------------------------------------------------------

    @property
    def directory_end(self) -> int:
        """First byte past the slot directory."""
        return _HEADER_SIZE + self.slot_count * _SLOT_SIZE

    def free_space(self) -> int:
        """Contiguous bytes available between the directory and the heap."""
        return self.free_end - self.directory_end

    def reclaimable_space(self) -> int:
        """Bytes held by tombstoned slots, recoverable by :meth:`compact`."""
        dead = 0
        for slot_no in range(self.slot_count):
            offset, length = self._slot(slot_no)
            if offset == TOMBSTONE:
                dead += length
        return dead

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
        if len(data) > USABLE_END - _HEADER_SIZE - _SLOT_SIZE:
            raise PageFullError(f"record of {len(data)} bytes can never fit in a page")
        free_slot = self._find_tombstone()
        reuse = free_slot is not None
        if not self.fits(len(data), reuse_slot=reuse):
            self.compact()
        if not self.fits(len(data), reuse_slot=reuse):
            raise PageFullError(
                f"no room for {len(data)} bytes (free={self.free_space()})"
            )
        new_end = self.free_end - len(data)
        self.raw[new_end : new_end + len(data)] = data
        if reuse:
            slot_no = free_slot
            self._set_header(self.slot_count, new_end)
        else:
            slot_no = self.slot_count
            self._set_header(self.slot_count + 1, new_end)
        self._set_slot(slot_no, new_end, len(data))
        return slot_no

    def insert_at(self, slot_no: int, data: bytes) -> None:
        """Re-insert *data* at a specific (tombstoned or new) slot.

        Used by recovery/undo, where the rid — and hence the slot number —
        must be preserved.
        """
        while self.slot_count <= slot_no:
            if self.free_space() < _SLOT_SIZE:
                self.compact()
                if self.free_space() < _SLOT_SIZE:
                    raise PageFullError("no room to extend slot directory")
            self._set_header(self.slot_count + 1, self.free_end)
            self._set_slot(self.slot_count - 1, TOMBSTONE, 0)
        offset, _ = self._slot(slot_no)
        if offset != TOMBSTONE:
            raise PageError(f"slot {slot_no} is occupied; cannot insert_at")
        if not self.fits(len(data), reuse_slot=True):
            self.compact()
        if not self.fits(len(data), reuse_slot=True):
            raise PageFullError(f"no room for {len(data)} bytes at slot {slot_no}")
        new_end = self.free_end - len(data)
        self.raw[new_end : new_end + len(data)] = data
        self._set_header(self.slot_count, new_end)
        self._set_slot(slot_no, new_end, len(data))

    def get(self, slot_no: int) -> bytes | None:
        """The record stored at *slot_no*, or ``None`` when the slot is
        out of range or tombstoned — one header and one slot unpack."""
        raw = self.raw
        if not 0 <= slot_no < PAGE_HEADER.unpack_from(raw, 0)[0]:
            return None
        offset, length = SLOT.unpack_from(raw, _HEADER_SIZE + slot_no * _SLOT_SIZE)
        if offset == TOMBSTONE:
            return None
        return bytes(raw[offset : offset + length])

    def update(self, slot_no: int, data: bytes) -> None:
        """Replace the record at *slot_no* with *data* (may relocate it)."""
        offset, length = self._slot(slot_no)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot_no} is deleted")
        if len(data) <= length:
            self.raw[offset : offset + len(data)] = data
            self._set_slot(slot_no, offset, len(data))
            return
        # Grow: tombstone the old copy and re-place at the heap tail.
        old_data = bytes(self.raw[offset : offset + length])
        self._set_slot(slot_no, TOMBSTONE, length)
        try:
            self.insert_at(slot_no, data)
        except PageFullError:
            # insert_at may have compacted the page (moving every record)
            # before giving up, so the old offset is meaningless now —
            # re-insert the saved bytes instead.  This cannot fail: the
            # record occupied at least this much space a moment ago.
            self.insert_at(slot_no, old_data)
            raise

    def delete(self, slot_no: int) -> None:
        """Tombstone the record at *slot_no* (slot number stays allocated)."""
        offset, length = self._slot(slot_no)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot_no} is already deleted")
        self._set_slot(slot_no, TOMBSTONE, length)

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot_no, data)`` for every live record."""
        for slot_no in range(self.slot_count):
            offset, length = self._slot(slot_no)
            if offset != TOMBSTONE:
                yield slot_no, bytes(self.raw[offset : offset + length])

    def compact(self) -> None:
        """Repack live records against the page tail, erasing fragmentation."""
        live = [
            (slot_no, data)
            for slot_no in range(self.slot_count)
            if (data := self.get(slot_no)) is not None
        ]
        end = USABLE_END
        for slot_no, data in live:
            end -= len(data)
            self.raw[end : end + len(data)] = data
            self._set_slot(slot_no, end, len(data))
        self._set_header(self.slot_count, end)

    # -- helpers -----------------------------------------------------------------

    def _find_tombstone(self) -> int | None:
        for slot_no in range(self.slot_count):
            offset, _ = self._slot(slot_no)
            if offset == TOMBSTONE:
                return slot_no
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(1 for _ in self.records())
        return (
            f"<SlottedPage slots={self.slot_count} live={live} "
            f"free={self.free_space()}>"
        )
