"""Slotted-page unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, PageFullError
from repro.storage.page import (
    _HEADER_SIZE,
    _SLOT_SIZE,
    CHECKSUM_SIZE,
    PAGE_HEADER,
    PAGE_SIZE,
    SLOT,
    TOMBSTONE,
    USABLE_END,
    SlottedPage,
)


def test_new_page_is_empty():
    page = SlottedPage()
    assert page.slot_count == 0
    # the trailing CHECKSUM_SIZE bytes are reserved for the page CRC
    assert page.free_end == USABLE_END
    assert list(page.records()) == []


def test_insert_and_read():
    page = SlottedPage()
    slot = page.insert(b"hello")
    assert page.get(slot) == b"hello"


def test_insert_returns_distinct_slots():
    page = SlottedPage()
    slots = [page.insert(f"rec-{i}".encode()) for i in range(10)]
    assert len(set(slots)) == 10
    for i, slot in enumerate(slots):
        assert page.get(slot) == f"rec-{i}".encode()


def test_get_missing_slot_is_none():
    page = SlottedPage()
    assert page.get(0) is None  # an empty page
    page.insert(b"only")
    assert page.get(1) is None  # past the slot count
    assert page.get(-1) is None  # negative: never indexes from the end
    assert page.get(0) == b"only"


def test_delete_tombstones_slot():
    page = SlottedPage()
    slot = page.insert(b"doomed")
    page.delete(slot)
    assert page.get(slot) is None
    with pytest.raises(PageError):
        page.delete(slot)


def test_get_tombstoned_slot_is_none_but_keeps_its_number():
    page = SlottedPage()
    a = page.insert(b"a")
    b = page.insert(b"b")
    page.delete(a)
    assert page.get(a) is None
    assert page.slot_count == 2
    assert page.get(b) == b"b"


def test_delete_keeps_other_slot_numbers_stable():
    page = SlottedPage()
    a = page.insert(b"a")
    b = page.insert(b"b")
    page.delete(a)
    assert page.get(b) == b"b"


def test_insert_reuses_tombstoned_slot():
    page = SlottedPage()
    a = page.insert(b"a")
    page.insert(b"b")
    page.delete(a)
    c = page.insert(b"c")
    assert c == a
    assert page.get(c) == b"c"


def test_update_in_place_shrink():
    page = SlottedPage()
    slot = page.insert(b"longer-record")
    page.update(slot, b"tiny")
    assert page.get(slot) == b"tiny"


def test_update_grow_relocates_within_page():
    page = SlottedPage()
    slot = page.insert(b"small")
    other = page.insert(b"other")
    page.update(slot, b"x" * 200)
    assert page.get(slot) == b"x" * 200
    assert page.get(other) == b"other"


def test_update_deleted_slot_raises():
    page = SlottedPage()
    slot = page.insert(b"gone")
    page.delete(slot)
    with pytest.raises(PageError):
        page.update(slot, b"new")


def test_page_full_raises():
    page = SlottedPage()
    with pytest.raises(PageFullError):
        page.insert(b"x" * PAGE_SIZE)


def test_fill_page_then_overflow():
    page = SlottedPage()
    count = 0
    record = b"r" * 100
    while page.fits(len(record)):
        page.insert(record)
        count += 1
    assert count > 30
    with pytest.raises(PageFullError):
        page.insert(b"y" * 200)


def test_compact_reclaims_dead_space():
    page = SlottedPage()
    slots = [page.insert(b"z" * 300) for _ in range(10)]
    for slot in slots[::2]:
        page.delete(slot)
    free_before = page.free_space()
    page.compact()
    assert page.free_space() > free_before
    for slot in slots[1::2]:
        assert page.get(slot) == b"z" * 300


def test_update_grow_after_fragmentation_compacts():
    page = SlottedPage()
    keep = page.insert(b"k" * 100)
    doomed = [page.insert(b"d" * 700) for _ in range(5)]
    for slot in doomed:
        page.delete(slot)
    page.update(keep, b"K" * 3000)  # needs compaction to fit
    assert page.get(keep) == b"K" * 3000


def test_insert_at_specific_slot():
    page = SlottedPage()
    page.insert_at(3, b"at-three")
    assert page.get(3) == b"at-three"
    assert page.slot_count == 4
    for slot in range(3):
        assert page.get(slot) is None


def test_insert_at_occupied_raises():
    page = SlottedPage()
    slot = page.insert(b"here")
    with pytest.raises(PageError):
        page.insert_at(slot, b"clash")


def test_roundtrip_through_raw_bytes():
    page = SlottedPage()
    slot = page.insert(b"persist-me")
    page2 = SlottedPage(bytearray(page.raw))
    assert page2.get(slot) == b"persist-me"


def test_wrong_size_raises():
    with pytest.raises(PageError):
        SlottedPage(bytearray(100))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.binary(min_size=0, max_size=300)),
            st.tuples(st.just("delete"), st.integers(0, 40)),
            st.tuples(st.just("update"), st.integers(0, 40), st.binary(max_size=300)),
        ),
        max_size=60,
    )
)
def test_page_matches_model(ops):
    """A slotted page behaves like a dict under random op sequences."""
    page = SlottedPage()
    model: dict[int, bytes] = {}
    for op in ops:
        if op[0] == "insert":
            try:
                slot = page.insert(op[1])
            except PageFullError:
                continue
            model[slot] = op[1]
        elif op[0] == "delete":
            slot = op[1]
            if slot in model:
                page.delete(slot)
                del model[slot]
        else:
            slot = op[1]
            if slot in model:
                try:
                    page.update(slot, op[2])
                except PageFullError:
                    continue
                model[slot] = op[2]
    assert dict(page.records()) == model
    for slot in range(page.slot_count + 1):
        assert page.get(slot) == model.get(slot)
    # Compaction never changes contents.
    page.compact()
    assert dict(page.records()) == model


@pytest.mark.parametrize("slot", [-1, -2, 1, 5])
def test_out_of_range_slots_raise_and_leave_the_page_alone(slot):
    """A negative slot never indexes from the end (slot -1 would read the
    header, slot -2 the checksum); a slot past the count is no record to
    update or delete.  ``insert_at`` past the count grows the directory,
    so only its negative slots are out of range."""
    page = SlottedPage()
    page.insert(b"only")
    # A stamped CRC that happens to read as a tombstone slot.
    page.raw[USABLE_END:] = SLOT.pack(TOMBSTONE, 0)
    before = bytes(page.raw)
    with pytest.raises(PageError):
        page.update(slot, b"new")
    with pytest.raises(PageError):
        page.delete(slot)
    if slot < 0:
        with pytest.raises(PageError):
            page.insert_at(slot, b"new")
    assert bytes(page.raw) == before


def test_oversize_insert_raises_and_leaves_the_page_alone():
    page = SlottedPage()
    slots = [page.insert(b"r" * 300) for _ in range(12)]
    page.delete(slots[3])
    page.compact()  # so the compaction a failed insert tries moves nothing
    before = bytes(page.raw)
    with pytest.raises(PageFullError):
        page.insert(b"x" * (USABLE_END - _HEADER_SIZE - _SLOT_SIZE + 1))
    with pytest.raises(PageFullError):
        page.insert(b"y" * (page.free_space() + 1))
    assert bytes(page.raw) == before


class ReferencePage:
    """The slot-by-slot slotted page the one-pass page must match byte for
    byte: a test oracle, kept only here."""

    def __init__(self, raw):
        self.raw = raw

    @property
    def slot_count(self):
        return PAGE_HEADER.unpack_from(self.raw, 0)[0]

    @property
    def free_end(self):
        return PAGE_HEADER.unpack_from(self.raw, 0)[1]

    def _set_header(self, slot_count, free_end):
        PAGE_HEADER.pack_into(self.raw, 0, slot_count, free_end)

    def _slot(self, slot_no):
        if not 0 <= slot_no < self.slot_count:
            raise PageError(f"slot {slot_no} out of range (count={self.slot_count})")
        return SLOT.unpack_from(self.raw, _HEADER_SIZE + slot_no * _SLOT_SIZE)

    def _set_slot(self, slot_no, offset, length):
        SLOT.pack_into(self.raw, _HEADER_SIZE + slot_no * _SLOT_SIZE, offset, length)

    def free_space(self):
        return self.free_end - (_HEADER_SIZE + self.slot_count * _SLOT_SIZE)

    def fits(self, data_len, *, reuse_slot=False):
        need = data_len if reuse_slot else data_len + _SLOT_SIZE
        return self.free_space() >= need

    def insert(self, data):
        if len(data) > USABLE_END - _HEADER_SIZE - _SLOT_SIZE:
            raise PageFullError(f"record of {len(data)} bytes can never fit in a page")
        free_slot = self._find_tombstone()
        reuse = free_slot is not None
        if not self.fits(len(data), reuse_slot=reuse):
            self.compact()
        if not self.fits(len(data), reuse_slot=reuse):
            raise PageFullError(f"no room for {len(data)} bytes (free={self.free_space()})")
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

    def insert_at(self, slot_no, data):
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

    def get(self, slot_no):
        if not 0 <= slot_no < self.slot_count:
            return None
        offset, length = self._slot(slot_no)
        if offset == TOMBSTONE:
            return None
        return bytes(self.raw[offset : offset + length])

    def update(self, slot_no, data):
        offset, length = self._slot(slot_no)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot_no} is deleted")
        if len(data) <= length:
            self.raw[offset : offset + len(data)] = data
            self._set_slot(slot_no, offset, len(data))
            return
        old_data = bytes(self.raw[offset : offset + length])
        self._set_slot(slot_no, TOMBSTONE, length)
        try:
            self.insert_at(slot_no, data)
        except PageFullError:
            self.insert_at(slot_no, old_data)
            raise

    def delete(self, slot_no):
        offset, length = self._slot(slot_no)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot_no} is already deleted")
        self._set_slot(slot_no, TOMBSTONE, length)

    def records(self):
        for slot_no in range(self.slot_count):
            offset, length = self._slot(slot_no)
            if offset != TOMBSTONE:
                yield slot_no, bytes(self.raw[offset : offset + length])

    def compact(self):
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

    def _find_tombstone(self):
        for slot_no in range(self.slot_count):
            offset, _ = self._slot(slot_no)
            if offset == TOMBSTONE:
                return slot_no
        return None


def _apply(page, op):
    """``("ok", result)`` or ``("raised", exception type, message)``."""
    name, *args = op
    try:
        return "ok", getattr(page, name)(*args)
    except (PageError, PageFullError) as exc:
        return "raised", type(exc), str(exc)


# Mostly slots a page of a few records has live, then slots around the
# directory, and far past it: insert_at there grows the directory until it
# compacts the page or runs out of room.
_SLOTS = st.one_of(st.integers(-2, 12), st.integers(-2, 70), st.integers(900, 1100))
_DATA = st.one_of(st.binary(max_size=64), st.binary(min_size=200, max_size=1200))
_PAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _DATA),
        st.tuples(st.just("insert_at"), _SLOTS, _DATA),
        st.tuples(st.just("update"), _SLOTS, _DATA),
        st.tuples(st.just("delete"), _SLOTS),
        st.tuples(st.just("compact")),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(st.binary(min_size=CHECKSUM_SIZE, max_size=CHECKSUM_SIZE), _PAGE_OPS)
def test_page_images_match_the_slot_by_slot_reference(checksum, ops):
    """Every operation leaves the same bytes as the slot-by-slot page:
    placement, compaction timing, tombstone reuse and what a failed
    operation leaves behind are all part of the on-disk format.  The page
    starts as read from disk, with whatever CRC it was stamped with."""
    page = SlottedPage()
    page.raw[USABLE_END:] = checksum
    reference = ReferencePage(bytearray(page.raw))
    for op in ops:
        assert _apply(page, op) == _apply(reference, op), op
        assert page.raw == reference.raw, op
        assert list(page.records()) == list(reference.records())


@pytest.mark.parametrize("reclaimable", [0, 40])
@pytest.mark.parametrize("grow", [1, 2, 3])
@pytest.mark.parametrize("free", range(13))
def test_directory_growth_at_the_edge_matches_the_reference(free, grow, reclaimable):
    """``insert_at`` *grow* slots past the directory with *free* bytes
    left: it compacts exactly when the new slots do not fit, and when
    even a compacted page has no room it adds the slots that fit before
    raising — byte for byte as the slot-by-slot page does."""
    page = SlottedPage()
    doomed = page.insert(b"d" * reclaimable) if reclaimable else None
    page.insert(b"k" * 100)
    page.insert(b"f" * (page.free_space() - _SLOT_SIZE - free))
    if doomed is not None:
        page.delete(doomed)
    reference = ReferencePage(bytearray(page.raw))
    op = ("insert_at", page.slot_count + grow - 1, b"")
    assert _apply(page, op) == _apply(reference, op)
    assert page.raw == reference.raw


def test_a_failed_grow_restores_the_record_as_the_reference_does():
    """A grow that does not fit even after compaction puts the old bytes
    back at the compacted heap's tail and raises."""
    page = SlottedPage()
    page.insert(b"a" * 1000)
    grown = page.insert(b"b" * 1000)
    page.delete(page.insert(b"c" * 500))
    page.insert(b"d" * 500)  # room for b's old bytes without compacting
    reference = ReferencePage(bytearray(page.raw))
    op = ("update", grown, b"B" * 2600)
    outcome = _apply(page, op)
    assert outcome == _apply(reference, op)
    assert outcome[:2] == ("raised", PageFullError)
    assert page.raw == reference.raw
    assert page.get(grown) == b"b" * 1000
