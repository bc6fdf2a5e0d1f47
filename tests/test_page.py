"""Slotted-page unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, PageFullError
from repro.storage.page import PAGE_SIZE, USABLE_END, SlottedPage


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
