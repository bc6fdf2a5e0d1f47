"""The fixed record layouts of the trigger layer: TriggerState, the object
header's trigger-group rid, and the persistent map's header and bucket
records (DESIGN.md "Record formats").

Round-trips at the edges of every field, point lookups checked against a
full decode, corruption that must surface as ``TriggerError`` (never as a
raw ``struct.error``/``UnicodeDecodeError``/``IndexError``), and the
encode-side range checks that raise ``SerializationError``.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.trigger_state import TriggerState
from repro.errors import SerializationError, TriggerError
from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.pmap import PersistentMap
from repro.objects.schema import field
from repro.objects.serialize import (
    FLAG_HAS_TRIGGERS,
    FORMAT_VERSION,
    decode_object,
    decode_value,
    encode_object,
    encode_value,
)

_names = itertools.count()

_I64 = st.integers(-(2**63), 2**63 - 1)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _I64,
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.builds(PersistentPtr, st.text(max_size=6), _I64),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=10,
)
_STATES = st.builds(
    TriggerState,
    triggernum=_I64,
    trigobj=st.builds(PersistentPtr, st.text(max_size=16), _I64),
    statenum=_I64,
    trigobjtype=st.text(max_size=16),
    params=st.dictionaries(st.text(max_size=8), _VALUES, max_size=4),
)
_EXTREME = TriggerState(
    triggernum=2**63 - 1,
    trigobj=PersistentPtr("bänk ✓", -(2**63)),
    statenum=-(2**63),
    trigobjtype="Kreditkarte€",
    params={"Betrag": 2**63 - 1, "näme": "ü", "ptr": PersistentPtr("δ", -1)},
)


def _open():
    return Database.open(None, engine="mm", name=f"records-{next(_names)}")


def _assert_valid(state: TriggerState) -> None:
    assert type(state.triggernum) is int and type(state.statenum) is int
    assert type(state.trigobj) is PersistentPtr
    assert type(state.trigobjtype) is str and type(state.params) is dict
    state.encode()  # whatever decodes can be written back


# ---------------------------------------------------------------------------
# TriggerState
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(state=_STATES)
@example(state=_EXTREME)
def test_trigger_state_roundtrip(state):
    assert TriggerState.decode(state.encode()) == state


@settings(max_examples=40, deadline=None)
@given(state=_STATES)
@example(state=_EXTREME)
def test_trigger_state_prefixes_and_byte_flips_never_leak(state):
    raw = state.encode()
    for end in range(len(raw)):
        with pytest.raises(TriggerError):
            TriggerState.decode(raw[:end])
    for pos in range(len(raw)):
        for flip in (0x01, 0x80, 0xFF):
            bad = bytearray(raw)
            bad[pos] ^= flip
            try:
                decoded = TriggerState.decode(bytes(bad))
            except TriggerError:
                continue
            _assert_valid(decoded)


def test_trigger_state_rejects_other_record_kinds():
    for raw in (
        b"",
        encode_object("HotObject", {"value": 1}),
        encode_object("HotObject", {"value": 1}, FLAG_HAS_TRIGGERS, 7),
    ):
        with pytest.raises(TriggerError):
            TriggerState.decode(raw)


@pytest.mark.parametrize(
    "overrides, field_name",
    [
        ({"triggernum": 2**63}, "triggernum"),
        ({"statenum": -(2**63) - 1}, "statenum"),
        ({"trigobj": PersistentPtr("db", 2**64)}, "trigobj.rid"),
        ({"trigobj": PersistentPtr("d" * 0x10000, 1)}, "trigobj.db_name"),
        ({"trigobjtype": "é" * 0x8000}, "trigobjtype"),  # 2 bytes a char
    ],
)
def test_trigger_state_head_out_of_range_names_the_field(overrides, field_name):
    fields = dict(
        triggernum=1, trigobj=PersistentPtr("db", 7), statenum=0, trigobjtype="T"
    )
    fields.update(overrides)
    with pytest.raises(SerializationError, match=field_name):
        TriggerState(**fields).encode()


# ---------------------------------------------------------------------------
# Object records: the header names the trigger group
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    fields=st.dictionaries(st.text(max_size=6), _VALUES, max_size=4),
    flags=st.sampled_from([0, FLAG_HAS_TRIGGERS, 0x80, FLAG_HAS_TRIGGERS | 0x80]),
    group=_I64,
)
@example(fields={}, flags=FLAG_HAS_TRIGGERS, group=-(2**63))
@example(fields={"n": 1}, flags=FLAG_HAS_TRIGGERS, group=2**63 - 1)
def test_object_header_roundtrip(fields, flags, group):
    """Four fields back; the group rid only when the flag stores one."""
    raw = encode_object("Gadget", fields, flags, group)
    assert raw[0] == FORMAT_VERSION
    stored = group if flags & FLAG_HAS_TRIGGERS else -1
    assert decode_object(raw) == ("Gadget", fields, flags, stored)


@pytest.mark.parametrize("group", [2**63, -(2**63) - 1, None])
def test_object_header_refuses_a_group_rid_that_is_not_64_bits(group):
    with pytest.raises(SerializationError, match="'group'"):
        encode_object("Gadget", {}, FLAG_HAS_TRIGGERS, group)


#: Scalars at the edges of their encodings; ``True`` and ``1`` differ
#: only in type, ``-0.0`` and ``0.0`` only in sign.
_SCALAR_EDGES = {
    "i64_min": -(2**63),
    "i64_max": 2**63 - 1,
    "neg_zero": -0.0,
    "inf": float("inf"),
    "true": True,
    "one": 1,
    "none": None,
    "empty": "",
}


@settings(max_examples=60, deadline=None)
@given(
    fields=st.dictionaries(st.text(max_size=6), _VALUES, max_size=4),
    flags=st.sampled_from([0, FLAG_HAS_TRIGGERS]),
)
@example(fields=_SCALAR_EDGES, flags=0)
@example(fields={}, flags=FLAG_HAS_TRIGGERS)
def test_object_record_prefixes_raise_and_never_decode_short(fields, flags):
    raw = encode_object("Gadget", fields, flags, 7)
    for end in range(len(raw)):
        with pytest.raises(SerializationError):
            decode_object(raw[:end])


@pytest.mark.parametrize("name", sorted(_SCALAR_EDGES))
def test_a_scalar_field_decodes_to_its_value_and_its_type(name):
    value = _SCALAR_EDGES[name]
    fields = {"before": "x", name: value, "after": 2}
    decoded = decode_object(encode_object("Gadget", fields))[1]
    assert decoded == fields
    got = decoded[name]
    assert type(got) is type(value)  # a bool never comes back as an int
    if type(value) is float:
        assert math.copysign(1.0, got) == math.copysign(1.0, value)
    encoded = bytearray()
    encode_value(value, encoded)
    alone, end = decode_value(bytes(encoded), 0)
    assert end == len(encoded)
    assert type(alone) is type(got) and repr(alone) == repr(got)


# ---------------------------------------------------------------------------
# Persistent map: header and bucket records
# ---------------------------------------------------------------------------

_KEYS = st.text(
    st.characters(exclude_characters="\0", exclude_categories=["Cs"]), max_size=10
)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.dictionaries(_KEYS, _VALUES, max_size=40),
    removed=st.sets(_KEYS, max_size=5),
    bucket_count=st.integers(1, 8),
)
def test_pmap_point_lookups_agree_with_a_full_decode(entries, removed, bucket_count):
    db = _open()
    try:
        pmap = PersistentMap(db, "m", bucket_count=bucket_count)
        with db.transaction() as txn:
            for key, value in entries.items():
                pmap.put(txn, key, value)
            for key in removed:
                assert pmap.remove(txn, key) is (key in entries)
        expected = {k: v for k, v in entries.items() if k not in removed}
        with db.transaction() as txn:
            full = dict(pmap.items(txn))
            assert full == expected
            for key in set(entries) | removed | {"", "absent"}:
                assert pmap.get(txn, key, "dflt") == full.get(key, "dflt")
            # The header slot a lookup unpacks agrees with the whole array.
            if entries:
                buckets = pmap._buckets(txn, db.catalog_get("pmap:m"))
                assert len(buckets) == bucket_count
                assert pmap.rids(txn) - {db.catalog_get("pmap:m")} == {
                    rid for rid in buckets if rid >= 0
                }
                for key in expected:
                    slot = buckets[pmap._bucket_for(key)]
                    assert pmap._bucket_rid(txn, key) == slot >= 0
    finally:
        db.close()


def test_pmap_empty_key_is_an_ordinary_key():
    db = _open()
    try:
        pmap = PersistentMap(db, "empty-key", bucket_count=1)
        with db.transaction() as txn:
            pmap.put(txn, "x", 1)
            assert pmap.remove(txn, "x")
            assert pmap.get(txn, "", "dflt") == "dflt"  # emptied bucket
            pmap.put(txn, "", 0)
            pmap.put(txn, "y", 2)
            assert pmap.get(txn, "") == 0
            assert dict(pmap.items(txn)) == {"": 0, "y": 2}
    finally:
        db.close()


def test_pmap_key_with_nul_is_refused():
    db = _open()
    try:
        pmap = PersistentMap(db, "nul")
        with db.transaction() as txn:
            with pytest.raises(SerializationError, match="NUL"):
                pmap.put(txn, "a\0b", 1)
            assert pmap.get(txn, "a\0b", "dflt") == "dflt"
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Tagged values: out-of-range ints
# ---------------------------------------------------------------------------


class HugeIntHolder(Persistent):
    n = field(int, default=0)


def test_encode_value_refuses_an_int_wider_than_64_bits():
    for value in (2**63, -(2**63) - 1, 2**70):
        with pytest.raises(SerializationError, match="64 bits"):
            encode_value(value, bytearray())


def test_pnew_with_a_huge_int_raises_serialization_error():
    db = _open()
    try:
        with pytest.raises(SerializationError, match="'n'"):
            with db.transaction():
                db.pnew(HugeIntHolder, n=2**70)
    finally:
        db.close()
