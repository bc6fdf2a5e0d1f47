"""Serialization tests: tagged values, object records, pointers."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.serialize import (
    FLAG_HAS_TRIGGERS,
    FORMAT_VERSION,
    decode_object,
    decode_value,
    encode_object,
    encode_value,
    peek_object,
)


def roundtrip(value):
    out = bytearray()
    encode_value(value, out)
    decoded, pos = decode_value(bytes(out), 0)
    assert pos == len(out)
    return decoded


class TestValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            0,
            -1,
            2**40,
            3.14,
            float("inf"),
            True,
            False,
            "",
            "hello",
            "uniçode ✓",
            b"",
            b"\x00\xff",
            [],
            [1, "two", 3.0, None],
            {},
            {"k": [1, {"nested": b"bytes"}]},
            PersistentPtr("bank", 42),
            NULL_PTR,
            [PersistentPtr("a", 1), PersistentPtr("b", 2)],
        ],
    )
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_bool_stays_bool(self):
        assert roundtrip(True) is True
        assert isinstance(roundtrip(True), bool)

    def test_int_stays_int(self):
        assert isinstance(roundtrip(1), int)
        assert not isinstance(roundtrip(1), bool)

    def test_unserializable_raises(self):
        with pytest.raises(SerializationError):
            roundtrip(object())

    def test_non_string_dict_key_raises(self):
        with pytest.raises(SerializationError):
            roundtrip({1: "x"})

    def test_unknown_tag_raises(self):
        with pytest.raises(SerializationError):
            decode_value(b"\xfa", 0)


_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.integers(-(2**62), 2**62),
        st.floats(allow_nan=False),
        st.booleans(),
        st.text(max_size=40),
        st.binary(max_size=40),
        st.builds(PersistentPtr, st.text(max_size=10), st.integers(-1, 2**40)),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None)
@given(value=_VALUES)
def test_value_roundtrip_property(value):
    assert roundtrip(value) == value


class TestObjectRecords:
    def test_roundtrip(self):
        fields = {"name": "Narain", "balance": 12.5, "tags": ["a", "b"]}
        raw = encode_object("CredCard", fields, flags=0)
        type_name, decoded, flags, group = decode_object(raw)
        assert type_name == "CredCard"
        assert decoded == fields
        assert flags == 0
        assert group == -1

    def test_flags_roundtrip_and_peek(self):
        raw = encode_object("T", {"v": 1}, flags=FLAG_HAS_TRIGGERS, group=4242)
        assert raw[0] == FORMAT_VERSION == 2
        assert peek_object(raw) == ("T", FLAG_HAS_TRIGGERS, 4242)
        _, fields, flags, group = decode_object(raw)
        assert (fields, flags, group) == ({"v": 1}, FLAG_HAS_TRIGGERS, 4242)

    def test_peek_object_reads_the_header_and_refuses_other_records(self):
        raw = encode_object("CredCard", {"v": 1})
        assert peek_object(raw) == ("CredCard", 0, -1)
        catalog = bytearray()
        encode_value({"pmap:trigger_index": 7}, catalog)
        not_objects = [
            b"",
            bytes(catalog),  # the catalog, a B-tree node, the phoenix queue
            struct.pack("<II", 2, 0),  # a two-entry index bucket
            bytes([0xA6]) + raw[1:],  # a trigger group's mark
            bytes([FORMAT_VERSION, 0x80]) + raw[2:],  # an unknown flag
            raw[:8],  # a name running past the record
            encode_object("not a name", {}),
            raw[:6] + b"\xff" + raw[7:],  # a name that is not UTF-8
        ]
        for record in not_objects:
            assert peek_object(record) is None, record

    def test_the_group_rid_defaults_to_minus_one(self):
        raw = encode_object("CredCard", {"v": 1}, FLAG_HAS_TRIGGERS)
        assert decode_object(raw)[2:] == (FLAG_HAS_TRIGGERS, -1)

    def test_a_group_rid_is_stored_only_with_the_flag(self):
        fields = {"v": 1}
        plain = encode_object("T", fields, 0, group=4242)
        assert plain == encode_object("T", fields)
        assert decode_object(plain)[2:] == (0, -1)
        flagged = encode_object("T", fields, FLAG_HAS_TRIGGERS, group=4242)
        assert len(flagged) == len(plain) + 8

    def test_bad_version_raises(self):
        raw = bytearray(encode_object("T", {}))
        raw[0] = 99
        with pytest.raises(SerializationError):
            decode_object(bytes(raw))

    def test_a_version_one_record_is_refused_not_misread(self):
        # Version 1 had no group rid: its flagged records would be misread.
        raw = bytearray(encode_object("T", {"v": 1}, FLAG_HAS_TRIGGERS, group=7))
        raw[0] = 1
        with pytest.raises(SerializationError, match="version 1"):
            decode_object(bytes(raw))

    def test_field_error_names_field(self):
        with pytest.raises(SerializationError, match="bad_field"):
            encode_object("T", {"bad_field": object()})


def _version_one_record(type_name, fields, flags):
    """The record format 1 wrote: version, flags, type name, fields."""
    out = bytearray(struct.pack("<BB", 1, flags))
    raw_name = type_name.encode("utf-8")
    out += struct.pack("<I", len(raw_name)) + raw_name
    out += struct.pack("<I", len(fields))
    for name, value in fields.items():
        raw = name.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
        encode_value(value, out)
    return bytes(out)


@settings(max_examples=80, deadline=None)
@given(
    type_name=st.text(max_size=12),
    fields=st.dictionaries(st.text(max_size=8), _VALUES, max_size=4),
)
def test_a_trigger_free_record_changed_only_its_version_byte(type_name, fields):
    raw = encode_object(type_name, fields)
    before = _version_one_record(type_name, fields, 0)
    assert raw[0] == FORMAT_VERSION and before[0] == 1
    assert raw[1:] == before[1:]
    assert decode_object(raw) == (type_name, fields, 0, -1)


class TestPointer:
    def test_encode_decode(self):
        ptr = PersistentPtr("mydb", 12345)
        decoded, pos = PersistentPtr.decode_from(ptr.encode(), 0)
        assert decoded == ptr
        assert pos == len(ptr.encode())

    def test_null_detection(self):
        assert NULL_PTR.is_null()
        assert not PersistentPtr("db", 0).is_null()

    def test_ordering_and_hash(self):
        a = PersistentPtr("db", 1)
        b = PersistentPtr("db", 2)
        assert a < b
        assert len({a, b, PersistentPtr("db", 1)}) == 2
