"""Typed serialization of persistent objects.

Objects are stored as self-describing records: a header (format version,
flags, the trigger group's rid when the object has active triggers, type
name) followed by named, tagged field values.  Decoding is by field
*name*, so adding or removing fields — and, crucially, adding or removing
*triggers*, which are not fields at all — never forces a data conversion
(paper design goal 5).

The value encoding is a small recursive tagged format covering ``None``,
ints, floats, bools, strings, bytes, persistent pointers (trigger ids
included), lists, and dicts with string keys.
"""

from __future__ import annotations

import struct
import threading
from typing import Any

from repro.errors import SerializationError
from repro.objects.oid import PersistentPtr, TriggerId

#: 2: the trigger group's rid follows the flags when the object has
#: active triggers.  A version-1 record is refused, not misread.
FORMAT_VERSION = 2

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
#: An object record's header up to its type name: version, flags, name
#: length — and, with the has-triggers flag, the group rid before the length.
_HEAD = struct.Struct("<BBI")
_GROUP_HEAD = struct.Struct("<BBqI")

_TAG_NONE = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_BOOL = 3
_TAG_STR = 4
_TAG_BYTES = 5
_TAG_PTR = 6
_TAG_LIST = 7
_TAG_DICT = 8
_TAG_TUPLE = 9
_TAG_TRIGGER_ID = 10

#: Object-header flag: the object has active triggers, and the header names
#: their trigger group.  The paper (footnote 3) keeps this in the object's
#: control information so PostEvent can skip trigger-free objects; the
#: first activation sets it and the last deactivation clears it.
FLAG_HAS_TRIGGERS = 0x01

#: Values a memoized decode may hand out more than once: each caller gets
#: a fresh dict, and these cannot be changed through it.
IMMUTABLE = frozenset({type(None), bool, int, float, str, bytes, PersistentPtr, TriggerId})

#: :func:`decode_object`'s memo: a whole object record's bytes -> what it
#: decodes to.  It holds at most ``_OBJECT_MEMO_ENTRIES`` records (at least
#: the benchmark's largest hot set; it is emptied when full) of at most
#: ``_OBJECT_MEMO_BYTES`` each, and only records whose field values are
#: all :data:`IMMUTABLE`.
_OBJECT_MEMO_ENTRIES = 4096
_OBJECT_MEMO_BYTES = 1024
_OBJECT_MEMO: dict[bytes, tuple[str, dict[str, Any], int, int]] = {}
#: Type names whose record held a container: their later decodes skip the
#: memo's scan and insert.  At most ``_UNSHAREABLE_MAX`` (emptied when full).
_UNSHAREABLE_MAX = 256
_UNSHAREABLE: dict[str, None] = {}
_MEMO_LOCK = threading.Lock()


def remember(memo: dict, key, value, bound: int) -> None:
    """Memoize *value* under *key* in *memo*, which holds at most *bound*
    entries: it is emptied when full.  Readers ``get`` without the lock;
    sessions decode on several threads, so inserts take it."""
    with _MEMO_LOCK:
        if len(memo) >= bound:
            memo.clear()
        memo[key] = value


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------


def encode_value(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of *value* to *out*."""
    if value is None:
        out += _U8.pack(_TAG_NONE)
    elif isinstance(value, bool):  # before int: bool is an int subclass
        out += _U8.pack(_TAG_BOOL)
        out += _U8.pack(1 if value else 0)
    elif isinstance(value, int):
        try:
            packed = _I64.pack(value)
        except struct.error:
            raise SerializationError(
                f"int {value} does not fit in 64 bits"
            ) from None
        out += _U8.pack(_TAG_INT)
        out += packed
    elif isinstance(value, float):
        out += _U8.pack(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _U8.pack(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += _U8.pack(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, TriggerId):  # before PersistentPtr: a subclass
        out += _U8.pack(_TAG_TRIGGER_ID)
        out += value.encode()
    elif isinstance(value, PersistentPtr):
        out += _U8.pack(_TAG_PTR)
        out += value.encode()
    elif isinstance(value, (list, tuple)):
        out += _U8.pack(_TAG_TUPLE if isinstance(value, tuple) else _TAG_LIST)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out += _U8.pack(_TAG_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise SerializationError(
                    f"dict keys must be strings, got {type(key).__name__}"
                )
            raw = key.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
            encode_value(item, out)
    else:
        raise SerializationError(f"cannot serialize {type(value).__name__} values")


def decode_value(raw: bytes, pos: int) -> tuple[Any, int]:
    """Decode one tagged value from *raw* at *pos*; returns (value, new pos)."""
    (tag,) = _U8.unpack_from(raw, pos)
    pos += _U8.size
    # Containers first: a trigger group's params (a list of dicts) are
    # decoded on every object's first posting in a transaction.
    if tag == _TAG_DICT:
        (count,) = _U32.unpack_from(raw, pos)
        pos += _U32.size
        result: dict[str, Any] = {}
        for _ in range(count):
            (klen,) = _U32.unpack_from(raw, pos)
            pos += _U32.size
            key = raw[pos : pos + klen].decode("utf-8")
            pos += klen
            result[key], pos = decode_value(raw, pos)
        return result, pos
    if tag == _TAG_LIST or tag == _TAG_TUPLE:
        (count,) = _U32.unpack_from(raw, pos)
        pos += _U32.size
        items = []
        for _ in range(count):
            item, pos = decode_value(raw, pos)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), pos
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_BOOL:
        (flag,) = _U8.unpack_from(raw, pos)
        return bool(flag), pos + _U8.size
    if tag == _TAG_INT:
        (value,) = _I64.unpack_from(raw, pos)
        return value, pos + _I64.size
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(raw, pos)
        return value, pos + _F64.size
    if tag == _TAG_STR:
        (length,) = _U32.unpack_from(raw, pos)
        pos += _U32.size
        return raw[pos : pos + length].decode("utf-8"), pos + length
    if tag == _TAG_BYTES:
        (length,) = _U32.unpack_from(raw, pos)
        pos += _U32.size
        return bytes(raw[pos : pos + length]), pos + length
    if tag == _TAG_PTR:
        return PersistentPtr.decode_from(raw, pos)
    if tag == _TAG_TRIGGER_ID:
        return TriggerId.decode_from(raw, pos)
    raise SerializationError(f"unknown value tag {tag}")


# ---------------------------------------------------------------------------
# Object records
# ---------------------------------------------------------------------------


def encode_object(
    type_name: str, fields: dict[str, Any], flags: int = 0, group: int = -1
) -> bytes:
    """Serialize an object's fields under its stored *type_name*.  *group*,
    the rid of the object's trigger group, is stored only when *flags*
    has :data:`FLAG_HAS_TRIGGERS`, so a trigger-free record carries none."""
    raw_name = type_name.encode("utf-8")
    if flags & FLAG_HAS_TRIGGERS:
        try:
            out = bytearray(
                _GROUP_HEAD.pack(FORMAT_VERSION, flags, group, len(raw_name))
            )
        except struct.error:
            raise SerializationError(
                f"header field 'group' = {group!r} is not a 64-bit rid"
            ) from None
    else:
        out = bytearray(_HEAD.pack(FORMAT_VERSION, flags, len(raw_name)))
    out += raw_name
    out += _U32.pack(len(fields))
    for name, value in fields.items():
        raw = name.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
        try:
            encode_value(value, out)
        except SerializationError as exc:
            raise SerializationError(f"field {name!r}: {exc}") from exc
    return bytes(out)


def decode_object(raw: bytes) -> tuple[str, dict[str, Any], int, int]:
    """Deserialize a record into ``(type_name, fields, flags, group)``;
    *group* is -1 unless *flags* has :data:`FLAG_HAS_TRIGGERS`.

    A truncated or garbled record, or one with bytes after its last
    field, raises :class:`SerializationError`, never a short decode.

    *raw* must be ``bytes``: it is the memo's key.  A record the memo
    above keeps is decoded once per content: decoding is a pure function
    of the bytes, so a changed record is a miss and nothing needs
    invalidating.  Every call returns a fresh ``fields`` dict."""
    memoized = _OBJECT_MEMO.get(raw)
    if memoized is not None:
        type_name, fields, flags, group = memoized
        return type_name, fields.copy(), flags, group
    try:
        version, flags, nlen = _HEAD.unpack_from(raw)
        if version != FORMAT_VERSION:
            raise SerializationError(f"unsupported object format version {version}")
        if flags & FLAG_HAS_TRIGGERS:
            _version, _flags, group, nlen = _GROUP_HEAD.unpack_from(raw)
            pos = _GROUP_HEAD.size
        else:
            group = -1
            pos = _HEAD.size
        type_name = raw[pos : pos + nlen].decode("utf-8")
        pos += nlen
        (count,) = _U32.unpack_from(raw, pos)
        pos += _U32.size
        fields: dict[str, Any] = {}
        for _ in range(count):
            (flen,) = _U32.unpack_from(raw, pos)
            pos += _U32.size
            name = raw[pos : pos + flen].decode("utf-8")
            pos += flen
            fields[name], pos = decode_value(raw, pos)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise SerializationError(f"truncated or corrupt object record: {exc}") from None
    if pos != len(raw):
        raise SerializationError(
            f"corrupt object record: {len(raw)} bytes, the fields span {pos}"
        )
    if len(raw) <= _OBJECT_MEMO_BYTES and type_name not in _UNSHAREABLE:
        if all(type(value) in IMMUTABLE for value in fields.values()):
            remember(
                _OBJECT_MEMO, raw, (type_name, fields.copy(), flags, group),
                _OBJECT_MEMO_ENTRIES,
            )
        else:
            remember(_UNSHAREABLE, type_name, None, _UNSHAREABLE_MAX)
    return type_name, fields, flags, group


def peek_object(raw: bytes) -> tuple[str, int, int] | None:
    """An object record's ``(type_name, flags, group)`` read from its
    header alone, or ``None`` when *raw* is no object record — the
    catalog, a trigger group, an index header or bucket, a B-tree node,
    the phoenix queue.  The one place that decides what is an object
    record: the format version, no unknown flag, and a type name that fits
    before the field count and is an identifier."""
    if len(raw) < _HEAD.size or raw[0] != FORMAT_VERSION:
        return None
    flags = raw[1]
    if flags & ~FLAG_HAS_TRIGGERS:
        return None
    if flags & FLAG_HAS_TRIGGERS:
        if len(raw) < _GROUP_HEAD.size:
            return None
        _version, _flags, group, nlen = _GROUP_HEAD.unpack_from(raw)
        pos = _GROUP_HEAD.size
    else:
        _version, _flags, nlen = _HEAD.unpack_from(raw)
        group = -1
        pos = _HEAD.size
    if pos + nlen + _U32.size > len(raw):
        return None
    try:
        type_name = raw[pos : pos + nlen].decode("utf-8")
    except UnicodeDecodeError:
        return None
    return (type_name, flags, group) if type_name.isidentifier() else None
