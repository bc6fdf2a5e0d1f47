"""Persistent pointers.

A persistent pointer identifies a persistent object by the database it
lives in and its record id there.  Pointers are value objects: hashable,
comparable, and serializable, so they can be stored inside other persistent
objects (that is how inter-object references work).
"""

from __future__ import annotations

import dataclasses
import struct

_LEN = struct.Struct("<I")
_RID = struct.Struct("<q")


@dataclasses.dataclass(frozen=True, order=True)
class PersistentPtr:
    """A pointer to a persistent object: ``(database name, record id)``."""

    db_name: str
    rid: int

    def is_null(self) -> bool:
        """Whether this is the distinguished null pointer."""
        return self.rid < 0

    def encode(self) -> bytes:
        name = self.db_name.encode("utf-8")
        return _LEN.pack(len(name)) + name + _RID.pack(self.rid)

    @classmethod
    def decode_from(cls, raw: bytes, pos: int) -> tuple["PersistentPtr", int]:
        (nlen,) = _LEN.unpack_from(raw, pos)
        pos += _LEN.size
        name = raw[pos : pos + nlen].decode("utf-8")
        pos += nlen
        (rid,) = _RID.unpack_from(raw, pos)
        pos += _RID.size
        return cls(name, rid), pos

    def __repr__(self) -> str:
        if self.is_null():
            return "PersistentPtr(NULL)"
        return f"PersistentPtr({self.db_name!r}, {self.rid})"


NULL_PTR = PersistentPtr("", -1)
"""The null persistent pointer (dereferencing it raises)."""


@dataclasses.dataclass(frozen=True, order=True)
class TriggerId(PersistentPtr):
    """A trigger identifier: ``(database name, group rid, serial)``.

    The paper's ``typedef persistent TriggerState *TriggerId``.  An
    object's trigger states live in one group record, so the pointer part
    names the group and *serial* names the state inside it; a serial is
    never reused while its group lives.  Still a persistent pointer, so
    ``Database.of`` resolves it and it can be stored in persistent fields
    (it has its own tag in :mod:`repro.objects.serialize`)."""

    serial: int

    def encode(self) -> bytes:
        return super().encode() + _RID.pack(self.serial)

    @classmethod
    def decode_from(cls, raw: bytes, pos: int) -> tuple["TriggerId", int]:
        ptr, pos = PersistentPtr.decode_from(raw, pos)
        (serial,) = _RID.unpack_from(raw, pos)
        return cls(ptr.db_name, ptr.rid, serial), pos + _RID.size
