"""The persistent ``TriggerState`` (paper Section 5.4.1).

    persistent struct TriggerState {
        unsigned int triggernum;
        persistent void *trigobj;
        int statenum;
        persistent metatype *trigobjtype;
    };
    typedef persistent TriggerState *TriggerId;

Plus the trigger's activation arguments — the paper subclasses TriggerState
per trigger (``CredCardAutoRaiseLimitStruct`` adds ``amount``); we store a
params dict in the same record.  The state lives in the *database*, not in
the object (design goal 5: object layout never changes) and not in program
memory (unlike Sentinel) — which is what makes Ode's composite events
*global*: a trigger activated by one application advances and fires across
later applications and sessions.

``TriggerId`` is a persistent pointer to the state record.

Like the paper's ``persistent struct``, the record has a fixed layout
rather than the self-describing tagged encoding of object records (a
state's fields never change, so it needs no per-field names)::

    <BqqqHH   mark byte, triggernum, statenum, trigobj rid,
              len(trigobj db name), len(trigobjtype)
    bytes     the db name, then trigobjtype, both UTF-8
    value     params, one tagged value (repro.objects.serialize)
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any

from repro.errors import SerializationError, TriggerError
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import decode_value, encode_value

#: A trigger identifier is a persistent pointer to its TriggerState record.
TriggerId = PersistentPtr

#: First byte of every state record.  Object records start with their
#: format version (1) and tagged values with a tag (0-9), so neither can
#: be taken for a state.
_MARK = 0xA5
_HEAD = struct.Struct("<BqqqHH")
_I64_RANGE = range(-(2**63), 2**63)
_NAME_MAX = 0xFFFF  # the head stores each name length as ``H``


@dataclasses.dataclass
class TriggerState:
    """In-memory image of one persistent trigger-state record."""

    triggernum: int
    trigobj: PersistentPtr
    statenum: int
    trigobjtype: str  # name of the class that *defined* the trigger
    params: dict[str, Any] = dataclasses.field(default_factory=dict)

    def encode(self) -> bytes:
        trigobj = self.trigobj
        try:
            db_name = trigobj.db_name.encode("utf-8")
            type_name = self.trigobjtype.encode("utf-8")
            head = _HEAD.pack(
                _MARK,
                self.triggernum,
                self.statenum,
                trigobj.rid,
                len(db_name),
                len(type_name),
            )
        except (AttributeError, struct.error):
            raise SerializationError(self._unencodable()) from None
        if (
            type(self.triggernum) is bool
            or type(self.statenum) is bool
            or not isinstance(self.params, dict)
        ):
            raise SerializationError(self._unencodable())
        out = bytearray(head)
        out += db_name
        out += type_name
        encode_value(self.params, out)
        return bytes(out)

    def _unencodable(self) -> str:
        """Why :meth:`encode` refused, naming the field (its slow path).

        ``bool`` is an ``int`` subclass that ``struct`` accepts, so the
        integer fields reject it explicitly — a ``True`` statenum would
        otherwise advance the DFA from state 1."""
        ptr = self.trigobj
        fields: list[tuple[str, Any, type]] = [
            ("triggernum", self.triggernum, int),
            ("statenum", self.statenum, int),
            ("trigobj", ptr, PersistentPtr),
        ]
        if isinstance(ptr, PersistentPtr):
            fields += [
                ("trigobj.rid", ptr.rid, int),
                ("trigobj.db_name", ptr.db_name, str),
            ]
        fields += [
            ("trigobjtype", self.trigobjtype, str),
            ("params", self.params, dict),
        ]
        for name, value, expected in fields:
            if not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                return (
                    f"trigger-state field {name!r} is {type(value).__name__} "
                    f"({value!r}), expected {expected.__name__}"
                )
            if expected is int and value not in _I64_RANGE:
                return f"trigger-state field {name!r} = {value} does not fit in 64 bits"
            if expected is str and len(value.encode("utf-8")) > _NAME_MAX:
                return (
                    f"trigger-state field {name!r} is longer than "
                    f"{_NAME_MAX} UTF-8 bytes"
                )
        return "trigger state cannot be encoded"

    @classmethod
    def decode(cls, raw: bytes) -> "TriggerState":
        """Decode a state record; anything that is not one — a truncated
        or bit-flipped record, or another record kind — raises
        :class:`TriggerError`, so fsck and ODE1xx can report instead of
        crashing deep in the DFA advance."""
        try:
            mark, triggernum, statenum, rid, name_len, type_len = _HEAD.unpack_from(raw)
            if mark != _MARK:
                raise TriggerError(
                    f"corrupt trigger-state record: mark byte {mark:#04x}, "
                    f"expected {_MARK:#04x}"
                )
            name_end = _HEAD.size + name_len
            type_end = name_end + type_len
            if type_end > len(raw):
                raise TriggerError(
                    "corrupt trigger-state record: names run past the end"
                )
            db_name = raw[_HEAD.size : name_end].decode("utf-8")
            trigobjtype = raw[name_end:type_end].decode("utf-8")
            params, end = decode_value(raw, type_end)
        except (struct.error, UnicodeDecodeError, SerializationError) as exc:
            raise TriggerError(f"corrupt trigger-state record: {exc}") from None
        if end != len(raw):
            raise TriggerError(
                f"corrupt trigger-state record: {len(raw)} bytes, "
                f"the fields span {end}"
            )
        if type(params) is not dict:
            raise TriggerError(
                "corrupt trigger-state record: field 'params' is "
                f"{type(params).__name__}, expected a mapping"
            )
        return cls(
            triggernum, PersistentPtr(db_name, rid), statenum, trigobjtype, params
        )

    def clone(self) -> "TriggerState":
        """An independent working copy (the MVCC buffer advances clones,
        never the immutable committed snapshots)."""
        return TriggerState(
            triggernum=self.triggernum,
            trigobj=self.trigobj,
            statenum=self.statenum,
            trigobjtype=self.trigobjtype,
            params=dict(self.params),
        )

    def arg_tuple(self, param_names: tuple[str, ...]) -> tuple[Any, ...]:
        """The activation arguments in declaration order."""
        return tuple(self.params[name] for name in param_names)
