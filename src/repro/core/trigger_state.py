"""The persistent ``TriggerState`` (paper Section 5.4.1) and the record
that stores it: one **trigger group** per object.

    persistent struct TriggerState {
        unsigned int triggernum;
        persistent void *trigobj;
        int statenum;
        persistent metatype *trigobjtype;
    };
    typedef persistent TriggerState *TriggerId;

Plus the trigger's activation arguments — the paper subclasses TriggerState
per trigger (``CredCardAutoRaiseLimitStruct`` adds ``amount``); we keep a
params dict with each state.  The states live in the *database*, not in the
object (design goal 5: object layout never changes) and not in program
memory (unlike Sentinel) — which is what makes Ode's composite events
*global*: a trigger activated by one application advances and fires across
later applications and sessions.

PostEvent (Section 5.4.5) advances *every* active trigger on the posted-to
object, so the unit of storage is the object: its **trigger group** is one
record holding all of its active states in activation order.  A posting
reads one group per object — one read, one lock, one decode — however
many triggers are active there.  A :class:`TriggerId` names one state: the
group's rid plus a serial that is unique within the group for the group's
lifetime.

Like the paper's ``persistent struct``, the group has a fixed layout rather
than the self-describing tagged encoding of object records (a state's
fields never change, so it needs no per-field names)::

    <BqHHH      mark byte, anchor rid, next_serial, entry count,
                length of the names
    names       the anchor's db name, then the type-name table (each
                defining class once), NUL-separated, UTF-8
    <HHhB       per entry: serial, triggernum, statenum, type index
    value       every entry's params, one tagged list of dicts

Every entry's ``trigobj`` is the anchor, stored once.  A one-entry group
is one byte shorter than the one-state record :meth:`TriggerState.encode`
writes.

:func:`decode_heads` is the one parser: it returns the entries as parallel
sequences (the heads are one ``struct`` unpack), and those sequences are
the run time's one working form of a group — every state store advances
them with the group's function and writes them back (:func:`frame_group`
and :func:`pack_heads`).  :func:`decode_group` builds a ``TriggerState``
per entry from them for the tools, which want states.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Sequence
from itertools import repeat
from typing import Any

from repro.errors import SerializationError, TriggerError
from repro.objects.oid import PersistentPtr, TriggerId
from repro.objects.serialize import IMMUTABLE, decode_value, encode_value, remember

__all__ = [
    "GROUP_MARK",
    "SERIAL_MAX",
    "GroupFrame",
    "GroupHeads",
    "TriggerGroup",
    "TriggerId",
    "TriggerState",
    "decode_group",
    "decode_heads",
    "frame_group",
    "pack_heads",
]

#: First byte of a one-state record.  Object records start with their
#: format version (2) and tagged values with a tag (0-10), so neither can
#: be taken for a state.
_MARK = 0xA5
_HEAD = struct.Struct("<BqqqHH")
_I64_RANGE = range(-(2**63), 2**63)
_NAME_MAX = 0xFFFF  # the head stores each name length as ``H``

#: First byte of a group record (distinct from the one-state mark too).
GROUP_MARK = 0xA6
_GROUP_HEAD = struct.Struct("<BqHHH")
_ENTRY = struct.Struct("<HHhB")
#: Serials are ``H``: a group admits this many activations over its life.
SERIAL_MAX = 0xFFFF
_TYPES_MAX = 0xFF  # a type index is ``B``

#: :func:`decode_heads`'s memos of the two blocks an advance never
#: changes, keyed by their bytes: the names block -> the db name and the
#: type table, and the params block -> the entries' params.  Each holds
#: at most ``_MEMO_ENTRIES`` blocks (it is emptied when full) of at most
#: ``_MEMO_BLOCK_BYTES`` each; a params block only when every value is
#: ``serialize.IMMUTABLE``.
_MEMO_ENTRIES = 256
_MEMO_BLOCK_BYTES = 1024
_NAMES_MEMO: dict[bytes, tuple[str, tuple[str, ...]]] = {}
_PARAMS_MEMO: dict[bytes, tuple[dict[str, Any], ...]] = {}
#: entry count -> the ``struct`` of that many entry heads
_HEADS_STRUCTS: dict[int, struct.Struct] = {}


@dataclasses.dataclass
class TriggerState:
    """In-memory image of one trigger's state."""

    triggernum: int
    trigobj: PersistentPtr
    statenum: int
    trigobjtype: str  # name of the class that *defined* the trigger
    params: dict[str, Any] = dataclasses.field(default_factory=dict)

    def encode(self) -> bytes:
        """The one-state record.  No stored record uses it — states are
        stored in groups — and it stays because the benchmark's
        ``perf/micro.py`` times it and ``perf/trace.py`` wraps it."""
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
        fields: list[tuple[str, Any, type, Any]] = [
            ("triggernum", self.triggernum, int, _I64_RANGE),
            ("statenum", self.statenum, int, _I64_RANGE),
            ("trigobj", ptr, PersistentPtr, None),
        ]
        if isinstance(ptr, PersistentPtr):
            fields += [
                ("trigobj.rid", ptr.rid, int, _I64_RANGE),
                ("trigobj.db_name", ptr.db_name, str, _NAME_MAX),
            ]
        fields += [
            ("trigobjtype", self.trigobjtype, str, _NAME_MAX),
            ("params", self.params, dict, None),
        ]
        problem = _first_problem("trigger-state", fields)
        return problem or "trigger state cannot be encoded"

    @classmethod
    def decode(cls, raw: bytes) -> "TriggerState":
        """Decode a one-state record (see :meth:`encode`); anything that is
        not one raises :class:`TriggerError`."""
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
        """An independent copy (what ``active_triggers`` hands out)."""
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


@dataclasses.dataclass
class TriggerGroup:
    """In-memory image of one group record: the states active on one
    object (the *anchor*), as ``(serial, state)`` pairs in activation
    order, and the serial the next activation gets."""

    anchor: PersistentPtr
    next_serial: int
    entries: list[tuple[int, TriggerState]]

    def encode(self) -> bytes:
        states = [state for _, state in self.entries]
        heads = (
            [serial for serial, _ in self.entries],
            [state.triggernum for state in states],
            [state.statenum for state in states],
            [state.trigobjtype for state in states],
            [state.params for state in states],
        )
        frame = frame_group(self.anchor, self.next_serial, *heads)
        return pack_heads(frame, *heads[:3])

    @classmethod
    def decode(cls, raw: bytes) -> "TriggerGroup":
        """See :func:`decode_group`."""
        anchor, next_serial, serials, states, _frame = decode_group(raw)
        return cls(anchor, next_serial, list(zip(serials, states)))

    @classmethod
    def of(cls, heads: "GroupHeads") -> "TriggerGroup":
        """The image of a group in its working form (*heads*, as
        :func:`decode_heads` returns them)."""
        anchor, next_serial, serials, *_entries, _frame = heads
        return cls(anchor, next_serial, list(zip(serials, _states(heads))))


# The codec works on the entries as parallel sequences — serials,
# triggernums, statenums, trigobjtypes and params — the form every state
# store advances, so a group is written back without building a state.

#: A group record but for its entry heads — everything an FSM advance
#: leaves unchanged: ``(prefix, indexes, suffix)``, the head and names,
#: each entry's index into the type table, and the params value.
GroupFrame = tuple[bytes, tuple[int, ...], bytes]

#: What :func:`decode_heads` returns: ``(anchor, next_serial, serials,
#: triggernums, statenums, trigobjtypes, params, frame)``.  A group built
#: at run time has the same shape, its frame ``None`` until it is framed.
GroupHeads = tuple[
    PersistentPtr,
    int,
    Sequence[int],
    Sequence[int],
    Sequence[int],
    Sequence[str],
    Sequence[dict[str, Any]],
    GroupFrame | None,
]


def frame_group(
    anchor: PersistentPtr,
    next_serial: int,
    serials: Sequence[int],
    triggernums: Sequence[int],
    statenums: Sequence[int],
    types: Sequence[str],
    params: Sequence[dict[str, Any]],
) -> GroupFrame:
    """The frame of the group record on *anchor* whose entries are the
    parallel sequences *serials* … *params*.  Refuses, with
    :class:`SerializationError` naming the field, anything that does not
    fit the layout — a value of the wrong type (a ``bool`` where an int
    belongs included) or out of its field's range."""
    type_table: dict[str, int] = {}
    indexes = []
    try:
        for serial, triggernum, statenum, name, entry_params in zip(
            serials, triggernums, statenums, types, params
        ):
            index = type_table.get(name)
            if index is None:
                index = type_table[name] = len(type_table)
            indexes.append(index)
            if (
                type(serial) is bool
                or type(triggernum) is bool
                or type(statenum) is bool
                or type(entry_params) is not dict
            ):
                raise TypeError
        if (
            type(next_serial) is bool
            or _ragged(serials, triggernums, statenums, types, params)
            or len(type_table) > _TYPES_MAX
        ):
            raise TypeError
        names = "\0".join([anchor.db_name, *type_table]).encode("utf-8")
        if names.count(b"\0") != len(type_table):
            raise TypeError  # a name holds a NUL
        head = _GROUP_HEAD.pack(
            GROUP_MARK, anchor.rid, next_serial, len(indexes), len(names)
        )
        prefix = head + names
    except (AttributeError, TypeError, struct.error):
        raise SerializationError(
            _unencodable_group(
                anchor, next_serial, serials, triggernums, statenums, types, params
            )
        ) from None
    suffix = bytearray()
    encode_value(list(params), suffix)
    return prefix, tuple(indexes), bytes(suffix)


def _ragged(serials, *columns) -> bool:
    """Whether a column has other than one value per serial."""
    return any(len(column) != len(serials) for column in columns)


def pack_heads(
    frame: GroupFrame,
    serials: Sequence[int],
    triggernums: Sequence[int],
    statenums: Sequence[int],
) -> bytes:
    """The group record: *frame* around the entry heads — the entries the
    frame was made from, whose statenums may have advanced since.  An
    advance rewrites a group without re-encoding its names or params."""
    prefix, indexes, suffix = frame
    try:
        heads = b"".join(map(_ENTRY.pack, serials, triggernums, statenums, indexes))
    except struct.error:
        raise SerializationError(
            _first_problem(
                "trigger-group",
                [
                    field
                    for position, head in enumerate(zip(serials, triggernums, statenums))
                    for field in _head_fields(position, *head)
                ],
            )
            or "trigger group cannot be encoded"
        ) from None
    return prefix + heads + suffix


def _unencodable_group(
    anchor, next_serial, serials, triggernums, statenums, types, params
) -> str:
    """Why :func:`frame_group` refused, naming the field (its slow path)."""
    fields: list[tuple[str, Any, type, Any]] = [
        ("anchor", anchor, PersistentPtr, None),
    ]
    if isinstance(anchor, PersistentPtr):
        fields += [
            ("anchor.rid", anchor.rid, int, _I64_RANGE),
            ("anchor.db_name", anchor.db_name, str, _NAME_MAX),
        ]
    fields += [
        ("next_serial", next_serial, int, range(SERIAL_MAX + 1)),
        ("states", list(statenums), list, range(SERIAL_MAX + 1)),
    ]
    if _ragged(serials, triggernums, statenums, types, params):
        return f"trigger group has {len(serials)} serials for {len(statenums)} states"
    type_names = {name for name in types if isinstance(name, str)}
    if len(type_names) > _TYPES_MAX:
        return (
            f"trigger group has {len(type_names)} defining types, "
            f"at most {_TYPES_MAX} fit"
        )
    entries = zip(serials, triggernums, statenums, types, params)
    problem = _first_problem("trigger-group", fields + _entry_fields(entries))
    if problem:
        return problem
    names = [anchor.db_name, *type_names]
    if any("\0" in name for name in names):
        return "trigger-group names cannot contain NUL"
    if len("\0".join(names).encode("utf-8")) > _NAME_MAX:
        return f"trigger-group names are longer than {_NAME_MAX} UTF-8 bytes"
    return "trigger group cannot be encoded"


def _entry_fields(entries) -> list[tuple[str, Any, type, Any]]:
    fields: list[tuple[str, Any, type, Any]] = []
    for position, (serial, triggernum, statenum, name, params) in enumerate(entries):
        where = f"entries[{position}]"
        fields += _head_fields(position, serial, triggernum, statenum)
        fields += [
            (f"{where} trigobjtype", name, str, None),
            (f"{where} params", params, dict, None),
        ]
    return fields


def _head_fields(
    position, serial, triggernum, statenum
) -> list[tuple[str, Any, type, Any]]:
    where = f"entries[{position}]"
    return [
        (f"{where} serial", serial, int, range(SERIAL_MAX + 1)),
        (f"{where} triggernum", triggernum, int, range(0x10000)),
        (f"{where} statenum", statenum, int, range(-0x8000, 0x8000)),
    ]


def decode_group(
    raw: bytes,
) -> tuple[PersistentPtr, int, list[int], list[TriggerState], GroupFrame]:
    """``(anchor, next_serial, serials, states, frame)`` of a group record:
    :func:`decode_heads` with each entry's ``TriggerState`` built."""
    heads = decode_heads(raw)
    anchor, next_serial, serials, *_entries, frame = heads
    return anchor, next_serial, list(serials), _states(heads), frame


def _states(heads: GroupHeads) -> list[TriggerState]:
    """Each entry of *heads* as a ``TriggerState`` of its own."""
    anchor, _next, _serials, triggernums, statenums, types, params, _frame = heads
    return list(map(TriggerState, triggernums, repeat(anchor), statenums, types, params))


def decode_heads(raw: bytes) -> GroupHeads:
    """Parse a group record into its entries as parallel sequences —
    ``(anchor, next_serial, serials, triggernums, statenums, trigobjtypes,
    params, frame)`` — building no ``TriggerState``: the entry heads are
    one ``struct`` call, ``statenums`` is a fresh list its caller may
    advance in place, and each entry's params dict is the caller's own.

    The one group parser.  Anything that is not a group record — a
    truncated or bit-flipped one, or another record kind — raises
    :class:`TriggerError`, so fsck and ODE1xx can report instead of
    crashing deep in the DFA advance.  Serial order and uniqueness are
    not checked here: ``verify_integrity`` reports them.

    The names block and the params block are decoded once per distinct
    content (the memos above); every check that involves the rest of the
    record runs on every call."""
    try:
        mark, rid, next_serial, count, names_len = _GROUP_HEAD.unpack_from(raw)
        if mark != GROUP_MARK:
            raise TriggerError(
                f"corrupt trigger-group record: mark byte {mark:#04x}, "
                f"expected {GROUP_MARK:#04x}"
            )
        pos = _GROUP_HEAD.size + names_len
        heads_end = pos + _ENTRY.size * count
        if heads_end > len(raw):
            raise TriggerError(
                "corrupt trigger-group record: names or entries run past the end"
            )
        names_block = raw[_GROUP_HEAD.size : pos]
        names = _NAMES_MEMO.get(names_block)
        if names is None:
            db_name, *table = names_block.decode("utf-8").split("\0")
            names = db_name, tuple(table)
            if len(names_block) <= _MEMO_BLOCK_BYTES:
                remember(_NAMES_MEMO, names_block, names, _MEMO_ENTRIES)
        db_name, table = names
        anchor = PersistentPtr(db_name, rid)
        heads = _heads_struct(count).unpack_from(raw, pos)
        serials = heads[0::4]
        indexes = heads[3::4]
        if indexes and max(indexes) >= len(table):
            raise TriggerError("corrupt trigger-group record: type index out of range")
        if len(table) == 1:
            types = table * count
        else:
            types = tuple(map(table.__getitem__, indexes))
        suffix = raw[heads_end:]
        memoized = _PARAMS_MEMO.get(suffix)
        if memoized is None:
            params, end = decode_value(raw, heads_end)
            if end != len(raw):
                raise TriggerError(
                    f"corrupt trigger-group record: {len(raw)} bytes, "
                    f"the fields span {end}"
                )
            if type(params) is not list or len(params) != count:
                raise TriggerError(
                    "corrupt trigger-group record: params are not one value per entry"
                )
            for serial, entry_params in zip(serials, params):
                if type(entry_params) is not dict:
                    raise TriggerError(
                        f"corrupt trigger-group record: entry {serial}'s params "
                        "are not a mapping"
                    )
            if len(suffix) <= _MEMO_BLOCK_BYTES and all(
                type(value) in IMMUTABLE
                for entry_params in params
                for value in entry_params.values()
            ):
                remember(_PARAMS_MEMO, suffix, tuple(map(dict, params)), _MEMO_ENTRIES)
        elif len(memoized) != count:
            raise TriggerError(
                "corrupt trigger-group record: params are not one value per entry"
            )
        else:
            params = list(map(dict.copy, memoized))
    except (struct.error, UnicodeDecodeError, SerializationError, IndexError) as exc:
        raise TriggerError(f"corrupt trigger-group record: {exc}") from None
    frame = raw[:pos], indexes, suffix
    return (
        anchor, next_serial, serials, heads[1::4], list(heads[2::4]), types, params, frame
    )


def _heads_struct(count: int) -> struct.Struct:
    """The ``struct`` of *count* entry heads (memoized per count)."""
    heads = _HEADS_STRUCTS.get(count)
    if heads is None:
        heads = struct.Struct("<" + "HHhB" * count)
        if len(_HEADS_STRUCTS) < _MEMO_ENTRIES:
            _HEADS_STRUCTS[count] = heads
    return heads


def _first_problem(kind: str, fields) -> str | None:
    """Describe the first ``(name, value, type, bound)`` that cannot be
    encoded (``None``: none).  *bound* is the allowed range of an int or of
    a list's length, or the most UTF-8 bytes a str may take (``None``: no
    bound)."""
    for name, value, expected, bound in fields:
        if not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            return (
                f"{kind} field {name!r} is {type(value).__name__} "
                f"({value!r}), expected {expected.__name__}"
            )
        if bound is None:
            continue
        if expected is int and value not in bound:
            return f"{kind} field {name!r} = {value} is out of range"
        if expected is str and len(value.encode("utf-8")) > bound:
            return f"{kind} field {name!r} is longer than {bound} UTF-8 bytes"
        if expected is list and len(value) not in bound:
            return f"{kind} field {name!r} has {len(value)} items, too many"
    return None
