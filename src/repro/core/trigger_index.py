"""The object → active-triggers index, kept in the objects' headers.

"The new trigger is stored in an index that maps an object to all the
triggers active on that object, an index used when posting events"
(paper Section 5.4.1).  All of an object's active states live in one
record, its *trigger group* (:mod:`repro.core.trigger_state`), so the
index maps an object to that group.  Footnote 3's per-object control
information already holds that entry: an object's header carries the
has-triggers flag and, while it is set, the group's rid, and every group
record names its anchor.  So the index stores nothing of its own.  This
module is the one place that sets a header's group field (at the
object's first activation) and clears it (at its last).

:meth:`TriggerIndex.entries` lists every group record for the callers
that hold no object — the dump tool, fsck, ``verify_integrity`` and the
analysis runner.  A group itself is loaded through the transaction's
state store, which keeps it for the rest of the transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.trigger_state import GROUP_MARK, decode_heads
from repro.errors import DanglingPointerError, RecordNotFoundError, TriggerError
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS, peek_object

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.posting import Group, StateStore
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.transactions.txn import Transaction


class TriggerIndex:
    """Maps an object to its trigger group through the object's header.

    *states* gives a transaction's state store, which loads groups."""

    def __init__(self, db: "Database", states: Callable[["Transaction"], "StateStore"]):
        self._db = db
        self._states = states

    def group(
        self, txn: "Transaction", obj_rid: int, obj: "Persistent | None" = None
    ) -> "Group | None":
        """*obj_rid*'s trigger group as this transaction sees it, or
        ``None`` when no trigger is active on it (or there is no such
        object).  *obj* is the object's instance in *txn*, if the caller
        holds it; otherwise the transaction's object cache is asked, and
        only an object this transaction has not dereferenced costs a read
        of its record."""
        if obj is None:
            obj = txn.cache.get(obj_rid)
        if obj is None:
            try:
                header = peek_object(self._db.storage.read(txn.txid, obj_rid))
            except RecordNotFoundError:
                return None
            rid = -1 if header is None else header[2]
        else:
            rid = obj.__dict__.get("_p_group", -1)
        return self._states(txn).group(rid) if rid >= 0 else None

    def lookup(
        self, txn: "Transaction", obj_rid: int, obj: "Persistent | None" = None
    ) -> "Group | tuple":
        """What is active on *obj_rid*: its :class:`Group` (``len()`` is
        the number of active triggers; iterating it yields a view of each
        in activation order), or ``()`` (see :meth:`group` for *obj*)."""
        group = self.group(txn, obj_rid, obj)
        return () if group is None else group

    def entries(self, txn: "Transaction"):
        """Iterate ``(anchor_rid, group_rid)`` over every trigger group
        record, in ascending group rid order.

        One pass over the records for those that decode as a group.  Each
        is S-locked (held to commit) and read again before it is used, so
        a group listed here cannot be created, emptied or deleted by
        another transaction until this one ends."""
        storage = self._db.storage
        for rid, raw in storage.peek_scan():
            if not raw or raw[0] != GROUP_MARK:
                continue
            try:
                anchor = decode_heads(storage.read(txn.txid, rid))[0]
            except (RecordNotFoundError, TriggerError):
                continue  # deleted since the pass began, or not a group
            yield anchor.rid, rid

    def add(self, txn: "Transaction", obj_rid: int, group: "Group") -> None:
        """Make *obj_rid*'s header name its new group (its first
        activation): the has-triggers flag and the group's rid, written
        at commit."""
        self._set(txn, obj_rid, group.rid)

    def remove(self, txn: "Transaction", obj_rid: int) -> None:
        """Clear *obj_rid*'s header (its last deactivation); nothing to do
        when the object is gone or names no group."""
        self._set(txn, obj_rid, None)

    def _set(self, txn: "Transaction", obj_rid: int, group_rid: int | None) -> None:
        obj = txn.cache.get(obj_rid)
        if obj is None:
            db = self._db
            try:
                obj = db.deref(PersistentPtr(db.name, obj_rid)).obj
            except DanglingPointerError:
                return
        header = obj.__dict__
        flags = header.get("_p_flags", 0)
        if group_rid is not None:
            header["_p_flags"] = flags | FLAG_HAS_TRIGGERS
            header["_p_group"] = group_rid
        elif flags & FLAG_HAS_TRIGGERS:
            header["_p_flags"] = flags & ~FLAG_HAS_TRIGGERS
            header.pop("_p_group", None)
        else:
            return
        self._db.mark_dirty(obj)
