"""The object → active-triggers index.

"The new trigger is stored in an index that maps an object to all the
triggers active on that object, an index used when posting events"
(paper Section 5.4.1).  All of an object's active states live in one
record, its *trigger group* (:mod:`repro.core.trigger_state`), so the
index maps an object rid to that group's rid.  It is written only at the
object's first activation and removed at its last; activations in between
change the group record, not the index.  Implemented on the bucketed
persistent map, and kept in the database so the index — like the groups
it points at — survives across sessions.

:meth:`TriggerIndex.lookup` answers with the object's machines: it reads
the bucket, then loads the group through the transaction's state store.
Each transaction memoizes the group per object (object rid -> the
store's working :class:`~repro.core.posting.Group`, or ``None``) in a
transaction attachment, so a second posting to the same object reads
nothing.  Sound under strict 2PL for the reason the state store is: the
first lookup S-locks the object's bucket (the header, while the bucket is
unallocated) until commit, so only this transaction's own :meth:`add` /
:meth:`remove` can change the entry — and each of them rewrites the memo.
Activation and deactivation change the memoized group in place.  The
memo dies with the transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.objects.pmap import PersistentMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.posting import Group, StateStore
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction

#: Per-transaction attachment key of the lookup memo.
LOOKUPS = "trigger:index_lookups"

_UNSEEN = object()


class TriggerIndex:
    """Maps an object rid to the rid of its trigger group.

    *states* gives a transaction's state store, which loads groups."""

    def __init__(
        self,
        db: "Database",
        states: Callable[["Transaction"], "StateStore"],
        bucket_count: int = 32,
    ):
        self._map = PersistentMap(db, "trigger_index", bucket_count=bucket_count)
        self._states = states

    @classmethod
    def lock_footprint(cls) -> tuple[tuple[str, str], ...]:
        """The symbolic lock steps one :meth:`lookup` performs on the index
        itself, as ``(resource-class, mode)`` pairs — the static analyzer's
        source of truth for the index leg of a posting's footprint, kept
        next to the implementation so a storage-layout change updates both.
        (The group read that follows is the analyzer's ``state-group``
        step.)"""
        # The bucket record alone, shared: the map remembers the bucket's
        # rid (no catalog or header read), and lookups never write it.
        return (("meta:index", "S"),)

    def meta_rids(self, txn: "Transaction") -> set[int]:
        """The concrete rids backing this index (header + allocated
        buckets; a lookup locks only its bucket) — lets trace tooling
        classify lock records on index plumbing as ``meta`` rather than
        user data."""
        return self._map.rids(txn)

    def group(self, txn: "Transaction", obj_rid: int) -> "Group | None":
        """*obj_rid*'s trigger group as this transaction sees it, or
        ``None`` when no trigger is active on it."""
        memo = txn.attachment(LOOKUPS, dict)
        group = memo.get(obj_rid, _UNSEEN)
        if group is _UNSEEN:
            rid = self._map.get(txn, str(obj_rid), -1)
            group = memo[obj_rid] = self._states(txn).group(rid) if rid >= 0 else None
        return group

    def lookup(self, txn: "Transaction", obj_rid: int) -> tuple:
        """The machines active on *obj_rid*, in activation order."""
        memo = txn.attachments.get(LOOKUPS)
        group = _UNSEEN if memo is None else memo.get(obj_rid, _UNSEEN)
        if group is _UNSEEN:
            group = self.group(txn, obj_rid)
        return () if group is None else group.machines

    def entries(self, txn: "Transaction"):
        """Iterate ``(obj_rid, group_rid)`` over every indexed object.

        The public full-scan surface (dump tooling, the database-level
        analyzer pass, fsck) — callers should use this rather than
        reaching into the backing persistent map.  Order follows the map's
        bucket order; sort by the numeric rid if stability matters.
        """
        for key, group_rid in self._map.items(txn):
            yield int(key), group_rid

    def add(self, txn: "Transaction", obj_rid: int, group: "Group") -> None:
        """Index *obj_rid*'s new group (its first activation)."""
        self._map.put(txn, str(obj_rid), group.rid)
        txn.attachment(LOOKUPS, dict)[obj_rid] = group

    def remove(self, txn: "Transaction", obj_rid: int) -> None:
        """Drop *obj_rid*'s entry (its last deactivation, or its deletion)."""
        self._map.remove(txn, str(obj_rid))
        txn.attachment(LOOKUPS, dict)[obj_rid] = None
