"""The object → active-triggers index.

"The new trigger is stored in an index that maps an object to all the
triggers active on that object, an index used when posting events"
(paper Section 5.4.1).  All of an object's active states live in one
record, its *trigger group* (:mod:`repro.core.trigger_state`), so the
index maps an object rid to that group's rid.  It is written only at the
object's first activation and removed at its last.  Implemented on the
bucketed persistent map, and kept in the database so the index — like the
groups it points at — survives across sessions.

A posting does not read the index.  The object's own header — its
control information, next to footnote 3's has-triggers flag — names the
same group rid, and the posting has already dereferenced the object, so
:meth:`TriggerIndex.lookup` answers from the instance it is handed (or
finds in the transaction's object cache) and reads no bucket.  Only a
caller holding no object reads the map — the dump tool, fsck,
``verify_integrity`` and the analysis runner, through :meth:`entries` or
a lookup by bare rid.  The header and the index are written together, at
the first activation and the last deactivation; fsck checks they agree.

Either way the group itself is loaded through the transaction's state
store, which keeps it for the rest of the transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.objects.pmap import PersistentMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.posting import Group, StateStore
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.transactions.txn import Transaction


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
        """The symbolic lock steps one posting's :meth:`lookup` performs on
        the index itself, as ``(resource-class, mode)`` pairs — the static
        analyzer's source of truth for the index leg of a posting's
        footprint, kept next to the implementation so a storage-layout
        change updates both.  (The group read that follows is the
        analyzer's ``state-group`` step.)"""
        # None: the posted-to object's header names its group, so a
        # posting locks no bucket.  Activation still writes the index.
        return ()

    def meta_rids(self, txn: "Transaction") -> set[int]:
        """The concrete rids backing this index (header + allocated
        buckets) — lets trace tooling classify lock records on index
        plumbing as ``meta`` rather than user data."""
        return self._map.rids(txn)

    def group(
        self, txn: "Transaction", obj_rid: int, obj: "Persistent | None" = None
    ) -> "Group | None":
        """*obj_rid*'s trigger group as this transaction sees it, or
        ``None`` when no trigger is active on it.  *obj* is the object's
        instance in *txn*, if the caller holds it; otherwise the
        transaction's object cache is asked, and only an object this
        transaction has not dereferenced costs a bucket read."""
        if obj is None:
            obj = txn.cache.get(obj_rid)
        if obj is None:
            rid = self._map.get(txn, str(obj_rid), -1)
        else:
            rid = obj.__dict__.get("_p_group", -1)
        return self._states(txn).group(rid) if rid >= 0 else None

    def lookup(
        self, txn: "Transaction", obj_rid: int, obj: "Persistent | None" = None
    ) -> tuple:
        """The machines active on *obj_rid*, in activation order (see
        :meth:`group` for *obj*)."""
        group = self.group(txn, obj_rid, obj)
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

    def remove(self, txn: "Transaction", obj_rid: int) -> None:
        """Drop *obj_rid*'s entry (its last deactivation, or its deletion)."""
        self._map.remove(txn, str(obj_rid))
