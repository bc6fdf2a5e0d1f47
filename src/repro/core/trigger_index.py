"""The object → active-triggers index.

"The new trigger is stored in an index that maps an object to all the
triggers active on that object, an index used when posting events"
(paper Section 5.4.1).  Implemented on the bucketed persistent map so
activation/deactivation touch one bucket, and kept in the database so the
index — like the trigger states it points at — survives across sessions.

Each transaction memoizes its lookups (object rid -> tuple of state rids)
in a transaction attachment, so a second posting to the same object reads
nothing.  Sound under strict 2PL for the reason the state store is: the
first lookup S-locks the object's bucket (the header, while the bucket is
unallocated) until commit, so only this transaction's own
:meth:`TriggerIndex.add` / :meth:`~TriggerIndex.remove` /
:meth:`~TriggerIndex.drop_all` can change the entry — and each of them
rewrites the memo.  The memo dies with the transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.objects.pmap import PersistentMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction

#: Per-transaction attachment key of the lookup memo.
LOOKUPS = "trigger:index_lookups"


class TriggerIndex:
    """Maps an object rid to the rids of its active TriggerState records."""

    def __init__(self, db: "Database", bucket_count: int = 32):
        self._map = PersistentMap(db, "trigger_index", bucket_count=bucket_count)

    @classmethod
    def lock_footprint(cls) -> tuple[tuple[str, str], ...]:
        """The symbolic lock steps one :meth:`lookup` performs, as
        ``(resource-class, mode)`` pairs — the static analyzer's source of
        truth for the index leg of a posting's footprint, kept next to the
        implementation so a storage-layout change updates both."""
        # The bucket record alone, shared: the map remembers the bucket's
        # rid (no catalog or header read), and lookups never write it.
        return (("meta:index", "S"),)

    def meta_rids(self, txn: "Transaction") -> set[int]:
        """The concrete rids backing this index (header + allocated
        buckets; a lookup locks only its bucket) — lets trace tooling
        classify lock records on index plumbing as ``meta`` rather than
        user data."""
        return self._map.rids(txn)

    def lookup(self, txn: "Transaction", obj_rid: int) -> tuple[int, ...]:
        """The TriggerState rids active on *obj_rid* (activation order)."""
        memo = txn.attachment(LOOKUPS, dict)
        states = memo.get(obj_rid)
        if states is None:
            states = memo[obj_rid] = tuple(self._map.get(txn, str(obj_rid), ()))
        return states

    def entries(self, txn: "Transaction"):
        """Iterate ``(obj_rid, state_rids)`` over every indexed object.

        The public full-scan surface (dump tooling, the database-level
        analyzer pass) — callers should use this rather than reaching into
        the backing persistent map.  Order follows the map's bucket order;
        sort by the numeric rid if stability matters.
        """
        for key, state_rids in self._map.items(txn):
            yield int(key), list(state_rids)

    def add(self, txn: "Transaction", obj_rid: int, state_rid: int) -> None:
        states = [*self.lookup(txn, obj_rid), state_rid]
        self._map.put(txn, str(obj_rid), states)
        txn.attachments[LOOKUPS][obj_rid] = tuple(states)

    def remove(self, txn: "Transaction", obj_rid: int, state_rid: int) -> int:
        """Drop one mapping; returns how many triggers remain active."""
        states = list(self.lookup(txn, obj_rid))
        if state_rid in states:
            states.remove(state_rid)
        if states:
            self._map.put(txn, str(obj_rid), states)
        else:
            self._map.remove(txn, str(obj_rid))
        txn.attachments[LOOKUPS][obj_rid] = tuple(states)
        return len(states)

    def drop_all(self, txn: "Transaction", obj_rid: int) -> list[int]:
        """Remove the whole entry, returning the state rids it held."""
        states = list(self.lookup(txn, obj_rid))
        self._map.remove(txn, str(obj_rid))
        txn.attachments[LOOKUPS][obj_rid] = ()
        return states
