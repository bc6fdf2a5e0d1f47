"""Versioned trigger groups — the MVCC advance path (DESIGN.md §15).

The paper's Section 6 complaint is that *"triggers turn read access into
write access"*: every FSM advance rewrites the persistent trigger state
under an exclusive lock, so identical read-only client code starts waiting
and deadlocking the moment triggers are active (experiment E6).  This
module is the second concurrency-control scheme for trigger state —
selected per open with ``Database.open(..., trigger_cc="mvcc")``, with
strict 2PL (``"2pl"``) remaining the baseline.  Its unit is the object's
trigger group (:mod:`repro.core.trigger_state`):

* **Advance buffer.**  A posting never writes the group record.  The
  first touch of a group in a transaction copies the entry heads of the
  latest *committed* version into a per-transaction
  :class:`BufferedGroup` — a 2PL group's working form, with statenums
  and params of its own; the FSMs advance that private copy, and every
  ``(eventnum, occurrence, mask outcomes)`` an entry consumes is logged
  under its serial — the outcomes are what the masks said *at posting
  time*, so a commit-time replay cannot be skewed by later mutations of
  the anchor object.  Read-only transactions therefore take **zero X locks** on
  ``state-group`` records, and the E6 deadlock cycle cannot form.

* **Membership changes.**  Once a group's creating transaction has
  committed, its bytes are written only by the commit-time merge.  An
  activation or deactivation on such a group X-locks its rid (so
  membership changes serialize) and is buffered like an advance.  The
  first activation and the last one's removal also X-lock the anchor
  object, whose header names the group: that lock is what keeps a group
  invisible to every other transaction until its creator commits.

* **Version chain.**  :class:`TriggerVersionManager` keeps, per group
  rid, the head of its chain of immutable :class:`GroupVersion`
  snapshots — always the latest *committed* image; a superseded version
  is dropped when its successor is published.  Heads are created lazily
  from the storage engine's committed bytes (``storage.peek`` — no
  locks) and a new head is published only after the publishing
  transaction's commit record is durable.

* **Commit-time merge.**  At commit, each buffered group is merged onto
  the then-current head: head → replayed advances → membership changes.
  If the base version is still the head, an advanced entry's working
  copy *is* its merged state (first-committer fast path); on a lost
  update — another transaction published a newer version since we
  buffered — the entry's buffered event sequence is re-advanced
  deterministically from the newer head (replay); a conflict never aborts
  the transaction.  Merged groups are written through the normal WAL
  (``UPDATE`` records with before-images), so crash recovery, ``fsck``
  ODE1xx, and the abort path need no new machinery.

The merge → storage-commit → publish sequence runs under the manager's
one ``commit_mutex`` (a :class:`threading.RLock`) so no other transaction
can validate against a head that is about to change.  A merge that
*fails* (a storage error) rolls back under the same mutex — merged writes
carry no record locks, so their WAL undo must not interleave with another
committer's ``write_merged``.  Nothing inside that critical section can
wait on the lock manager (writes and deletes of a group whose membership
this transaction changed re-acquire an X lock it already holds, which
grants immediately, and the failure path defers its system-queue drain
until the mutex is released), so the cooperative scheduler cannot wedge
on it.

Known semantic window: firings are dispatched optimistically at posting
time from the buffered view.  A replay merge repairs the committed
*state*, not actions that already ran — the same anomaly Ode accepts for
detached coupling modes, documented in DESIGN.md §15.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from typing import TYPE_CHECKING

from repro import obs
from repro.core.posting import (
    STATE_STORE,
    Group,
    PostingStats,
    StateStore,
    interpret,
    new_heads,
)
from repro.core.trigger_state import (
    GroupHeads,
    TriggerGroup,
    decode_heads,
    frame_group,
    pack_heads,
)
from repro.obs.metrics import LockedStats
from repro.storage.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import TriggerSystem
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction


class GroupVersion:
    """One committed snapshot of a trigger group record, never mutated
    after publication: its ``heads`` — what :func:`decode_heads` returns,
    the entries as tuples — under a version id.

    Only the head is kept: validation compares a buffer's ``base_vid``
    with the head's ``vid``, and no reader ever asks for an older image,
    so a superseded version is garbage as soon as it is replaced."""

    __slots__ = ("vid", "heads")

    def __init__(self, vid: int, heads: GroupHeads):
        anchor, next_serial, *entries, frame = heads
        self.vid = vid
        self.heads = (anchor, next_serial, *map(tuple, entries), frame)

    @property
    def image(self) -> TriggerGroup:
        return TriggerGroup.of(self.heads)


class BufferedGroup(Group):
    """One group's working copy inside a transaction (MVCC).

    ``base_vid`` is the head it was copied from.  ``obj`` is the anchor
    instance posting evaluated masks against — the same per-transaction
    cached instance, kept only as a last-resort evaluation anchor for a
    mask whose posting-time capture raised, so replay never dereferences
    (and never locks) anything new at commit time.  ``events`` maps an
    entry's serial to the ordered ``(eventnum, occurrence, mask
    outcomes)`` it consumed, which the commit-time merge replays on
    conflict — the outcomes dict snapshots what every mask evaluated to
    *when the event was posted*, so replay is immune to the transaction
    mutating the anchor object afterwards.  ``locked``: this transaction
    holds the group's X lock and so may change its membership; ``added``
    (the serials it activated: they have no committed base to replay
    from) and ``removed`` are those changes.  ``fresh`` marks a group
    this transaction created: its record was inserted (as ``inserted``),
    is invisible to everyone else until commit, and has no committed head.
    """

    #: set by the first settled advance (so: ``None`` until one)
    obj = None
    inserted = b""

    def __init__(
        self, rid, heads: GroupHeads, resolved, base_vid: int, fresh: bool = False
    ):
        super().__init__(rid, heads, resolved)
        # What advances, and what masks see, is this transaction's own.
        self.statenums = list(self.statenums)
        self.params = list(map(dict.copy, self.params))
        self.base_vid = base_vid
        self.fresh = self.locked = fresh
        self.events: dict[int, list] = {}
        self.added: set[int] = set()
        self.removed: set[int] = set()

    def sync(self, head: GroupVersion) -> None:
        """Adopt the committed membership of *head* (its order), keeping
        the working statenums and params of entries still in it."""
        mine = dict(zip(self.serials, zip(self.statenums, self.params)))
        _anchor, next_serial, serials, triggernums, statenums, types, params, _ = head.heads
        self.serials, self.triggernums, self.types = serials, triggernums, types
        self.statenums = []
        self.params = []
        for serial, statenum, entry_params in zip(serials, statenums, params):
            statenum, entry_params = mine.get(serial, (statenum, dict(entry_params)))
            self.statenums.append(statenum)
            self.params.append(entry_params)
        self.next_serial = max(self.next_serial, next_serial)
        self.frame = None
        self.kernel_version = None


class AdvanceBuffer(StateStore):
    """The per-transaction advance buffer — the MVCC state store.

    A posting never reads a group record under a lock and never writes
    one: the first touch copies the latest *committed* version (see
    :meth:`TriggerVersionManager.committed_head`), later touches reuse
    the working copy, and the commit-time merge does the writing.  Dies
    with the transaction.
    """

    #: An ignored event is logged too: a commit-time replay from a
    #: *different* head may consume it.
    logs_ignored_events = True

    def __init__(self, system: "TriggerSystem", txn: "Transaction"):
        self.system = system
        self.db = system.db
        self.versions = system.versions
        self.txid = txn.txid
        self.groups: dict[int, BufferedGroup] = {}

    def __bool__(self) -> bool:
        return bool(self.groups)

    def group(self, rid):
        group = self.groups.get(rid)
        if group is None:
            head = self.versions.committed_head(rid)
            group = self.groups[rid] = BufferedGroup(
                rid, head.heads, self.system.resolved, head.vid
            )
        return group

    def create(self, anchor, entry):
        # The insert holds the record's X lock; same-transaction postings
        # find the group here, and the merge writes its final image.
        group = BufferedGroup(
            None, new_heads(anchor, entry), self.system.resolved, 0, fresh=True
        )
        group.inserted = group.encode()
        group.rid = rid = self.db.storage.insert(self.txid, group.inserted)
        self.groups[rid] = group
        group.added.add(0)
        return group

    def activate(self, group, entry):
        self._lock(group)
        serial = group.add(entry)
        group.added.add(serial)
        return serial

    def deactivate(self, group, serial):
        self._lock(group)
        if group.remove(serial) is None:
            return False
        if serial in group.added:
            group.added.remove(serial)
        else:
            group.removed.add(serial)
        return True

    def drop(self, group):
        self._lock(group)
        for serial in list(group.serials):
            self.deactivate(group, serial)

    def _lock(self, group: BufferedGroup) -> None:
        """Take the group's X lock before a membership change, then adopt
        the membership committed meanwhile: it cannot move again until
        this transaction commits.

        The head is read under the commit mutex: a committer releases its
        locks in the storage commit, before it publishes its head, so the
        X lock alone can be granted while the last change to the group is
        not yet the head — and a serial read from the old head would be
        handed out twice.  Nothing inside the mutex waits on the lock
        manager, so this cannot deadlock."""
        if group.locked:
            return
        self.db.storage.lock_manager.lock(self.txid, group.rid, LockMode.X)
        group.locked = True
        with self.versions.commit_mutex:
            head = self.versions.committed_head(group.rid)
        if head.vid != group.base_vid:
            group.sync(head)

    def settle(self, entry, obj, old_state, eventnum, occurrence, outcomes, span):
        versions = self.versions
        group = self.groups[entry.rid]
        group.obj = obj
        if outcomes is None:
            outcomes = {}
        masks = entry.info.masks
        if masks and entry.serial not in group.added:
            # *outcomes* holds what the advance asked, compiled or
            # interpreted.  Capture what every other mask says *now*: a
            # commit-time replay from a different head can walk a different
            # DFA path and ask for masks this advance never reached, and by
            # then the transaction may have mutated ``obj`` — replay must
            # see the posting-time outcomes.  Bookkeeping, not posting
            # semantics, so it stays out of ``masks_evaluated_posting``; a
            # mask that raises here is left unrecorded (replay falls back
            # to live evaluation).
            for mask_name, mask in masks.items():
                if mask_name not in outcomes:
                    try:
                        outcomes[mask_name] = bool(
                            mask(obj, entry.state.params, occurrence)
                        )
                    except Exception:
                        pass
        group.events.setdefault(entry.serial, []).append((eventnum, occurrence, outcomes))
        # Shared with the chain mutex (MvccStats discipline): posting runs on
        # concurrent session threads, so the increment must not tear.
        with versions.stats._mutex:
            versions.stats.buffered_advances += 1
        if span and entry.state.statenum != old_state:
            obs.emit(
                "state.buffer",
                span,
                group_rid=entry.rid,
                serial=entry.serial,
                trigger=entry.info.name,
            )


@dataclasses.dataclass
class MvccStats(LockedStats):
    """Counters for the versioned scheme (mounted as ``mvcc.*``).

    Same discipline as :class:`~repro.storage.locks.LockStats`: every
    increment happens under :attr:`_mutex` (the owning
    :class:`TriggerVersionManager` shares its chain mutex in), and
    :meth:`snapshot`/:meth:`reset` take it too — posting increments
    ``buffered_advances`` from concurrent session threads, so an
    unguarded ``+=`` would lose counts and a reset racing an increment
    would tear.
    """

    #: FSM advances served from the buffer instead of a locked write
    buffered_advances: int = 0
    #: version chains materialized from committed storage bytes
    chains_loaded: int = 0
    #: buffered entries merged at commit
    merges: int = 0
    #: merges whose base version was still the committed head
    clean_merges: int = 0
    #: lost-update conflicts detected at merge time
    conflicts: int = 0
    #: conflicts resolved by deterministic event replay
    replays: int = 0
    #: new committed versions published
    versions_published: int = 0


class TriggerVersionManager:
    """Copy-on-write trigger-group versions for one database."""

    def __init__(self, db: "Database"):
        self.db = db
        #: group rid -> committed head version.
        self._chains: dict[int, GroupVersion] = {}
        self._chain_mutex = threading.Lock()
        self.stats = MvccStats()
        # Counter increments share the chain mutex (LockStats discipline):
        # sites already inside ``with self._chain_mutex`` increment
        # directly; everything else takes ``stats._mutex``.
        self.stats._mutex = self._chain_mutex
        #: Serializes [merge -> storage commit -> publish] across all
        #: committers (DESIGN.md §16: shards measured no faster).
        self.commit_mutex = threading.RLock()
        self._vids = itertools.count(1)

    def pending(self, txn: "Transaction") -> bool:
        """Whether *txn* has buffered work for the commit-time merge."""
        return bool(txn.attachments.get(STATE_STORE))

    # -- the version chain -----------------------------------------------------

    def committed_head(self, group_rid: int) -> GroupVersion:
        """The latest committed version of group *group_rid*.

        Chains are loaded lazily from the engine's committed bytes via
        ``storage.peek`` — lock-free, which is sound because a group rid
        only becomes visible to other transactions once its creating
        transaction committed (a posting finds it in the anchor object's
        header, and the creator X-locks that object until commit), and
        every later write goes through this manager's merge, which keeps
        the chain current.
        """
        with self._chain_mutex:
            head = self._chains.get(group_rid)
        if head is not None:
            return head
        decoded = decode_heads(self.db.storage.peek(group_rid))
        with self._chain_mutex:
            head = self._chains.get(group_rid)
            if head is None:
                head = GroupVersion(next(self._vids), decoded)
                self._chains[group_rid] = head
                self.stats.chains_loaded += 1
            return head

    def head_or_none(self, group_rid: int) -> GroupVersion | None:
        with self._chain_mutex:
            return self._chains.get(group_rid)

    # -- commit-time merge ------------------------------------------------------

    def commit_merge(self, txn: "Transaction") -> list:
        """Merge and write *txn*'s buffered groups; returns what to publish
        after the storage commit: ``(rid, heads)`` pairs, *heads* being
        the merged group's, or ``None`` for a group deleted.  A merge
        whose bytes equal the committed head's publishes nothing.

        Must run under :attr:`commit_mutex`.  A lost update is resolved
        by replaying the entry's event log from the newer head, so a
        conflict never fails the merge; only a storage error can, and
        the caller rolls back everything (including any merged WAL
        writes already applied, via their before-images).
        """
        buffer = txn.attachments.get(STATE_STORE)
        if buffer is None:
            return []
        storage = self.db.storage
        publishes: list = []
        for rid in sorted(buffer.groups):
            group = buffer.groups[rid]
            if group.fresh:
                # Created by this transaction, which holds its X lock: the
                # working copy is the whole truth.
                if not group:
                    storage.delete(txn.txid, rid)
                    continue
                raw = group.encode()
                if raw != group.inserted:
                    storage.write(txn.txid, rid, raw)
                publishes.append((rid, group.heads()))
                continue
            if not group.locked and group.obj is None:
                continue  # loaded but never advanced: nothing to merge
            if not storage.exists(txn.txid, rid):
                continue  # deleted and committed elsewhere; chain dropped
            head = self.committed_head(rid)
            clean = head.vid == group.base_vid
            with self._chain_mutex:
                self.stats.merges += 1
                if clean:
                    self.stats.clean_merges += 1
                else:
                    self.stats.conflicts += 1
                    self.stats.replays += 1
            if not clean and obs.ENABLED:
                obs.emit(
                    "mvcc.conflict",
                    txid=txn.txid,
                    group_rid=rid,
                    base_vid=group.base_vid,
                    head_vid=head.vid,
                )
            if clean and not group.locked:
                # Nothing committed since the copy was made and no
                # membership changed: the working copy is the merge.
                heads = group.heads()
            else:
                heads = self._merged(group, head, clean)
            _anchor, _next, serials, triggernums, statenums, _types, _params, frame = heads
            if serials:
                # The WAL-logged, lock-free write: exclusion comes from the
                # commit mutex, not the lock manager — this is exactly the
                # "state-group stops being X-locked" property E6 measures.
                raw = pack_heads(frame, serials, triggernums, statenums)
                storage.write_merged(txn.txid, rid, raw)
                # A merge that leaves the committed bytes as they were
                # publishes no new head, so no copy of the head goes stale.
                if raw != pack_heads(head.heads[-1], *head.heads[2:5]):
                    publishes.append((rid, heads))
            else:
                # Only a membership change empties a group, and it holds
                # the X lock: this grants immediately.
                storage.delete(txn.txid, rid)
                publishes.append((rid, None))
        return publishes

    def _merged(
        self, group: BufferedGroup, head: GroupVersion, clean: bool
    ) -> GroupHeads:
        """Head → this transaction's advances → its membership changes."""
        anchor, head_next, *entries, frame = head.heads
        index = {serial: i for i, serial in enumerate(group.serials)}
        rows = []
        for row in zip(*entries):
            serial = row[0]
            if serial in group.removed:
                continue
            if group.events.get(serial):
                i = index[serial]
                statenum = group.statenums[i] if clean else self._replay(group, i, row[2])
                row = (*row[:2], statenum, *row[3:])
            rows.append(row)
        rows += [row for row in zip(*group.columns()) if row[0] in group.added]
        merged = [list(column) for column in zip(*rows)] or [[], [], [], [], []]
        next_serial = max(head_next, group.next_serial)
        if group.added or group.removed or next_serial != head_next:
            frame = frame_group(anchor, next_serial, *merged)
        return (anchor, next_serial, *merged, frame)

    def publish(self, publishes: list) -> None:
        """Install the merged groups as new committed heads (dropping the
        chains of deleted groups); *publishes* is what
        :meth:`commit_merge` returned.

        Called under :attr:`commit_mutex`, *after* the storage commit is
        durable — a published head must never precede its durability.
        """
        with self._chain_mutex:
            for rid, heads in publishes:
                if heads is None:
                    self._chains.pop(rid, None)
                else:
                    self._chains[rid] = GroupVersion(next(self._vids), heads)
                    self.stats.versions_published += 1

    # -- deterministic replay ---------------------------------------------------

    def _replay(self, group: BufferedGroup, index: int, statenum: int) -> int:
        """Re-advance the buffered event log of *group*'s entry *index*
        from *statenum*, the newer head's, and return where it ends.

        Deterministic by construction: the event sequence and the mask
        outcomes are the ones recorded when each event was posted —
        replaying from a *different* head may walk a different DFA path,
        but every mask it can ask about was captured at posting time, so
        a transaction that mutated the anchor object *after* posting
        cannot make the merge disagree with its own observed run.  Only a
        mask whose capture raised falls back to a live evaluation against
        the group's ``obj`` (2PL on ordinary objects means nobody else
        changed it under us).
        """
        # Settling the logged events built and resolved the entry's view.
        info = group.entry(index).info
        params = group.params[index]
        # A re-advance at commit is not a posting: throw-away counters, and
        # the interpreter step (generated code evaluates masks live; replay
        # must answer from the recorded outcomes).
        scratch = PostingStats()
        for eventnum, occurrence, outcomes in group.events[group.serials[index]]:
            statenum = interpret(
                scratch, info, statenum, eventnum, group.obj, params,
                occurrence, replay=outcomes,
            )[0]
        return statenum

    # -- introspection ----------------------------------------------------------

    def heads(self) -> dict[int, int]:
        """group rid -> vid of its committed head (diagnostics/tests)."""
        with self._chain_mutex:
            return {rid: head.vid for rid, head in self._chains.items()}
