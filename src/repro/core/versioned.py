"""Versioned TriggerState — the MVCC advance path (DESIGN.md §15).

The paper's Section 6 complaint is that *"triggers turn read access into
write access"*: every FSM advance rewrites the persistent TriggerState
under an exclusive lock, so identical read-only client code starts waiting
and deadlocking the moment triggers are active (experiment E6).  This
module is the second concurrency-control scheme for trigger state —
selected per open with ``Database.open(..., trigger_cc="mvcc")``, with
strict 2PL (``"2pl"``) remaining the baseline:

* **Advance buffer.**  A posting never writes the state record.  The
  first advance of a machine in a transaction clones the latest
  *committed* version of its TriggerState into a per-transaction
  :class:`BufferEntry`; the FSM advances against that private copy, and
  every ``(eventnum, occurrence, mask outcomes)`` it consumes is appended
  to the entry — the outcomes are what the masks said *at posting time*,
  so a commit-time replay cannot be skewed by later mutations of the
  anchor object.  Read-only transactions therefore take **zero X locks**
  on ``state:*`` records, and the E6 deadlock cycle cannot form.

* **Version chain.**  :class:`TriggerVersionManager` keeps, per state
  rid, the head of its chain of immutable :class:`StateVersion`
  snapshots — always the latest *committed* image; a superseded version
  is dropped when its successor is published.  Heads are created lazily
  from the storage engine's committed bytes (``storage.peek`` — no
  locks) and a new head is published only after the publishing
  transaction's commit record is durable.

* **Commit-time merge.**  At commit, each buffered entry is validated
  against the then-current head.  If the base version is still the head,
  the working copy *is* the merged state (first-committer fast path).  On
  a lost update — another transaction published a newer version since we
  buffered — the merge re-advances the buffered event sequence
  deterministically from the newer head (replay); a conflict never
  aborts the transaction.  Merged states are written through the normal
  WAL (``UPDATE`` records with before-images), so crash recovery,
  ``fsck`` ODE1xx, and the abort path need no new machinery.

The merge → storage-commit → publish sequence runs under the manager's
one ``commit_mutex`` (a :class:`threading.RLock`) so no other transaction
can validate against a head that is about to change.  A merge that
*fails* (a storage error) rolls back under the same mutex — merged writes
carry no record locks, so their WAL undo must not interleave with another
committer's ``write_merged``.  Nothing inside that critical section can
wait on the lock manager (fresh-insert writes re-acquire an X lock the
inserting transaction already holds, which grants immediately, and the
failure path defers its system-queue drain until the mutex is released),
so the cooperative scheduler cannot wedge on it.

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
    Machine,
    PostingStats,
    StateStore,
    VolatileStates,
    advance_all,
)
from repro.core.trigger_state import TriggerState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import TriggerSystem
    from repro.objects.database import Database
    from repro.transactions.txn import Transaction


@dataclasses.dataclass(frozen=True)
class StateVersion:
    """One immutable committed snapshot of a TriggerState record.

    Only the head is kept: validation compares a buffer's ``base_vid``
    with the head's ``vid``, and no reader ever asks for an older state,
    so a superseded version is garbage as soon as it is replaced."""

    vid: int
    state: TriggerState  # never mutated after publication


class BufferEntry(Machine):
    """One machine's private working copy inside a transaction.

    ``state`` is a clone the FSM advances against; ``events`` is the
    ordered ``(eventnum, occurrence, mask outcomes)`` log the commit-time
    merge replays on conflict — the outcomes dict snapshots what every
    mask evaluated to *when the event was posted*, so replay is immune to
    the transaction mutating the anchor object afterwards.  ``obj`` is
    kept only as a last-resort evaluation anchor for a mask whose
    posting-time capture raised (the same per-transaction cached instance
    posting used, so replay never dereferences — and never locks —
    anything new at commit time).  ``fresh`` marks a machine activated by
    this very transaction: its record was inserted (under the X lock
    inserts always grant immediately) and has no committed base version
    to validate against.
    """

    def __init__(self, rid, state, base_vid, obj, fresh=False):
        super().__init__(rid, state)
        self.base_vid = base_vid
        self.obj = obj
        self.events: list = []
        self.fresh = fresh


class AdvanceBuffer(StateStore):
    """The per-transaction advance buffer — the MVCC state store.

    A posting never reads a state record under a lock and never writes
    one: the first touch clones the latest *committed* version (see
    :meth:`TriggerVersionManager.committed_head`), later touches reuse
    the working copy, and the commit-time merge does the writing.  Dies
    with the transaction.
    """

    #: An ignored event is logged too: a commit-time replay from a
    #: *different* head may consume it.
    logs_ignored_events = True

    def __init__(self, system: "TriggerSystem", txn: "Transaction"):
        self.db = system.db
        self.versions = system.versions
        self.txid = txn.txid
        self.machines: dict[int, BufferEntry] = {}
        #: rids this transaction deactivated/deleted; the merge skips
        #: them and publication drops their chains.
        self.deactivated: set[int] = set()

    def __bool__(self) -> bool:
        return bool(self.machines or self.deactivated)

    def load(self, rid, obj):
        head = self.versions.committed_head(rid)
        entry = self.machines[rid] = BufferEntry(rid, head.state.clone(), head.vid, obj)
        return entry

    def adopt(self, rid, state, obj):
        # Same-transaction postings must find this machine here: its
        # record is uncommitted, so no version chain can be loaded for it.
        # The activation insert already holds the record's X lock; the
        # merge re-writes it through the normal locked path, and the chain
        # head is created only if the transaction commits.
        self.machines[rid] = BufferEntry(rid, state, base_vid=0, obj=obj, fresh=True)

    def settle(self, entry, old_state, eventnum, occurrence, outcomes, span):
        versions = self.versions
        if outcomes is None:
            outcomes = {}
        masks = entry.info.masks
        if masks and not entry.fresh:
            # Capture what every remaining mask says *now*: a commit-time
            # replay from a different head can walk a different DFA path and
            # ask for masks this advance never reached, and by then the
            # transaction may have mutated ``obj`` — replay must see the
            # posting-time outcomes.  Bookkeeping, not posting semantics, so
            # it stays out of ``masks_evaluated_posting``; a mask that raises
            # here is left unrecorded (replay falls back to live evaluation).
            for mask_name, mask in masks.items():
                if mask_name not in outcomes:
                    try:
                        outcomes[mask_name] = bool(
                            mask(entry.obj, entry.state.params, occurrence)
                        )
                    except Exception:
                        pass
        entry.events.append((eventnum, occurrence, outcomes))
        # Shared with the chain mutex (MvccStats discipline): posting runs on
        # concurrent session threads, so the increment must not tear.
        with versions.stats._mutex:
            versions.stats.buffered_advances += 1
        if span and entry.state.statenum != old_state:
            obs.emit("state.buffer", span, state_rid=entry.rid, trigger=entry.info.name)

    def forget(self, rid):
        self.machines.pop(rid, None)
        self.deactivated.add(rid)

    def read(self, rid):
        # This transaction's own buffered advances are visible to it
        # (read-your-writes); a clone, so callers can't mutate the working
        # copy.
        entry = self.machines.get(rid)
        if entry is not None:
            return entry.state.clone()
        return TriggerState.decode(self.db.storage.read(self.txid, rid))


@dataclasses.dataclass
class MvccStats:
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

    def __post_init__(self) -> None:
        # Standalone instances (tests) get their own lock; a version
        # manager replaces it with its chain mutex so snapshot/reset
        # serialize against the increments themselves.
        self._mutex = threading.Lock()

    def snapshot(self) -> dict[str, int]:
        with self._mutex:
            return {
                field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
            }

    def reset(self) -> None:
        with self._mutex:
            for field in dataclasses.fields(self):
                setattr(self, field.name, 0)


class TriggerVersionManager:
    """Copy-on-write TriggerState versions for one database."""

    def __init__(self, db: "Database"):
        self.db = db
        #: state rid -> committed head version.
        self._chains: dict[int, StateVersion] = {}
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

    def committed_head(self, state_rid: int) -> StateVersion:
        """The latest committed version of *state_rid*'s TriggerState.

        Chains are loaded lazily from the engine's committed bytes via
        ``storage.peek`` — lock-free, which is sound because a state rid
        only becomes visible to other transactions once its activating
        transaction committed (the trigger index bucket is 2PL-locked),
        and every later mutation goes through this manager, which keeps
        the chain current.
        """
        with self._chain_mutex:
            head = self._chains.get(state_rid)
        if head is not None:
            return head
        raw = self.db.storage.peek(state_rid)
        state = TriggerState.decode(raw)
        with self._chain_mutex:
            head = self._chains.get(state_rid)
            if head is None:
                head = StateVersion(next(self._vids), state)
                self._chains[state_rid] = head
                self.stats.chains_loaded += 1
            return head

    def head_or_none(self, state_rid: int) -> StateVersion | None:
        with self._chain_mutex:
            return self._chains.get(state_rid)

    # -- commit-time merge ------------------------------------------------------

    def commit_merge(self, txn: "Transaction") -> list[tuple[int, TriggerState]]:
        """Validate and write *txn*'s buffered advances; returns the
        ``(rid, merged state)`` pairs to publish after the storage commit.

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
        publishes: list[tuple[int, TriggerState]] = []
        for state_rid in sorted(buffer.machines):
            if state_rid in buffer.deactivated:
                continue
            entry = buffer.machines[state_rid]
            if entry.fresh:
                # Activated by this transaction: the insert wrote the
                # quiesced state and still holds the X lock, so this
                # write grants immediately (no wait inside the mutex).
                if entry.events:
                    storage.write(txn.txid, state_rid, entry.state.encode())
                publishes.append((state_rid, entry.state))
                continue
            if not entry.events:
                continue  # loaded but never advanced: nothing to merge
            if not storage.exists(txn.txid, state_rid):
                continue  # deactivated+committed elsewhere; chain already dropped
            head = self.committed_head(state_rid)
            if head.vid == entry.base_vid:
                merged = entry.state
                with self._chain_mutex:
                    self.stats.merges += 1
                    self.stats.clean_merges += 1
            else:
                with self._chain_mutex:
                    self.stats.merges += 1
                    self.stats.conflicts += 1
                    self.stats.replays += 1
                if obs.ENABLED:
                    obs.emit(
                        "mvcc.conflict",
                        txid=txn.txid,
                        state_rid=state_rid,
                        base_vid=entry.base_vid,
                        head_vid=head.vid,
                    )
                merged = self._replay(entry, head.state)
            # The WAL-logged, lock-free write: exclusion comes from the
            # commit mutex, not the lock manager — this is exactly the
            # "state:* stops being X-locked" property E6 measures.
            storage.write_merged(txn.txid, state_rid, merged.encode())
            publishes.append((state_rid, merged))
        return publishes

    def publish(
        self, txn: "Transaction", publishes: list[tuple[int, TriggerState]]
    ) -> None:
        """Install the merged states as new committed heads.

        Called under :attr:`commit_mutex`, *after* the storage commit is
        durable — a published head must never precede its durability.
        """
        buffer = txn.attachments.get(STATE_STORE)
        with self._chain_mutex:
            for state_rid, state in publishes:
                self._chains[state_rid] = StateVersion(next(self._vids), state)
                self.stats.versions_published += 1
            if buffer is not None:
                for state_rid in buffer.deactivated:
                    self._chains.pop(state_rid, None)

    # -- deterministic replay ---------------------------------------------------

    def _replay(self, entry: BufferEntry, base: TriggerState) -> TriggerState:
        """Re-advance *entry*'s buffered event log from *base*.

        Deterministic by construction: the event sequence and the mask
        outcomes are the ones recorded when each event was posted —
        replaying from a *different* head may walk a different DFA path,
        but every mask it can ask about was captured at posting time, so
        a transaction that mutated the anchor object *after* posting
        cannot make the merge disagree with its own observed run.  Only a
        mask whose capture raised falls back to a live evaluation against
        ``entry.obj`` (2PL on ordinary objects means nobody else changed
        it under us).
        """
        merged = Machine(entry.rid, base.clone())
        merged.info, merged.defining = entry.info, entry.defining
        store = VolatileStates({entry.rid: merged})
        # A re-advance at commit is not a posting: throw-away counters, and
        # no tier (generated closures evaluate masks live; replay must
        # answer from the recorded outcomes).
        scratch = PostingStats()
        for eventnum, occurrence, outcomes in entry.events:
            advance_all(
                scratch, None, store, (entry.rid,),
                eventnum, entry.obj, occurrence, replay=outcomes,
            )
        return merged.state

    # -- introspection ----------------------------------------------------------

    def heads(self) -> dict[int, int]:
        """rid -> vid of its committed head (diagnostics/tests)."""
        with self._chain_mutex:
            return {rid: head.vid for rid, head in self._chains.items()}
