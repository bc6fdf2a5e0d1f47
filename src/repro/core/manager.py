"""The trigger system: activation, deactivation, coupling modes, tx events.

Each :class:`Database` builds one :class:`TriggerSystem` before its first
transaction.  It owns the trigger index (kept in the object headers), and
its coupling-mode hooks — ``before_commit``, ``after_commit``,
``before_abort``, ``after_abort``, which ``TransactionManager.commit`` and
``abort`` call themselves — implement the Section 5.5 transaction
integration:

* **end** (deferred) actions run inside the committing transaction,
  *immediately before* the ``before tcomplete`` events are posted;
* **dependent** actions run in one system transaction after commit (their
  commit dependency on the detecting transaction is then satisfied);
* **!dependent** actions run in their own system transaction after commit
  *or* after abort — they are the only trigger effect an aborted
  transaction can leave behind;
* ``before tcomplete`` / ``before tabort`` are posted to the transaction's
  "transaction event object" list, built when interested objects are first
  accessed in the transaction.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.compiled import schema_version
from repro.core.posting import (
    DEPENDENT_LIST,
    END_LIST,
    INDEPENDENT_LIST,
    STATE_STORE,
    LockInPlaceStates,
    PostingStats,
    Resolution,
    StateStore,
    TriggerContext,
    drain,
    post_event,
    post_many,
    run_action,
    start_machine,
    user_event_int,
)
from repro.core.trigger_def import TriggerInfo
from repro.core.trigger_index import TriggerIndex
from repro.core.trigger_state import GROUP_MARK, TriggerGroup, TriggerId, TriggerState
from repro.errors import (
    RecordNotFoundError,
    TriggerError,
    TriggerNotActiveError,
)
from repro.events.fsm import DEAD
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS, peek_object

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.transactions.txn import Transaction

TX_EVENT_OBJECTS = "trigger:tx_event_objects"

#: A trigger state's kind: what it resolves through.
_KIND = operator.attrgetter("trigobjtype", "triggernum")


class TriggerSystem:
    """Run-time trigger facilities for one database."""

    def __init__(self, db: "Database"):
        self.db = db
        self.index = TriggerIndex(db, self.states)
        self.stats = PostingStats()
        db.metrics.register_source("posting", self.stats)
        # (trigobjtype, triggernum) -> Resolution, under ``_resolved_at``,
        # the schema version the memo was started under (see _memo()).
        self._resolutions: dict[tuple[str, int], Resolution] = {}
        self._resolved_at = schema_version()
        # metatype -> whether its class declares a transaction event
        # (``before tcomplete``/``tabort``): asked once per class, not per
        # dereference.
        self._tx_event_types: dict = {}
        # The trigger-state concurrency-control A/B switch (DESIGN.md §15)
        # picks each transaction's state store: strict 2PL (the baseline —
        # advances X-lock and rewrite the record in place), or advances that
        # buffer against copy-on-write versions and merge at commit.
        self.versions = None
        self._store_type: type[StateStore] = LockInPlaceStates
        if db.trigger_cc == "mvcc":
            from repro.core.versioned import AdvanceBuffer, TriggerVersionManager

            self.versions = TriggerVersionManager(db)
            self._store_type = AdvanceBuffer
            db.metrics.register_source("mvcc", self.versions.stats)

    def states(self, txn: "Transaction") -> StateStore:
        """*txn*'s trigger-state store (created on first use)."""
        store = txn.attachments.get(STATE_STORE)
        if store is None:
            store = txn.attachments[STATE_STORE] = self._store_type(self, txn)
        return store

    # -- trigger resolution, memoized per trigger kind ------------------------------

    def _memo(self, version: int) -> dict[tuple[str, int], Resolution]:
        """The resolution memo, started afresh when the schema version
        moved.  Its hygiene is not what keeps a stale trigger from
        firing: every :class:`Resolution` carries its own version, a
        machine takes it along, and the kernel re-resolves any machine
        whose version is not the current one."""
        if self._resolved_at != version:
            self._resolutions = {}
            self._resolved_at = version
        return self._resolutions

    def resolve(self, state: TriggerState) -> Resolution:
        """What *state*'s trigger kind resolves to under the current
        schema version: the registry and the defining metatype are asked
        once per kind, not once per machine."""
        return self._resolve(_KIND(state))

    def _resolve(self, kind: tuple[str, int]) -> Resolution:
        version = schema_version()
        memo = self._memo(version)
        resolution = memo.get(kind)
        if resolution is None:
            trigobjtype, triggernum = kind
            info = self.db.registry.find(trigobjtype).trigger_info(triggernum)
            resolution = memo[kind] = Resolution(version, info)
        return resolution

    def resolutions(self, key: tuple) -> list[Resolution]:
        """The resolution of each entry of a group whose compile-tier key
        is *key* — ``(registry, types, triggernums)``: the entries the
        tier generates its group function from, on a miss."""
        _registry, types, triggernums = key
        return [self._resolve(kind) for kind in zip(types, triggernums)]

    def resolved(self, kind: tuple[str, int]) -> Resolution | None:
        """*kind*'s memoized resolution, ``None`` if it has none yet.
        Never resolves: a group loads on a database whose classes this
        process has not imported (tooling), and its entries are resolved
        when the kernel first advances them."""
        return self._memo(schema_version()).get(kind)

    # -- activation / deactivation (Section 4.1, 5.4.1) -------------------------

    def activate(
        self, db: "Database", ptr: PersistentPtr, info: TriggerInfo, *args: Any
    ) -> TriggerId:
        """Activate *info* on the object at *ptr*; returns the TriggerId.

        This is the run-time half of the generated static activation
        function of Section 5.4.1: create the TriggerState, store the
        arguments, put the machine in its start state (evaluating any
        start-state masks), and add it to the object's trigger group.  The
        first activation creates the group and makes the object's header
        name it (its trigger-index entry: the has-triggers flag and the
        group rid, one object write, X-locking the object).
        """
        txn = db.txn_manager.current()
        handle = db.deref(ptr)
        defining_cls = db.registry.find(info.defining_type).pyclass
        if not isinstance(handle.obj, defining_cls):
            raise TriggerError(
                f"trigger {info.name} is defined by {info.defining_type}; "
                f"{type(handle.obj).__name__} is not derived from it"
            )
        params, statenum = start_machine(self.stats, info, handle.obj, args)
        group = self.index.group(txn, ptr.rid, handle.obj)
        entry = (info.triggernum, statenum, info.defining_type, params)
        store = self.states(txn)
        if group is None:
            group = store.create(ptr, entry)
            self.index.add(txn, ptr.rid, group)
            serial = group.serials[0]
        else:
            serial = store.activate(group, entry)
        if obs.ENABLED:
            obs.emit(
                "trigger.activate",
                trigger=info.name,
                rid=ptr.rid,
                group_rid=group.rid,
                serial=serial,
                start_state=statenum,
            )
        return TriggerId(db.name, group.rid, serial)

    def deactivate(self, trigger_id: TriggerId, *, missing_ok: bool = False) -> None:
        """Remove an active trigger (paper ``deactivate(TriggerId)``).

        The last one on an object deletes its group and clears the
        object's header (the has-triggers bit and group rid).  An id whose
        rid holds no record, or a record that is no group (a deleted
        group's rid reused), names no active trigger; a group record that
        fails to decode is reported."""
        db = self.db
        txn = db.txn_manager.current()
        store = self.states(txn)
        removed = False
        if isinstance(trigger_id, TriggerId):
            try:
                group = store.group(trigger_id.rid)
                removed = store.deactivate(group, trigger_id.serial)
            except RecordNotFoundError:
                pass
            except TriggerError:
                raw = db.storage.peek(trigger_id.rid)
                if raw and raw[0] == GROUP_MARK:
                    raise
        if not removed:
            if missing_ok:
                return
            raise TriggerNotActiveError(f"{trigger_id!r} is not active")
        if not group:
            self.index.remove(txn, group.anchor.rid)

    def active_triggers(
        self, ptr: PersistentPtr
    ) -> list[tuple[TriggerId, TriggerState, TriggerInfo]]:
        """The triggers currently active on the object at *ptr*, in
        activation order (each state a copy)."""
        txn = self.db.txn_manager.current()
        group = self.index.group(txn, ptr.rid)
        result = []
        for machine in () if group is None else group:
            tstate = machine.state
            info = self.db.registry.find(tstate.trigobjtype).trigger_info(
                tstate.triggernum
            )
            trigger_id = TriggerId(self.db.name, machine.rid, machine.serial)
            result.append((trigger_id, tstate.clone(), info))
        return result

    def verify_integrity(self) -> list[str]:
        """Cross-check the trigger group records and the object headers
        that name them.

        Returns a list of problem descriptions (empty = consistent):
        groups whose anchor object is gone or whose anchor's header names
        another group, empty groups, duplicate serials or serials at or
        past the group's ``next_serial``, entries whose ``trigobjtype`` or
        ``triggernum`` no longer resolves, FSM state numbers outside the
        compiled machine; and flagged object headers naming a group that
        is missing, is no group record, or is anchored at another object.
        A group whose anchor's header names no group is an orphan, which
        fsck reports on its own (ODE131).

        Reads storage (not this transaction's working copies) in the
        current transaction, so mid-transaction it does not see trigger
        groups this transaction changed but has not written yet: strict
        2PL writes them at commit, MVCC merges them there.  The one
        exception is the header of an object this transaction dirtied,
        read from its instance — the group it names is already in storage.
        """
        db = self.db
        txn = db.txn_manager.current()
        problems: list[str] = []
        anchors = {group: anchor for anchor, group in self.index.entries(txn)}
        for group_rid, anchor_rid in anchors.items():
            where = f"group {group_rid}"
            group = TriggerGroup.decode(db.storage.read(txn.txid, group_rid))
            if not db.storage.exists(txn.txid, anchor_rid):
                problems.append(f"{where}: anchor object {anchor_rid} deleted")
            if not group.entries:
                problems.append(f"{where}: no entries (should have been deleted)")
            seen: set[int] = set()
            for serial, tstate in group.entries:
                if serial in seen:
                    problems.append(f"{where}: duplicate serial {serial}")
                seen.add(serial)
                if serial >= group.next_serial:
                    problems.append(
                        f"{where}: serial {serial} >= next_serial {group.next_serial}"
                    )
                try:
                    defining = db.registry.find(tstate.trigobjtype)
                    info = defining.trigger_info(tstate.triggernum)
                except Exception as exc:
                    problems.append(
                        f"{where} serial {serial}: cannot resolve "
                        f"{tstate.trigobjtype}#{tstate.triggernum} ({exc})"
                    )
                    continue
                if tstate.statenum != DEAD and not (
                    0 <= tstate.statenum < len(info.fsm)
                ):
                    problems.append(
                        f"{where} serial {serial}: FSM state {tstate.statenum} "
                        f"out of range for {info.name} ({len(info.fsm)} states)"
                    )
        problems += self._header_problems(txn, anchors)
        return problems

    def _header_problems(self, txn: "Transaction", anchors: dict[int, int]) -> list[str]:
        """What the object headers say against the group records
        *anchors* (group rid -> anchor rid).

        Headers are peeked, not S-locked: locking every object would hold
        one lock per object in the caller's transaction.  That is sound
        for the flag and the group rid because they change only together
        with the insert or delete of the group they name (first
        activation, last deactivation, ``pdelete``), and every group in
        *anchors* was read under an S lock held to commit — a change to
        the header naming it is serialized wholly before that read, or
        waits until this transaction ends.  A header naming a group not in
        *anchors* is read again under the object's S lock, which waits out
        the transaction that is making it name a new group.  An object
        this transaction dirtied is judged by its instance's header, which
        is what the commit writes."""
        storage = self.db.storage
        problems: list[str] = []
        named: dict[int, int] = {}  # object rid -> the group its header names
        for rid, raw in storage.peek_scan():
            header = peek_object(raw)
            if header is None:
                continue
            mine = txn.cache.get(rid) if rid in txn.dirty else None
            if mine is not None:
                flags = mine.__dict__.get("_p_flags", 0)
                group_rid = mine.__dict__.get("_p_group", -1)
            else:
                if header[1] & FLAG_HAS_TRIGGERS and header[2] not in anchors:
                    try:
                        header = peek_object(storage.read(txn.txid, rid))
                    except RecordNotFoundError:
                        header = None
                    if header is None:
                        continue  # deleted while we waited
                _type_name, flags, group_rid = header
            if not flags & FLAG_HAS_TRIGGERS:
                continue
            named[rid] = group_rid
            anchor_rid = anchors.get(group_rid)
            if anchor_rid is None:
                try:
                    raw = storage.read(txn.txid, group_rid)
                    anchor_rid = TriggerGroup.decode(raw).anchor.rid
                except RecordNotFoundError:
                    problems.append(
                        f"object {rid}: header names group {group_rid}, which is missing"
                    )
                    continue
                except TriggerError as exc:
                    problems.append(
                        f"group {group_rid}: corrupt ({exc}), named by object {rid}"
                    )
                    continue
            if anchor_rid != rid:
                problems.append(
                    f"object {rid}: header names group {group_rid}, "
                    f"anchored at {anchor_rid}"
                )
        for group_rid, anchor_rid in anchors.items():
            other = named.get(anchor_rid, group_rid)
            if other != group_rid:
                problems.append(
                    f"group {group_rid}: anchored at {anchor_rid}, whose header "
                    f"names group {other}"
                )
        return problems

    def on_pdelete(self, db: "Database", ptr: PersistentPtr) -> None:
        """Deactivate everything anchored at a deleted object: its group
        goes with it."""
        txn = db.txn_manager.current()
        group = self.index.group(txn, ptr.rid)
        if group is not None:
            self.states(txn).drop(group)

    def write_back(self, txn: "Transaction") -> None:
        """Write *txn*'s trigger groups its store deferred to commit
        (``Database.flush_transaction`` calls this)."""
        store = txn.attachments.get(STATE_STORE)
        if store is not None:
            store.write_back()

    # -- posting entry points -----------------------------------------------------

    def post_event(
        self,
        db: "Database",
        eventnum: int,
        ptr: PersistentPtr,
        obj: "Persistent",
        occurrence=None,
    ) -> int:
        """Post a basic event by its globally-unique integer."""
        return post_event(self, db, eventnum, ptr, obj, occurrence)

    def post_user_event(
        self, db: "Database", ptr: PersistentPtr, obj: "Persistent", name: str
    ) -> int:
        """Explicitly post a declared user-defined event by name."""
        eventnum = user_event_int(type(obj).__metatype__, name)
        return post_event(self, db, eventnum, ptr, obj)

    def post_many(self, db: "Database", items) -> int:
        """Post a batch of user-defined events by name; returns firings.

        *items* is an iterable of ``(ptr, obj, event_name)``.  Each
        distinct (metatype, name) resolves to its event integer once for
        the whole batch; names are validated for every item up front, so
        an unknown event aborts the call before anything is posted.  The
        postings themselves go through :func:`repro.core.posting
        .post_many`, which amortizes the per-posting fixed costs.
        """
        resolved: dict[tuple[int, str], int] = {}
        batch = []
        for ptr, obj, name in items:
            metatype = type(obj).__metatype__
            key = (id(metatype), name)
            eventnum = resolved.get(key)
            if eventnum is None:
                eventnum = resolved[key] = user_event_int(metatype, name)
            batch.append((eventnum, ptr, obj, None))
        return post_many(self, db, batch)

    # -- transaction events (Section 5.5) --------------------------------------------

    def on_access(
        self, txn: "Transaction", ptr: PersistentPtr, obj: "Persistent"
    ) -> None:
        """First-access bookkeeping: build the transaction-event object list."""
        metatype = type(obj).__metatype__
        interested = self._tx_event_types.get(metatype)
        if interested is None:
            interested = self._tx_event_types[metatype] = any(
                decl.is_transaction_event for decl in metatype.declared_events
            )
        if interested:
            txn.attachment(TX_EVENT_OBJECTS, dict)[ptr.rid] = (ptr, obj)

    def _post_tx_event(self, txn: "Transaction", name: str) -> None:
        if obs.ENABLED:
            interested = len(txn.attachment(TX_EVENT_OBJECTS, dict))
            if interested:
                obs.emit(
                    "tx_event.post", event=f"before {name}",
                    txid=txn.txid, objects=interested,
                )
        for ptr, obj in list(txn.attachment(TX_EVENT_OBJECTS, dict).values()):
            metatype = type(obj).__metatype__
            symbol = f"before {name}"
            eventnum = metatype.event_ints.get(symbol)
            if eventnum is not None:
                post_event(self, self.db, eventnum, ptr, obj)

    # -- coupling-mode hooks ------------------------------------------------------------
    #
    # The transaction manager calls these four itself, each before the
    # transaction's own hook list of the same name.

    def before_commit(self, txn: "Transaction") -> None:
        attachments = txn.attachments
        if END_LIST not in attachments and TX_EVENT_OBJECTS not in attachments:
            return  # no end action queued, no transaction-event object
        # 1. Scan the end list, executing deferred actions (which may
        #    themselves fire more triggers, growing the list — drain it).
        end_list = txn.attachment(END_LIST, list)
        if obs.ENABLED and end_list:
            obs.emit("txn.drain", list="end", txid=txn.txid, queued=len(end_list))
        run = functools.partial(run_action, self, self.db, txn)
        drain(end_list, run)
        # 2. Post before tcomplete right before the commit proper.
        self._post_tx_event(txn, "tcomplete")
        # A tcomplete trigger may have queued further end actions.
        drain(end_list, run)

    def before_abort(self, txn: "Transaction") -> None:
        self._post_tx_event(txn, "tabort")

    def after_commit(self, txn: "Transaction") -> None:
        attachments = txn.attachments
        if DEPENDENT_LIST not in attachments and INDEPENDENT_LIST not in attachments:
            return  # no detached action queued
        self._run_detached(txn, DEPENDENT_LIST, depends_on=txn.txid)
        self._run_detached(txn, INDEPENDENT_LIST, depends_on=None)

    def after_abort(self, txn: "Transaction") -> None:
        # Dependent actions die with the detecting transaction; !dependent
        # actions run anyway (Section 5.5's abort-path scan).
        self._run_detached(txn, INDEPENDENT_LIST, depends_on=None)

    def _run_detached(
        self, txn: "Transaction", list_key: str, depends_on: int | None
    ) -> None:
        records = txn.attachments.get(list_key) or []
        if not records:
            return
        if obs.ENABLED:
            obs.emit(
                "txn.drain",
                list="dependent" if list_key == DEPENDENT_LIST else "independent",
                txid=txn.txid,
                queued=len(records),
            )

        def body(system_txn: "Transaction") -> None:
            for record in records:
                run_action(self, self.db, system_txn, record)

        # Scheduled, not run inline: the shared queue is drained by whichever
        # session is next between transactions (the committing one, in the
        # common case), and a failed commit dependency discards the entry.
        self.db.txn_manager.schedule_system(body, depends_on=depends_on)
