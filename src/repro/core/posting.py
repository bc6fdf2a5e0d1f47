"""``PostEvent`` — the heart of trigger processing (paper Section 5.4.5).

Posting a basic event to an object:

1. Skip immediately if the object's control information says it has no
   active triggers (footnote 3) — the common, cheap case.
2. Otherwise the same control information names the object's *trigger
   group*, one record holding every active ``TriggerState`` of the
   object, read once per transaction (see
   :mod:`repro.core.trigger_state`).  That field is the object's
   trigger-index entry: a posting touches the object it was handed and
   its group, nothing else.
3. Advance each one's integer-keyed FSM and record where it now stands
   (under strict 2PL: X-lock the group now, write it once at commit).
4. Only after *all* active triggers have seen the event are the ready ones
   fired — "to prevent the action of one trigger from affecting the mask of
   another trigger".  Immediate triggers run now (sequentially, in
   activation order — Ode lacks nested transactions and fires "in an
   unspecified order which maintains the conceptual semantics"); the other
   coupling modes queue onto the transaction's end / dependent /
   !dependent lists, processed by the commit and abort paths.

One kernel over one seam.  Steps 1, 2 and 4 are :func:`_post`, the loop
behind :func:`post_event` (a batch of one) and :func:`post_many`; step 3
is :func:`advance_group`, which local rules call too.  What differs
between those modes is *where the state lives*, and that is the seam: a
:class:`StateStore` — :class:`LockInPlaceStates` (strict 2PL),
:class:`~repro.core.versioned.AdvanceBuffer` (MVCC) or
:class:`VolatileStates` (local rules).  A persistent store hands out an
object's triggers a whole :class:`Group` at a time, so one group read
serves every trigger on the object.

Step 3 is one call of a *group function* on every store, which
:meth:`StateStore.kernel` picks: the group's generated function, from
the compile tier (an entry whose machine is too large to unroll, or
every entry of a group too large as a whole, is one call of the
interpreter step :func:`interpret` inside it).  So the interpreter
exists once, as the per-entry step, and the firing set cannot depend on
which path of the function ran.
Every store's group has one working form, its entry heads as
:func:`~repro.core.trigger_state.decode_heads` returns them: the group
function advances ``statenums`` in place, and a :class:`Machine` is only
a view of one entry, built for an entry that accepted (or, traced,
advanced), is fired or is listed.  MVCC's commit-time replay calls
:func:`interpret` itself.  DESIGN.md §14.

Tracing does not choose the function: a traced posting calls the one
that would serve it untraced, handing it a log, where each advanced
entry's masks write what they said, and :func:`_trace_advance`, the one
emitter of the per-entry records, steps each advanced entry's FSM again
over that log.  So :func:`interpret` and the generated code emit
nothing, and a trace watches the code that serves.  DESIGN.md §10.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.compiled import global_compiled_tier, schema_version
from repro.core.trigger_def import CouplingMode, TriggerInfo
from repro.core.trigger_state import (
    SERIAL_MAX,
    GroupHeads,
    TriggerId,
    TriggerState,
    decode_heads,
    frame_group,
    pack_heads,
)
from repro.errors import (
    SerializationError,
    TransactionAbort,
    TriggerArgumentError,
    UnknownEventError,
)
from repro.objects.oid import PersistentPtr
from repro.objects.serialize import FLAG_HAS_TRIGGERS
from repro.obs.metrics import Stats

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import TriggerSystem
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.transactions.txn import Transaction

END_LIST = "trigger:end_list"
DEPENDENT_LIST = "trigger:dependent_list"
INDEPENDENT_LIST = "trigger:independent_list"
#: Per-transaction attachment key of the transaction's :class:`StateStore`.
STATE_STORE = "trigger:state_store"
#: The process's compile tier, the one memo of group functions.
_TIER = global_compiled_tier()


class FrozenKwargs(Mapping):
    """An immutable, hashable mapping for event keyword arguments.

    Masks read ``event.kwargs`` like a dict (``get``, ``[]``, ``in``); what
    they cannot do is mutate it — an occurrence is a snapshot of one
    instant, shared between every trigger the posting reaches and any
    trace record that captures it.  Hashing follows tuple semantics: it
    works when the values are hashable and raises otherwise.
    """

    __slots__ = ("_d",)

    def __init__(self, items: Mapping | tuple = ()):
        # bypass Mapping's __setattr__-less protocol; _d is never rebound
        object.__setattr__(self, "_d", dict(items))

    def __getitem__(self, key):
        return self._d[key]

    def __contains__(self, key):
        return key in self._d

    def __iter__(self):
        return iter(self._d)

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        if isinstance(other, FrozenKwargs):
            return self._d == other._d
        if isinstance(other, Mapping):
            return self._d == dict(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._d.items())))

    def __repr__(self):
        return f"FrozenKwargs({self._d!r})"


#: Shared empty mapping — the common "no keyword arguments" case.
EMPTY_KWARGS = FrozenKwargs()


@dataclasses.dataclass(frozen=True)
class EventOccurrence:
    """One event instance, carrying the member function's arguments.

    The Section 8 "attributes of events" extension: masks may inspect "the
    parameters passed to the corresponding member function".  ``args`` /
    ``kwargs`` are the invocation arguments for member-function events and
    empty for user-defined and transaction events.

    Occurrences are genuinely immutable: ``args`` is normalized to a tuple
    and ``kwargs`` is *copied* into a :class:`FrozenKwargs` at
    construction, so a caller mutating the dict it passed in (or a mask
    poking at a shared occurrence such as the activation-time
    ``NULL_OCCURRENCE``) can never change what other triggers — or trace
    records — observe.  This also makes occurrences hashable/comparable by
    value, which the frozen dataclass always promised but a raw ``dict``
    field silently broke.

    Being values, they are shared where they carry nothing but the event:
    every posting without a method or arguments gets the one
    :func:`plain_occurrence` of its event integer.  Member-function
    occurrences carry their call's arguments and are built per call.
    """

    eventnum: int
    method: str = ""
    args: tuple = ()
    kwargs: Mapping = EMPTY_KWARGS

    def __post_init__(self):
        if type(self.args) is not tuple:
            object.__setattr__(self, "args", tuple(self.args))
        kwargs = self.kwargs
        if type(kwargs) is not FrozenKwargs:
            object.__setattr__(
                self, "kwargs", FrozenKwargs(kwargs) if kwargs else EMPTY_KWARGS
            )


#: Occurrence used when masks run outside any posting (trigger activation).
NULL_OCCURRENCE = EventOccurrence(eventnum=0)

#: Bound on :func:`plain_occurrence`'s memo; past it occurrences are built
#: fresh (equal, no longer identical).
PLAIN_MEMO_MAX = 4096
_PLAIN_OCCURRENCES: dict[int, EventOccurrence] = {0: NULL_OCCURRENCE}


def plain_occurrence(eventnum: int) -> EventOccurrence:
    """The one occurrence of a posting with no method and no arguments.

    Occurrences are frozen values, so every plain posting of *eventnum*
    can share one — the paper's posting carries nothing but the integer.
    """
    occurrence = _PLAIN_OCCURRENCES.get(eventnum)
    if occurrence is None:
        occurrence = EventOccurrence(eventnum=eventnum)
        if len(_PLAIN_OCCURRENCES) < PLAIN_MEMO_MAX:
            occurrence = _PLAIN_OCCURRENCES.setdefault(eventnum, occurrence)
    return occurrence


@dataclasses.dataclass
class FiringRecord:
    """A detected trigger occurrence queued for (possibly later) firing."""

    trigger_id: TriggerId
    state: TriggerState
    info: TriggerInfo


@dataclasses.dataclass
class TriggerContext:
    """What a trigger action sees when it runs."""

    db: "Database"
    txn: "Transaction"
    trigger_id: TriggerId
    info: TriggerInfo
    params: dict[str, Any]
    coupling: CouplingMode

    @property
    def args(self) -> tuple[Any, ...]:
        """Activation arguments in declaration order."""
        return tuple(self.params[name] for name in self.info.params)

    def tabort(self, reason: str = "tabort from trigger action") -> None:
        """Abort the surrounding transaction (O++ ``tabort``)."""
        raise TransactionAbort(reason)


@dataclasses.dataclass
class PostingStats(Stats):
    """Instrumentation for experiments E3/E6/E10.

    Mounted on the database's :class:`~repro.obs.metrics.MetricsRegistry`
    under the ``posting.`` prefix; the plain-int fields stay because the
    posting hot path increments them directly.

    Mask evaluations are counted *separately* for the posting path and for
    activation-time quiescing: ``activate()`` evaluates start-state masks
    once per activation, and folding that into the per-posting count
    polluted E3's overhead-per-posting numbers whenever a benchmark
    activated triggers inside the measured window.
    """

    events_posted: int = 0
    skipped_no_triggers: int = 0
    fsm_advances: int = 0
    state_writes: int = 0
    #: masks evaluated while advancing a machine on a posted event
    masks_evaluated_posting: int = 0
    #: masks evaluated while quiescing a freshly activated machine
    masks_evaluated_activation: int = 0
    #: firings whose dispatch *returned*: an immediate action that
    #: ``tabort``s (the paper's ``DenyCredit``) unwinds through the
    #: posting loop and is not counted; a queued firing is counted when
    #: queued.  The benchmark's ``cards_disk`` oracle pins this meaning.
    firings: int = 0
    #: events posted through the :func:`post_many` batch API
    batched: int = 0
    #: per-trigger advances served by the generated-code fast path
    compiled_hits: int = 0
    #: per-trigger advances the interpreter step served instead (a
    #: machine past the unroll budget, an entry on a transient mask
    #: state, a group the tier could not generate)
    compiled_fallbacks: int = 0

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Per-field delta of the current values against *before*."""
        return {k: v - before.get(k, 0) for k, v in self.snapshot().items()}


class Resolution:
    """What one trigger kind — a ``(trigobjtype, triggernum)`` pair —
    resolves to under one trigger-schema ``version``: its
    ``TriggerInfo``.  The trigger system memoizes one per kind
    (``TriggerSystem.resolve``), shared by every machine of that kind in
    every transaction."""

    __slots__ = ("version", "info")

    def __init__(self, version: int, info: TriggerInfo):
        self.version = version
        self.info = info


class Machine:
    """A view of one entry of a group at run time: its ``TriggerState``
    (``statenum`` as of the last time the group handed the view out —
    the group's ``statenums`` are the working state), where it is stored
    (its group's rid and its serial there — together its ``TriggerId``;
    local rules have no group record), plus what the registry resolved
    for it.  A view does not point back at its :class:`Group`, so a
    transaction's groups hold no reference cycle and are freed by
    reference counting when it ends.

    ``version`` is the trigger-schema version ``info`` was resolved
    against (``None``: not yet); the kernel resolves it again before a
    machine fires or is settled, so a class redefined mid-transaction
    never fires a stale action.
    """

    __slots__ = ("rid", "serial", "state", "info", "version")

    def __init__(self, rid: int | None, serial: int, state):
        self.rid = rid
        self.serial = serial
        self.state = state
        self.info = self.version = None

    def adopt(self, resolution: Resolution) -> None:
        """Take *resolution*'s version and info."""
        self.version = resolution.version
        self.info = resolution.info


#: One entry's heads but its serial: ``(triggernum, statenum,
#: trigobjtype, params)``, what an activation adds.
Entry = tuple[int, int, str, dict]


def new_heads(anchor: PersistentPtr, entry: Entry) -> GroupHeads:
    """The heads of a new group on *anchor* holding *entry* under serial 0
    (not framed yet)."""
    triggernum, statenum, trigobjtype, params = entry
    return anchor, 1, [0], [triggernum], [statenum], [trigobjtype], [params], None


class Group:
    """One object's trigger group as a transaction works on it, in the one
    working form of every store: the record's rid and the parallel
    sequences :func:`~repro.core.trigger_state.decode_heads` returns —
    ``anchor``, ``next_serial``, the entries' ``serials``,
    ``triggernums``, ``statenums``, ``types`` and ``params`` in activation
    order, and the record's ``frame`` while the membership is unchanged
    (so writing back an advance packs only the entry heads).

    ``statenums`` is the working state: the group function advances it in
    place.  :meth:`entry` hands out one entry's :class:`Machine`, a view
    built on first ask and kept per serial; ``len()`` is the entry count
    and iterating the group lists the views.  Activation and deactivation
    (:meth:`add`, :meth:`remove`) edit the sequences in place."""

    #: the group function serving this group and the schema version it
    #: was chosen under (see ``StateStore.kernel``); a membership change
    #: chooses again
    kernel = None
    kernel_version = None
    #: the ``statenums`` the group's record held when it was loaded (a
    #: tuple; ``None`` for a group created in this transaction)
    loaded = None

    def __init__(self, rid: int | None, heads: GroupHeads, resolved=None):
        self.rid = rid
        (
            self.anchor,
            self.next_serial,
            self.serials,
            self.triggernums,
            self.statenums,
            self.types,
            self.params,
            self.frame,
        ) = heads
        #: serial -> the entry's view, once built
        self._built: dict[int, Machine] = {}
        self._resolved = resolved

    def __len__(self) -> int:
        return len(self.serials)

    def __iter__(self):
        return map(self.entry, range(len(self.serials)))

    def entry(self, index: int) -> Machine:
        """The view of entry *index*, built on first ask (with its kind's
        memoized resolution, if any) and brought up to the entry's working
        state."""
        serial = self.serials[index]
        machine = self._built.get(serial)
        if machine is None:
            machine = self._built[serial] = self._view(index)
        else:
            machine.state.statenum = self.statenums[index]
        return machine

    def _view(self, index: int) -> Machine:
        triggernum, trigobjtype = self.triggernums[index], self.types[index]
        state = TriggerState(
            triggernum, self.anchor, self.statenums[index], trigobjtype, self.params[index]
        )
        machine = Machine(self.rid, self.serials[index], state)
        resolution = self._resolved((trigobjtype, triggernum))
        if resolution is not None:
            machine.adopt(resolution)
        return machine

    def heads(self) -> GroupHeads:
        """The group as :func:`decode_heads` returns a record (framed
        again after a membership change)."""
        if self.frame is None:
            self.frame = frame_group(self.anchor, self.next_serial, *self.columns())
        return (self.anchor, self.next_serial, *self.columns(), self.frame)

    def encode(self) -> bytes:
        frame = self.heads()[-1]
        return pack_heads(frame, self.serials, self.triggernums, self.statenums)

    def add(self, entry: Entry) -> int:
        """Append *entry* under the next serial; returns the serial.  The
        record stores ``next_serial`` too, so the last serial that leaves
        it storable is ``SERIAL_MAX - 1``."""
        serial = self.next_serial
        if serial >= SERIAL_MAX:
            raise SerializationError(
                f"trigger group {self.rid} has used all {SERIAL_MAX} serials"
            )
        self.append(serial, entry)
        self.next_serial = serial + 1
        return serial

    def append(self, serial: int, entry: Entry) -> None:
        """Append *entry* under *serial*."""
        self._edit()
        for column, value in zip(self.columns(), (serial, *entry)):
            column.append(value)

    def remove(self, serial: int) -> int | None:
        """Drop the entry with *serial*; returns where it stood, or
        ``None`` if there is none."""
        try:
            index = self.serials.index(serial)
        except ValueError:
            return None
        self._edit()
        for column in self.columns():
            del column[index]
        self._built.pop(serial, None)
        return index

    def columns(self) -> tuple:
        """The five per-entry sequences, serials first."""
        return self.serials, self.triggernums, self.statenums, self.types, self.params

    def _edit(self) -> None:
        """Ready the sequences for a membership change (a load leaves some
        of them tuples); the frame and the group function go."""
        if type(self.serials) is not list:
            self.serials = list(self.serials)
            self.triggernums = list(self.triggernums)
            self.types = list(self.types)
        self.frame = None
        self.kernel_version = None


class StateStore:
    """Where the groups of one posting scope live — the seam.

    The trigger index asks :meth:`group` for an object's group (the
    whole group is loaded on first touch).  The posting loop asks
    :meth:`kernel` for the group function that serves a group, and
    :func:`advance_group` calls it.  :meth:`refresh` runs on a machine
    not resolved under the current schema version before it fires or is
    settled.  :meth:`settle` runs for each entry an advance moved under
    a live span (no other store's ``settle`` does more than trace), and
    for every entry advanced if ``logs_ignored_events``.  :meth:`flush` runs
    once at the end of a call that moved anything.  The trigger system
    calls :meth:`create`, :meth:`activate`, :meth:`deactivate` and
    :meth:`drop`, and :meth:`write_back` from
    ``Database.flush_transaction``.
    """

    logs_ignored_events = False
    system: "TriggerSystem"

    def group(self, rid: int) -> Group:
        """The working copy of group *rid* (loaded on first touch)."""
        raise KeyError(rid)

    def create(self, anchor: PersistentPtr, entry: Entry) -> Group:
        """The first activation on *anchor*: a new group holding *entry*
        (under serial 0)."""
        raise NotImplementedError

    def activate(self, group: Group, entry: Entry) -> int:
        """Add *entry* to an existing group; returns its serial."""
        raise NotImplementedError

    def deactivate(self, group: Group, serial: int) -> bool:
        """Remove entry *serial*; an emptied group is deleted.  ``False``
        when no such entry is active."""
        raise NotImplementedError

    def drop(self, group: Group) -> None:
        """Delete the whole group (its anchor was deleted)."""
        raise NotImplementedError

    def refresh(self, machine: Machine) -> None:
        """Resolve the ``TriggerInfo`` through ``trigobjtype`` — needed
        because an object can carry triggers from several base classes —
        under the current schema version (the trigger system's memo)."""
        machine.adopt(self.system.resolve(machine.state))

    def kernel(self, group: Group):
        """The group function that advances *group* as a whole, kept on
        the group per schema version and membership (a membership change
        resets it), so each group asks :meth:`choose` once.  Every store
        keeps it this way; they differ only in how they choose."""
        version = schema_version()
        if group.kernel_version != version:
            group.kernel = self.choose(group)
            group.kernel_version = version
        return group.kernel

    def choose(self, group: Group):
        """The group function for *group*: the compile tier's, keyed by
        the registry its kinds resolve through and its kinds columns, so
        a group of kinds already served is one memo hit."""
        system = self.system
        return _TIER.group_function(
            (system.db.registry, tuple(group.types), tuple(group.triggernums)),
            system.resolutions,
        )

    def settle(
        self, machine, obj, old_state, eventnum, occurrence, outcomes, span
    ) -> None:
        """Record an advance (already in the working copy).  *outcomes* is
        what each mask the advance called said (``None``: it called none);
        *span* is the posting's trace span (falsy: none)."""

    def flush(self, group, moved: int) -> None:
        """Make the *moved* advances of *group* as durable as this store
        is."""

    def write_back(self) -> None:
        """Write what this store deferred to commit (nothing, unless it
        says otherwise)."""


class LockInPlaceStates(StateStore):
    """Strict 2PL: a group's states are its storage record.

    The first touch reads the record and keeps the decoded group for the
    rest of the transaction.  Sound under two-phase locking — the read
    takes a shared lock held to commit, so within one transaction nobody
    else can change the record, and our own changes go to the cached
    group.  The first posting that moved any machine takes the group's
    **write lock** at once — the "triggers turn read access into write
    access" effect of Section 6 that experiment E6 measures — and marks
    it dirty; activation and deactivation on an existing group do the
    same.  A later change to a dirty group asks for no lock again.
    :meth:`write_back`, run by ``Database.flush_transaction`` after every
    before-commit hook, writes each dirty group once, as objects are
    written — unless the group ended where it was loaded: its frame is
    intact (no membership change) and its ``statenums`` equal the loaded
    ones, so :meth:`Group.encode` would produce the stored bytes and
    nothing is asked of storage (DESIGN §16).  An abort therefore logs
    nothing for a group it only advanced; the store dies with the
    transaction.  ``create`` and ``drop`` still insert and delete at once.
    """

    def __init__(self, system: "TriggerSystem", txn: "Transaction"):
        self.system = system
        self.storage = system.db.storage
        self.stats = system.stats
        self.txid = txn.txid
        self.groups: dict[int, Group] = {}
        #: group rid -> group, X-locked and awaiting :meth:`write_back`
        self.dirty: dict[int, Group] = {}

    def group(self, rid):
        group = self.groups.get(rid)
        if group is None:
            group = self.groups[rid] = Group(
                rid, decode_heads(self.storage.read(self.txid, rid)), self.system.resolved
            )
            group.loaded = tuple(group.statenums)
        return group

    def create(self, anchor, entry):
        group = Group(None, new_heads(anchor, entry), self.system.resolved)
        group.rid = rid = self.storage.insert(self.txid, group.encode())
        self.groups[rid] = group
        return group

    def activate(self, group, entry):
        serial = group.add(entry)
        self._mark(group)
        return serial

    def deactivate(self, group, serial):
        if group.remove(serial) is None:
            return False
        if group:
            self._mark(group)
        else:
            self.drop(group)
        return True

    def drop(self, group):
        self.storage.delete(self.txid, group.rid)
        del self.groups[group.rid]
        self.dirty.pop(group.rid, None)

    def settle(self, machine, obj, old_state, eventnum, occurrence, outcomes, span):
        if span:
            obs.emit(
                "state.write",
                span,
                group_rid=machine.rid,
                serial=machine.serial,
                trigger=machine.info.name,
            )

    def flush(self, group, moved):
        self._mark(group)
        self.stats.state_writes += moved

    def write_back(self):
        for rid, group in self.dirty.items():
            if group.frame is None or tuple(group.statenums) != group.loaded:
                self.storage.write(self.txid, rid, group.encode())
        self.dirty.clear()

    def _mark(self, group: Group) -> None:
        """X-lock *group* where writing it would, and write it at commit.
        A group already dirty holds its X lock until the transaction ends,
        so only its first mark asks for it."""
        rid = group.rid
        if rid not in self.dirty:
            self.storage.lock_for_write(self.txid, rid)
            self.dirty[rid] = group


class VolatileStates(StateStore):
    """Local rules (Section 8): states are plain memory, so advancing is
    an assignment — no record, no lock, no log.  Its owner's groups carry
    their entries' infos already resolved, and it has no registry to ask
    again: a group's function is kept on it as on every store, the
    compile tier's keyed by those infos."""

    def refresh(self, machine):
        machine.version = schema_version()

    def choose(self, group):
        # Asked once per membership: the group keeps what it returns.
        return _TIER.group_function(tuple(group.infos), lambda _key: list(group))


def start_machine(stats: PostingStats, info: TriggerInfo, obj: Any, args: tuple):
    """Activation's storage-free half (Section 5.4.1): bind *args* to the
    trigger's parameters and put the machine in its start state, evaluating
    any start-state masks.  Returns ``(params, statenum)``."""
    if len(args) != len(info.params):
        raise TriggerArgumentError(
            f"trigger {info.defining_type}.{info.name} takes "
            f"{len(info.params)} argument(s) {info.params}, got {len(args)}"
        )
    params = dict(zip(info.params, args))

    def evaluate(mask_name: str) -> bool:
        # Activation-time quiescing, not posting: counted separately so
        # per-posting overhead numbers (E3) stay honest.
        stats.masks_evaluated_activation += 1
        outcome = bool(info.masks[mask_name](obj, params, NULL_OCCURRENCE))
        if obs.ENABLED:
            obs.emit(
                "mask.eval",
                mask=mask_name,
                trigger=info.name,
                outcome=outcome,
                phase="activation",
            )
        return outcome

    return params, info.fsm.quiesce(info.fsm.start, evaluate)[0]


def interpret(
    stats: PostingStats,
    info: TriggerInfo,
    statenum: int,
    eventnum: int,
    obj: Any,
    params,
    occurrence: EventOccurrence,
    outcomes: dict | None = None,
    replay: Mapping | None = None,
) -> tuple[int, bool]:
    """The interpreter step: advance a machine of kind *info* from
    *statenum* on one event — its integer-keyed FSM, evaluating masks and
    feeding the ``True``/``False`` pseudo-events until quiescent — and
    return ``(new state, accepted)``.  The generated group function runs
    it per entry past the unroll budget (or of a group past the group
    budget) or on a transient mask state, MVCC's replay per logged event.
    *outcomes*, if given, gets what each evaluated mask said.
    *replay* maps mask names to the outcomes recorded when the event was
    first posted: the step answers from it and evaluates live only what
    it lacks."""

    def evaluate(mask_name: str) -> bool:
        if replay is not None and mask_name in replay:
            return replay[mask_name]
        outcome = bool(info.masks[mask_name](obj, params, occurrence))
        # Counted once it returned, as the generated code counts: a mask
        # that raises is no evaluation.
        stats.masks_evaluated_posting += 1
        if outcomes is not None:
            outcomes[mask_name] = outcome
        return outcome

    result = info.fsm.advance(statenum, eventnum, evaluate)
    stats.fsm_advances += 1
    return result.state, result.accepted


def advance_group(
    stats: PostingStats,
    kernel,
    store: StateStore,
    group: Group,
    eventnum: int,
    obj: Any,
    occurrence: EventOccurrence,
    span: int | None = None,
) -> list[Machine]:
    """Step 3: advance every entry of *group* on one event by one call of
    *kernel*, its group function, in the group's own ``statenums``, and
    return the views of the entries that accepted, in entry order.

    *span* is ``None`` for an untraced posting, else the posting's trace
    span (:data:`~repro.obs.NO_SPAN` for local rules, which post without
    one).  A traced posting calls the same *kernel* with a log of what
    each advanced entry's masks said, and :func:`_trace_advance` emits
    the advances from it.  Each moved entry is then settled under a live
    *span*, each advanced one if the store logs every advance, and the
    store is flushed once.  A view is built only for each entry that
    accepted (or is settled or traced), and re-resolved if the schema
    version moved since it was."""
    moved: list = []
    statenums = group.statenums
    logs = store.logs_ignored_events
    log = {} if logs or span is not None else None
    accepted = None
    try:
        accepted = kernel(
            statenums, eventnum, obj, group.params, occurrence, moved, stats, log
        )
    finally:
        if span is not None:
            _trace_advance(store, group, eventnum, moved, accepted, log, span)
        settled = moved
        if logs:
            olds = dict(moved)
            settled = [(i, olds.get(i, statenums[i])) for i in range(log.get(-1, 0))]
        if settled:
            if span or logs:
                _settle(store, group, settled, obj, eventnum, occurrence, log, span)
            store.flush(group, len(settled))
    if not accepted:
        return accepted
    version = schema_version()
    return [_current(store, group, index, version) for index in accepted]


def _current(store: StateStore, group: Group, index: int, version: int) -> Machine:
    """The view of entry *index* of *group*, re-resolved by *store* if it
    was resolved under another schema version than *version*."""
    machine = group.entry(index)
    if machine.version != version:
        store.refresh(machine)
    return machine


def _settle(store, group, advanced, obj, eventnum, occurrence, log, span) -> None:
    """Settle each ``(index, old state)`` of *advanced* with *store*;
    *log* holds what each entry's masks said."""
    version = schema_version()
    for index, old in advanced:
        machine = _current(store, group, index, version)
        outcomes = None if log is None else log.get(index)
        store.settle(machine, obj, old, eventnum, occurrence, outcomes, span)


def _trace_advance(store, group, eventnum, moved, accepted, log, span) -> None:
    """The trace emitter of one group-function call (DESIGN.md §10): for
    each entry the call advanced (``log[-1]`` of them, also when a mask
    raised), in entry order, the entry's ``mask.eval`` records and, under
    a live *span*, its ``fsm.advance``.

    Each entry's ``info.fsm.advance`` steps again from its old state over
    what its masks said in the call, as *log* holds it under the entry's
    index.  Every replay must ask exactly the masks the call called and
    land on the state and acceptance the call produced (*accepted*:
    ``None`` if it raised); otherwise nothing is emitted and
    ``RuntimeError`` is raised."""
    version = schema_version()
    olds = dict(moved)
    records = []
    for index in range(log.get(-1, 0)):
        info = _current(store, group, index, version).info
        outcomes, said = log.get(index, {}), []

        def evaluate(mask: str) -> bool:
            if mask not in outcomes:
                raise _diverged(f"{info.name} asked {mask!r}, the call did not")
            said.append((mask, outcomes[mask]))
            return outcomes[mask]

        old = olds.get(index, group.statenums[index])
        result = info.fsm.advance(old, eventnum, evaluate)
        if len(said) != len(outcomes):
            asked = sorted(mask for mask, _ in said)
            raise _diverged(f"{info.name} asked {asked}, the call {sorted(outcomes)}")
        if result.state != group.statenums[index] or (
            accepted is not None and result.accepted != (index in accepted)
        ):
            raise _diverged(
                f"{info.name} replayed to {result}, the call to state "
                f"{group.statenums[index]} (accepting {accepted})"
            )
        records.append((info.name, old, result, said))
    for name, old, result, said in records:
        for mask, outcome in said:
            obs.emit(
                "mask.eval", span, mask=mask, trigger=name, outcome=outcome,
                phase="posting",
            )
        if span:
            obs.emit(
                "fsm.advance", span, trigger=name, from_state=old,
                to_state=result.state, consumed=result.consumed,
                accepted=result.accepted, pseudo_steps=result.pseudo_steps,
            )


def _diverged(detail: str) -> RuntimeError:
    return RuntimeError(f"trace replay diverged from the group function: {detail}")


def _post(system: "TriggerSystem", db: "Database", batch, batched: bool) -> int:
    """The posting loop: per posting, skip on the control bit, find the
    object's group through its header, advance every entry by one call of
    the group function serving it, *then* fire.

    What a batch can share — the current transaction and its state store,
    the ``obs.ENABLED`` check — is resolved once.  A batch also keeps, per
    object rid, the instance posted to, its group and the group's
    function, so a batch that posts to an object again finds its group
    without the index (a traced posting still emits its ``index.lookup``
    record); the instance must be the one kept.  Only an immediate
    action can change what the batch kept — activate, deactivate or
    delete a trigger, flip obs — so after any posting that fired the
    batch forgets its groups and checks obs again, and the next posting
    finds its target's group through the header, as one ``post_event``
    would.  A traced posting opens a span and is served by the same group
    function.  :func:`post_event`, a batch of one, keeps nothing.
    """
    stats = system.stats
    total = 0
    txn = store = None
    tracing = obs.ENABLED
    # rid -> (instance, group, group function): a batch's only
    seen = {} if batched else None
    for eventnum, ptr, obj, occurrence in batch:
        stats.events_posted += 1
        if batched:
            stats.batched += 1
        if occurrence is None:
            occurrence = plain_occurrence(eventnum)
        span = None
        if tracing:
            span = obs.begin_span(
                "post",
                eventnum=eventnum,
                method=occurrence.method,
                rid=ptr.rid,
                type=type(obj).__name__,
                session=db.current_session().name,
                batched=batched,
            )
        # Footnote 3: the persistent object's control information says
        # whether any triggers are active — if not, no group to read.
        if not obj.__dict__.get("_p_flags", 0) & FLAG_HAS_TRIGGERS:
            stats.skipped_no_triggers += 1
            if span:
                obs.end_span(span, "post", skipped="no-active-triggers")
            continue
        if txn is None:
            txn = db.txn_manager.current()
            store = system.states(txn)
        kept = seen.get(ptr.rid) if seen else None
        if kept is not None and kept[0] is obj:
            _obj, group, kernel = kept
        else:
            group = system.index.lookup(txn, ptr.rid, obj)
            kernel = store.kernel(group) if isinstance(group, Group) else None
            if seen is not None:
                seen[ptr.rid] = obj, group, kernel
        if span:
            obs.emit(
                "index.lookup", span, rid=ptr.rid, txid=txn.txid, states=len(group)
            )
        ready = ()
        if kernel is not None:
            ready = advance_group(
                stats, kernel, store, group, eventnum, obj, occurrence, span
            )
        if ready:
            # Fire only after every trigger has had the basic event posted
            # — "to prevent the action of one trigger from affecting the
            # mask of another trigger" — in activation order, the order
            # the group holds (§5.4.5: an unspecified order that keeps the
            # conceptual semantics; ODE202 names the racing pairs).
            records = [
                FiringRecord(TriggerId(db.name, m.rid, m.serial), m.state, m.info)
                for m in ready
            ]
            for order, record in enumerate(records):
                if span:
                    obs.emit(
                        "fire",
                        span,
                        trigger=record.info.name,
                        coupling=record.info.coupling.value,
                        order=order,
                    )
                dispatch_firing(system, db, txn, record)
                stats.firings += 1
            total += len(records)
            tracing = obs.ENABLED
            if seen:
                seen.clear()
        if span:
            obs.end_span(span, "post", firings=len(ready))
    return total


def post_event(
    system: "TriggerSystem",
    db: "Database",
    eventnum: int,
    ptr: PersistentPtr,
    obj: "Persistent",
    occurrence: EventOccurrence | None = None,
) -> int:
    """Post one basic event integer to one object; returns #firings queued."""
    return _post(system, db, ((eventnum, ptr, obj, occurrence),), False)


def post_many(system: "TriggerSystem", db: "Database", batch) -> int:
    """Post a batch of events in order; returns total firings queued.

    *batch* is an iterable of ``(eventnum, ptr, obj, occurrence)`` tuples
    (``occurrence`` may be ``None``).  Identical to calling
    :func:`post_event` once per tuple — same advance order, same firing
    points, same stats plus ``batched`` — with the fixed per-posting costs
    paid once per batch (see :func:`_post`).
    """
    return _post(system, db, batch, True)


def user_event_int(metatype, name: str) -> int:
    """The event integer of *metatype*'s declared user-defined event *name*."""
    try:
        return metatype.user_events[name]
    except KeyError:
        raise UnknownEventError(
            f"{metatype.name} declares no user-defined event {name!r}"
        ) from None


#: Where a detected occurrence waits for its coupling mode's moment.
_QUEUES = {
    CouplingMode.END: END_LIST,
    CouplingMode.DEPENDENT: DEPENDENT_LIST,
    CouplingMode.INDEPENDENT: INDEPENDENT_LIST,
}


def dispatch_firing(
    system: "TriggerSystem",
    db: "Database",
    txn: "Transaction",
    record: FiringRecord,
) -> None:
    """Route a detected occurrence according to its coupling mode."""
    coupling = record.info.coupling
    if coupling is CouplingMode.IMMEDIATE:
        run_action(system, db, txn, record)
    else:
        txn.attachment(_QUEUES[coupling], list).append(record)


def drain(queue: list, run) -> None:
    """Run every queued item in order — including items queued while
    draining — then drop what ran.  One pass by position: ``pop(0)`` per
    item is quadratic in the queue.  If *run* raises, the items already
    started are still dropped, so a later drain does not run them twice."""
    started = 0
    try:
        while started < len(queue):
            started += 1
            run(queue[started - 1])
    finally:
        del queue[:started]


def run_action(
    system: "TriggerSystem",
    db: "Database",
    txn: "Transaction",
    record: FiringRecord,
) -> None:
    """Execute a trigger's action in *txn*, deactivating once-only triggers.

    The action gets the trigger's anchor object as a persistent handle, so
    method calls from within the action post events and can cascade into
    further trigger firings (conceptually nested transactions,
    Section 5.4.5).  ``TransactionAbort`` raised by the action propagates —
    that is ``tabort`` doing its job.
    """
    handle = db.deref(record.state.trigobj)
    ctx = TriggerContext(
        db=db,
        txn=txn,
        trigger_id=record.trigger_id,
        info=record.info,
        params=dict(record.state.params),
        coupling=record.info.coupling,
    )
    if obs.ENABLED:
        obs.emit(
            "action.run",
            trigger=record.info.name,
            coupling=record.info.coupling.value,
            txid=txn.txid,
            session=txn.session_name,
        )
    record.info.action(handle, ctx)
    if not record.info.perpetual:
        # missing_ok: a once-only trigger detected twice before its queued
        # firing ran would otherwise fail the second deactivation.
        system.deactivate(record.trigger_id, missing_ok=True)
