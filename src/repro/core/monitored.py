"""Local rules and monitored classes (paper Section 8 future work).

    "Including local rules would be useful, since they are low cost ...
    No persistent storage is required for such triggers, only data
    structures that can be deallocated at end-of-transaction.  Also, such
    triggers never require obtaining write locks ...  We are considering
    supplying monitored classes, non-persistent classes with triggers."

:class:`LocalTriggerSystem` implements both ideas:

* *local rules* — trigger states live in transient memory, one
  :class:`LocalRules` group per object in the persistent groups' working
  form, so activation, FSM advancing, and firing never touch the storage
  manager: no records, no logging, no locks.  Experiment E9 measures the
  saving.
* *monitored classes* — any class (persistent or plain) whose declarations
  went through the active-class processor can be monitored: wrap an
  instance with :meth:`monitor` and method calls through the
  :class:`MonitoredHandle` post events into the local system.  Unwrapped
  instances stay overhead-free, preserving the design principle that "only
  objects that have access to trigger functionality pay any trigger
  overhead".

Local rules support the immediate and end coupling modes; detached modes
need transactions and therefore the persistent system.  When constructed
with a database, local states are deallocated at end-of-transaction (the
paper's lifetime rule); standalone systems are cleared explicitly.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.core.posting import (
    EventOccurrence,
    Group,
    Machine,
    PostingStats,
    TriggerContext,
    VolatileStates,
    advance_group,
    drain,
    plain_occurrence,
    start_machine,
    user_event_int,
)
from repro.core.trigger_def import CouplingMode, TriggerInfo
from repro.errors import TriggerError, TriggerNotActiveError

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database


class Monitored:
    """Optional base class for non-persistent classes with triggers.

    Subclasses may declare ``__events__`` / ``__masks__`` / ``__triggers__``
    exactly like persistent classes; instances are ordinary volatile
    objects until wrapped with :meth:`LocalTriggerSystem.monitor`.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        from repro.core.declarations import process_active_class
        from repro.objects.metatype import global_type_registry

        cls.__metatype__ = global_type_registry().register(cls)
        if cls.__dict__.get("__events__") or cls.__dict__.get("__triggers__"):
            process_active_class(cls)


@dataclasses.dataclass
class LocalTriggerState:
    """A transient trigger state (no persistent record, no locks): what a
    local rule's view holds."""

    local_id: int
    info: TriggerInfo
    obj: Any
    statenum: int
    params: dict[str, Any]


class LocalRules(Group):
    """One volatile object's local rules: a group in the working form of
    the persistent ones — serials are the rules' local ids — with no
    record, and each entry's ``TriggerInfo`` kept alongside in ``infos``
    (there is no registry to resolve it through)."""

    def __init__(self, obj: Any):
        super().__init__(None, (None, 0, [], [], [], [], [], None))
        self.obj = obj
        self.infos: list[TriggerInfo] = []

    def add_rule(self, local_id: int, info: TriggerInfo, statenum: int, params) -> None:
        self.append(local_id, (info.triggernum, statenum, info.defining_type, params))
        self.infos.append(info)

    def remove(self, serial):
        index = super().remove(serial)
        if index is not None:
            del self.infos[index]
        return index

    def _view(self, index):
        info = self.infos[index]
        state = LocalTriggerState(
            self.serials[index], info, self.obj, self.statenums[index], self.params[index]
        )
        machine = Machine(None, state.local_id, state)
        machine.info = info
        return machine


def _call_posting(
    system: "LocalTriggerSystem",
    obj: Any,
    name: str,
    before: int | None,
    after: int | None,
    /,
    *args: Any,
    **kwargs: Any,
) -> Any:
    """A monitored member call: post its *before* event, call the method,
    post its *after* event (either event integer may be ``None``)."""
    if before is not None:
        system.post(obj, before, EventOccurrence(before, name, args, kwargs))
    result = getattr(obj, name)(*args, **kwargs)
    if after is not None:
        system.post(obj, after, EventOccurrence(after, name, args, kwargs))
    return result


class MonitoredHandle:
    """Volatile analogue of a persistent handle: posts to the local system."""

    __slots__ = ("_system", "_obj")

    def __init__(self, system: "LocalTriggerSystem", obj: Any):
        object.__setattr__(self, "_system", system)
        object.__setattr__(self, "_obj", obj)

    @property
    def obj(self) -> Any:
        return self._obj

    def __getattr__(self, name: str) -> Any:
        obj = self._obj
        metatype = type(obj).__metatype__
        events = metatype.method_events.get(name)
        if events is not None:
            return functools.partial(_call_posting, self._system, obj, name, *events)
        info = metatype.triggers_by_name.get(name)
        if info is not None:
            return functools.partial(self._system.activate, obj, info)
        return getattr(obj, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._obj, name, value)

    def post_event(self, event_name: str) -> None:
        self._system.post_user_event(self._obj, event_name)


class LocalTriggerSystem:
    """Transient trigger states for volatile objects — zero storage cost."""

    def __init__(self, db: "Database | None" = None):
        #: id of a monitored object -> its rules
        self._groups: dict[int, LocalRules] = {}
        #: local id -> the rules holding it
        self._owners: dict[int, LocalRules] = {}
        self._store = VolatileStates()
        self._next_id = 1
        self._end_list: list[LocalTriggerState] = []
        self.stats = PostingStats()
        self.db = db
        if db is not None:
            # Local states are deallocated at end-of-transaction.
            db.txn_manager.on_begin(self._install_hooks)

    def _install_hooks(self, txn) -> None:
        txn.before_commit.append(lambda t: self.drain_end_list())
        txn.after_commit.append(lambda t: self.clear())
        txn.after_abort.append(lambda t: self.clear())

    # -- lifecycle ---------------------------------------------------------------

    def monitor(self, obj: Any) -> MonitoredHandle:
        """Wrap a volatile instance so its method calls post events."""
        if not hasattr(type(obj), "__metatype__"):
            raise TriggerError(
                f"{type(obj).__name__} has no metatype; derive from Monitored "
                "or Persistent and declare __events__/__triggers__"
            )
        return MonitoredHandle(self, obj)

    def activate(self, obj: Any, info: TriggerInfo, *args: Any) -> int:
        """Activate a local rule on a volatile object; returns a local id."""
        if info.coupling not in (CouplingMode.IMMEDIATE, CouplingMode.END):
            raise TriggerError(
                f"local rules support immediate/end coupling only, not "
                f"{info.coupling.value} (detached modes need transactions)"
            )
        params, statenum = start_machine(self.stats, info, obj, args)
        local_id = self._next_id
        self._next_id += 1
        group = self._groups.get(id(obj))
        if group is None:
            group = self._groups[id(obj)] = LocalRules(obj)
        group.add_rule(local_id, info, statenum, params)
        self._owners[local_id] = group
        return local_id

    def deactivate(self, local_id: int) -> None:
        group = self._owners.pop(local_id, None)
        if group is None:
            raise TriggerNotActiveError(f"local trigger {local_id} is not active")
        group.remove(local_id)
        if not group:
            del self._groups[id(group.obj)]

    def active_count(self, obj: Any | None = None) -> int:
        if obj is None:
            return len(self._owners)
        return len(self._groups.get(id(obj), ()))

    def clear(self) -> None:
        """End-of-transaction deallocation of every local state."""
        self._groups.clear()
        self._owners.clear()
        self._end_list.clear()

    # -- posting --------------------------------------------------------------------

    def post(self, obj: Any, eventnum: int, occurrence=None) -> int:
        """Post a basic event integer to a volatile object."""
        if occurrence is None:
            occurrence = plain_occurrence(eventnum)
        self.stats.events_posted += 1
        group = self._groups.get(id(obj))
        if not group:
            self.stats.skipped_no_triggers += 1
            return 0
        # The same kernel as persistent posting, over in-memory states: no
        # write lock, no log.  Fire only after every rule has seen the event.
        # Traced, local rules post without a span of their own.
        kernel = self._store.kernel(group)
        span = obs.NO_SPAN if obs.ENABLED else None
        ready = advance_group(
            self.stats, kernel, self._store, group, eventnum, obj, occurrence, span
        )
        for machine in ready:
            state = machine.state
            if state.info.coupling is CouplingMode.END:
                self._end_list.append(state)
            else:
                self._run(state)
            self.stats.firings += 1
        return len(ready)

    def post_user_event(self, obj: Any, name: str) -> int:
        return self.post(obj, user_event_int(type(obj).__metatype__, name))

    # -- firing ----------------------------------------------------------------------

    def _run(self, state: LocalTriggerState) -> None:
        ctx = TriggerContext(
            db=self.db,
            txn=None,
            trigger_id=None,
            info=state.info,
            params=dict(state.params),
            coupling=state.info.coupling,
        )
        handle = MonitoredHandle(self, state.obj)
        state.info.action(handle, ctx)
        if not state.info.perpetual and state.local_id in self._owners:
            self.deactivate(state.local_id)

    def drain_end_list(self) -> None:
        """Run queued end-mode local actions (commit does; standalone use must)."""

        def run(state: LocalTriggerState) -> None:
            if state.local_id in self._owners or not state.info.perpetual:
                self._run(state)

        drain(self._end_list, run)
