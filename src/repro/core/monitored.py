"""Local rules and monitored classes (paper Section 8 future work).

    "Including local rules would be useful, since they are low cost ...
    No persistent storage is required for such triggers, only data
    structures that can be deallocated at end-of-transaction.  Also, such
    triggers never require obtaining write locks ...  We are considering
    supplying monitored classes, non-persistent classes with triggers."

:class:`LocalTriggerSystem` implements both ideas:

* *local rules* — trigger states live in transient memory (a list), so
  activation, FSM advancing, and firing never touch the storage manager:
  no records, no logging, no locks.  Experiment E9 measures the saving.
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

from repro.core.compiled import global_compiled_tier
from repro.core.posting import (
    EventOccurrence,
    Machine,
    PostingStats,
    TriggerContext,
    VolatileStates,
    advance_group,
    drain,
    plain_occurrence,
    serving_tier,
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
    """A transient trigger state (no persistent record, no locks)."""

    local_id: int
    info: TriggerInfo
    obj: Any
    statenum: int
    params: dict[str, Any]


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
        metatype = type(self._obj).__metatype__
        events = {
            (decl.kind, decl.name): metatype.event_ints[decl.symbol]
            for decl in metatype.declared_events
            if decl.is_method_event
        }
        before = events.get(("before", name))
        after = events.get(("after", name))
        if before is not None or after is not None:
            method = getattr(self._obj, name)

            @functools.wraps(method)
            def call(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    self._system.post(
                        self._obj,
                        before,
                        EventOccurrence(before, name, args, kwargs),
                    )
                result = method(*args, **kwargs)
                if after is not None:
                    self._system.post(
                        self._obj,
                        after,
                        EventOccurrence(after, name, args, kwargs),
                    )
                return result

            return call
        for info in metatype.all_trigger_infos:
            if info.name == name:
                return functools.partial(self._system.activate, self._obj, info)
        return getattr(self._obj, name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._obj, name, value)

    def post_event(self, event_name: str) -> None:
        self._system.post_user_event(self._obj, event_name)


class LocalTriggerSystem:
    """Transient trigger states for volatile objects — zero storage cost."""

    def __init__(self, db: "Database | None" = None):
        #: local id -> Machine whose ``state`` is a :class:`LocalTriggerState`
        self._states: dict[int, Machine] = {}
        self._store = VolatileStates()
        self._by_obj: dict[int, list[int]] = {}
        self._next_id = 1
        self._end_list: list[LocalTriggerState] = []
        self.stats = PostingStats()
        # Local states live in memory, so the compiled tier only saves the
        # dispatch work — but it is the same group functions and the same
        # ODE4xx gate as the persistent path (DESIGN.md §14).
        self.compiled = global_compiled_tier()
        self.compiled_enabled = True
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
        state = LocalTriggerState(self._next_id, info, obj, statenum, params)
        self._next_id += 1
        machine = self._states[state.local_id] = Machine(None, state.local_id, state)
        machine.info = info
        machine.defining = getattr(type(obj), "__metatype__", None)
        self._by_obj.setdefault(id(obj), []).append(state.local_id)
        return state.local_id

    def deactivate(self, local_id: int) -> None:
        machine = self._states.pop(local_id, None)
        if machine is None:
            raise TriggerNotActiveError(f"local trigger {local_id} is not active")
        owners = self._by_obj.get(id(machine.state.obj), [])
        if local_id in owners:
            owners.remove(local_id)

    def active_count(self, obj: Any | None = None) -> int:
        if obj is None:
            return len(self._states)
        return len(self._by_obj.get(id(obj), []))

    def clear(self) -> None:
        """End-of-transaction deallocation of every local state."""
        self._states.clear()
        self._by_obj.clear()
        self._end_list.clear()

    # -- posting --------------------------------------------------------------------

    def post(self, obj: Any, eventnum: int, occurrence=None) -> int:
        """Post a basic event integer to a volatile object."""
        if occurrence is None:
            occurrence = plain_occurrence(eventnum)
        self.stats.events_posted += 1
        local_ids = self._by_obj.get(id(obj))
        if not local_ids:
            self.stats.skipped_no_triggers += 1
            return 0
        # The same kernel as persistent posting, over in-memory states: no
        # write lock, no log.  Fire only after every rule has seen the event.
        machines = [self._states[local_id] for local_id in local_ids]
        kernel = self._store.kernel(machines, serving_tier(self))
        ready = advance_group(
            self.stats, kernel, self._store, machines, eventnum, obj, occurrence
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
        if not state.info.perpetual and state.local_id in self._states:
            self.deactivate(state.local_id)

    def drain_end_list(self) -> None:
        """Run queued end-mode local actions (commit does; standalone use must)."""

        def run(state: LocalTriggerState) -> None:
            if state.local_id in self._states or not state.info.perpetual:
                self._run(state)

        drain(self._end_list, run)
