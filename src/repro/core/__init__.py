"""The Ode trigger system — the paper's primary contribution.

``event-expression ==> action`` triggers declared in persistent class
definitions, activated per object at run time, detected by extended finite
state machines, fired under the ECA coupling modes, with all trigger state
persistent so composite events may span applications.

Layout mirrors Section 5 of the paper:

* :mod:`repro.core.registry` — run-time assignment of globally-unique
  integers to basic events (``eventRep``, Section 5.2),
* :mod:`repro.core.trigger_def` — ``TriggerInfo`` containers and the
  integer-keyed sparse FSM representation (Sections 5.4.3–5.4.4),
* :mod:`repro.core.trigger_state` — the persistent ``TriggerState``
  (Section 5.4.1), stored one trigger group per object,
* :mod:`repro.core.trigger_index` — the object → trigger-group index,
  kept in the object headers (Section 5.4.1),
* :mod:`repro.core.wrappers` — generated member-function wrappers that
  post events (Section 5.3),
* :mod:`repro.core.posting` — ``PostEvent`` (Section 5.4.5),
* :mod:`repro.core.manager` — activation/deactivation, coupling modes,
  transaction events (Sections 4.1–4.2, 5.5),
* :mod:`repro.core.declarations` — the O++-analogue class declaration DSL,
* :mod:`repro.core.monitored`, :mod:`repro.core.timers`,
  :mod:`repro.core.interobject`, :mod:`repro.core.constraints` — the
  extensions Section 8 lists as future work.
"""

from repro.core.constraints import activate_constraints
from repro.core.declarations import trigger
from repro.core.interobject import InterObjectTrigger
from repro.core.manager import TriggerSystem
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.posting import EventOccurrence, TriggerContext
from repro.core.registry import EventRegistry, global_event_registry
from repro.core.timers import TimerService, VirtualClock
from repro.core.trigger_def import CouplingMode, TriggerDecl, TriggerInfo
from repro.core.trigger_state import TriggerId, TriggerState

__all__ = [
    "CouplingMode",
    "EventOccurrence",
    "EventRegistry",
    "InterObjectTrigger",
    "LocalTriggerSystem",
    "Monitored",
    "TimerService",
    "TriggerContext",
    "TriggerDecl",
    "TriggerId",
    "TriggerInfo",
    "TriggerState",
    "TriggerSystem",
    "VirtualClock",
    "activate_constraints",
    "global_event_registry",
    "trigger",
]
