"""Timed triggers (paper Section 8 future work).

    "Timed triggers, where the passage of time can be used to produce
    events, are also of interest."

Time is modelled by an explicit :class:`VirtualClock` so tests and
benchmarks are deterministic (wall-clock adapters are a one-liner on top).
A :class:`TimerService` schedules one-shot or periodic *timer events*:
when the clock passes a timer's due time, the service posts the named
user-defined event to the target object — from there, ordinary composite
event expressions take over (e.g. ``"after buy, Timeout"`` fires when a
purchase is not followed by payment before the timeout event).

Scheduling invariants the service maintains:

* **no drift** — a periodic timer's next due time is ``due + period``
  (anchored to the schedule), never ``now + period`` (anchored to when the
  service happened to run), so a late ``advance_to`` cannot push every
  subsequent firing later;
* **no dangling posts** — a timer whose target object was deleted
  mid-flight is cancelled (and counted in ``stats.dangling_cancelled``)
  instead of posting through a dangling :class:`PersistentPtr`; a target
  whose triggers were merely deactivated receives the event harmlessly
  (the posting short-circuits on the control bit);
* **self-cancellation** — a trigger action cancelling its own (periodic)
  timer wins: the timer is not rescheduled.

Timers are transient (rebuilt by the application at startup), matching the
prototype status the paper gives this feature.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
from typing import TYPE_CHECKING

from repro import obs
from repro.errors import DanglingPointerError, TriggerError
from repro.objects.oid import PersistentPtr
from repro.obs.metrics import Stats

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database


class VirtualClock:
    """A monotonic, manually-advanced clock."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise TriggerError("the clock cannot run backwards")
        self._now += delta
        return self._now

    def set(self, when: float) -> float:
        if when < self._now:
            raise TriggerError("the clock cannot run backwards")
        self._now = float(when)
        return self._now


@dataclasses.dataclass(order=True)
class _Timer:
    due: float
    seq: int
    timer_id: int = dataclasses.field(compare=False)
    target: PersistentPtr = dataclasses.field(compare=False)
    event_name: str = dataclasses.field(compare=False)
    period: float | None = dataclasses.field(compare=False, default=None)
    cancelled: bool = dataclasses.field(compare=False, default=False)


@dataclasses.dataclass
class TimerStats(Stats):
    """Counters for the timer subsystem (mounted as ``timers.*``)."""

    scheduled: int = 0
    fired: int = 0
    rescheduled: int = 0
    cancelled: int = 0
    #: timers auto-cancelled because their target object was deleted
    dangling_cancelled: int = 0


class TimerService:
    """Schedules timer events against one database."""

    def __init__(self, db: "Database", clock: VirtualClock | None = None):
        self.db = db
        self.clock = clock or VirtualClock()
        self._heap: list[_Timer] = []
        self._timers: dict[int, _Timer] = {}
        self._ids = itertools.count(1)
        self._seq = itertools.count()
        # Concurrent sessions share one service: heap and table mutations
        # are serialized (postings run outside the lock, in the calling
        # session's transaction).
        self._mutex = threading.RLock()
        self.stats = TimerStats()
        db.metrics.register_source("timers", self.stats)

    @property
    def fired(self) -> int:
        """Total timer events posted (legacy alias of ``stats.fired``)."""
        return self.stats.fired

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        target: PersistentPtr,
        event_name: str,
        *,
        delay: float | None = None,
        at: float | None = None,
        period: float | None = None,
    ) -> int:
        """Schedule *event_name* to be posted to *target*; returns timer id.

        Give either ``delay`` (relative) or ``at`` (absolute); ``period``
        makes the timer repeat.  The event must be a declared user-defined
        event of the target's class.
        """
        if (delay is None) == (at is None):
            raise TriggerError("give exactly one of delay= or at=")
        if period is not None and period <= 0:
            raise TriggerError("period must be positive")
        due = self.clock.now + delay if delay is not None else float(at)
        if due < self.clock.now:
            raise TriggerError(f"timer due time {due} is in the past")
        with self._mutex:
            timer = _Timer(
                due=due,
                seq=next(self._seq),
                timer_id=next(self._ids),
                target=target,
                event_name=event_name,
                period=period,
            )
            heapq.heappush(self._heap, timer)
            self._timers[timer.timer_id] = timer
            self.stats.scheduled += 1
        if obs.ENABLED:
            obs.emit(
                "timer.schedule",
                timer_id=timer.timer_id,
                event=event_name,
                rid=target.rid,
                due=due,
                period=period,
            )
        return timer.timer_id

    def cancel(self, timer_id: int) -> bool:
        with self._mutex:
            timer = self._timers.pop(timer_id, None)
            if timer is None:
                return False
            timer.cancelled = True
            self.stats.cancelled += 1
        if obs.ENABLED:
            obs.emit("timer.cancel", timer_id=timer_id, event=timer.event_name)
        return True

    def pending(self) -> int:
        return len(self._timers)

    # -- firing -----------------------------------------------------------------

    def advance_to(self, when: float) -> int:
        """Advance the clock, posting every due timer event; returns count.

        Each due timer's event is posted in its own transaction unless the
        caller already holds one.  A timer whose target object no longer
        exists is cancelled rather than left to raise through the clock
        advance; a periodic timer is rescheduled *before* its event posts,
        so its cadence survives an action that raises and an action that
        cancels it observes the usual "cancel wins" rule.
        """
        self.clock.set(when)
        fired = 0
        while True:
            with self._mutex:
                if not self._heap or self._heap[0].due > self.clock.now:
                    break
                timer = heapq.heappop(self._heap)
                if timer.cancelled:
                    continue
                if timer.period is not None:
                    # Anchor to the schedule (due + period), NOT to `now`:
                    # rescheduling off the processing time would drift every
                    # firing later by however late the service ran.
                    timer.due += timer.period
                    timer.seq = next(self._seq)
                    heapq.heappush(self._heap, timer)
                    self.stats.rescheduled += 1
                else:
                    self._timers.pop(timer.timer_id, None)
            try:
                self._post(timer)
            except DanglingPointerError:
                # The target was deleted mid-flight: cancel instead of
                # propagating a dangling-pointer error out of the clock.
                timer.cancelled = True
                self._timers.pop(timer.timer_id, None)
                self.stats.dangling_cancelled += 1
                if obs.ENABLED:
                    obs.emit(
                        "timer.dangling",
                        timer_id=timer.timer_id,
                        event=timer.event_name,
                        rid=timer.target.rid,
                    )
                continue
            fired += 1
            self.stats.fired += 1
            if obs.ENABLED:
                obs.emit(
                    "timer.fire",
                    timer_id=timer.timer_id,
                    event=timer.event_name,
                    rid=timer.target.rid,
                    now=self.clock.now,
                )
        return fired

    def advance(self, delta: float) -> int:
        return self.advance_to(self.clock.now + delta)

    def _post(self, timer: _Timer) -> None:
        # Posted in the *calling* session: advance_to runs in whichever
        # session drives the clock, and the event lands in that session's
        # current transaction (or a fresh one if it is between them).
        manager = self.db.txn_manager
        if manager.current_or_none() is not None:
            handle = self.db.deref(timer.target)
            handle.post_event(timer.event_name)
            return
        with manager.transaction():
            handle = self.db.deref(timer.target)
            handle.post_event(timer.event_name)
