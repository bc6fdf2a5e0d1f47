"""Timed-trigger tests (Section 8 extension)."""

import pytest

from repro.core.declarations import trigger
from repro.core.timers import TimerService, VirtualClock
from repro.errors import TriggerError
from repro.objects.persistent import Persistent
from repro.objects.schema import field


class Reminder(Persistent):
    fired = field(int, default=0)
    escalated = field(int, default=0)
    paid = field(bool, default=False)

    __events__ = ["Tick", "Timeout", "after place", "after pay"]
    __masks__ = {"unpaid": lambda self: not self.paid}
    __triggers__ = [
        trigger("OnTick", "Tick", action=lambda s, c: s.bump(), perpetual=True),
        trigger(
            "EscalateUnpaid",
            "(after place, Timeout) & unpaid",
            action=lambda s, c: s.escalate(),
        ),
    ]

    def place(self):
        pass

    def pay(self):
        self.paid = True

    def bump(self):
        self.fired += 1

    def escalate(self):
        self.escalated += 1


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        clock.advance(5.0)
        assert clock.now == 5.0

    def test_no_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(TriggerError):
            clock.advance(-1.0)
        with pytest.raises(TriggerError):
            clock.set(5.0)


class TestTimerService:
    @pytest.fixture
    def target(self, mm_db):
        with mm_db.transaction():
            handle = mm_db.pnew(Reminder)
            handle.OnTick()
            return handle.ptr

    def test_one_shot_timer_fires_once(self, mm_db, target):
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=10.0)
        assert service.advance_to(5.0) == 0
        assert service.advance_to(10.0) == 1
        assert service.advance_to(100.0) == 0
        with mm_db.transaction():
            assert mm_db.deref(target).fired == 1

    def test_periodic_timer_repeats(self, mm_db, target):
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=10.0, period=10.0)
        assert service.advance_to(35.0) == 3  # at 10, 20, 30
        with mm_db.transaction():
            assert mm_db.deref(target).fired == 3

    def test_cancel(self, mm_db, target):
        service = TimerService(mm_db)
        timer_id = service.schedule(target, "Tick", delay=10.0)
        assert service.cancel(timer_id)
        assert not service.cancel(timer_id)
        assert service.advance_to(20.0) == 0

    def test_absolute_schedule(self, mm_db, target):
        service = TimerService(mm_db)
        service.schedule(target, "Tick", at=42.0)
        service.advance_to(41.9)
        assert service.fired == 0
        service.advance_to(42.0)
        assert service.fired == 1

    def test_bad_schedules_rejected(self, mm_db, target):
        service = TimerService(mm_db, clock=VirtualClock(100.0))
        with pytest.raises(TriggerError):
            service.schedule(target, "Tick")  # neither delay nor at
        with pytest.raises(TriggerError):
            service.schedule(target, "Tick", delay=1.0, at=2.0)
        with pytest.raises(TriggerError):
            service.schedule(target, "Tick", at=50.0)  # in the past
        with pytest.raises(TriggerError):
            service.schedule(target, "Tick", delay=1.0, period=0.0)

    def test_timers_fire_in_due_order(self, mm_db):
        order = []

        class DueOrderProbe(Persistent):
            __events__ = ["E1", "E2"]
            __triggers__ = [
                trigger("On1", "E1", action=lambda s, c: order.append(1), perpetual=True),
                trigger("On2", "E2", action=lambda s, c: order.append(2), perpetual=True),
            ]

        with mm_db.transaction():
            probe = mm_db.pnew(DueOrderProbe)
            probe.On1()
            probe.On2()
            ptr = probe.ptr
        service = TimerService(mm_db)
        service.schedule(ptr, "E2", delay=20.0)
        service.schedule(ptr, "E1", delay=10.0)
        service.advance_to(30.0)
        assert order == [1, 2]

    def test_timeout_composite_pattern(self, mm_db):
        """The motivating use: escalate an order not paid before a timeout."""
        with mm_db.transaction():
            order = mm_db.pnew(Reminder)
            ptr = order.ptr
            order.EscalateUnpaid()
            order.place()
        service = TimerService(mm_db)
        service.schedule(ptr, "Timeout", delay=30.0)
        service.advance_to(31.0)
        with mm_db.transaction():
            assert mm_db.deref(ptr).escalated == 1

    def test_timeout_suppressed_when_paid(self, mm_db):
        with mm_db.transaction():
            order = mm_db.pnew(Reminder)
            ptr = order.ptr
            order.EscalateUnpaid()
            order.place()
        service = TimerService(mm_db)
        service.schedule(ptr, "Timeout", delay=30.0)
        with mm_db.transaction():
            mm_db.deref(ptr).pay()
        service.advance_to(31.0)
        with mm_db.transaction():
            assert mm_db.deref(ptr).escalated == 0

    def test_fires_within_callers_transaction_if_open(self, mm_db, target):
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=1.0)
        with mm_db.transaction():
            service.advance_to(2.0)
            # The firing happened inside this still-open transaction.
            assert mm_db.deref(target).fired == 1

    def test_pending_count(self, mm_db, target):
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=1.0)
        service.schedule(target, "Tick", delay=2.0)
        assert service.pending() == 2
        service.advance_to(1.5)
        assert service.pending() == 1

    def test_periodic_timer_does_not_drift(self, mm_db, target):
        """Reschedule anchors to ``due + period``, never ``now + period``.

        Processing the tick at t=10 while the clock already reads 10.5
        must leave the next firing at exactly 20.0 — drift-anchoring to
        the processing time would push it to 20.5, then 31.0, ...
        """
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=10.0, period=10.0)
        assert service.advance_to(10.5) == 1
        assert service.advance_to(19.9) == 0  # 20.4 would be due if drifted
        assert service.advance_to(20.0) == 1
        # Late by nearly a full period: both the t=30 and t=40 firings land.
        assert service.advance_to(49.9) == 2
        assert service.advance_to(50.0) == 1

    def test_dangling_target_cancels_timer(self, mm_db, target):
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=5.0, period=5.0)
        with mm_db.transaction():
            mm_db.pdelete(target)
        # No DanglingPointerError escapes; the timer is gone for good.
        assert service.advance_to(20.0) == 0
        assert service.pending() == 0
        assert service.stats.dangling_cancelled == 1
        assert service.fired == 0

    def test_deactivated_target_posts_harmlessly(self, mm_db, target):
        with mm_db.transaction():
            [(trigger_id, _, _)] = mm_db.trigger_system.active_triggers(target)
            mm_db.trigger_system.deactivate(trigger_id)
        service = TimerService(mm_db)
        service.schedule(target, "Tick", delay=1.0)
        assert service.advance_to(2.0) == 1  # posted, short-circuited
        with mm_db.transaction():
            assert mm_db.deref(target).fired == 0

    def test_action_cancelling_own_periodic_timer_wins(self, mm_db):
        service_box = []
        timer_box = []

        class SelfStopping(Persistent):
            ticks = field(int, default=0)

            __events__ = ["Tick"]
            __triggers__ = [
                trigger("Stop", "Tick", action=lambda s, c: s.stop(), perpetual=True)
            ]

            def stop(self):
                self.ticks += 1
                service_box[0].cancel(timer_box[0])

        with mm_db.transaction():
            handle = mm_db.pnew(SelfStopping)
            handle.Stop()
            ptr = handle.ptr
        service = TimerService(mm_db)
        service_box.append(service)
        timer_box.append(service.schedule(ptr, "Tick", delay=1.0, period=1.0))
        # The action cancels the timer while it fires: the pending
        # reschedule must not resurrect it.
        assert service.advance_to(10.0) == 1
        assert service.pending() == 0
        with mm_db.transaction():
            assert mm_db.deref(ptr).ticks == 1

    def test_timer_stats_counters(self, mm_db, target):
        service = TimerService(mm_db)
        timer_id = service.schedule(target, "Tick", delay=1.0)
        service.schedule(target, "Tick", delay=2.0, period=2.0)
        service.cancel(timer_id)
        service.advance_to(6.0)  # periodic fires at 2, 4, 6
        assert service.stats.scheduled == 2
        assert service.stats.cancelled == 1
        assert service.stats.fired == 3
        assert service.stats.rescheduled == 3
        # The service mounted itself on the database's registry.
        assert mm_db.metrics.snapshot()["timers.fired"] == 3
