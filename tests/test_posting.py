"""PostEvent semantics: wrappers, masks, fire-after-all-posted, cascades."""

import pytest

from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem, Monitored
from repro.core.posting import EventOccurrence, plain_occurrence
from repro.errors import (
    DanglingPointerError,
    NoActiveTransactionError,
    TransactionAbort,
    UnknownEventError,
)
from repro.objects.database import Database
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field


class Machine(Persistent):
    temp = field(float, default=20.0)
    log = field(list, default=[])

    __events__ = ["before heat", "after heat", "after cool", "Alert"]
    __masks__ = {
        "hot": lambda self: self.temp > 100.0,
    }
    __triggers__ = [
        trigger(
            "LogBefore",
            "before heat",
            action=lambda self, ctx: self.log_add("before-heat"),
            perpetual=True,
        ),
        trigger(
            "LogAfter",
            "after heat",
            action=lambda self, ctx: self.log_add("after-heat"),
            perpetual=True,
        ),
        trigger(
            "Overheat",
            "after heat & hot",
            action=lambda self, ctx: self.log_add("overheat"),
            perpetual=True,
        ),
    ]

    def heat(self, amount):
        self.temp += amount

    def cool(self, amount):
        self.temp -= amount

    def log_add(self, entry):
        self.log = self.log + [entry]


class TestBeforeAfterEvents:
    def test_before_and_after_posted_around_call(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            machine = db.pnew(Machine)
            ptr = machine.ptr
            machine.LogBefore()
            machine.LogAfter()
            machine.heat(5.0)
        with db.transaction():
            assert db.deref(ptr).log == ["before-heat", "after-heat"]

    def test_before_mask_sees_pre_call_state(self, any_engine_db):
        db = any_engine_db

        class PreCallProbe(Persistent):
            v = field(int, default=0)
            seen = field(list, default=[])

            __events__ = ["before bump", "after bump"]
            __triggers__ = [
                trigger(
                    "Before",
                    "before bump",
                    action=lambda self, ctx: self.mark("pre", self.v),
                    perpetual=True,
                ),
                trigger(
                    "After",
                    "after bump",
                    action=lambda self, ctx: self.mark("post", self.v),
                    perpetual=True,
                ),
            ]

            def bump(self):
                self.v += 1

            def mark(self, tag, value):
                self.seen = self.seen + [(tag, value)]

        with db.transaction():
            probe = db.pnew(PreCallProbe)
            ptr = probe.ptr
            probe.Before()
            probe.After()
            probe.bump()
        with db.transaction():
            assert db.deref(ptr).seen == [("pre", 0), ("post", 1)]

    def test_volatile_instances_post_nothing(self, any_engine_db):
        machine = Machine()
        machine.heat(500.0)  # direct call: no handle, no events
        assert machine.log == []
        assert machine.temp == 520.0

    def test_wrapper_returns_method_value(self, any_engine_db):
        db = any_engine_db

        class Calc(Persistent):
            __events__ = ["after compute"]

            def compute(self, x):
                return x * 2

        with db.transaction():
            calc = db.pnew(Calc)
            assert calc.compute(21) == 42


class TestMasksInPosting:
    def test_mask_false_suppresses(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            machine = db.pnew(Machine)
            ptr = machine.ptr
            machine.Overheat()
            machine.heat(10.0)  # temp 30: not hot
        with db.transaction():
            assert db.deref(ptr).log == []

    def test_mask_true_fires(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            machine = db.pnew(Machine)
            ptr = machine.ptr
            machine.Overheat()
            machine.heat(200.0)
        with db.transaction():
            assert db.deref(ptr).log == ["overheat"]

    def test_mask_sees_trigger_params(self, any_engine_db):
        db = any_engine_db

        class Threshold(Persistent):
            v = field(float, default=0.0)
            fired = field(int, default=0)

            __events__ = ["after set"]
            __masks__ = {
                "above": lambda self, params: self.v > params["limit"],
            }
            __triggers__ = [
                trigger(
                    "Watch",
                    "after set & above",
                    action=lambda self, ctx: self.mark(),
                    params=("limit",),
                    perpetual=True,
                )
            ]

            def set(self, v):
                self.v = v

            def mark(self):
                self.fired += 1

        with db.transaction():
            t = db.pnew(Threshold)
            ptr = t.ptr
            t.Watch(100.0)
            t.set(50.0)
            t.set(150.0)
        with db.transaction():
            assert db.deref(ptr).fired == 1


class TestUserEvents:
    def test_post_event_by_name(self, any_engine_db):
        db = any_engine_db

        class Alarmed(Persistent):
            count = field(int, default=0)
            __events__ = ["Alert"]
            __triggers__ = [
                trigger(
                    "OnAlert",
                    "Alert",
                    action=lambda self, ctx: self.inc(),
                    perpetual=True,
                )
            ]

            def inc(self):
                self.count += 1

        with db.transaction():
            a = db.pnew(Alarmed)
            ptr = a.ptr
            a.OnAlert()
            a.post_event("Alert")
            a.post_event("Alert")
        with db.transaction():
            assert db.deref(ptr).count == 2

    def test_undeclared_user_event_raises(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            machine = db.pnew(Machine)
            with pytest.raises(UnknownEventError):
                machine.post_event("Nonexistent")


class TestFireAfterAllPosted:
    def test_action_cannot_affect_sibling_masks(self, any_engine_db):
        """Paper: 'no triggers are fired until all triggers have had the
        basic event posted ... to prevent the action of one trigger from
        affecting the mask of another trigger.'"""
        db = any_engine_db

        class Pair(Persistent):
            flag = field(bool, default=True)
            log = field(list, default=[])

            __events__ = ["after poke"]
            __masks__ = {"flag_on": lambda self: self.flag}
            __triggers__ = [
                trigger(
                    "First",
                    "after poke & flag_on",
                    action=lambda self, ctx: self.flip_and_log("first"),
                    perpetual=True,
                ),
                trigger(
                    "Second",
                    "after poke & flag_on",
                    action=lambda self, ctx: self.flip_and_log("second"),
                    perpetual=True,
                ),
            ]

            def poke(self):
                pass

            def flip_and_log(self, tag):
                self.flag = False  # would suppress the sibling if masks ran late
                self.log = self.log + [tag]

        with db.transaction():
            pair = db.pnew(Pair)
            ptr = pair.ptr
            pair.First()
            pair.Second()
            pair.poke()
        with db.transaction():
            # Both fired: masks were evaluated before any action ran.
            assert sorted(db.deref(ptr).log) == ["first", "second"]

    def test_firing_order_is_activation_order(self, any_engine_db):
        db = any_engine_db

        class Ordered(Persistent):
            log = field(list, default=[])
            __events__ = ["Go"]
            __triggers__ = [
                trigger("T1", "Go", action=lambda s, c: s.add("one"), perpetual=True),
                trigger("T2", "Go", action=lambda s, c: s.add("two"), perpetual=True),
            ]

            def add(self, tag):
                self.log = self.log + [tag]

        with db.transaction():
            obj = db.pnew(Ordered)
            ptr = obj.ptr
            obj.T2()  # activated first
            obj.T1()
            obj.post_event("Go")
        with db.transaction():
            assert db.deref(ptr).log == ["two", "one"]


class TestCascades:
    def test_action_method_calls_cascade_triggers(self, any_engine_db):
        db = any_engine_db

        class Chain(Persistent):
            log = field(list, default=[])
            __events__ = ["after step1", "after step2"]
            __triggers__ = [
                trigger(
                    "OnStep1",
                    "after step1",
                    action=lambda self, ctx: self.step2(),
                    perpetual=True,
                ),
                trigger(
                    "OnStep2",
                    "after step2",
                    action=lambda self, ctx: self.add("cascaded"),
                    perpetual=True,
                ),
            ]

            def step1(self):
                self.add("step1")

            def step2(self):
                self.add("step2")

            def add(self, tag):
                self.log = self.log + [tag]

        with db.transaction():
            chain = db.pnew(Chain)
            ptr = chain.ptr
            chain.OnStep1()
            chain.OnStep2()
            chain.step1()
        with db.transaction():
            # step1 fired OnStep1, whose action called step2 through the
            # handle, firing OnStep2 — two levels of (conceptual) nesting.
            assert db.deref(ptr).log == ["step1", "step2", "cascaded"]


class TestOnceOnlyVsPerpetual:
    def test_once_only_deactivates_after_fire(self, any_engine_db):
        db = any_engine_db

        class Once(Persistent):
            n = field(int, default=0)
            __events__ = ["Hit"]
            __triggers__ = [
                trigger("One", "Hit", action=lambda s, c: s.inc(), perpetual=False)
            ]

            def inc(self):
                self.n += 1

        with db.transaction():
            obj = db.pnew(Once)
            ptr = obj.ptr
            obj.One()
            obj.post_event("Hit")
            obj.post_event("Hit")
        with db.transaction():
            assert db.deref(ptr).n == 1
            assert db.trigger_system.active_triggers(ptr) == []

    def test_perpetual_keeps_firing(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            machine = db.pnew(Machine)
            ptr = machine.ptr
            machine.Overheat()
            machine.heat(200.0)
            machine.heat(10.0)
        with db.transaction():
            assert db.deref(ptr).log == ["overheat", "overheat"]
            assert len(db.trigger_system.active_triggers(ptr)) == 1


class TestTabort:
    def test_tabort_from_action_aborts_transaction(self, any_engine_db):
        db = any_engine_db

        class Guarded(Persistent):
            v = field(int, default=0)
            __events__ = ["after set"]
            __masks__ = {"neg": lambda self: self.v < 0}
            __triggers__ = [
                trigger(
                    "NoNegative",
                    "after set & neg",
                    action=lambda self, ctx: ctx.tabort("negative"),
                    perpetual=True,
                )
            ]

            def set(self, v):
                self.v = v

        with db.transaction():
            ptr = db.pnew(Guarded).ptr
            db.deref(ptr).NoNegative()
        with db.transaction():
            db.deref(ptr).set(5)
        with db.transaction():
            db.deref(ptr).set(-3)  # fires, tabort
        with db.transaction():
            assert db.deref(ptr).v == 5  # the -3 transaction rolled back


class TestPostingStats:
    def test_skip_counter_for_triggerless_objects(self, any_engine_db):
        db = any_engine_db
        db.trigger_system.stats.reset()
        with db.transaction():
            machine = db.pnew(Machine)
            machine.heat(1.0)  # no active triggers: posting short-circuits
        stats = db.trigger_system.stats
        assert stats.skipped_no_triggers >= 1
        assert stats.fsm_advances == 0

    def test_state_writes_counted(self, any_engine_db):
        db = any_engine_db
        db.trigger_system.stats.reset()
        with db.transaction():
            machine = db.pnew(Machine)
            machine.LogAfter()
            machine.heat(1.0)
        assert db.trigger_system.stats.state_writes >= 1
        assert db.trigger_system.stats.firings == 1

    def test_firing_counted_when_its_dispatch_returns(self, any_engine_db):
        """``posting.firings`` counts a firing once its dispatch returned:
        an immediate action that ``tabort``s unwinds past the increment, an
        end-coupled firing is counted when queued.  The benchmark's
        ``cards_disk`` oracle pins this meaning, so changing it takes a
        benchmark change first."""
        db = any_engine_db

        class Vetoed(Persistent):
            __events__ = ["Go"]
            __triggers__ = [
                trigger("Logged", "Go", action=lambda self, ctx: None,
                        coupling="end", perpetual=True),
                trigger("Veto", "Go", action=lambda self, ctx: ctx.tabort("no"),
                        perpetual=True),
            ]

        with db.transaction():
            obj = db.pnew(Vetoed)
            obj.Logged()
            obj.Veto()
            ptr = obj.ptr
        stats = db.trigger_system.stats
        stats.reset()
        with db.transaction():
            db.deref(ptr).post_event("Go")  # Logged queues, then Veto taborts
        assert stats.fsm_advances == 2
        assert stats.firings == 1  # the queued one; the tabort'ed one is not


class BatchCounter(Persistent):
    """Fixture for the batch-posting tests: counts Alert firings."""

    count = field(int, default=0)
    __events__ = ["Alert", "Tick"]
    __triggers__ = [
        trigger(
            "OnAlert",
            "Alert",
            action=lambda self, ctx: self.inc(),
            perpetual=True,
        ),
        trigger(
            "OnceTick",
            "Tick",
            action=lambda self, ctx: self.inc(),
            perpetual=False,
        ),
    ]

    def inc(self):
        self.count += 1


class TestPostMany:
    def test_batch_equals_per_event_posting(self, any_engine_db):
        """post_many(pairs) commits exactly the state a per-event loop
        does — same advance order, same firings — and counts every
        batched posting in ``posting.batched``."""
        db = any_engine_db
        with db.transaction():
            a, b = db.pnew(BatchCounter), db.pnew(BatchCounter)
            a_ptr, b_ptr = a.ptr, b.ptr
            a.OnAlert()
            b.OnAlert()
        db.trigger_system.stats.reset()
        with db.transaction():
            fired = db.post_many(
                [(a_ptr, "Alert"), (b_ptr, "Alert"), (a_ptr, "Alert")]
            )
        assert fired == 3
        stats = db.trigger_system.stats
        assert stats.batched == 3
        assert stats.firings == 3
        assert db.metrics.snapshot()["posting.batched"] == 3
        with db.transaction():
            assert db.deref(a_ptr).count == 2
            assert db.deref(b_ptr).count == 1

    def test_accepts_handles_and_pointers(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(BatchCounter)
            handle.OnAlert()
            ptr = handle.ptr
        with db.transaction():
            handle = db.deref(ptr)
            assert db.post_many([(handle, "Alert"), (ptr, "Alert")]) == 2
        with db.transaction():
            assert db.deref(ptr).count == 2

    def test_unknown_event_rejected_before_anything_posts(self, any_engine_db):
        """Name validation is up-front: a bad name anywhere in the batch
        aborts the call before the first event is posted."""
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(BatchCounter).ptr
            db.deref(ptr).OnAlert()
        db.trigger_system.stats.reset()
        with db.transaction():
            with pytest.raises(UnknownEventError, match="Nonexistent"):
                db.post_many([(ptr, "Alert"), (ptr, "Nonexistent")])
        assert db.trigger_system.stats.events_posted == 0
        with db.transaction():
            assert db.deref(ptr).count == 0

    def test_batch_caches_dropped_after_firing(self, any_engine_db):
        """A once-only trigger deactivated by the first firing must not
        fire again later in the same batch: the deactivation rewrites the
        trigger index's per-transaction lookup memo."""
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(BatchCounter).ptr
            db.deref(ptr).OnceTick()
        with db.transaction():
            fired = db.post_many([(ptr, "Tick"), (ptr, "Tick"), (ptr, "Tick")])
        assert fired == 1
        with db.transaction():
            assert db.deref(ptr).count == 1

    def test_session_surface_and_mvcc_buffers(self, db_path):
        """Session.post_many lands in the calling session's transaction,
        and under trigger_cc="mvcc" batched postings go through the
        advance buffers (zero state X-locks) like single postings."""
        from repro.objects.database import Database

        db = Database.open(db_path, engine="mm", trigger_cc="mvcc")
        try:
            with db.transaction():
                ptr = db.pnew(BatchCounter).ptr
                db.deref(ptr).OnAlert()
            session = db.session("batcher")
            with session.transaction():
                assert session.post_many([(ptr, "Alert"), (ptr, "Alert")]) == 2
            with db.transaction():
                assert db.deref(ptr).count == 2
            assert db.trigger_system.versions.stats.buffered_advances >= 2
        finally:
            db.close()


#: What OccurrenceProbe's masks were handed, in posting order.
SEEN: list = []


def _record(self, params, event):
    SEEN.append(event)
    return False


class OccurrenceProbe(Persistent):
    """Fixture for the occurrence tests: its masks record the occurrence."""

    n = field(int, default=0)
    __events__ = ["Tick", "after bump"]
    __masks__ = {"seen": _record}
    __triggers__ = [
        trigger("OnTick", "Tick & seen", action=lambda s, c: None, perpetual=True),
        trigger(
            "OnBump", "after bump & seen", action=lambda s, c: None, perpetual=True
        ),
    ]

    def bump(self, by, note=""):
        self.n += by


class LocalProbe(Monitored):
    __events__ = ["Tick"]
    __masks__ = {"seen": _record}
    __triggers__ = [
        trigger("OnTick", "Tick & seen", action=lambda s, c: None, perpetual=True)
    ]


class TestOccurrenceSharing:
    def test_plain_postings_share_one_occurrence(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            probe = db.pnew(OccurrenceProbe)
            probe.OnTick()
            ptr = probe.ptr
        SEEN.clear()
        with db.transaction():
            probe = db.deref(ptr)
            probe.post_event("Tick")
            probe.post_event("Tick")
            db.post_many([(ptr, "Tick"), (probe, "Tick")])
        assert len(SEEN) == 4
        first = SEEN[0]
        assert all(event == first and event is first for event in SEEN)
        assert (first.method, first.args, dict(first.kwargs)) == ("", (), {})
        assert plain_occurrence(first.eventnum) is first

    def test_local_plain_postings_share_one_occurrence(self):
        system = LocalTriggerSystem()
        probe = LocalProbe()
        handle = system.monitor(probe)
        handle.OnTick()
        SEEN.clear()
        handle.post_event("Tick")
        handle.post_event("Tick")
        assert len(SEEN) == 2
        assert SEEN[0] == SEEN[1] and SEEN[0] is SEEN[1]
        assert plain_occurrence(SEEN[0].eventnum) is SEEN[0]

    def test_member_function_occurrences_are_fresh(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            probe = db.pnew(OccurrenceProbe)
            probe.OnBump()
            SEEN.clear()
            probe.bump(2, note="a")
            probe.bump(2, note="a")
        assert len(SEEN) == 2
        assert SEEN[0] == SEEN[1] and SEEN[0] is not SEEN[1]
        assert (SEEN[0].method, SEEN[0].args, dict(SEEN[0].kwargs)) == (
            "bump", (2,), {"note": "a"}
        )
        assert SEEN[0] is not plain_occurrence(SEEN[0].eventnum)

    def test_caller_kwargs_mutation_leaves_the_occurrence(self, any_engine_db):
        db = any_engine_db
        kwargs = {"note": "a"}
        with db.transaction():
            probe = db.pnew(OccurrenceProbe)
            probe.OnBump()
            SEEN.clear()
            probe.bump(1, **kwargs)
        kwargs["note"] = "b"
        assert SEEN[0].kwargs == {"note": "a"}
        direct = EventOccurrence(SEEN[0].eventnum, "bump", (1,), kwargs)
        kwargs["note"] = "c"
        assert direct.kwargs == {"note": "b"}


class TestBatchTargets:
    """Which targets ``post_many`` resolves from the transaction cache and
    which go through ``deref``, and that the errors do not move."""

    def _counter(self, db):
        with db.transaction():
            handle = db.pnew(BatchCounter)
            handle.OnAlert()
            return handle.ptr

    def test_empty_batch_outside_a_transaction(self, any_engine_db):
        assert any_engine_db.post_many([]) == 0

    def test_null_pointer_is_dangling_outside_and_inside(self, any_engine_db):
        db = any_engine_db
        for null in (NULL_PTR, PersistentPtr(db.name, -1)):
            with pytest.raises(DanglingPointerError):
                db.post_many([(null, "Alert")])
            with db.transaction():
                with pytest.raises(DanglingPointerError):
                    db.post_many([(null, "Alert")])

    def test_pointer_outside_a_transaction_raises(self, any_engine_db):
        db = any_engine_db
        ptr = self._counter(db)
        with pytest.raises(NoActiveTransactionError):
            db.post_many([(ptr, "Alert")])

    def test_deleted_object_is_dangling(self, any_engine_db):
        db = any_engine_db
        ptr = self._counter(db)
        with db.transaction():
            db.deref(ptr)
            db.pdelete(ptr)
            with pytest.raises(DanglingPointerError):
                db.post_many([(ptr, "Alert")])
        with db.transaction():
            with pytest.raises(DanglingPointerError):
                db.post_many([(ptr, "Alert")])

    def test_mixed_handles_and_pointers(self, any_engine_db):
        db = any_engine_db
        a_ptr, b_ptr = self._counter(db), self._counter(db)
        with db.transaction():
            a = db.deref(a_ptr)
            fired = db.post_many(
                [(a, "Alert"), (b_ptr, "Alert"), (a_ptr, "Alert"), (b_ptr, "Alert")]
            )
            assert fired == 4
            assert a.count == 2
        with db.transaction():
            assert (db.deref(a_ptr).count, db.deref(b_ptr).count) == (2, 2)

    def test_foreign_pointer_goes_through_its_database(self, any_engine_db, tmp_path):
        db = any_engine_db
        other = Database.open(str(tmp_path / "other"), engine="mm")
        ptr = self._counter(other)
        calls = []
        real = other.deref

        def deref(target):
            calls.append(target)
            return real(target)

        other.deref = deref
        with db.transaction():
            with pytest.raises(NoActiveTransactionError):
                db.post_many([(ptr, "Alert")])
        assert calls == [ptr]

    def test_foreign_targets_post_through_their_own_database(self, tmp_path):
        """A batch that names two databases posts each target through its
        own database's trigger system: the counters and the firings equal
        what per-handle ``post_event`` gives."""
        opened = []

        def pair(tag):
            a = Database.open(str(tmp_path / f"{tag}_a"), engine="mm")
            b = Database.open(str(tmp_path / f"{tag}_b"), engine="mm")
            opened.extend((a, b))
            return a, b, self._counter(a), self._counter(b)

        def firings(*dbs):
            return [db.trigger_system.stats.firings for db in dbs]

        try:
            a, b, a_ptr, b_ptr = pair("batch")
            with a.transaction(), b.transaction():
                fired = a.post_many([(b_ptr, "Alert"), (a_ptr, "Alert")])
            c, d, c_ptr, d_ptr = pair("single")
            with c.transaction(), d.transaction():
                d.deref(d_ptr).post_event("Alert")
                c.deref(c_ptr).post_event("Alert")
            assert firings(a, b) == firings(c, d) == [1, 1]
            assert fired == sum(firings(c, d))
            with a.transaction(), b.transaction():
                assert a.deref(a_ptr).count == 1
                assert b.deref(b_ptr).count == 1
        finally:
            for db in opened:
                db.close()

    def test_first_named_object_is_loaded_once(self, any_engine_db, monkeypatch):
        db = any_engine_db
        ptr = self._counter(db)
        reads, accesses = [], []
        read, on_access = db.storage.read, db.trigger_system.on_access

        def counting_read(txid, rid):
            reads.append(rid)
            return read(txid, rid)

        def counting_access(txn, target, obj):
            accesses.append(target)
            return on_access(txn, target, obj)

        monkeypatch.setattr(db.storage, "read", counting_read)
        monkeypatch.setattr(db.trigger_system, "on_access", counting_access)
        with db.transaction():
            assert db.post_many([(ptr, "Alert")] * 3) == 3
            assert reads.count(ptr.rid) == 1
            assert accesses == [ptr]
            assert db.deref(ptr).count == 3
        assert reads.count(ptr.rid) == 1
