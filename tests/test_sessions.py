"""Concurrent sessions: deterministic scheduling, blocking, deadlock retry.

Tier-1 concurrency runs under the :class:`CooperativeScheduler`, so every
test here asserts on *exact* interleavings — who blocked, who was woken
first, which victim was chosen — rather than racing wall-clock threads
(those live in ``test_threaded_sessions.py`` behind ``-m concurrency``).
"""

import pytest

from repro.core.declarations import trigger
from repro.errors import DeadlockError, SessionError
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions import CooperativeScheduler
from repro.workloads.locksim import HotObject


class Passbook(Persistent):
    value = field(int, default=0)


class GuardedCard(Persistent):
    """The paper's ``DenyCredit``: a purchase over the limit ``tabort``s."""

    balance = field(float, default=0.0)
    limit = field(float, default=100.0)

    __events__ = ["after buy"]
    __masks__ = {"over": lambda self: self.balance > self.limit}
    __triggers__ = [
        trigger(
            "DenyCredit",
            "after buy & over",
            action=lambda self, ctx: ctx.tabort("over limit"),
            perpetual=True,
        )
    ]

    def buy(self, amount):
        self.balance += amount


def subsequence(log, events):
    """Whether *events* appear in *log* in order (not necessarily adjacent)."""
    it = iter(log)
    return all(event in it for event in events)


class TestSessionBasics:
    def test_default_session_serial_api_unchanged(self, mm_db):
        db = mm_db
        with db.transaction():
            ptr = db.pnew(Passbook, value=3).ptr
        with db.transaction():
            assert db.deref(ptr).value == 3
        assert db.current_session() is db.default_session()
        assert not db.storage.lock_manager.blocking  # still the serial mode

    def test_second_session_flips_lock_manager_to_blocking(self, mm_db):
        db = mm_db
        extra = db.session("other")
        assert db.storage.lock_manager.blocking
        extra.close()
        # Sticky: handles from the closed session may still be in flight.
        assert db.storage.lock_manager.blocking

    def test_duplicate_live_session_name_rejected(self, mm_db):
        db = mm_db
        db.session("app")
        with pytest.raises(SessionError):
            db.session("app")

    def test_session_close_aborts_open_transaction(self, mm_db):
        db = mm_db
        with db.transaction():
            ptr = db.pnew(Passbook, value=1).ptr
        sess = db.session("doomed")
        sess.begin()
        handle = sess.deref(ptr)
        handle.value = 99
        sess.close()
        with db.transaction():
            assert db.deref(ptr).value == 1  # the write was rolled back

    def test_handle_bound_to_dereferencing_session(self, mm_db):
        """A handle used from another thread's context still writes into
        the transaction of the session that dereferenced it."""
        db = mm_db
        with db.transaction():
            ptr = db.pnew(Passbook).ptr
        sess = db.session("owner")
        sess.begin()
        handle = sess.deref(ptr)
        # The calling thread's ambient session is the default one, and the
        # default session has no transaction — yet the write succeeds,
        # because the handle carries its session.
        assert db.default_session().current_txn is None
        handle.value = 7
        assert sess.current_txn is not None
        sess.commit()
        with db.transaction():
            assert db.deref(ptr).value == 7

    def test_sessions_and_events_metrics_mounted(self, mm_db):
        db = mm_db
        db.session("a").close()
        snap = db.metrics.snapshot()
        assert snap["sessions.opened"] == 2  # default + "a"
        assert snap["sessions.closed"] == 1
        assert snap["sessions.peak_concurrent"] == 2
        assert snap["events.assigned"] > 0  # the process-wide eventRep table
        assert snap["events.table_size"] == snap["events.assigned"]


class TestRunAndTabort:
    @pytest.mark.parametrize("trigger_cc", ["2pl", "mvcc"])
    @pytest.mark.parametrize("engine", ["disk", "mm"])
    def test_run_returns_after_one_attempt_when_a_trigger_taborts(
        self, db_path, engine, trigger_cc
    ):
        """``tabort`` ends the transaction block, not the attempt: ``run``
        returns ``None`` like ``with db.transaction()`` does, instead of
        starting the body again (it used to loop forever)."""
        db = Database.open(db_path, engine=engine, trigger_cc=trigger_cc)
        with db.transaction():
            card = db.pnew(GuardedCard)
            card.DenyCredit()
            ptr = card.ptr
        session = db.session("shopper")
        attempts = []

        def body(txn):
            attempts.append(txn.txid)
            # A relapse must fail here, not hang the suite.
            assert len(attempts) == 1, "run() re-ran a tabort'ed body"
            session.deref(ptr).buy(250.0)
            return "bought"

        assert session.run(body) is None
        assert len(attempts) == 1
        assert session.current_txn is None
        with db.transaction():
            assert db.deref(ptr).balance == 0.0  # the purchase rolled back
        # The session is still usable, and a body that commits still
        # returns its value.
        assert session.run(lambda txn: session.deref(ptr).buy(40.0) or "ok") == "ok"
        with db.transaction():
            assert db.deref(ptr).balance == 40.0


class TestCooperativeScheduling:
    def test_s_x_conflict_blocks_and_commit_wakes_fifo(self, mm_db):
        """A holds X; B and C queue their reads (S) behind it FIFO.

        A's commit grants *both* S requests in one release (shared locks
        are compatible), waking B then C in arrival order.  B's write then
        needs the S→X upgrade, which must wait for reader C's commit — so
        C deterministically observes A's value, and B's write lands last.
        """
        db = mm_db
        with db.transaction():
            ptr = db.pnew(Passbook, value=0).ptr

        sched = CooperativeScheduler()
        sa, sb, sc = (db.session(n) for n in ("A", "B", "C"))
        seen = {}

        def writer_a():
            with sa.transaction():
                handle = sa.deref(ptr)
                handle.value = 1  # X lock held until commit
                sched.yield_now()  # let B and C arrive and block

        def writer_b():
            with sb.transaction():
                handle = sb.deref(ptr)  # S ... then S→X upgrade below
                handle.value = handle.value + 10

        def reader_c():
            with sc.transaction():
                seen["c"] = sc.deref(ptr).value

        sched.spawn(writer_a, "A", session=sa)
        sched.spawn(writer_b, "B", session=sb)
        sched.spawn(reader_c, "C", session=sc)
        sched.run()

        assert seen["c"] == 1  # C read under its S grant, before B's upgrade
        with db.transaction():
            assert db.deref(ptr).value == 11  # B's write committed last
        assert subsequence(
            sched.log,
            [
                ("block", "B"),  # B's S queues behind A's X
                ("block", "C"),  # C's S queues behind B (arrival order)
                ("done", "A"),
                ("wake", "B"),  # one release grants both S's, FIFO order
                ("wake", "C"),
                ("block", "B"),  # B's S→X upgrade waits for reader C
                ("done", "C"),
                ("wake", "B"),  # C's commit releases the last S
                ("done", "B"),
            ],
        )

    def test_forced_deadlock_victim_aborts_retries_commits(self, mm_db):
        db = mm_db
        with db.transaction():
            p1 = db.pnew(Passbook).ptr
            p2 = db.pnew(Passbook).ptr

        sched = CooperativeScheduler()
        sa = db.session("A")
        sb = db.session("B")
        lock_stats = db.storage.lock_manager.stats

        def program(session, first, second, amount):
            def body(txn):
                h1 = session.deref(first)
                h1.value = h1.value + amount
                sched.yield_now()  # guarantee lock interleaving
                h2 = session.deref(second)
                h2.value = h2.value + amount

            session.run(body)

        sched.spawn(lambda: program(sa, p1, p2, 1), "A", session=sa)
        sched.spawn(lambda: program(sb, p2, p1, 10), "B", session=sb)
        sched.run()

        assert lock_stats.deadlocks == 1
        assert db.session_stats.deadlock_retries == 1
        assert db.session_stats.retry_exhausted == 0
        with db.transaction():
            # Both transactions committed exactly once despite the abort.
            assert db.deref(p1).value == 11
            assert db.deref(p2).value == 11

    def test_deadlock_retry_budget_exhaustion_reraises(self, mm_db):
        """With retries=0 the victim re-raises instead of retrying."""
        db = mm_db
        with db.transaction():
            p1 = db.pnew(Passbook).ptr
            p2 = db.pnew(Passbook).ptr

        sched = CooperativeScheduler()
        sa = db.session("A")
        sb = db.session("B")

        def program(session, first, second):
            def body(txn):
                h1 = session.deref(first)
                h1.value = h1.value + 1
                sched.yield_now()
                h2 = session.deref(second)
                h2.value = h2.value + 1

            session.run(body, retries=0)

        sched.spawn(lambda: program(sa, p1, p2), "A", session=sa)
        sched.spawn(lambda: program(sb, p2, p1), "B", session=sb)
        with pytest.raises(DeadlockError):
            sched.run()
        assert db.session_stats.retry_exhausted == 1

    def test_single_task_degenerate_case(self, mm_db):
        db = mm_db
        with db.transaction():
            ptr = db.pnew(Passbook).ptr
        sched = CooperativeScheduler()
        sess = db.session("solo")

        def program():
            with sess.transaction():
                handle = sess.deref(ptr)
                handle.value = 5
            return "ok"

        sched.spawn(program, "solo", session=sess)
        assert sched.run() == ["ok"]
        assert ("block", "solo") not in sched.log


class TestSharedCompositeEvent:
    def test_two_sessions_advance_one_composite_event(self, mm_db):
        """Paper §7: a global event spanning applications — one session
        posts Ping, a *different* session posts Pong, and the trigger's
        relative(Ping, Pong) machine (persistent state) fires in the
        second session's transaction."""
        db = mm_db
        with db.transaction():
            handle = db.pnew(HotObject)
            ptr = handle.ptr
            handle.Watch()

        stats = db.trigger_system.stats
        before = stats.snapshot()
        app1 = db.session("app1")
        app2 = db.session("app2")
        with app1.transaction():
            app1.deref(ptr).post_event("Ping")
        mid = stats.diff(before)
        assert mid["firings"] == 0  # armed, not yet fired
        with app2.transaction():
            app2.deref(ptr).post_event("Pong")
        after = stats.diff(before)
        assert after["firings"] == 1  # completed across sessions
        assert after["state_writes"] == 2


class TestSchedulerHangDetection:
    """A task thread that fails to exit at shutdown must surface a typed
    error naming the stuck session and its lock state — not be silently
    abandoned by a bare `join(timeout=...)`."""

    def test_hung_thread_raises_scheduler_hang_error(self):
        import threading

        from repro.errors import SchedulerHangError
        from repro.sessions.scheduler import SchedulerTask

        sched = CooperativeScheduler()
        never = threading.Event()
        task = SchedulerTask(0, "stuck", lambda: None)
        task.state = "done"
        task.thread = threading.Thread(target=never.wait, daemon=True)
        task.thread.start()
        sched._tasks.append(task)
        try:
            with pytest.raises(SchedulerHangError) as excinfo:
                sched._join_tasks(0.05)
            assert "stuck" in str(excinfo.value)
            assert "no session attached" in str(excinfo.value)
        finally:
            never.set()

    def test_hang_report_names_held_locks_and_waits(self, mm_db):
        import threading

        from repro.errors import SchedulerHangError
        from repro.sessions.scheduler import SchedulerTask

        db = mm_db
        with db.transaction():
            ptr = db.pnew(Passbook).ptr
        session = db.session("holder")
        session.begin()
        session.deref(ptr).value = 1  # takes the record's X lock

        sched = CooperativeScheduler()
        never = threading.Event()
        task = SchedulerTask(0, "holder-task", lambda: None)
        task.state = "blocked"
        task.session = session
        task.thread = threading.Thread(target=never.wait, daemon=True)
        task.thread.start()
        sched._tasks.append(task)
        try:
            with pytest.raises(SchedulerHangError) as excinfo:
                sched._join_tasks(0.05)
            message = str(excinfo.value)
            assert "holder-task" in message
            assert "session 'holder'" in message
            assert f"txn {session.current_txn.txid} holds" in message
        finally:
            never.set()
            session.close()

    def test_clean_runs_do_not_raise(self, mm_db):
        db = mm_db
        session = db.session("quick")
        sched = CooperativeScheduler()
        sched.spawn(lambda: session.close() or 7, name="quick", session=session)
        assert sched.run() == [7]  # joins within the timeout, no error
