"""Threaded multi-session stress (run with ``pytest -m concurrency``).

Real ``threading`` sessions — no cooperative scheduler — so interleavings
are nondeterministic: blocked sessions sleep on the lock manager's
condition variable, deadlock victims back off with randomized sleeps, and
the assertions are invariants (conservation, durability) rather than exact
schedules.  Tier-1 covers the deterministic equivalents in
``test_sessions.py``.
"""

import sys
import threading

import pytest

from repro import obs
from repro.core.declarations import trigger
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

pytestmark = pytest.mark.concurrency


class Tally(Persistent):
    value = field(int, default=0)


class TracedDial(Persistent):
    """Three mask-gated triggers the compiled tier serves: every object's
    group has the one signature, so sessions share its group function."""

    n = field(int, default=0)

    __events__ = ["Tick"]
    __masks__ = {"odd": lambda self: self.n % 2 == 1, "big": lambda self: self.n > 5}
    __triggers__ = [
        trigger("Odd", "Tick & odd", action=lambda s, c: None, perpetual=True),
        trigger("Big", "Tick & big", action=lambda s, c: None, perpetual=True),
        trigger("OddThenBig", "(Tick & odd), (Tick & big)",
                action=lambda s, c: None, perpetual=True),
    ]


def run_threads(db, n_sessions, txns_each, make_body, retries=100):
    """Drive *n_sessions* threads, each committing *txns_each* retried txns."""
    errors = []

    def worker(index):
        session = db.session(f"worker-{index}")
        try:
            for txn_index in range(txns_each):
                session.run(make_body(session, index, txn_index), retries=retries)
        except Exception as exc:  # pragma: no cover - surfaced by assert
            errors.append(exc)
        finally:
            session.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"worker-{i}")
        for i in range(n_sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors


class TestThreadedMM:
    def test_increments_conserved_under_contention(self, mm_db):
        db = mm_db
        sessions, txns = 4, 50
        with db.transaction():
            ptrs = [db.pnew(Tally).ptr for _ in range(3)]

        def make_body(session, index, txn_index):
            def body(txn):
                ptr = ptrs[(index + txn_index) % len(ptrs)]
                handle = session.deref(ptr)
                handle.value = handle.value + 1

            return body

        run_threads(db, sessions, txns, make_body)
        with db.transaction():
            total = sum(db.deref(p).value for p in ptrs)
        # Strict 2PL + retry: every increment committed exactly once.
        assert total == sessions * txns
        assert db.session_stats.retry_exhausted == 0

    def test_conflicting_hot_record(self, mm_db):
        """Every transaction hammers one record: max contention, max
        upgrade deadlocks — the total must still be conserved."""
        db = mm_db
        sessions, txns = 6, 25
        with db.transaction():
            ptr = db.pnew(Tally).ptr

        def make_body(session, index, txn_index):
            def body(txn):
                handle = session.deref(ptr)
                handle.value = handle.value + 1

            return body

        run_threads(db, sessions, txns, make_body, retries=500)
        with db.transaction():
            assert db.deref(ptr).value == sessions * txns
        assert db.session_stats.retry_exhausted == 0


class TestThreadedMvcc:
    """Real threads with ``trigger_cc="mvcc"``: trigger posting takes no
    state X locks, so there are no lock-manager deadlocks to retry — the
    commit-time merge (replay policy) must still converge to the same
    committed FSM state as a serial run of the same transactions."""

    @pytest.mark.parametrize("engine", ["mm", "disk"])
    def test_posting_storm_converges(self, db_path, engine):
        from repro.workloads.locksim import HotObject

        db = Database.open(
            db_path, engine=engine, name=f"th-mvcc-{engine}", trigger_cc="mvcc"
        )
        try:
            sessions, txns = 6, 25
            with db.transaction():
                handle = db.pnew(HotObject)
                handle.Watch()
                ptr = handle.ptr

            def make_body(session, index, txn_index):
                def body(txn):
                    h = session.deref(ptr)
                    h.post_event("Ping")
                    h.post_event("Pong")

                return body

            lock_before = db.storage.lock_manager.stats.snapshot()
            run_threads(db, sessions, txns, make_body)
            lock_after = db.storage.lock_manager.stats.snapshot()

            assert lock_after["x_acquired"] == lock_before["x_acquired"]
            assert lock_after["deadlocks"] == lock_before["deadlocks"]
            mvcc = db.trigger_system.versions.stats
            # Every posted event was buffered; replay preserves them all.
            assert mvcc.buffered_advances == sessions * txns * 2
            assert mvcc.replays == mvcc.conflicts

            # Transactions are atomic Ping,Pong pairs in *some* order, so
            # the serial equivalent is one such pair repeated — the final
            # state must match a single pair on a fresh database.
            with db.transaction():
                (final,) = [
                    s.statenum
                    for _, s, _ in db.trigger_system.active_triggers(ptr)
                ]
            oracle = Database.open(
                None, engine="mm", name=f"th-oracle-{engine}"
            )
            try:
                with oracle.transaction():
                    h = oracle.pnew(HotObject)
                    h.Watch()
                    optr = h.ptr
                with oracle.transaction():
                    h = oracle.deref(optr)
                    h.post_event("Ping")
                    h.post_event("Pong")
                with oracle.transaction():
                    (expected,) = [
                        s.statenum
                        for _, s, _ in oracle.trigger_system.active_triggers(
                            optr
                        )
                    ]
            finally:
                oracle.close()
            assert final == expected
        finally:
            if not db.closed:
                db.close()


class TestThreadedTracing:
    @pytest.mark.parametrize("cc", ["2pl", "mvcc"])
    def test_sessions_trace_one_group_function_on_threads(self, db_path, cc):
        """Two sessions post traced through the same generated group
        function at once: each call records its own mask outcomes, so
        every span holds one ``fsm.advance`` per active entry and one
        ``mask.eval`` per mask its posting called."""
        db = Database.open(db_path, engine="mm", name=f"th-trace-{cc}", trigger_cc=cc)
        try:
            sessions, txns = 2, 40
            with db.transaction():
                ptrs = []
                for _ in range(sessions):
                    handle = db.pnew(TracedDial)
                    handle.Odd()
                    handle.Big()
                    handle.OddThenBig()
                    ptrs.append(handle.ptr)

            def make_body(session, index, txn_index):
                def body(txn):
                    dial = session.deref(ptrs[index])
                    for _ in range(3):
                        dial.n = dial.n + 1
                        dial.post_event("Tick")

                return body

            stats = db.trigger_system.stats
            before = stats.snapshot()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with obs.enabled(capacity=1 << 16) as recorder:
                    run_threads(db, sessions, txns, make_body)
            finally:
                sys.setswitchinterval(interval)
            delta = stats.diff(before)
            assert delta["compiled_hits"] == sessions * txns * 3 * 3
            assert recorder.stats.records_dropped == 0

            spans: dict[int, list] = {}
            for record in recorder.records():
                if record.span:
                    spans.setdefault(record.span, []).append(record)
            posts = [b for b in spans.values() if b[0].kind == "post.begin"]
            assert len(posts) == sessions * txns * 3
            for block in posts:
                (lookup,) = [r for r in block if r.kind == "index.lookup"]
                advances = [r for r in block if r.kind == "fsm.advance"]
                assert lookup.get("states") == len(advances) == 3
            masks = [r for r in recorder.records() if r.kind == "mask.eval"]
            assert len(masks) == delta["masks_evaluated_posting"] > 0
        finally:
            db.close()


class TestThreadedDisk:
    def test_disk_increments_durable_across_reopen(self, db_path):
        db = Database.open(db_path, engine="disk")
        sessions, txns = 3, 20
        with db.transaction():
            ptrs = [db.pnew(Tally).ptr for _ in range(2)]

        def make_body(session, index, txn_index):
            def body(txn):
                ptr = ptrs[txn_index % len(ptrs)]
                handle = session.deref(ptr)
                handle.value = handle.value + 1

            return body

        run_threads(db, sessions, txns, make_body)
        db.close()

        reopened = Database.open(db_path, engine="disk")
        try:
            with reopened.transaction():
                total = sum(reopened.deref(p).value for p in ptrs)
            assert total == sessions * txns
        finally:
            reopened.close()


class TestThreadedActivations:
    """Sessions make first activations (some in transactions that abort)
    while others post: every committed object's header must name its own
    group, and every group must be named."""

    @pytest.mark.parametrize("engine", ["mm", "disk"])
    def test_every_committed_header_names_its_own_group(self, db_path, engine):
        from repro.errors import TransactionAbort
        from repro.workloads.locksim import HotObject

        db = Database.open(db_path, engine=engine)
        sessions, txns = 4, 30
        with db.transaction():
            watched = [db.pnew(HotObject) for _ in range(8)]
            for handle in watched:
                handle.Watch()
            watched = [handle.ptr for handle in watched]

        def make_body(session, index, txn_index):
            def body(txn):
                session.deref(watched[(index + txn_index) % 8]).post_event("Pong")
                for _ in range(2):
                    session.pnew(HotObject).Watch()
                if txn_index % 3 == 0:
                    raise TransactionAbort("roll back the new groups")

            return body

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run_threads(db, sessions, txns, make_body)
        finally:
            sys.setswitchinterval(interval)

        index = db.trigger_system.index
        try:
            with db.transaction() as txn:
                assert db.trigger_system.verify_integrity() == []
                objects = list(db.objects(HotObject))
                assert len(objects) == 8 + 2 * sessions * (txns - txns // 3)
                groups = {index.group(txn, handle.ptr.rid).rid for handle in objects}
                assert dict(index.entries(txn)) == {
                    handle.ptr.rid: handle.obj.__dict__["_p_group"] for handle in objects
                }
                assert len(groups) == len(objects)
        finally:
            db.close()
