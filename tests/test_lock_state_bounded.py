"""Bounded lock state: once every transaction has ended, the lock manager
holds nothing.

Long runs must hold bounded locks.  Every grant, queued request and
deadline the lock manager records belongs to a live transaction, so after
serial transactions on both engines, a threaded two-session run with
deadlock retries, a timed-out wait and a deadline abort, the holder map,
the queue map, the grant index and the deadline map are all empty.
"""

import threading

import pytest

from repro.errors import LockTimeoutError, TransactionDeadlineError
from repro.workloads.locksim import setup_hot_set


def assert_no_lock_state(lm):
    assert lm._holders == {}
    assert lm._queues == {}
    assert dict(lm._held) == {}
    assert lm._deadlines == {}


def touch(deref, ptr):
    """Read an object and post the two events that advance its trigger:
    an S lock on the object and an X lock on its trigger group."""
    handle = deref(ptr)
    _ = handle.value
    handle.post_event("Ping")
    handle.post_event("Pong")
    return handle


def in_thread(fn):
    """Run *fn* in a thread of its own; what it raised, or None."""
    raised = []

    def run():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return raised[0] if raised else None


def test_serial_transactions_leave_no_lock_state(any_engine_db):
    db = any_engine_db
    lm = db.storage.lock_manager
    ptrs = setup_hot_set(db, 4, 1)
    for step in range(20):
        with db.transaction():
            handle = touch(db.deref, ptrs[step % 4])
            handle.value = step
            touch(db.deref, ptrs[(step + 1) % 4])
    with pytest.raises(ZeroDivisionError):  # an aborted transaction
        with db.transaction():
            touch(db.deref, ptrs[0])
            1 / 0
    assert lm.stats.snapshot()["x_acquired"] > 0
    assert_no_lock_state(lm)


def test_threaded_sessions_timeout_and_deadline_leave_no_lock_state(mm_db):
    db = mm_db
    lm = db.storage.lock_manager
    ptrs = setup_hot_set(db, 2, 1)
    first, second = db.session("first"), db.session("second")
    assert lm.blocking

    # Two sessions take the two objects in opposite orders: each first
    # attempt of a round meets the other at a barrier holding its first
    # object, so one closes the cycle, is the victim, and retries.  The
    # retry waits until the survivor has committed: begun earlier, it
    # could S-lock its first group again between the survivor's S grant
    # on that group and its upgrade to X, and deadlock a second time.
    # Both finish a round before either starts the next.
    rounds = 5
    barrier, round_over = threading.Barrier(2), threading.Barrier(2)
    survived = [threading.Event() for _ in range(rounds)]
    met = set()

    def program(session, order):
        for round_ in range(rounds):
            def body(txn, round_=round_):
                if (session.name, round_) in met:
                    assert survived[round_].wait(timeout=10)
                touch(session.deref, ptrs[order[0]]).value = round_
                if (session.name, round_) not in met:
                    met.add((session.name, round_))
                    barrier.wait(timeout=10)
                touch(session.deref, ptrs[order[1]])

            session.run(body, retries=50)
            survived[round_].set()
            round_over.wait(timeout=10)

    threads = [
        threading.Thread(target=program, args=(first, (0, 1))),
        threading.Thread(target=program, args=(second, (1, 0))),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert lm.stats.deadlocks == rounds
    assert db.session_stats.deadlock_retries == rounds
    assert_no_lock_state(lm)

    # One timed-out wait and one deadline abort, each behind the first
    # session's X lock on object 0.
    def timed_out_read():
        with second.transaction():
            with pytest.raises(LockTimeoutError):
                second.deref(ptrs[0]).value
            assert lm._queues == {}  # gone with the wait, not at the abort

    def read_past_deadline():
        second.run(lambda txn: second.deref(ptrs[0]).value, deadline=0.05)

    with first.transaction():
        first.deref(ptrs[0]).value = -1
        lm.wait_timeout = 0.05
        try:
            assert in_thread(timed_out_read) is None
        finally:
            lm.wait_timeout = 30.0
        assert isinstance(in_thread(read_past_deadline), TransactionDeadlineError)
    assert lm.stats.timeouts == 1 and lm.stats.deadline_aborts == 1
    assert_no_lock_state(lm)
    first.close()
    second.close()
    assert_no_lock_state(lm)
