"""Lock-manager tests: grants, conflicts, upgrades, deadlocks."""

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlockError,
    LockError,
    LockTimeoutError,
    TransactionDeadlineError,
    WaitPoisonedError,
)
from repro.storage.locks import LockManager, LockMode, LockRequestStatus


@pytest.fixture
def lm():
    return LockManager()


GRANTED = LockRequestStatus.GRANTED
WAIT = LockRequestStatus.WAIT


class TestBasicGrants:
    def test_s_lock_granted(self, lm):
        assert lm.acquire(1, "r", LockMode.S) is GRANTED
        assert lm.mode_held(1, "r") is LockMode.S

    def test_x_lock_granted(self, lm):
        assert lm.acquire(1, "r", LockMode.X) is GRANTED

    def test_shared_locks_compatible(self, lm):
        assert lm.acquire(1, "r", LockMode.S) is GRANTED
        assert lm.acquire(2, "r", LockMode.S) is GRANTED
        assert lm.holders_of("r") == {1, 2}

    def test_x_conflicts_with_s(self, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(2, "r", LockMode.X) is WAIT

    def test_s_conflicts_with_x(self, lm):
        lm.acquire(1, "r", LockMode.X)
        assert lm.acquire(2, "r", LockMode.S) is WAIT

    def test_reacquire_same_mode_is_noop(self, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(1, "r", LockMode.S) is GRANTED
        assert lm.stats.s_acquired == 1

    def test_x_holder_can_request_s(self, lm):
        lm.acquire(1, "r", LockMode.X)
        assert lm.acquire(1, "r", LockMode.S) is GRANTED
        assert lm.mode_held(1, "r") is LockMode.X  # not downgraded

    def test_distinct_resources_do_not_conflict(self, lm):
        assert lm.acquire(1, "a", LockMode.X) is GRANTED
        assert lm.acquire(2, "b", LockMode.X) is GRANTED


class TestUpgrade:
    def test_upgrade_s_to_x_when_sole_holder(self, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(1, "r", LockMode.X) is GRANTED
        assert lm.mode_held(1, "r") is LockMode.X
        assert lm.stats.upgrades == 1

    def test_upgrade_blocked_by_other_reader(self, lm):
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        assert lm.acquire(1, "r", LockMode.X) is WAIT


class TestRelease:
    def test_release_all_frees_resources(self, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(1, "b", LockMode.S)
        lm.release_all(1)
        assert lm.acquire(2, "a", LockMode.X) is GRANTED
        assert lm.locks_held(1) == frozenset()

    def test_release_grants_waiters(self, lm):
        lm.acquire(1, "r", LockMode.X)
        assert lm.acquire(2, "r", LockMode.S) is WAIT
        lm.release_all(1)  # grants queued requests eagerly
        assert lm.mode_held(2, "r") is LockMode.S
        assert lm.retry_waiters() == []  # nothing left queued

    def test_release_clears_waits_for_edges(self, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.acquire(2, "r", LockMode.S)
        lm.release_all(2)
        assert lm.waits_for_edges() == {}


class TestDeadlock:
    def test_two_party_deadlock_detected(self, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        assert lm.acquire(1, "b", LockMode.X) is WAIT
        with pytest.raises(DeadlockError) as excinfo:
            lm.acquire(2, "a", LockMode.X)
        assert excinfo.value.txid == 2
        assert lm.stats.deadlocks == 1

    def test_three_party_cycle_detected(self, lm):
        for txid, resource in ((1, "a"), (2, "b"), (3, "c")):
            lm.acquire(txid, resource, LockMode.X)
        assert lm.acquire(1, "b", LockMode.X) is WAIT
        assert lm.acquire(2, "c", LockMode.X) is WAIT
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", LockMode.X)

    def test_victim_can_proceed_after_release(self, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        lm.acquire(1, "b", LockMode.X)
        with pytest.raises(DeadlockError):
            lm.acquire(2, "a", LockMode.X)
        lm.release_all(2)  # victim aborts; its release grants the survivor
        assert lm.mode_held(1, "b") is LockMode.X

    def test_no_false_deadlock_on_simple_wait(self, lm):
        lm.acquire(1, "r", LockMode.X)
        assert lm.acquire(2, "r", LockMode.X) is WAIT  # no cycle, no raise


class TestOneVictimPerCycle:
    """Threads racing to close the same cycle: exactly one becomes the
    victim, and its release lets the others through."""

    RING = 3
    ROUNDS = 30

    def _ring_round(self):
        lm = LockManager()
        lm.blocking = True
        holding = threading.Barrier(self.RING)
        outcomes: dict[int, str] = {}

        def member(index):
            txid = index + 1
            lm.lock(txid, index, LockMode.X)
            holding.wait(timeout=5)
            try:
                lm.acquire_blocking(
                    txid, (index + 1) % self.RING, LockMode.X, timeout=5
                )
                outcomes[txid] = "granted"
            except DeadlockError:
                outcomes[txid] = "victim"
            finally:
                lm.release_all(txid)

        threads = [
            threading.Thread(target=member, args=(i,), daemon=True)
            for i in range(self.RING)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        return lm, outcomes

    def test_ring_deadlock_has_exactly_one_victim(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force thread switches mid-request
        try:
            for _ in range(self.ROUNDS):
                lm, outcomes = self._ring_round()
                assert sorted(outcomes.values()) == ["granted", "granted", "victim"]
                assert lm.stats.deadlocks == 1
                assert lm.waits_for_edges() == {}
        finally:
            sys.setswitchinterval(interval)


class TestFairness:
    def test_new_reader_queues_behind_waiting_writer(self, lm):
        lm.acquire(1, "r", LockMode.S)
        assert lm.acquire(2, "r", LockMode.X) is WAIT
        # Reader 3 must not starve the waiting writer.
        assert lm.acquire(3, "r", LockMode.S) is WAIT

    def test_serial_lock_raises_on_conflict(self, lm):
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockError):
            lm.lock(2, "r", LockMode.S)


class TestSerialConflict:
    """A serial conflict is not a wait: the request is never queued."""

    def test_conflict_leaves_no_trace(self, lm):
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockError):
            lm.lock(2, "r", LockMode.S)
        assert lm.stats.waits == 0
        assert lm.waits_for_edges() == {}
        assert lm.holders_of("r") == {1}
        assert lm.locks_held(2) == frozenset()

    def test_conflict_that_would_close_a_cycle_is_a_lock_error(self, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        assert lm.acquire(1, "b", LockMode.X) is WAIT
        with pytest.raises(LockError) as excinfo:
            lm.lock(2, "a", LockMode.X)
        assert excinfo.type is LockError  # not its DeadlockError subclass
        assert lm.stats.deadlocks == 0
        assert lm.waits_for_edges() == {1: {2}}


class TestStats:
    def test_counts_accumulate(self, lm):
        lm.acquire(1, "a", LockMode.S)
        lm.acquire(1, "b", LockMode.X)
        lm.acquire(2, "b", LockMode.S)
        snapshot = lm.stats.snapshot()
        assert snapshot["s_acquired"] == 1
        assert snapshot["x_acquired"] == 1
        assert snapshot["waits"] == 1

    def test_reset(self, lm):
        lm.acquire(1, "a", LockMode.S)
        lm.stats.reset()
        assert lm.stats.s_acquired == 0


class TestMultiResourceWaits:
    """Regression: a grant on one resource must not drop a transaction's
    waits-for edges on the *other* resources it is still queued for."""

    def test_edges_survive_partial_grant(self, lm):
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(3, "b", LockMode.X)
        # T2 queues behind both holders.
        assert lm.acquire(2, "a", LockMode.S) is WAIT
        assert lm.acquire(2, "b", LockMode.S) is WAIT
        assert lm.waits_for_edges()[2] == {1, 3}
        # T1's release grants T2 on "a" — but T2 still waits on "b".
        lm.release_all(1)
        assert lm.mode_held(2, "a") is LockMode.S
        assert lm.waits_for_edges()[2] == {3}

    def test_deadlock_detected_through_surviving_edge(self, lm):
        """With the surviving edge, a cycle closed later is still caught."""
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(3, "b", LockMode.X)
        lm.acquire(2, "a", LockMode.S)
        lm.acquire(2, "b", LockMode.S)
        lm.release_all(1)  # T2 now holds "a", still waits on T3 for "b"
        # T3 requesting "a" (X) waits on T2 -> T2 -> T3 closes the cycle.
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", LockMode.X)
        assert lm.stats.deadlocks == 1


class TestFIFOProperty:
    """Hypothesis: grants per resource respect arrival order — no waiter is
    overtaken by an incompatible later arrival, and nobody starves."""

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),  # txid
                st.sampled_from(["a", "b", "c"]),  # resource
                st.sampled_from([LockMode.S, LockMode.X]),  # mode
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_fifo_grants_and_no_starvation(self, schedule):
        lm = LockManager()
        arrival: dict[str, list[int]] = {}
        active: set[int] = set()
        blocked: set[int] = set()

        for txid, resource, mode in schedule:
            if txid in blocked:
                continue  # a blocked transaction cannot issue more requests
            try:
                status = lm.acquire(txid, resource, mode)
            except DeadlockError:
                lm.release_all(txid)
                active.discard(txid)
                arrival = {
                    r: [t for t in q if t != txid] for r, q in arrival.items()
                }
                continue
            active.add(txid)
            if status is WAIT:
                blocked.add(txid)
                arrival.setdefault(resource, []).append(txid)
            # Invariant: immediately after any acquire, nothing grantable
            # is left queued (grants happen eagerly, in FIFO order).
            assert lm.retry_waiters() == []

        # Drain: release transactions in txid order; every release must
        # grant strictly per-queue-FIFO, and the table must fully empty —
        # no waiter starves once its blockers are gone.
        for txid in sorted(active):
            lm.release_all(txid)
            blocked.clear()  # grants may have unblocked anyone
        for txid in sorted(set(t for q in arrival.values() for t in q)):
            lm.release_all(txid)
        assert lm.waits_for_edges() == {}


class TestUncontendedFastPath:
    """``lock`` grants a request on a resource nobody holds or awaits with
    one insert; everything it records must equal what the general grant
    path (``_try_grant_locked``) records for the same request sequence."""

    # (txid, resource, mode): fresh S, repeated S, S→X, fresh X, a second
    # reader, then a request behind a queued writer.
    SEQUENCE = [
        (1, "a", LockMode.S),
        (1, "a", LockMode.S),
        (1, "a", LockMode.X),
        (1, "b", LockMode.X),
        (2, "c", LockMode.S),
        (4, "c", LockMode.S),
    ]

    @staticmethod
    def general_serial_lock(lm, txid, resource, mode):
        """The grant path without the fast path: holder dict first, then
        the grantability scan."""
        with lm._mutex:
            if lm._try_grant_locked(txid, resource, mode):
                return
            holders = sorted(lm._holders[resource])
        raise LockError(f"transaction {txid} blocked on {resource!r} held by {holders}")

    def run(self, acquire):
        from repro import obs

        lm = LockManager()
        log = lm.start_order_trace()
        outcomes = []
        with obs.enabled() as recorder:
            for step, (txid, resource, mode) in enumerate(self.SEQUENCE):
                if step == len(self.SEQUENCE) - 1:
                    # A writer queues behind reader 2 on "c" (general path
                    # on both sides), so the last request waits behind it.
                    assert lm.acquire(3, "c", LockMode.X) is LockRequestStatus.WAIT
                try:
                    acquire(lm, txid, resource, mode)
                    outcomes.append("granted")
                except LockError:
                    outcomes.append("refused")
            records = [
                (r.kind, r.data)
                for r in recorder.records()
                if r.kind == "lock.acquire"
            ]
        return outcomes, lm.stats.snapshot(), list(log), records

    def test_stats_order_log_and_records_match_the_general_path(self):
        fast = self.run(LockManager.lock)
        general = self.run(self.general_serial_lock)
        assert fast == general
        outcomes, stats, log, records = fast
        assert outcomes == ["granted"] * 5 + ["refused"]
        assert stats["s_acquired"] == 2 and stats["x_acquired"] == 2
        assert stats["upgrades"] == 1 and stats["waits"] == 1
        assert log == [
            (1, "a", "S", False),
            (1, "a", "X", True),
            (1, "b", "X", False),
            (2, "c", "S", False),
        ]
        assert len(records) == 4
        assert [dict(data)["upgrade"] for _kind, data in records] == [
            False,
            True,
            False,
            False,
        ]

    def test_fresh_request_creates_one_entry_held_by_the_requester(self, lm):
        lm.lock(7, "r", LockMode.S)
        assert lm._holders == {"r": {7: LockMode.S}}
        assert lm._queues == {}
        assert lm.locks_held(7) == frozenset({"r"})
        lm.release_all(7)
        assert lm._holders == {} and lm._queues == {}

    # Both modes of ``lock()`` start with the same grant-now step; the
    # general path is what each mode does without it.

    @staticmethod
    def lock_in_mode(blocking):
        def acquire(lm, txid, resource, mode):
            lm.blocking = blocking
            lm.wait_timeout = 0.05
            lm.lock(txid, resource, mode)

        return acquire

    @staticmethod
    def general_acquire_blocking(lm, txid, resource, mode):
        """The blocking path without ``lock``'s grant-now step: the wait
        loop's first pass grants, or queues and times out."""
        lm.wait_timeout = 0.05
        lm.acquire_blocking(txid, resource, mode)

    def test_serial_lock_matches_the_general_path(self):
        assert self.run(self.lock_in_mode(False)) == self.run(
            self.general_serial_lock
        )

    def test_blocking_lock_matches_the_general_path(self):
        fast = self.run(self.lock_in_mode(True))
        general = self.run(self.general_acquire_blocking)
        assert fast == general
        outcomes, stats, log, records = fast
        # The last request waited behind the queued writer and timed out.
        assert outcomes == ["granted"] * 5 + ["refused"]
        # One wait is the queued writer's, one the timed-out reader's.
        assert stats["upgrades"] == 1 and stats["waits"] == 2
        assert stats["timeouts"] == 1
        assert log == [
            (1, "a", "S", False),
            (1, "a", "X", True),
            (1, "b", "X", False),
            (2, "c", "S", False),
        ]
        assert [dict(data)["upgrade"] for _kind, data in records] == [
            False,
            True,
            False,
            False,
        ]

    def test_blocking_reader_does_not_overtake_a_queued_writer(self, lm):
        lm.blocking = True
        lm.wait_timeout = 0.05
        lm.lock(2, "c", LockMode.S)
        assert lm.acquire(3, "c", LockMode.X) is WAIT
        with pytest.raises(LockTimeoutError):
            lm.lock(4, "c", LockMode.S)
        assert lm.holders_of("c") == {2}
        assert lm._queues["c"] == [(3, LockMode.X)]

    def test_blocking_reader_is_granted_only_after_the_writer(self, lm):
        lm.blocking = True
        lm.lock(2, "c", LockMode.S)
        assert lm.acquire(3, "c", LockMode.X) is WAIT
        granted = threading.Event()

        def reader():
            lm.lock(4, "c", LockMode.S)
            granted.set()

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert not granted.wait(0.05)
            lm.release_all(2)  # the writer is granted, the reader still waits
            assert lm.mode_held(3, "c") is LockMode.X
            assert not granted.wait(0.05)
            lm.release_all(3)
            assert granted.wait(5)
        finally:
            lm.poison("test over")
            thread.join(5)
        assert lm.mode_held(4, "c") is LockMode.S

    def test_grantable_request_on_a_poisoned_manager_is_granted(self, lm):
        lm.blocking = True
        lm.lock(1, "a", LockMode.S)
        lm.poison("closing")
        lm.lock(1, "a", LockMode.X)  # sole-holder upgrade
        lm.lock(2, "b", LockMode.S)  # fresh resource
        assert lm.mode_held(1, "a") is LockMode.X
        assert lm.mode_held(2, "b") is LockMode.S
        with pytest.raises(WaitPoisonedError):
            lm.lock(2, "a", LockMode.S)  # must wait: refused

    def test_grantable_request_past_its_deadline_is_granted(self, lm):
        lm.blocking = True
        lm.lock(1, "a", LockMode.S)
        lm.set_deadline(1, time.monotonic() - 1)
        lm.lock(1, "a", LockMode.X)
        lm.lock(1, "b", LockMode.X)
        assert lm.locks_held(1) == frozenset({"a", "b"})
        lm.set_deadline(2, time.monotonic() - 1)
        with pytest.raises(TransactionDeadlineError):
            lm.lock(2, "a", LockMode.S)
