"""Lock-wait deadlines, timeouts, poisoning, and no-leak properties.

These tests drive :meth:`LockManager.acquire_blocking` directly — some on
real threads (bounded by short timeouts, so tier-1 stays fast), some with
hypothesis over arbitrary acquire/timeout/release sequences.  The
end-to-end session-level behaviour (``session.run(deadline=...)``) lives
in ``test_retry_classifier.py`` and ``test_degradation.py``.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    TransactionDeadlineError,
    WaitPoisonedError,
)
from repro.storage.locks import LockManager, LockMode, LockRequestStatus


@pytest.fixture
def lm():
    return LockManager()


def spawn(fn):
    thread = threading.Thread(target=fn, daemon=True)
    thread.start()
    return thread


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


class TestTimeouts:
    def test_timeout_raises_and_drops_the_request(self, lm):
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockTimeoutError):
            lm.acquire_blocking(2, "r", LockMode.S, timeout=0.02)
        assert lm.stats.timeouts == 1
        # The timed-out request left the queue: no stale waiter, no edge.
        assert lm.waits_for_edges() == {}
        assert lm.locks_held(2) == frozenset()
        # And the holder is undisturbed.
        assert lm.mode_held(1, "r") is LockMode.X

    def test_timeout_loser_can_retry_after_release(self, lm):
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockTimeoutError):
            lm.acquire_blocking(2, "r", LockMode.X, timeout=0.02)
        lm.release_all(1)
        lm.acquire_blocking(2, "r", LockMode.X, timeout=0.5)  # granted now
        assert lm.mode_held(2, "r") is LockMode.X

    def test_default_budget_is_wait_timeout(self, lm):
        lm.wait_timeout = 0.02
        lm.acquire(1, "r", LockMode.X)
        t0 = time.monotonic()
        with pytest.raises(LockTimeoutError):
            lm.acquire_blocking(2, "r", LockMode.S)
        assert time.monotonic() - t0 < 5.0  # bounded by wait_timeout, not 30s

    def test_release_mid_wait_grants_instead_of_timing_out(self, lm):
        lm.acquire(1, "r", LockMode.X)
        granted = []

        def waiter():
            lm.acquire_blocking(2, "r", LockMode.S, timeout=10.0)
            granted.append(True)

        thread = spawn(waiter)
        wait_until(lambda: lm.waits_for_edges().get(2))
        lm.release_all(1)
        thread.join(timeout=5)
        assert granted and lm.mode_held(2, "r") is LockMode.S


class TestDeadlines:
    def test_expired_deadline_cancels_the_wait(self, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.set_deadline(2, time.monotonic() + 0.02)
        with pytest.raises(TransactionDeadlineError):
            lm.acquire_blocking(2, "r", LockMode.S, timeout=30.0)
        assert lm.stats.deadline_aborts == 1
        assert lm.waits_for_edges() == {}

    def test_already_expired_deadline_fails_fast(self, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.set_deadline(2, time.monotonic() - 1.0)
        t0 = time.monotonic()
        with pytest.raises(TransactionDeadlineError):
            lm.acquire_blocking(2, "r", LockMode.S, timeout=30.0)
        assert time.monotonic() - t0 < 1.0  # no sleep before the check

    def test_grant_wins_over_expired_deadline(self, lm):
        """An already-satisfiable request is granted even past its
        deadline — only *waiting* is cancelled."""
        lm.set_deadline(1, time.monotonic() - 1.0)
        lm.acquire_blocking(1, "r", LockMode.X)
        assert lm.mode_held(1, "r") is LockMode.X

    def test_set_deadline_wakes_a_parked_waiter(self, lm):
        lm.acquire(1, "r", LockMode.X)
        errors = []

        def waiter():
            try:
                lm.acquire_blocking(2, "r", LockMode.S, timeout=30.0)
            except TransactionDeadlineError as exc:
                errors.append(exc)

        thread = spawn(waiter)
        wait_until(lambda: lm.waits_for_edges().get(2))
        lm.set_deadline(2, time.monotonic() + 0.02)  # notify + short fuse
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(errors) == 1

    def test_release_all_clears_the_deadline(self, lm):
        lm.set_deadline(7, time.monotonic() - 1.0)
        lm.release_all(7)
        # A recycled txid 7 must not inherit the stale deadline.
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockTimeoutError):
            lm.acquire_blocking(7, "r", LockMode.S, timeout=0.02)
        assert lm.stats.deadline_aborts == 0  # timed out, not deadline-aborted


class TestPoison:
    def test_poison_wakes_a_parked_waiter(self, lm):
        lm.acquire(1, "r", LockMode.X)
        errors = []

        def waiter():
            try:
                lm.acquire_blocking(2, "r", LockMode.S, timeout=30.0)
            except WaitPoisonedError as exc:
                errors.append(exc)

        thread = spawn(waiter)
        wait_until(lambda: lm.waits_for_edges().get(2))
        lm.poison("the process died")
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert len(errors) == 1 and "the process died" in str(errors[0])
        assert lm.stats.poisoned_waits == 1
        assert lm.poisoned

    def test_poison_fails_future_blocked_waits_fast(self, lm):
        lm.acquire(1, "r", LockMode.X)
        lm.poison("closed")
        t0 = time.monotonic()
        with pytest.raises(WaitPoisonedError):
            lm.acquire_blocking(2, "r", LockMode.S, timeout=30.0)
        assert time.monotonic() - t0 < 1.0

    def test_poison_still_grants_compatible_requests(self, lm):
        lm.poison("closed")
        lm.acquire_blocking(1, "fresh", LockMode.X)  # no conflict: granted
        assert lm.mode_held(1, "fresh") is LockMode.X

    def test_poison_wakes_every_waiter_not_just_one(self, lm):
        lm.acquire(1, "r", LockMode.X)
        errors = []
        errors_lock = threading.Lock()

        def waiter(txid):
            try:
                lm.acquire_blocking(txid, "r", LockMode.S, timeout=30.0)
            except WaitPoisonedError as exc:
                with errors_lock:
                    errors.append(exc)

        threads = [spawn(lambda t=t: waiter(t)) for t in (2, 3, 4)]
        wait_until(lambda: len(lm.waits_for_edges()) == 3)
        lm.poison("crash")
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert len(errors) == 3


class TestUpgradeFairnessThreaded:
    def test_upgrade_queue_jumps_but_fifo_holds_behind_it(self, lm):
        """Satellite: S→X upgrade fairness on real threads.  The upgrader
        (already a holder) overtakes a fresh S request in the queue; the
        fresh request is granted only after the upgrader releases."""
        assert lm.acquire(1, "r", LockMode.S) is LockRequestStatus.GRANTED
        assert lm.acquire(2, "r", LockMode.S) is LockRequestStatus.GRANTED

        order = []
        order_lock = threading.Lock()

        def upgrader():
            lm.acquire_blocking(1, "r", LockMode.X, timeout=30.0)  # S→X
            with order_lock:
                order.append("upgrade")

        thread_a = spawn(upgrader)
        wait_until(lambda: lm.waits_for_edges().get(1))

        def fresh_reader():
            lm.acquire_blocking(3, "r", LockMode.S, timeout=30.0)
            with order_lock:
                order.append("fresh")

        thread_b = spawn(fresh_reader)
        # The fresh S waits behind the queue-jumped upgrade (edge 3 -> 1).
        wait_until(lambda: 1 in lm.waits_for_edges().get(3, frozenset()))

        lm.release_all(2)  # the other S holder leaves -> upgrade grantable
        thread_a.join(timeout=5)
        assert not thread_a.is_alive()
        assert lm.mode_held(1, "r") is LockMode.X
        assert thread_b.is_alive()  # still parked behind the X

        lm.release_all(1)
        thread_b.join(timeout=5)
        assert not thread_b.is_alive()
        assert order == ["upgrade", "fresh"]
        assert lm.mode_held(3, "r") is LockMode.S

    def test_concurrent_upgraders_one_wins_one_deadlocks(self, lm):
        """Two S holders both upgrading is the classic conversion deadlock;
        the victim's abort must leave the winner grantable."""
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        results = {}

        def upgrade(txid):
            try:
                lm.acquire_blocking(txid, "r", LockMode.X, timeout=30.0)
                results[txid] = "granted"
            except DeadlockError:
                results[txid] = "victim"
                lm.release_all(txid)

        thread_1 = spawn(lambda: upgrade(1))
        wait_until(lambda: lm.waits_for_edges().get(1))
        thread_2 = spawn(lambda: upgrade(2))
        thread_1.join(timeout=5)
        thread_2.join(timeout=5)
        assert not thread_1.is_alive() and not thread_2.is_alive()
        assert sorted(results.values()) == ["granted", "victim"]
        winner = next(t for t, r in results.items() if r == "granted")
        assert lm.mode_held(winner, "r") is LockMode.X


# -- hypothesis: timeouts never leak -----------------------------------------

TXIDS = st.integers(min_value=1, max_value=4)
RESOURCES = st.sampled_from(["a", "b", "c"])
MODES = st.sampled_from([LockMode.S, LockMode.X])

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("acquire"), TXIDS, RESOURCES, MODES),
        st.tuples(st.just("timeout"), TXIDS, RESOURCES, MODES),
        st.tuples(st.just("release"), TXIDS, RESOURCES, MODES),
    ),
    max_size=40,
)


class TestNoLeakProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=OPS)
    def test_release_all_always_empties_the_manager(self, ops):
        """The timeout path (`_drop_request`) composed with arbitrary
        acquires and releases must never strand a grant or a queue entry:
        after every transaction's `release_all`, the table and the grant
        index are empty.  This is the property that makes
        `finally: release_all` a complete cleanup story for
        timed-out/deadline-aborted transactions."""
        lm = LockManager()
        for op, txid, resource, mode in ops:
            if op == "acquire":
                try:
                    lm.acquire(txid, resource, mode)
                except DeadlockError:
                    lm.release_all(txid)
            elif op == "timeout":
                # What acquire_blocking does when the wait expires, minus
                # the sleeping: drop the queued request, keep grants.
                lm._drop_request(txid, resource)
            else:
                lm.release_all(txid)
        for txid in range(1, 5):
            lm.release_all(txid)
        assert lm._holders == {} and lm._queues == {}
        assert dict(lm._held) == {}
        assert lm.waits_for_edges() == {}

    @settings(max_examples=100, deadline=None)
    @given(ops=OPS)
    def test_held_and_table_always_agree(self, ops):
        """Mid-sequence consistency: every `held` entry is a real holder in
        the table and vice versa (a desync is how a timeout could leak a
        grant)."""
        lm = LockManager()
        for op, txid, resource, mode in ops:
            if op == "acquire":
                try:
                    lm.acquire(txid, resource, mode)
                except DeadlockError:
                    lm.release_all(txid)
            elif op == "timeout":
                lm._drop_request(txid, resource)
            else:
                lm.release_all(txid)
            held_view = {
                (txid2, res)
                for txid2, resources in lm._held.items()
                for res in resources
            }
            table_view = {
                (txid2, res)
                for res, holders in lm._holders.items()
                for txid2 in holders
            }
            assert held_view == table_view
