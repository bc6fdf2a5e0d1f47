"""Multi-session hot-set workload tests (the E6 substrate).

The workload drives the real engine — N sessions over one database under a
cooperative scheduler — so these tests double as end-to-end checks that
blocking locks, FIFO wakeups, and deadlock abort/retry compose with the
trigger machinery.
"""

from repro.workloads.locksim import HotObject, run_hot_set


class TestHotObject:
    def test_watch_fsm_flips_on_every_posting(self, mm_db):
        """relative(Ping, Pong) writes its trigger state on each event."""
        db = mm_db
        with db.transaction():
            handle = db.pnew(HotObject)
            ptr = handle.ptr
            handle.Watch()
        stats = db.trigger_system.stats
        before = stats.snapshot()
        with db.transaction():
            handle = db.deref(ptr)
            handle.post_event("Ping")
            handle.post_event("Pong")
        diff = stats.diff(before)
        assert diff["state_writes"] == 2  # one per posting: arm, fire+re-arm
        assert diff["firings"] == 1

    def test_unwatched_posting_short_circuits(self, mm_db):
        db = mm_db
        with db.transaction():
            handle = db.pnew(HotObject)
            ptr = handle.ptr
        stats = db.trigger_system.stats
        before = stats.snapshot()
        with db.transaction():
            handle = db.deref(ptr)
            handle.post_event("Ping")
        diff = stats.diff(before)
        assert diff["skipped_no_triggers"] == 1
        assert diff["state_writes"] == 0


class TestWorkload:
    def test_read_only_workload_never_waits(self):
        result = run_hot_set(4, 0, n_sessions=6, transactions=60, seed=1)
        assert result.committed == 60
        assert result.x_locks == 0
        assert result.lock_waits == 0
        assert result.deadlock_aborts == 0
        assert result.state_writes == 0

    def test_trigger_workload_amplifies_into_writes_and_waits(self):
        result = run_hot_set(4, 2, n_sessions=6, transactions=60, seed=1)
        assert result.committed == 60  # retries recover every deadlock
        assert result.x_locks > 0
        assert result.state_writes > 0
        assert result.lock_waits > 0  # the paper's amplified waiting

    def test_deadlocks_occur_and_are_resolved(self):
        result = run_hot_set(
            2, 3, n_sessions=8, transactions=80, ops_per_txn=5, seed=3
        )
        assert result.committed == 80  # progress despite the storm
        assert result.deadlock_aborts > 0

    def test_single_session_never_conflicts(self):
        result = run_hot_set(2, 3, n_sessions=1, transactions=30, seed=9)
        assert result.committed == 30
        assert result.lock_waits == 0
        assert result.deadlock_aborts == 0
        assert result.state_writes > 0  # amplification without contention

    def test_amplification_monotone_in_trigger_count(self):
        """More active triggers per object -> more state writes, while the
        X locks stay one per object: every trigger on an object lives in
        its one group record."""
        results = [
            run_hot_set(4, triggers, n_sessions=6, transactions=60, seed=5)
            for triggers in (0, 1, 4)
        ]
        assert results[0].wait_fraction == 0.0
        assert results[1].wait_fraction > 0.0
        assert results[0].x_locks == 0
        assert results[2].x_locks == results[1].x_locks > 0
        assert results[2].state_writes > results[1].state_writes

    def test_deterministic_given_seed(self):
        runs = [
            run_hot_set(
                4, 2, n_sessions=5, transactions=40, seed=42
            ).key()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
