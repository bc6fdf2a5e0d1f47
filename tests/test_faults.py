"""Fault-injector unit tests and engine behavior under injected faults."""

import pytest

from repro.errors import (
    InjectedCrashError,
    ReadOnlyStorageError,
    TransientIOError,
    UnrecoverableMediaError,
)
from repro.faults import (
    Fault,
    FaultInjector,
    FaultKind,
    NULL_INJECTOR,
    RetryPolicy,
    with_retry,
)
from repro.faults.injector import DEFAULT_RETRY
from repro.objects.database import Database
from repro.storage.buffer import PagedFile
from repro.storage.interface import StorageStats
from repro.storage.wal import LogRecordKind, WriteAheadLog
from repro.workloads.credit_card import CredCard


class TestInjectorUnit:
    def test_recording_captures_ordered_trace(self):
        inj = FaultInjector(recording=True)
        inj.fire("a.one")
        inj.fire_write("b.two", b"payload")
        inj.fire("a.one")
        assert [(r.index, r.point, r.writes) for r in inj.trace] == [
            (0, "a.one", False),
            (1, "b.two", True),
            (2, "a.one", False),
        ]

    def test_crash_at_hits_the_exact_global_index(self):
        inj = FaultInjector(crash_at=2)
        inj.fire("a")
        inj.fire("b")
        with pytest.raises(InjectedCrashError):
            inj.fire("c")

    def test_crashed_injector_is_poisoned(self):
        """A dead process cannot reach the disk again."""
        inj = FaultInjector(crash_at=0)
        with pytest.raises(InjectedCrashError):
            inj.fire("x")
        with pytest.raises(InjectedCrashError):
            inj.fire("anything.else")
        with pytest.raises(InjectedCrashError):
            inj.fire_write("any.write", b"data")

    def test_torn_write_keeps_a_strict_prefix(self):
        inj = FaultInjector([Fault("w", FaultKind.TORN_WRITE, fraction=0.5)])
        data, crash_after = inj.fire_write("w", b"0123456789")
        assert crash_after
        assert data == b"01234"
        with pytest.raises(InjectedCrashError):
            inj.crash_pending("w")

    def test_bit_flip_is_deterministic_and_silent(self):
        a = FaultInjector([Fault("w", FaultKind.BIT_FLIP)])
        b = FaultInjector([Fault("w", FaultKind.BIT_FLIP)])
        flipped_a, crash_a = a.fire_write("w", b"abcdef")
        flipped_b, _ = b.fire_write("w", b"abcdef")
        assert not crash_a
        assert flipped_a == flipped_b != b"abcdef"
        assert len(flipped_a) == 6

    def test_after_and_count_gate_firing(self):
        inj = FaultInjector([Fault("p", FaultKind.IO_ERROR, after=1, count=1)])
        inj.fire("p")  # skipped by `after`
        with pytest.raises(TransientIOError):
            inj.fire("p")
        inj.fire("p")  # count exhausted

    def test_media_error_is_sticky(self):
        inj = FaultInjector([Fault("p", FaultKind.MEDIA_ERROR, count=1)])
        for _ in range(3):  # `count` is ignored: the medium never heals
            with pytest.raises(UnrecoverableMediaError):
                inj.fire("p")

    def test_null_injector_refuses_faults(self):
        with pytest.raises(ValueError):
            NULL_INJECTOR.add(Fault("p", FaultKind.CRASH))


class TestWithRetry:
    def test_transient_errors_are_absorbed(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise TransientIOError(5, "hiccup")
            return "done"

        retries = []
        policy = RetryPolicy(attempts=4, backoff=0.0)
        assert with_retry(flaky, policy, on_retry=lambda: retries.append(1)) == "done"
        assert len(calls) == 3
        assert len(retries) == 2

    def test_budget_exhaustion_reraises_the_last_error(self):
        def dead():
            raise TransientIOError(5, "always")

        with pytest.raises(TransientIOError):
            with_retry(dead, RetryPolicy(attempts=2, backoff=0.0))

    def test_media_errors_pass_straight_through(self):
        calls = []

        def media():
            calls.append(1)
            raise UnrecoverableMediaError("gone")

        with pytest.raises(UnrecoverableMediaError):
            with_retry(media, RetryPolicy(attempts=4, backoff=0.0))
        assert len(calls) == 1  # retrying a dead medium is meaningless


class TestInlineFirstAttempt:
    """Each WAL and page operation makes its first attempt inline and
    retries through ``retry_failed``: the same budget (four attempts), one
    ``io_retries`` per retry, and exactly one failpoint hit per attempt."""

    @staticmethod
    def operate(point, tmp_path, injector, stats):
        if point.startswith("wal."):
            wal = WriteAheadLog(str(tmp_path / "log"), stats=stats, injector=injector)
            wal.append(1, LogRecordKind.UPDATE, 7, b"a", b"b")
            if point == "wal.force":
                wal.force()
            return
        paged = PagedFile(str(tmp_path / "data"), injector=injector, stats=stats)
        page_no = paged.allocate_page()
        if point == "page.read":
            paged.read_page(page_no)
        elif point == "page.sync":
            paged.sync()

    @pytest.mark.parametrize(
        "point", ["wal.append", "wal.force", "page.write", "page.read", "page.sync"]
    )
    @pytest.mark.parametrize("failures", [1, 3, 4])
    def test_budget_and_counts(self, tmp_path, point, failures):
        fault = Fault(point, FaultKind.IO_ERROR, count=failures)
        injector = FaultInjector([fault])
        stats = StorageStats()
        if failures < DEFAULT_RETRY.attempts:
            self.operate(point, tmp_path, injector, stats)
        else:
            with pytest.raises(TransientIOError):
                self.operate(point, tmp_path, injector, stats)
        attempts = min(failures + 1, DEFAULT_RETRY.attempts)
        assert stats.io_retries == attempts - 1
        assert fault._seen == attempts  # hits of *point*, one per attempt


class TestEngineUnderFaults:
    @pytest.mark.parametrize("engine", ["disk", "mm"])
    def test_transient_io_errors_are_retried(self, db_path, engine):
        inj = FaultInjector([Fault("wal.force", FaultKind.IO_ERROR, count=2)])
        db = Database.open(db_path, engine=engine, injector=inj)
        with db.transaction():
            db.pnew(CredCard)
        assert db.storage.stats.io_retries >= 2
        db.close()

    @pytest.mark.parametrize("engine", ["disk", "mm"])
    def test_media_error_degrades_to_read_only(self, db_path, engine):
        inj = FaultInjector()
        db = Database.open(db_path, engine=engine, injector=inj)
        with db.transaction():
            ptr = db.pnew(CredCard).ptr

        inj.add(Fault("wal.append", FaultKind.MEDIA_ERROR))  # medium dies now
        with pytest.raises(ReadOnlyStorageError):
            with db.transaction():
                db.deref(ptr).buy(None, 1.0)
        assert db.storage.degraded

        # Reads still work on the degraded store.
        with db.transaction():
            assert db.deref(ptr).purchases == 0
        # New mutations are refused outright.
        with pytest.raises(ReadOnlyStorageError):
            with db.transaction():
                db.deref(ptr).buy(None, 1.0)
        db.close()

        # The refused commit stays refused across a restart.
        db2 = Database.open(db_path, engine=engine)
        assert not db2.storage.degraded
        with db2.transaction():
            assert db2.deref(ptr).purchases == 0
            db2.deref(ptr).buy(None, 1.0)  # healthy medium: writable again
        db2.close()

    def test_torn_wal_append_loses_only_the_tail(self, db_path):
        """A power cut mid-append: the committed prefix must survive."""
        inj = FaultInjector()
        db = Database.open(db_path, engine="disk", injector=inj)
        with db.transaction():
            ptr = db.pnew(CredCard).ptr
        inj.add(Fault("wal.append", FaultKind.TORN_WRITE))
        with pytest.raises(InjectedCrashError):
            with db.transaction():
                db.deref(ptr).buy(None, 7.0)
        db.simulate_crash()

        recovered = Database.open(db_path, engine="disk")
        with recovered.transaction():
            card = recovered.deref(ptr)
            assert card.purchases == 0  # torn txn fully rolled back
        recovered.close()

    def test_simulate_crash_drops_unforced_tail(self, db_path):
        """simulate_crash must NOT force the log: un-synced records are
        exactly what a real crash loses."""
        db = Database.open(db_path, engine="disk")
        with db.transaction():
            ptr = db.pnew(CredCard).ptr  # committed: forced, durable
        db.txn_manager.begin()
        db.deref(ptr).buy(None, 5.0)  # logged but never forced
        db.simulate_crash()

        recovered = Database.open(db_path, engine="disk")
        stats = recovered.storage.last_recovery
        # The in-flight txn's records died with the OS cache: nothing to
        # undo, no loser to roll back.
        assert stats.losers == 0
        assert stats.undo_applied == 0
        with recovered.transaction():
            card = recovered.deref(ptr)
            assert card.purchases == 0
            assert card.curr_bal == 0.0
        recovered.close()

    def test_forced_loser_is_undone_at_recovery(self, db_path):
        """Contrast: once a later force persists the loser's records
        (STEAL), recovery must roll them back."""
        db = Database.open(db_path, engine="disk")
        txn = db.txn_manager.begin()
        rid = db.storage.insert(txn.txid, b"loser-record")
        db.storage._wal.force()  # e.g. an eviction or another commit
        db.simulate_crash()

        recovered = Database.open(db_path, engine="disk")
        stats = recovered.storage.last_recovery
        assert stats.losers == 1
        assert stats.undo_applied >= 1
        probe = recovered.txn_manager.begin(system=True)
        assert not recovered.storage.exists(probe.txid, rid)
        recovered.txn_manager.commit(probe)
        recovered.close()


class TestInjectorThreadSafety:
    """A threaded multi-session database funnels every failpoint through
    one injector; the mutex must make hit counting and fault arming exact
    (the pre-lock code could double-count `hits` and skip an `after=k`
    fault entirely)."""

    def test_threaded_recording_assigns_each_index_exactly_once(self):
        import threading

        inj = FaultInjector(recording=True)
        n_threads, fires_each = 8, 200
        start = threading.Barrier(n_threads)

        def hammer(i):
            start.wait()
            for _ in range(fires_each):
                inj.fire(f"point.{i}")

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        total = n_threads * fires_each
        assert inj.hits == total
        # Interleaving order is arbitrary, but the global indices must be
        # a permutation-free sequence: 0..total-1, each exactly once.
        assert sorted(r.index for r in inj.trace) == list(range(total))
        for i in range(n_threads):
            assert sum(1 for r in inj.trace if r.point == f"point.{i}") == fires_each

    def test_threaded_after_count_fault_fires_exactly_once(self):
        import threading

        inj = FaultInjector([Fault("p", FaultKind.IO_ERROR, after=50, count=1)])
        n_threads, fires_each = 8, 40
        start = threading.Barrier(n_threads)
        raised = []
        raised_lock = threading.Lock()

        def hammer():
            start.wait()
            for _ in range(fires_each):
                try:
                    inj.fire("p")
                except TransientIOError:
                    with raised_lock:
                        raised.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert inj.hits == n_threads * fires_each
        assert len(raised) == 1  # not 0 (lost update) and not 2 (double fire)

    def test_threaded_crash_at_poisons_for_everyone(self):
        import threading

        inj = FaultInjector(crash_at=10)
        crashes = []
        lock = threading.Lock()

        def hammer():
            for _ in range(20):
                try:
                    inj.fire("x")
                except InjectedCrashError:
                    with lock:
                        crashes.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        # Hit 10 crashes; every fire after it observes the poisoned state.
        assert len(crashes) == 4 * 20 - 10

    def test_stall_sleeps_then_carries_on(self):
        import time

        inj = FaultInjector([Fault("slow", FaultKind.STALL, delay=0.02, count=2)])
        t0 = time.monotonic()
        inj.fire("slow")
        data, crash = inj.fire_write("slow", b"payload")
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.04  # both stalls actually slept
        assert data == b"payload" and not crash  # a slow disk, not a dead one
        inj.fire("slow")  # count exhausted: no further delay, no error
