"""Storage-engine tests, parametrized over disk (EOS-like) and MM (Dali-like)."""

import inspect
import os

import pytest

from repro.errors import (
    PageError,
    ReadOnlyStorageError,
    RecordNotFoundError,
    StorageError,
    TransactionAbort,
)
from repro.faults.injector import Fault, FaultInjector, FaultKind, HitRecord
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions.scheduler import CooperativeScheduler
from repro.storage.disk import (
    _MAX_CHUNK,
    FLAG_FORWARD,
    FLAG_MOVED,
    FLAG_SEGMENT,
    FWD,
    DiskStorageManager,
    pack_rid,
    unpack_rid,
)
from repro.storage.interface import StorageManager
from repro.storage.mainmem import MainMemoryStorageManager
from repro.storage.wal import LogRecordKind, WriteAheadLog


@pytest.fixture(params=["disk", "mm"])
def engine_factory(request, tmp_path):
    """A callable that (re)opens the same storage manager."""
    path = str(tmp_path / "store")
    if request.param == "disk":
        return lambda **kw: DiskStorageManager(path, **kw)
    return lambda **kw: MainMemoryStorageManager(path, **kw)


@pytest.fixture
def sm(engine_factory):
    manager = engine_factory()
    yield manager
    try:
        manager.close()
    except StorageError:
        pass


class TestBasicOperations:
    def test_insert_read_roundtrip(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"payload")
        assert sm.read(1, rid) == b"payload"
        sm.commit_transaction(1)

    def test_write_replaces(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"v1")
        sm.write(1, rid, b"v2")
        assert sm.read(1, rid) == b"v2"
        sm.commit_transaction(1)

    def test_delete_removes(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"doomed")
        sm.delete(1, rid)
        assert not sm.exists(1, rid)
        with pytest.raises(RecordNotFoundError):
            sm.read(1, rid)
        sm.commit_transaction(1)

    def test_scan_sees_all_records(self, sm):
        sm.begin_transaction(1)
        rids = {sm.insert(1, f"rec{i}".encode()): f"rec{i}".encode() for i in range(20)}
        found = dict(sm.scan(1))
        assert found == rids
        sm.commit_transaction(1)

    def test_read_missing_raises(self, sm):
        sm.begin_transaction(1)
        with pytest.raises(RecordNotFoundError):
            sm.read(1, 1 << 40)
        sm.commit_transaction(1)

    def test_operation_outside_transaction_raises(self, sm):
        with pytest.raises(StorageError):
            sm.insert(99, b"no txn")

    def test_double_begin_raises(self, sm):
        sm.begin_transaction(1)
        with pytest.raises(StorageError):
            sm.begin_transaction(1)
        sm.commit_transaction(1)


class TestAbort:
    def test_abort_undoes_insert(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"temp")
        sm.abort_transaction(1)
        sm.begin_transaction(2)
        assert not sm.exists(2, rid)
        sm.commit_transaction(2)

    def test_abort_undoes_update(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"original")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.write(2, rid, b"changed")
        sm.abort_transaction(2)
        sm.begin_transaction(3)
        assert sm.read(3, rid) == b"original"
        sm.commit_transaction(3)

    def test_abort_undoes_delete(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"survivor")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.delete(2, rid)
        sm.abort_transaction(2)
        sm.begin_transaction(3)
        assert sm.read(3, rid) == b"survivor"
        sm.commit_transaction(3)

    def test_abort_undoes_in_reverse_order(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"a")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.write(2, rid, b"b")
        sm.write(2, rid, b"c")
        sm.delete(2, rid)
        sm.abort_transaction(2)
        sm.begin_transaction(3)
        assert sm.read(3, rid) == b"a"
        sm.commit_transaction(3)

    def test_abort_releases_locks(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"locked")
        sm.abort_transaction(1)
        assert sm.lock_manager.locks_held(1) == frozenset()


class TestRoot:
    def test_root_starts_unset(self, sm):
        assert sm.get_root() == sm.NO_ROOT

    def test_set_root_persists_in_txn(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"catalog")
        sm.set_root(1, rid)
        sm.commit_transaction(1)
        assert sm.get_root() == rid

    def test_abort_rolls_back_root(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"catalog")
        sm.set_root(1, rid)
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        rid2 = sm.insert(2, b"other")
        sm.set_root(2, rid2)
        sm.abort_transaction(2)
        assert sm.get_root() == rid


class TestDurability:
    def test_close_reopen_preserves_committed(self, engine_factory):
        sm = engine_factory()
        sm.begin_transaction(1)
        rid = sm.insert(1, b"durable")
        sm.set_root(1, rid)
        sm.commit_transaction(1)
        sm.close()
        sm2 = engine_factory()
        sm2.begin_transaction(1)
        assert sm2.read(1, rid) == b"durable"
        assert sm2.get_root() == rid
        sm2.commit_transaction(1)
        sm2.close()

    def test_crash_preserves_committed_loses_uncommitted(self, engine_factory):
        sm = engine_factory()
        sm.begin_transaction(1)
        rid = sm.insert(1, b"committed")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.write(2, rid, b"uncommitted")
        uncommitted_rid = sm.insert(2, b"phantom")
        sm.simulate_crash()
        sm2 = engine_factory()
        sm2.begin_transaction(1)
        assert sm2.read(1, rid) == b"committed"
        assert not sm2.exists(1, uncommitted_rid)
        sm2.commit_transaction(1)
        sm2.close()

    def test_crash_after_abort_does_not_resurrect(self, engine_factory):
        """The compensation-logging path: abort, then later commit, then crash."""
        sm = engine_factory()
        sm.begin_transaction(1)
        rid = sm.insert(1, b"v1")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.write(2, rid, b"aborted-value")
        sm.abort_transaction(2)
        sm.begin_transaction(3)
        sm.write(3, rid, b"v2")
        sm.commit_transaction(3)
        sm.simulate_crash()
        sm2 = engine_factory()
        sm2.begin_transaction(1)
        assert sm2.read(1, rid) == b"v2"
        sm2.commit_transaction(1)
        sm2.close()

    def test_checkpoint_truncates_log_keeps_data(self, engine_factory):
        sm = engine_factory()
        sm.begin_transaction(1)
        rid = sm.insert(1, b"data")
        sm.commit_transaction(1)
        sm.checkpoint()
        sm.begin_transaction(2)
        assert sm.read(2, rid) == b"data"
        sm.commit_transaction(2)
        sm.close()
        sm2 = engine_factory()
        sm2.begin_transaction(1)
        assert sm2.read(1, rid) == b"data"
        sm2.commit_transaction(1)
        sm2.close()

    def test_checkpoint_with_active_txn_raises(self, sm):
        sm.begin_transaction(1)
        with pytest.raises(StorageError):
            sm.checkpoint()
        sm.commit_transaction(1)

    def test_close_aborts_open_transactions(self, engine_factory):
        sm = engine_factory()
        sm.begin_transaction(1)
        rid = sm.insert(1, b"committed")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.write(2, rid, b"in-flight")
        sm.close()
        sm2 = engine_factory()
        sm2.begin_transaction(1)
        assert sm2.read(1, rid) == b"committed"
        sm2.commit_transaction(1)
        sm2.close()


class TestStats:
    def test_counters_track_operations(self, sm):
        sm.begin_transaction(1)
        rid = sm.insert(1, b"x")
        sm.read(1, rid)
        sm.write(1, rid, b"y")
        sm.delete(1, rid)
        sm.commit_transaction(1)
        snapshot = sm.stats.snapshot()
        assert snapshot["inserts"] == 1
        assert snapshot["reads"] == 1
        assert snapshot["writes"] == 1
        assert snapshot["deletes"] == 1
        assert snapshot["commits"] == 1


class TestDiskSpecific:
    def test_rid_packing_roundtrip(self):
        for page_no, slot_no in [(1, 0), (7, 65535), (123456, 42)]:
            assert unpack_rid(pack_rid(page_no, slot_no)) == (page_no, slot_no)

    def test_large_record_forwarding(self, tmp_path):
        sm = DiskStorageManager(str(tmp_path / "fwd"))
        sm.begin_transaction(1)
        rids = [sm.insert(1, bytes([i]) * 60) for i in range(200)]
        big = b"B" * 3900
        sm.write(1, rids[3], big)
        assert sm.read(1, rids[3]) == big
        # Grow the forwarded record again (target relocation).
        bigger = b"C" * 3950
        sm.write(1, rids[3], bigger)
        assert sm.read(1, rids[3]) == bigger
        # Shrink it back (stays behind the forward pointer).
        sm.write(1, rids[3], b"small")
        assert sm.read(1, rids[3]) == b"small"
        sm.commit_transaction(1)
        # Scan must not yield moved bodies as separate records.
        sm.begin_transaction(2)
        found = dict(sm.scan(2))
        assert found[rids[3]] == b"small"
        assert len(found) == 200
        sm.commit_transaction(2)
        sm.close()

    def test_forwarded_record_survives_reopen(self, tmp_path):
        path = str(tmp_path / "fwd2")
        sm = DiskStorageManager(path)
        sm.begin_transaction(1)
        rids = [sm.insert(1, b"x" * 60) for _ in range(100)]
        sm.write(1, rids[0], b"Y" * 3900)
        sm.commit_transaction(1)
        sm.close()
        sm2 = DiskStorageManager(path)
        sm2.begin_transaction(1)
        assert sm2.read(1, rids[0]) == b"Y" * 3900
        sm2.commit_transaction(1)
        sm2.close()

    def test_delete_forwarded_record(self, tmp_path):
        sm = DiskStorageManager(str(tmp_path / "fwd3"))
        sm.begin_transaction(1)
        rids = [sm.insert(1, b"x" * 60) for _ in range(100)]
        sm.write(1, rids[5], b"Z" * 3900)
        sm.delete(1, rids[5])
        assert not sm.exists(1, rids[5])
        sm.commit_transaction(1)
        sm.close()

    def test_small_buffer_pool_still_correct(self, tmp_path):
        sm = DiskStorageManager(str(tmp_path / "small"), buffer_capacity=2)
        sm.begin_transaction(1)
        rids = [sm.insert(1, bytes([i % 250]) * 500) for i in range(64)]
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        for i, rid in enumerate(rids):
            assert sm.read(2, rid) == bytes([i % 250]) * 500
        sm.commit_transaction(2)
        assert sm.stats.page_evictions > 0
        sm.close()


class TestDiskRecordRead:
    """``PagedRecords.get``, the read half of every dereference: an inline
    record, a forwarded body and a segment chain come back as ``bytes``;
    only a home slot is a record; nothing stays pinned."""

    @staticmethod
    def _store(tmp_path):
        sm = DiskStorageManager(str(tmp_path / "reads"), buffer_capacity=4)
        sm.begin_transaction(1)
        rids = [sm.insert(1, bytes([i % 251]) * 60) for i in range(150)]
        return sm, rids

    @staticmethod
    def _assert_unpinned(sm):
        assert all(f.pin_count == 0 for f in sm._records._pool._frames.values())

    def test_inline_forwarded_and_chained_records_read_back_as_bytes(self, tmp_path):
        sm, rids = self._store(tmp_path)
        records = sm._records
        single = b"S" * 3000  # outgrows its full page: one body record
        chained = bytes(range(256)) * (3 * _MAX_CHUNK // 256 + 1)
        sm.write(1, rids[3], single)
        sm.write(1, rids[4], chained)
        assert len(chained) > 3 * _MAX_CHUNK
        head = records._payload(rids[3])
        assert head[0] == FLAG_FORWARD
        assert records._payload(FWD.unpack_from(head, 1)[0])[0] == FLAG_MOVED
        expected = {rids[0]: bytes([0]) * 60, rids[3]: single, rids[4]: chained}
        for rid, data in expected.items():
            got = records.get(rid)
            assert type(got) is bytes and got == data
            assert sm.read(1, rid) == data
            self._assert_unpinned(sm)
        sm.commit_transaction(1)
        sm.close()

    def test_a_body_or_segment_rid_is_no_record(self, tmp_path):
        sm, rids = self._store(tmp_path)
        records = sm._records
        sm.write(1, rids[5], b"C" * (2 * _MAX_CHUNK + 1))
        chain = [FWD.unpack_from(records._payload(rids[5]), 1)[0]]
        while records._payload(chain[-1])[0] == FLAG_SEGMENT:
            chain.append(FWD.unpack_from(records._payload(chain[-1]), 1)[0])
        assert len(chain) == 3 and records._payload(chain[-1])[0] == FLAG_MOVED
        for rid in chain:
            assert not records.has(rid)
            with pytest.raises(RecordNotFoundError):
                records.get(rid)
            with pytest.raises(RecordNotFoundError):
                sm.read(1, rid)
        self._assert_unpinned(sm)
        sm.commit_transaction(1)
        sm.close()

    def test_has_and_get_agree_on_every_rid(self, tmp_path):
        sm, rids = self._store(tmp_path)
        records = sm._records
        sm.write(1, rids[7], b"F" * 3000)
        sm.write(1, rids[8], b"G" * (2 * _MAX_CHUNK))
        for rid in rids[20:30]:
            sm.delete(1, rid)  # tombstones
        live = 0
        for page_no in range(records._file.num_pages + 2):  # page 0 and past
            for slot_no in range(80):
                rid = pack_rid(page_no, slot_no)
                if records.has(rid):
                    live += 1
                    assert type(records.get(rid)) is bytes
                else:
                    with pytest.raises(RecordNotFoundError):
                        records.get(rid)
        assert live == len(rids) - 10
        self._assert_unpinned(sm)
        sm.commit_transaction(1)
        sm.close()


class TestMainMemorySpecific:
    def test_non_durable_touches_no_files(self, tmp_path):
        sm = MainMemoryStorageManager(None)
        sm.begin_transaction(1)
        rid = sm.insert(1, b"volatile")
        assert sm.read(1, rid) == b"volatile"
        sm.commit_transaction(1)
        sm.close()
        assert list(tmp_path.iterdir()) == []

    def test_snapshot_plus_oplog_recovery(self, tmp_path):
        path = str(tmp_path / "dali")
        sm = MainMemoryStorageManager(path)
        sm.begin_transaction(1)
        rid = sm.insert(1, b"snapshotted")
        sm.commit_transaction(1)
        sm.checkpoint()  # record goes into the snapshot
        sm.begin_transaction(2)
        rid2 = sm.insert(2, b"logged-after-snapshot")
        sm.commit_transaction(2)
        sm.simulate_crash()  # rid2 only in the op log
        sm2 = MainMemoryStorageManager(path)
        sm2.begin_transaction(1)
        assert sm2.read(1, rid) == b"snapshotted"
        assert sm2.read(1, rid2) == b"logged-after-snapshot"
        sm2.commit_transaction(1)
        sm2.close()


class TestOneShell:
    """Both engines are the one transactional shell over a record layer."""

    #: The names ``perf/trace.py`` wraps by ``vars(cls)[name]``.
    TRACED = (
        "read",
        "write",
        "insert",
        "delete",
        "commit_transaction",
        "abort_transaction",
    )

    def test_traced_names_bind_the_shells_single_function(self):
        for name in self.TRACED:
            disk = vars(DiskStorageManager)[name]
            assert disk is vars(MainMemoryStorageManager)[name]
            assert disk is vars(StorageManager)[name]

    def test_engines_define_nothing_but_their_constructor(self):
        shell = vars(StorageManager)
        for engine in (DiskStorageManager, MainMemoryStorageManager):
            own = {
                name
                for name, value in vars(engine).items()
                if inspect.isfunction(value) and value is not shell.get(name)
            }
            assert own == {"__init__"}, engine


def _log_cost(sm):
    """What the log has cost so far: file size, records appended, forces."""
    return os.path.getsize(sm._wal.path), sm.stats.log_records, sm.stats.log_forces


def _seed(sm):
    """Commit one record (``b"v1"``) in transaction 1; return its rid."""
    sm.begin_transaction(1)
    rid = sm.insert(1, b"v1")
    sm.commit_transaction(1)
    return rid


class LogContractNote(Persistent):
    text = field(str, default="")


class TestLogContract:
    """A transaction enters the log with its first mutation; one that
    changed nothing never touches it — no record, no force, no commit
    failpoint."""

    @pytest.fixture
    def seeded(self, engine_factory):
        injector = FaultInjector(recording=True)
        sm = engine_factory(injector=injector)
        rid = _seed(sm)
        yield sm, injector, rid
        sm.close()

    @pytest.mark.parametrize("end", ["commit", "abort"])
    def test_read_only_transaction_leaves_the_log_untouched(self, seeded, end):
        sm, injector, rid = seeded
        cost, hits, before = _log_cost(sm), len(injector.trace), sm.stats.snapshot()
        sm.begin_transaction(2)
        assert sm.read(2, rid) == b"v1"
        getattr(sm, f"{end}_transaction")(2)
        assert _log_cost(sm) == cost
        # Not even txn.commit.begin / txn.commit.durable fire.
        assert injector.trace[hits:] == []
        counter = "commits" if end == "commit" else "aborts"
        assert sm.stats.snapshot()[counter] == before[counter] + 1
        assert sm.lock_manager.locks_held(2) == frozenset()

    def test_tabort_and_read_only_commit_through_the_database(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(LogContractNote, text="kept").ptr
        cost = _log_cost(db.storage)
        with db.transaction():
            assert db.deref(ptr).text == "kept"
        with db.transaction():
            assert db.deref(ptr).text == "kept"
            raise TransactionAbort("read, then tabort")
        assert _log_cost(db.storage) == cost

    def test_an_update_enters_the_log_with_its_first_mutation(self, seeded):
        sm, _, rid = seeded
        sm.begin_transaction(2)
        sm.read(2, rid)
        sm.write(2, rid, b"v2")
        sm.commit_transaction(2)
        sm.begin_transaction(3)
        sm.delete(3, rid)
        sm.abort_transaction(3)
        kinds = {1: [], 2: [], 3: []}
        for record in sm._wal.replay():
            kinds[record.txid].append(record.kind)
        assert kinds == {
            1: [LogRecordKind.INSERT, LogRecordKind.COMMIT],
            2: [LogRecordKind.UPDATE, LogRecordKind.COMMIT],
            3: [LogRecordKind.DELETE, LogRecordKind.INSERT, LogRecordKind.ABORT],
        }

    def test_crash_right_after_a_read_only_commit_keeps_earlier_commits(
        self, engine_factory
    ):
        sm = engine_factory()
        sm.begin_transaction(1)
        a, b = sm.insert(1, b"a1"), sm.insert(1, b"b1")
        sm.commit_transaction(1)
        sm.begin_transaction(2)
        sm.write(2, a, b"a2")
        sm.commit_transaction(2)
        sm.begin_transaction(3)
        assert sm.read(3, a) == b"a2"
        sm.commit_transaction(3)
        sm.simulate_crash()
        sm2 = engine_factory()
        assert (sm2.last_recovery.winners, sm2.last_recovery.losers) == (2, 0)
        sm2.begin_transaction(1)
        assert (sm2.read(1, a), sm2.read(1, b)) == (b"a2", b"b1")
        sm2.commit_transaction(1)
        sm2.close()

    def test_a_degraded_store_still_commits_a_read_only_transaction(
        self, engine_factory
    ):
        injector = FaultInjector()
        sm = engine_factory(injector=injector)
        rid = _seed(sm)
        injector.add(Fault("wal.append", FaultKind.MEDIA_ERROR))
        sm.begin_transaction(2)
        with pytest.raises(ReadOnlyStorageError):
            sm.write(2, rid, b"v2")
        assert sm.degraded
        sm.abort_transaction(2)
        sm.begin_transaction(3)
        assert sm.read(3, rid) == b"v1"
        sm.commit_transaction(3)
        assert sm.lock_manager.locks_held(3) == frozenset()
        sm.close()


class TestReadOnlyCommitInvariant:
    """Why a read-only commit needs no force: under 2PL a reader is granted
    a writer's record only by the writer's ``release_all``, which runs
    after the writer's COMMIT is durable."""

    def test_a_blocked_reader_is_granted_after_the_writers_force(
        self, engine_factory
    ):
        injector = FaultInjector(recording=True)
        sm = engine_factory(injector=injector)
        rid = _seed(sm)
        locks = sm.lock_manager
        locks.blocking = True
        # One timeline: lock grants and failpoint hits, in the order they
        # happened.
        timeline = injector.trace = locks.start_order_trace()
        scheduler = CooperativeScheduler()
        seen = []

        def writer():
            sm.begin_transaction(2)
            sm.write(2, rid, b"v2")
            scheduler.yield_now()  # the reader queues S behind our X
            sm.commit_transaction(2)

        def reader():
            sm.begin_transaction(3)
            seen.append(sm.read(3, rid))
            sm.commit_transaction(3)

        scheduler.spawn(writer, "writer")
        scheduler.spawn(reader, "reader")
        scheduler.run()
        locks.stop_order_trace()
        events = [e.point if isinstance(e, HitRecord) else e for e in timeline]
        sm.close()
        assert seen == [b"v2"]
        assert ("block", "reader") in scheduler.log
        assert events == [
            (2, rid, "X", False),
            "wal.append",  # UPDATE
            "txn.commit.begin",
            "wal.append",  # COMMIT
            "wal.force",
            "wal.force.after",
            "txn.commit.durable",
            (3, rid, "S", False),  # granted by the writer's release_all
        ]


class TestRecoveryWithoutBegin:
    """Logs written before BEGIN was dropped still replay: recovery ignores
    BEGIN, so a transaction that only began is neither winner nor loser."""

    @pytest.mark.parametrize("with_begin", [True, False])
    def test_hand_written_log_recovers_to_the_same_state(
        self, engine_factory, with_begin
    ):
        sm = engine_factory()
        sm.begin_transaction(1)
        kept, lost = sm.insert(1, b"kept-v1"), sm.insert(1, b"lost-v1")
        sm.commit_transaction(1)
        log_path = sm._wal.path
        sm.close()  # checkpoint: both records durable, the log empty

        wal = WriteAheadLog(log_path)

        def begin(txid):
            if with_begin:
                wal.append(txid, LogRecordKind.BEGIN)

        begin(7)  # began, only read, never finished
        begin(8)
        wal.append(8, LogRecordKind.UPDATE, kept, b"kept-v1", b"kept-v2")
        wal.append(8, LogRecordKind.COMMIT)
        begin(9)  # the loser
        wal.append(9, LogRecordKind.UPDATE, lost, b"lost-v1", b"lost-v2")
        wal.close()

        sm = engine_factory()
        stats = sm.last_recovery
        assert stats.records_scanned == (6 if with_begin else 3)
        assert (stats.winners, stats.losers) == (1, 1)
        assert (stats.redo_applied, stats.undo_applied) == (2, 1)
        sm.begin_transaction(1)
        assert (sm.read(1, kept), sm.read(1, lost)) == (b"kept-v2", b"lost-v1")
        sm.commit_transaction(1)
        sm.close()


_REDO_ALLOCATES = (
    "known: disk redo places body segments in free slots that later log "
    "records address by rid (DESIGN §8; ROADMAP: redo must never allocate)"
)


@pytest.mark.parametrize(
    "count", [300, 1000, pytest.param(3000, marks=pytest.mark.crash_matrix)]
)
def test_disk_recovers_a_population_that_spills_its_page(tmp_path, count):
    """perf/README.md's repro: watched objects created in one transaction,
    crash, reopen.  Its reopen died in the redo bug below while the
    trigger index kept its entries in a bucketed map: the buckets grew
    with the population, outgrew their page and became body chains.  An
    object's header is its index entry now, so no record grows with the
    population and every one of them comes back."""
    from repro import Database
    from repro.workloads.locksim import HotObject

    path = str(tmp_path / "db")
    db = Database.open(path, engine="disk")
    with db.transaction():
        for _ in range(count):
            db.pnew(HotObject).Watch()
    db.simulate_crash()
    db = Database.open(path, engine="disk")
    try:
        with db.transaction() as txn:
            assert len(dict(db.trigger_system.index.entries(txn))) == count
            assert db.trigger_system.verify_integrity() == []
    finally:
        db.close()


class RedoBlob(Persistent):
    payload = field(str, default="")


@pytest.mark.xfail(strict=True, raises=RecordNotFoundError, reason=_REDO_ALLOCATES)
def test_disk_recovers_large_records_grown_deleted_and_reinserted(tmp_path):
    """The same redo bug with no persistent map written at all: records
    whose bodies span pages are grown, deleted and re-inserted, then the
    process dies — the reopen's redo breaks a body chain."""
    from repro import Database

    path = str(tmp_path / "db")
    db = Database.open(path, engine="disk")
    with db.transaction():
        ptrs = [db.pnew(RedoBlob, payload="a" * 5000).ptr for _ in range(200)]
    with db.transaction():
        for ptr in ptrs[:66]:
            db.deref(ptr).payload = "b" * 10000
    with db.transaction():
        for ptr in ptrs[66:132]:
            db.pdelete(ptr)
    with db.transaction():
        for _ in range(66):
            db.pnew(RedoBlob, payload="c" * 5000)
    db.simulate_crash()
    Database.open(path, engine="disk").close()


@pytest.mark.xfail(strict=True, raises=PageError, reason=_REDO_ALLOCATES)
def test_disk_recovers_cards_activated_in_batches(tmp_path):
    """The same redo bug from an ordinary population: 600 cards created
    in transactions of 100, each activating two triggers.  A first
    activation grows the object's header and its group on pages that
    the inserts filled, so records move behind forward pointers into
    body segments that redo re-places; the reopen finds a slot a later
    log record addresses already taken.  The same 600 cards in one
    transaction, or 300 in transactions of 100, recover."""
    from repro import Database
    from repro.workloads.credit_card import CredCard

    path = str(tmp_path / "db")
    db = Database.open(path, engine="disk")
    for _ in range(6):
        with db.transaction():
            for _ in range(100):
                card = db.pnew(CredCard)
                card.DenyCredit()
                card.AutoRaiseLimit(500.0)
    db.simulate_crash()
    Database.open(path, engine="disk").close()
