"""A write of the bytes a record already holds logs nothing (DESIGN §8).

``StorageManager._update`` compares the before-image it reads with the new
bytes; when they are equal there is no UPDATE record, no undo entry and no
``put``.  The X lock is still taken, so §6's read→write amplification is
unchanged.  These tests pin that the elision is sound on both engines:
abort, crash recovery, lock waits, the read-only state and the MVCC merge
behave as if the write had been logged.
"""

from __future__ import annotations

import pytest

from repro.errors import ReadOnlyStorageError, TransactionAbort
from repro.faults import Fault, FaultInjector, FaultKind
from repro.fsck import fsck_database
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import decode_object
from repro.sessions.scheduler import CooperativeScheduler
from repro.storage.locks import LockMode
from repro.workloads.locksim import HotObject


class UnchangedGauge(Persistent):
    value = field(int, default=0)


def _gauge(db, value: int = 0):
    with db.transaction():
        return db.pnew(UnchangedGauge, value=value).ptr


def _image(db, value: int) -> bytes:
    """The record bytes of an ``UnchangedGauge`` holding *value*."""
    with db.transaction() as txn:
        rid = db.pnew(UnchangedGauge, value=value).ptr.rid
        image = db.storage.read(txn.txid, rid)
        raise TransactionAbort("only the image was wanted")
    return image


def _stored(db, rid: int) -> bytes:
    with db.transaction() as txn:
        return db.storage.read(txn.txid, rid)


def _watched(db):
    """A ``HotObject`` whose ``Watch`` has taken one Ping/Pong pair, so its
    group rests in the state every later pair ends in."""
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    _canonical(db, ptr)
    return ptr


def _canonical(db, ptr) -> None:
    with db.transaction():
        handle = db.deref(ptr)
        handle.post_event("Ping")
        handle.post_event("Pong")


def _group_rid(db, ptr) -> int:
    return decode_object(_stored(db, ptr.rid))[3]


def _states(db, ptr) -> list[tuple[int, int]]:
    with db.transaction():
        return [
            (tid.serial, state.statenum)
            for tid, state, _ in db.trigger_system.active_triggers(ptr)
        ]


def _counts(db) -> dict[str, int]:
    snapshot = db.metrics.snapshot()
    return {
        name: snapshot[f"storage.{name}"]
        for name in ("log_records", "log_forces", "writes", "unchanged_writes")
    }


def _delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {name: after[name] - before[name] for name in before}


def test_an_identical_write_logs_nothing_and_keeps_no_undo_entry(any_engine_db):
    db = any_engine_db
    ptr = _gauge(db, 5)
    image = _stored(db, ptr.rid)
    before = _counts(db)
    with db.transaction() as txn:
        db.storage.write(txn.txid, ptr.rid, image)
        assert db.storage._active[txn.txid] == []
        locks = db.storage.lock_manager
        assert locks.mode_held(txn.txid, ptr.rid) is LockMode.X
        assert db.storage.read(txn.txid, ptr.rid) == image
    assert _delta(before, _counts(db)) == {
        "log_records": 0,
        "log_forces": 0,
        "writes": 1,
        "unchanged_writes": 1,
    }
    assert _stored(db, ptr.rid) == image


def test_a_write_there_and_back_logs_two_updates_and_its_abort_restores(
    any_engine_db,
):
    """A → B → A: the second write differs from B, the record it finds, so
    both are logged, and undoing both in reverse leaves A."""
    db = any_engine_db
    ptr = _gauge(db, 1)
    a, b = _stored(db, ptr.rid), _image(db, 2)
    assert a != b
    before = db.metrics.snapshot()["storage.log_records"]
    with db.transaction() as txn:
        db.storage.write(txn.txid, ptr.rid, b)
        db.storage.write(txn.txid, ptr.rid, a)
        assert db.metrics.snapshot()["storage.log_records"] - before == 2
        assert len(db.storage._active[txn.txid]) == 2
        raise TransactionAbort("undo both")
    assert _stored(db, ptr.rid) == a
    with db.transaction():
        assert db.deref(ptr).value == 1


def test_a_pair_that_ends_where_it_began_commits_without_a_force_and_recovers(
    any_engine_db, db_path
):
    """The ``canon_mm`` transaction: the group ends where it was loaded,
    so the 2PL store does not write it back at all (DESIGN §16), there is
    no COMMIT and no force, and what a crash leaves is what the last
    logged transaction made durable."""
    db = any_engine_db
    engine = db.engine
    ptr = _watched(db)
    states = _states(db, ptr)
    before = _counts(db)
    _canonical(db, ptr)
    assert _delta(before, _counts(db)) == {
        "log_records": 0,
        "log_forces": 0,
        "writes": 0,
        "unchanged_writes": 0,
    }
    db.simulate_crash()

    db = Database.open(db_path, engine=engine)
    try:
        assert _states(db, ptr) == states
        report = fsck_database(db)
        assert report.ok, report.render_text()
    finally:
        db.close()


def test_a_reader_of_the_group_still_waits_for_the_unchanged_writer(any_engine_db):
    """The group's X lock is taken at the posting whatever the commit
    writes, so a second session's S request on it waits until commit."""
    db = any_engine_db
    ptr = _watched(db)
    group_rid = _group_rid(db, ptr)
    order = []
    poster, reader = db.session("poster"), db.session("reader")
    scheduler = CooperativeScheduler()
    before = _counts(db)

    def post():
        with poster.transaction():
            handle = poster.deref(ptr)
            handle.post_event("Ping")
            handle.post_event("Pong")
            order.append("posted")
            scheduler.yield_now()
        order.append("committed")

    def read():
        with reader.transaction() as txn:
            db.storage.read(txn.txid, group_rid)
        order.append("reader done")

    scheduler.spawn(post, "poster", session=poster)
    scheduler.spawn(read, "reader", session=reader)
    scheduler.run()
    poster.close()
    reader.close()
    assert order == ["posted", "committed", "reader done"]
    assert ("block", "reader") in scheduler.log
    assert _delta(before, _counts(db))["log_records"] == 0


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_a_degraded_store_refuses_an_identical_write(db_path, engine):
    db = Database.open(db_path, engine=engine, injector=FaultInjector())
    try:
        ptr = _gauge(db, 3)
        image = _stored(db, ptr.rid)
        db.storage.injector.add(Fault("wal.append", FaultKind.MEDIA_ERROR))
        with pytest.raises(ReadOnlyStorageError):
            with db.transaction():
                db.deref(ptr).value = 4
        assert db.read_only
        with pytest.raises(ReadOnlyStorageError):
            with db.transaction() as txn:
                db.storage.write(txn.txid, ptr.rid, image)
        assert _stored(db, ptr.rid) == image
    finally:
        db.close()


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_an_mvcc_merge_of_unchanged_bytes_logs_and_publishes_nothing(
    db_path, engine
):
    db = Database.open(db_path, engine=engine, trigger_cc="mvcc")
    try:
        ptr = _watched(db)
        group_rid = _group_rid(db, ptr)
        versions = db.trigger_system.versions
        head = versions.committed_head(group_rid)
        published = versions.stats.versions_published
        before = _counts(db)
        _canonical(db, ptr)
        assert _delta(before, _counts(db)) == {
            "log_records": 0,
            "log_forces": 0,
            "writes": 1,
            "unchanged_writes": 1,
        }
        assert versions.stats.versions_published == published
        assert versions.committed_head(group_rid).vid == head.vid
    finally:
        db.close()


@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_concurrent_mvcc_merges_of_unchanged_bytes_conflict_over_nothing(
    db_path, engine
):
    """Two sessions copy one group's committed head, and each posts a
    Ping/Pong pair that leaves the group as it was.  The first merge
    publishes no new head, so the second finds the head it copied: two
    clean merges, no conflict, no replay, no version published."""
    db = Database.open(db_path, engine=engine, trigger_cc="mvcc")
    try:
        ptr = _watched(db)
        group_rid = _group_rid(db, ptr)
        versions = db.trigger_system.versions
        head = versions.committed_head(group_rid)
        names = ("merges", "clean_merges", "conflicts", "replays", "versions_published")
        before = [getattr(versions.stats, name) for name in names]
        scheduler = CooperativeScheduler()
        sessions = [db.session(f"pair{i}") for i in range(2)]

        def pair(session):
            with session.transaction():
                handle = session.deref(ptr)
                handle.post_event("Ping")
                handle.post_event("Pong")
                scheduler.yield_now()  # both copy the head before either commits

        for session in sessions:
            scheduler.spawn(lambda session=session: pair(session), session.name, session=session)
        scheduler.run()
        for session in sessions:
            session.close()
        after = [getattr(versions.stats, name) for name in names]
        assert dict(zip(names, (a - b for a, b in zip(after, before)))) == {
            "merges": 2,
            "clean_merges": 2,
            "conflicts": 0,
            "replays": 0,
            "versions_published": 0,
        }
        assert versions.committed_head(group_rid).vid == head.vid
    finally:
        db.close()
