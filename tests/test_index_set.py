"""The index set object writers maintain comes from memory (DESIGN §17
"The index set").

``Database`` keeps the committed ``FieldIndex`` list, read from the
catalog at open.  A transaction that creates an index works on its own
copy and publishes it in its ``flush_transaction``, while it still holds
the locks its backfill took; an abort withdraws it before those locks
are released.  Writers read neither the catalog nor its lock.  These
tests race ``create_index`` against writers on real threads with the
lock manager blocking (two sessions open).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ObjectError, TransactionAbort, TransientIOError
from repro.faults import Fault, FaultInjector, FaultKind
from repro.fsck import fsck_database
from repro.objects.database import Database
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.storage.btree import BTree
from repro.storage.locks import LockManager, LockMode

TIMEOUT = 10.0


class IndexSetItem(Persistent):
    sku = field(str, default="")
    price = field(float, default=0.0)


class IndexSetOther(Persistent):
    n = field(int, default=0)


@pytest.fixture
def db(db_path):
    database = Database.open(db_path, engine="disk", injector=FaultInjector())
    yield database
    if not database.closed:
        database.close()


def _items(db) -> tuple[PersistentPtr, PersistentPtr]:
    with db.transaction():
        x = db.pnew(IndexSetItem, sku="x", price=10.0).ptr
        y = db.pnew(IndexSetItem, sku="y", price=20.0).ptr
    return x, y


def _wait_until(predicate) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def _race(db, first, second) -> list[BaseException]:
    """Run *first* in one session's transaction up to its commit, then
    *second* in another session's on its own thread until it waits for a
    lock, then let *first* commit.  Returns what either raised."""
    sessions = db.session("first"), db.session("second")
    locks = db.storage.lock_manager
    ready, go = threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def run(index, body):
        session = sessions[index]
        try:
            with session.transaction():
                body(session)
                if index == 0:
                    ready.set()
                    assert go.wait(TIMEOUT)
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)
        finally:
            ready.set()

    threads = [
        threading.Thread(target=run, args=(i, body), daemon=True)
        for i, body in enumerate((first, second))
    ]
    threads[0].start()
    assert ready.wait(TIMEOUT)
    waits = locks.stats.waits
    threads[1].start()
    _wait_until(lambda: locks.stats.waits > waits or not threads[1].is_alive())
    go.set()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    for session in sessions:
        session.close()
    return errors


def _prices(db, *prices) -> list[list[str]]:
    with db.transaction():
        return [sorted(h.sku for h in db.find(IndexSetItem, "price", p)) for p in prices]


def _clean(db) -> None:
    report = fsck_database(db)
    assert report.ok, report.render_text()


def _create(session) -> None:
    session.db.create_index(IndexSetItem, "price")


def test_an_update_waits_for_the_index_it_races_and_maintains_it(db):
    """The backfill S-locked the object, so the update's X lock waits for
    the creator's commit and then flushes with the published index."""
    x, _ = _items(db)

    def update(session):
        session.deref(x).price = 33.0

    assert _race(db, _create, update) == []
    assert db.storage.lock_manager.stats.deadlocks == 0
    assert _prices(db, 10.0, 20.0, 33.0) == [[], ["y"], ["x"]]
    _clean(db)


def test_an_index_build_waits_for_the_update_it_races_and_reads_its_value(db):
    """The update holds X on the object and no lock on the catalog, so the
    backfill waits for the update's commit and indexes the new value."""
    x, _ = _items(db)

    def update(session):
        session.deref(x).price = 33.0

    assert _race(db, update, _create) == []
    assert db.storage.lock_manager.stats.deadlocks == 0
    assert _prices(db, 10.0, 20.0, 33.0) == [[], ["y"], ["x"]]
    _clean(db)


@pytest.fixture
def tree_writes(monkeypatch) -> list[tuple[int, int]]:
    """From now on, ``(txid, header rid)`` of each insert into or delete
    from a tree."""
    touches = []
    for name in ("insert", "delete"):
        original = vars(BTree)[name]

        def touched(self, txid, key, value, _original=original):
            touches.append((txid, self.header_rid))
            return _original(self, txid, key, value)

        monkeypatch.setattr(BTree, name, touched)
    return touches


def _touched_by_others(touches, txid: int, header: int) -> list[int]:
    """The transactions other than *txid* that touched tree *header*."""
    return [t for t, h in touches if h == header and t != txid]


def test_an_aborted_index_build_is_never_maintained(db, tree_writes):
    x, _ = _items(db)
    with db.transaction() as txn:
        index = db.create_index(IndexSetItem, "price")
        header = index.tree.header_rid
        raise TransactionAbort("not this one")
    assert txn.aborted
    assert db._indexes == []
    with db.transaction():
        db.deref(x).price = 11.0
        db.pnew(IndexSetItem, sku="z", price=10.0)
    assert _touched_by_others(tree_writes, txn.txid, header) == []
    with db.transaction():
        with pytest.raises(ObjectError, match="no index"):
            db.find(IndexSetItem, "price", 11.0)
    _clean(db)


def test_an_index_build_that_fails_in_its_storage_commit_is_withdrawn_first(
    db, tree_writes, monkeypatch
):
    """The creator published its list in ``flush_transaction``; its
    storage commit then fails, and the abort withdraws the list before
    its locks go — so a writer woken by that release never sees it."""
    x, _ = _items(db)
    at_release = {}
    release_all = vars(LockManager)["release_all"]

    def release(self, txid):
        at_release.setdefault(txid, list(db._indexes))
        return release_all(self, txid)

    monkeypatch.setattr(LockManager, "release_all", release)
    created = {}

    def create(session):
        created["txid"] = session.current_txn.txid
        created["header"] = session.db.create_index(IndexSetItem, "price").tree.header_rid
        db.storage.injector.add(Fault("txn.commit.begin", FaultKind.IO_ERROR))

    def update(session):
        session.deref(x).price = 33.0

    (error,) = _race(db, create, update)
    assert isinstance(error, TransientIOError)
    assert at_release[created["txid"]] == []
    assert db._indexes == []
    assert _touched_by_others(tree_writes, created["txid"], created["header"]) == []
    with db.transaction():
        assert db.deref(x).price == 33.0
        with pytest.raises(ObjectError, match="no index"):
            db.find(IndexSetItem, "price", 33.0)
    _clean(db)


def test_a_committed_index_build_is_published_before_its_locks_go(db, monkeypatch):
    _items(db)
    at_release = {}
    release_all = vars(LockManager)["release_all"]

    def release(self, txid):
        at_release.setdefault(txid, [i.catalog_key for i in db._indexes])
        return release_all(self, txid)

    monkeypatch.setattr(LockManager, "release_all", release)
    with db.transaction() as txn:
        db.create_index(IndexSetItem, "price")
    assert at_release[txn.txid] == ["index:IndexSetItem.price"]


@pytest.mark.parametrize("how", ["close", "crash"])
def test_a_reopened_database_maintains_an_index_created_before(db_path, how):
    db = Database.open(db_path, engine="disk")
    x, _ = _items(db)
    with db.transaction():
        db.create_index(IndexSetItem, "price")
    if how == "close":
        db.close()
    else:
        db.simulate_crash()
    db = Database.open(db_path, engine="disk")
    try:
        # The first transactions after the open find nothing but a write.
        with db.transaction():
            db.deref(x).price = 44.0
        with db.transaction():
            db.pnew(IndexSetItem, sku="w", price=44.0)
        assert _prices(db, 10.0, 20.0, 44.0) == [[], ["y"], ["w", "x"]]
        _clean(db)
    finally:
        db.close()


def _other(db) -> PersistentPtr:
    with db.transaction():
        return db.pnew(IndexSetOther).ptr


def test_an_object_writer_neither_reads_nor_locks_the_catalog(db):
    ptr = _other(db)
    with db.transaction() as txn:
        db.deref(ptr).n = 1
        reads = db.storage.stats.reads
        db.flush_transaction(txn)
        assert db.storage.stats.reads == reads
        assert db.storage.lock_manager.mode_held(txn.txid, db.catalog_rid) is None


def test_a_catalog_set_does_not_wait_for_an_uncommitted_object_update(
    db, monkeypatch
):
    """A writer parked inside its storage commit — after its flush, before
    its locks go — holds nothing on the catalog, so another session's
    ``catalog_set`` goes straight through."""
    ptr = _other(db)
    writer, setter = db.session("writer"), db.session("setter")
    owner = type(db.storage)
    commit_transaction = vars(owner)["commit_transaction"]
    parked, go, done = threading.Event(), threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def commit(self, txid):
        if txid == writer_txn["txid"]:
            parked.set()
            assert go.wait(TIMEOUT)
        return commit_transaction(self, txid)

    monkeypatch.setattr(owner, "commit_transaction", commit)
    writer_txn = {}

    def write():
        try:
            with writer.transaction() as txn:
                writer_txn["txid"] = txn.txid
                writer.deref(ptr).n = 7
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    def set_key():
        try:
            with setter.transaction() as txn:
                db.catalog_set(txn, "index-set:key", ptr.rid)
            done.set()
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors.append(exc)

    threads = [threading.Thread(target=write, daemon=True)]
    threads[0].start()
    try:
        assert parked.wait(TIMEOUT)
        waits = db.storage.lock_manager.stats.waits
        threads.append(threading.Thread(target=set_key, daemon=True))
        threads[1].start()
        assert done.wait(TIMEOUT)
        assert db.storage.lock_manager.stats.waits == waits
    finally:
        go.set()
        for thread in threads:
            thread.join(TIMEOUT)
    writer.close()
    setter.close()
    assert errors == []
    with db.transaction():
        assert db.catalog_get("index-set:key") == ptr.rid
        assert db.deref(ptr).n == 7


def test_pnew_still_serializes_with_an_index_build_on_the_catalog(db):
    """``pnew`` S-locks the catalog (without reading it) where it asks
    for the index set, so it waits for a creator that holds the
    catalog's X lock until commit."""
    with db.transaction() as txn:
        db.pnew(IndexSetOther)
        assert db.storage.lock_manager.mode_held(txn.txid, db.catalog_rid) is LockMode.S
