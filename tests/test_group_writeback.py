"""What a 2PL commit asks storage about a trigger group (DESIGN §16).

``LockInPlaceStates.write_back`` writes a dirty group only when encoding
it could change the record: a group whose frame is intact (its
membership did not change) and whose ``statenums`` equal the ones it was
loaded with would encode to the stored bytes, so no
``StorageManager.write`` is made for it.  The X lock taken at the first
move stays.  Counted by patching the engine class's ``write`` (each
engine binds ``StorageManager.write`` as its own attribute), as
``perf/trace.py`` patches engine attributes.
"""

from __future__ import annotations

import pytest

from repro.errors import ReadOnlyStorageError
from repro.faults import Fault, FaultInjector, FaultKind
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.objects.serialize import decode_object
from repro.storage.interface import StorageManager
from repro.storage.locks import LockMode
from repro.workloads.locksim import HotObject


class WritebackGauge(Persistent):
    value = field(int, default=0)


@pytest.fixture(params=["disk", "mm"])
def db(request, db_path):
    database = Database.open(
        db_path, engine=request.param, trigger_cc="2pl", injector=FaultInjector()
    )
    yield database
    if not database.closed:
        database.close()


def _watched(db):
    """A ``HotObject`` whose ``Watch`` has taken one Ping/Pong pair, so its
    group rests where every later pair leaves it."""
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    with db.transaction():
        handle = db.deref(ptr)
        handle.post_event("Ping")
        handle.post_event("Pong")
    return ptr


def _group(db, ptr) -> tuple[int, bytes]:
    """``(rid, committed bytes)`` of *ptr*'s trigger group."""
    with db.transaction() as txn:
        rid = decode_object(db.storage.read(txn.txid, ptr.rid))[3]
        return rid, db.storage.read(txn.txid, rid)


@pytest.fixture
def writes(db, monkeypatch) -> list[int]:
    """From now on, the rid of each ``StorageManager.write`` call."""
    rids = []
    owner = type(db.storage)
    original = vars(owner)["write"]
    assert original is StorageManager.write

    def write(self, txid, rid, data):
        rids.append(rid)
        return original(self, txid, rid, data)

    monkeypatch.setattr(owner, "write", write)
    return rids


def test_a_pair_that_returns_to_its_start_is_not_written_back(db, writes):
    ptr = _watched(db)
    rid, before = _group(db, ptr)
    del writes[:]
    with db.transaction() as txn:
        handle = db.deref(ptr)
        handle.post_event("Ping")
        handle.post_event("Pong")
        # The first move still X-locks the group (§6, E6).
        assert db.storage.lock_manager.mode_held(txn.txid, rid) is LockMode.X
    assert writes == []
    assert _group(db, ptr) == (rid, before)
    assert db.trigger_system.stats.firings == 2


def test_a_machine_that_ends_elsewhere_is_written_once(db, writes):
    ptr = _watched(db)
    rid, before = _group(db, ptr)
    del writes[:]
    with db.transaction():
        handle = db.deref(ptr)
        handle.post_event("Ping")
        handle.post_event("Pong")
        handle.post_event("Ping")
    assert writes == [rid]
    assert _group(db, ptr)[1] != before


def test_an_activation_undone_in_the_same_transaction_is_written_once(db, writes):
    """Activate and deactivate a second ``Watch``: the machines' states
    are as loaded, but the membership changed (the frame was reset and
    ``next_serial`` moved), so the group is written."""
    ptr = _watched(db)
    rid, before = _group(db, ptr)
    del writes[:]
    with db.transaction():
        tid = db.deref(ptr).Watch()
        db.trigger_system.deactivate(tid)
    assert writes == [rid]
    assert _group(db, ptr)[1] != before


def test_a_created_group_that_moves_is_written(db, writes):
    """A group created in the transaction has no loaded states: a move
    after the creation is written whatever the states (the object, whose
    header now names the group, is written too)."""
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        handle.post_event("Ping")
        handle.post_event("Pong")
        ptr = handle.ptr
    rid, _ = _group(db, ptr)
    assert sorted(writes) == sorted([ptr.rid, rid])


def _degrade(db) -> None:
    """Kill the log through another session's commit."""
    side = db.session("side")
    with side.transaction():
        gauge = side.pnew(WritebackGauge).ptr
    db.storage.injector.add(Fault("wal.append", FaultKind.MEDIA_ERROR))
    with pytest.raises(ReadOnlyStorageError):
        with side.transaction():
            side.deref(gauge).value = 1
    assert db.read_only


def test_a_group_only_transaction_that_ends_where_it_began_commits_on_a_degraded_store(
    db,
):
    """The store degrades between the postings and the commit: a
    transaction whose group returned to its loaded states has nothing to
    write and commits as a read-only one would (DESIGN §13)."""
    ptr = _watched(db)
    rid, before = _group(db, ptr)
    poster = db.session("poster")
    txn = poster.begin()
    handle = poster.deref(ptr)
    handle.post_event("Ping")
    handle.post_event("Pong")
    _degrade(db)
    poster.commit()
    assert txn.committed
    assert _group(db, ptr) == (rid, before)


def test_a_group_only_transaction_that_moved_is_refused_on_a_degraded_store(db):
    ptr = _watched(db)
    rid, before = _group(db, ptr)
    poster = db.session("poster")
    txn = poster.begin()
    poster.deref(ptr).post_event("Ping")
    _degrade(db)
    with pytest.raises(ReadOnlyStorageError):
        poster.commit()
    assert txn.aborted
    assert _group(db, ptr) == (rid, before)
