"""The dereference path: its error contract, its traced entry points, and
what a read-only commit does (DESIGN §17 "The read path").

A dereference that misses ``txn.cache`` passes through each layer once —
``Session.deref`` → ``Database.deref`` → the engine's ``read`` →
``LockManager.lock`` — and a read-only commit through
``TransactionManager.commit`` → ``Database.flush_transaction``.  Those are
the attributes ``perf/trace.py`` wraps by name, so a layer that folds its
checks inline must still be entered through them: the entry-point test
patches them the way the tracer does and counts the calls.
"""

from __future__ import annotations

import re

import pytest

from repro.core.manager import TriggerSystem
from repro.errors import (
    DanglingPointerError,
    DatabaseClosedError,
    DatabaseError,
    NoActiveTransactionError,
)
from repro.objects.database import Database
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions.session import Session
from repro.storage.locks import LockManager, LockMode
from repro.transactions.manager import TransactionManager
from repro.workloads.locksim import HotObject

CELLS = [("disk", "2pl"), ("disk", "mvcc"), ("mm", "2pl"), ("mm", "mvcc")]


class DerefPathItem(Persistent):
    """A plain object: no event, no trigger."""

    n = field(int, default=0)

    def bump(self):
        self.n += 1


@pytest.fixture(params=["disk", "mm"])
def db(request, db_path):
    db = Database.open(db_path, engine=request.param)
    yield db
    if not db.closed:
        db.close()


def _items(db, count):
    with db.transaction():
        return [db.pnew(DerefPathItem, n=i).ptr for i in range(count)]


def _raises(exc_type, message, fn, *args):
    """Call *fn*; it must raise exactly *exc_type* with exactly *message*."""
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        fn(*args)
    assert type(info.value) is exc_type


# ---------------------------------------------------------------------------
# The error contract
# ---------------------------------------------------------------------------


def test_a_closed_database_refuses_a_dereference(db):
    (ptr,) = _items(db, 1)
    other = db.session("other")
    db.close()
    message = f"database {db.name!r} is closed"
    _raises(DatabaseClosedError, message, db.deref, ptr)
    _raises(DatabaseClosedError, message, db.default_session().deref, ptr)
    _raises(DatabaseClosedError, message, other.deref, ptr)


def test_the_null_pointer_dangles_with_or_without_a_transaction(db):
    message = "cannot dereference the null pointer"
    _raises(DanglingPointerError, message, db.deref, NULL_PTR)
    with db.transaction():
        _raises(DanglingPointerError, message, db.deref, NULL_PTR)
        _raises(DanglingPointerError, message, db.default_session().deref, NULL_PTR)


def test_a_deleted_object_dangles(db):
    (ptr,) = _items(db, 1)
    with db.transaction():
        db.pdelete(ptr)
    with db.transaction():
        _raises(DanglingPointerError, f"{ptr!r} points to no object", db.deref, ptr)
    session = db.session("other")
    with session.transaction():
        _raises(
            DanglingPointerError, f"{ptr!r} points to no object", session.deref, ptr
        )


def test_a_dereference_outside_a_transaction_names_the_session(db):
    (ptr,) = _items(db, 1)
    hint = "use `with session.transaction():`"
    _raises(
        NoActiveTransactionError,
        f"no active transaction in session 'main'; {hint}",
        db.deref,
        ptr,
    )
    other = db.session("other")
    _raises(
        NoActiveTransactionError,
        f"no active transaction in session 'other'; {hint}",
        other.deref,
        ptr,
    )


def test_a_pointer_into_an_unknown_database(db):
    ptr = PersistentPtr("no-such-database", 1)
    message = "no open database named 'no-such-database'"
    _raises(DatabaseError, message, db.deref, ptr)  # checked before the txn
    with db.transaction():
        _raises(DatabaseError, message, db.deref, ptr)
        _raises(DatabaseError, message, db.default_session().deref, ptr)


def test_a_pointer_into_another_open_database_uses_that_database(db, tmp_path):
    (ptr,) = _items(db, 1)
    peer = Database.open(str(tmp_path / "peer"), engine=db.engine)
    try:
        with peer.transaction() as peer_txn, db.transaction() as txn:
            handle = peer.deref(ptr)
            assert handle.database is db
            assert handle.session is db.default_session()
            assert ptr.rid in txn.cache and not peer_txn.cache
    finally:
        peer.close()


def test_a_non_ambient_sessions_dereference_lands_in_its_transaction(db):
    first, second = _items(db, 2)
    other = db.session("other")
    with db.transaction() as main_txn:
        other_txn = other.begin()
        handle = other.deref(first)  # "other" is not the ambient session
        assert handle.session is other
        assert first.rid in other_txn.cache and first.rid not in main_txn.cache
        assert main_txn.txid not in _holders(db, first.rid)
        # A member call through that handle runs in "other" too.
        handle.bump()
        assert _holders(db, first.rid) == {other_txn.txid: LockMode.X}
        assert first.rid in other_txn.dirty and not main_txn.dirty
        # The ambient session's own dereference stays in its transaction.
        db.deref(second)
        assert second.rid in main_txn.cache and second.rid not in other_txn.cache
        other.commit()
    with db.transaction():
        assert db.deref(first).n == 1


def _holders(db, rid) -> dict:
    return dict(db.storage.lock_manager._holders.get(rid, {}))


# ---------------------------------------------------------------------------
# A closed session refuses like its transaction() does
# ---------------------------------------------------------------------------


def test_a_closed_session_refuses_every_data_operation(db):
    (ptr,) = _items(db, 1)
    session = db.session("a")
    session.close()
    message = "session 'a' is closed"
    _raises(DatabaseClosedError, message, session.transaction().__enter__)
    _raises(DatabaseClosedError, message, session.deref, ptr)
    _raises(DatabaseClosedError, message, session.post_many, [(ptr, "Ping")])
    _raises(DatabaseClosedError, message, session.pnew, DerefPathItem)
    _raises(DatabaseClosedError, message, session.pdelete, ptr)
    _raises(DatabaseClosedError, message, session.find, DerefPathItem, "n", 0)
    _raises(DatabaseClosedError, message, next, session.objects(DerefPathItem))
    # The refusals changed nothing.
    with db.transaction():
        assert db.deref(ptr).n == 0
        assert len(list(db.objects(DerefPathItem))) == 1


def test_a_session_closed_inside_its_own_block_reports_no_transaction(db):
    """Closing a session aborts its transaction; inside the block it is
    still the ambient session, whose dereference finds no transaction."""
    (ptr,) = _items(db, 1)
    session = db.session("a")
    with pytest.raises(NoActiveTransactionError):
        with session.transaction():
            session.close()
            session.deref(ptr)


# ---------------------------------------------------------------------------
# The traced entry points
# ---------------------------------------------------------------------------


def _count(monkeypatch, counts, owner, attr):
    """Replace ``owner.attr`` with a counting wrapper, as perf/trace.py
    does: by ``setattr`` on the class that defines it."""
    original = vars(owner)[attr]
    key = f"{owner.__name__}.{attr}"
    counts[key] = 0

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_a_read_only_transaction_enters_each_traced_layer_once_per_call(
    db, monkeypatch
):
    """Four dereferences that miss ``txn.cache`` and one commit: each
    dereference enters ``Session.deref``, ``Database.deref``, the engine's
    ``read`` and ``LockManager.lock`` once; the commit enters
    ``TransactionManager.commit`` and ``Database.flush_transaction`` once."""
    ptrs = _items(db, 4)
    session = db.default_session()
    counts: dict[str, int] = {}
    for owner, attr in [
        (Session, "deref"),
        (Database, "deref"),
        (type(db.storage), "read"),
        (LockManager, "lock"),
        (Database, "flush_transaction"),
        (TransactionManager, "commit"),
    ]:
        _count(monkeypatch, counts, owner, attr)

    def body(_txn):
        return sum(session.deref(ptr).n for ptr in ptrs)

    assert session.run(body) == 0 + 1 + 2 + 3
    assert counts == {
        "Session.deref": 4,
        "Database.deref": 4,
        f"{type(db.storage).__name__}.read": 4,
        "LockManager.lock": 4,
        "Database.flush_transaction": 1,
        "TransactionManager.commit": 1,
    }


# ---------------------------------------------------------------------------
# A read-only commit writes nothing — unless a posting moved a group
# ---------------------------------------------------------------------------


@pytest.fixture(params=CELLS, ids=["-".join(cell) for cell in CELLS])
def cell_db(request, db_path):
    engine, cc = request.param
    db = Database.open(db_path, engine=engine, trigger_cc=cc)
    yield db
    if not db.closed:
        db.close()


def _group_bytes(db, ptr) -> bytes:
    with db.transaction() as txn:
        group = db.deref(ptr).obj.__dict__["_p_group"]
        return db.storage.read(txn.txid, group)


def _spy_write_back(monkeypatch) -> list:
    calls = []
    original = vars(TriggerSystem)["write_back"]

    def write_back(self, txn):
        calls.append(txn.txid)
        return original(self, txn)

    monkeypatch.setattr(TriggerSystem, "write_back", write_back)
    return calls


def test_a_posting_only_commit_still_writes_its_group(cell_db, monkeypatch):
    """A lone ``Ping`` dirties no object but moves the group: its commit
    must write (2PL) or merge (MVCC) the group all the same."""
    db = cell_db
    with db.transaction():
        handle = db.pnew(HotObject)
        handle.Watch()
        ptr = handle.ptr
    before = _group_bytes(db, ptr)
    calls = _spy_write_back(monkeypatch)
    dirty_at_commit = []
    with db.transaction() as txn:
        db.deref(ptr).post_event("Ping")
        txn.before_commit.append(lambda t: dirty_at_commit.append(set(t.dirty)))
    assert dirty_at_commit == [set()]
    assert calls == [txn.txid]
    after = _group_bytes(db, ptr)
    assert after != before
    path = db.path
    db.close()
    db = Database.open(path, engine=db.engine, trigger_cc=db.trigger_cc)
    assert _group_bytes(db, ptr) == after
    db.close()


def test_a_read_only_commit_asks_the_trigger_system_nothing(cell_db, monkeypatch):
    db = cell_db
    (ptr,) = _items(db, 1)
    calls = _spy_write_back(monkeypatch)
    with db.transaction():
        assert db.deref(ptr).n == 0
    assert calls == []
