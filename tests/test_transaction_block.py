"""One transaction block, four entry points, and the ambient session.

``db.transaction()``, ``session.transaction()``, ``session.run(body)`` and
``txn_manager.transaction()`` share one implementation of the O++ block
rules (:class:`repro.sessions.session.TransactionBlock`), which also makes
the block's session ambient; system transactions run through it too.
Each test here drives all four through the same outcome and checks what a
caller can observe: the transaction's final state, the value the entry
point returns, whether the exception propagated, and that the thread's
ambient-session stack is one deeper inside the block and exactly as deep
afterwards as before.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    DatabaseClosedError,
    NestedTransactionError,
    TransactionAbort,
)
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.sessions import session as session_module
from repro.sessions.session import TransactionBlock
from repro.storage.locks import LockMode
from repro.transactions.txn import TxnState


class BlockNote(Persistent):
    text = field(str, default="")
    __events__ = ["Ping"]

    def peek(self, ptr):
        """Read another object through whatever session is ambient."""
        return Database.of(ptr).deref(ptr).text


def ambient_depth() -> int:
    return len(getattr(session_module._ambient, "stack", None) or ())


# -- the four entry points ------------------------------------------------------
#
# Each runs *body(txn)* in a transaction of *session* (the database's default
# session for the two database-level forms) and returns what the caller of
# that form gets back: the body's value, or None when the block swallowed a
# tabort.


def via_database(db, session, body):
    with db.transaction() as txn:
        return body(txn)
    return None


def via_session(db, session, body):
    with session.transaction() as txn:
        return body(txn)
    return None


def via_run(db, session, body):
    return session.run(body)


def via_manager(db, session, body):
    with db.txn_manager.transaction() as txn:
        return body(txn)
    return None


FORMS = {
    "db.transaction": via_database,
    "session.transaction": via_session,
    "session.run": via_run,
    "txn_manager.transaction": via_manager,
}
#: The forms that run in a session the caller names.
SESSION_FORMS = {"session.transaction", "session.run"}
#: The forms that make their session ambient for the block: all of them.
PUSHING = set(FORMS)


@pytest.fixture(params=sorted(FORMS))
def form(request):
    return request.param


def drive(db, form, outcome):
    """Run one block of *form* ending in *outcome*; returns
    ``(txn, result, raised, depth_inside, depth_before, depth_after)``."""
    session = db.default_session()
    seen = {}

    def body(txn):
        seen["txn"] = txn
        seen["depth"] = ambient_depth()
        db.pnew(BlockNote, text=outcome)
        if outcome == "tabort":
            raise TransactionAbort("user tabort")
        if outcome == "value-error":
            raise ValueError("boom")
        if outcome == "interrupt":
            raise KeyboardInterrupt
        if outcome == "veto":

            def veto(_txn):
                raise TransactionAbort("before-commit veto")

            txn.before_commit.append(veto)
        return "body-result"

    before = ambient_depth()
    result = raised = None
    try:
        result = FORMS[form](db, session, body)
    except BaseException as exc:  # noqa: BLE001 - KeyboardInterrupt is an outcome
        raised = exc
    return seen.get("txn"), result, raised, seen.get("depth"), before, ambient_depth()


class TestOutcomes:
    def test_clean_exit_commits(self, any_engine_db, form):
        txn, result, raised, inside, before, after = drive(any_engine_db, form, "ok")
        assert txn.state is TxnState.COMMITTED
        assert result == "body-result"
        assert raised is None
        assert inside == before + (1 if form in PUSHING else 0)
        assert after == before

    def test_tabort_aborts_explicitly_and_is_swallowed(self, any_engine_db, form):
        db = any_engine_db
        explicit = []

        def listener(txn):
            txn.before_abort.append(lambda t: explicit.append(t.txid))

        db.txn_manager.on_begin(listener)
        txn, result, raised, _inside, before, after = drive(db, form, "tabort")
        assert txn.state is TxnState.ABORTED
        assert explicit == [txn.txid]  # before-abort hooks ran: explicit
        assert result is None
        assert raised is None
        assert after == before

    def test_value_error_aborts_implicitly_and_propagates(self, any_engine_db, form):
        db = any_engine_db
        explicit = []
        db.txn_manager.on_begin(
            lambda txn: txn.before_abort.append(lambda t: explicit.append(t.txid))
        )
        txn, result, raised, _inside, before, after = drive(db, form, "value-error")
        assert txn.state is TxnState.ABORTED
        assert explicit == []  # an implicit abort posts no before-abort
        assert isinstance(raised, ValueError)
        assert result is None
        assert after == before

    def test_keyboard_interrupt_aborts_and_propagates(self, any_engine_db, form):
        txn, result, raised, _inside, before, after = drive(
            any_engine_db, form, "interrupt"
        )
        assert txn.state is TxnState.ABORTED
        assert isinstance(raised, KeyboardInterrupt)
        assert result is None
        assert after == before

    def test_before_commit_veto_aborts_without_raising(self, any_engine_db, form):
        db = any_engine_db
        txn, result, raised, _inside, before, after = drive(db, form, "veto")
        assert txn.state is TxnState.ABORTED
        assert raised is None
        # The block had already produced its value when the commit turned
        # into an abort; every form hands it back unchanged.
        assert result == "body-result"
        assert after == before
        with db.transaction():
            assert [h.text for h in db.objects(BlockNote)] == []

    def test_every_outcome_leaves_the_session_free(self, any_engine_db, form):
        db = any_engine_db
        for outcome in ("ok", "tabort", "value-error", "interrupt", "veto"):
            drive(db, form, outcome)
            assert db.default_session().current_txn is None
            assert db.txn_manager.active_transactions() == []
        with db.transaction():
            texts = sorted(h.text for h in db.objects(BlockNote))
        assert texts == ["ok"]


class TestBeginFailures:
    def test_nested_begin_raises_and_leaves_the_stack(self, any_engine_db, form):
        db = any_engine_db
        outer = db.txn_manager.begin(session=db.default_session())
        before = ambient_depth()
        with pytest.raises(NestedTransactionError):
            FORMS[form](db, db.default_session(), lambda txn: "never")
        assert ambient_depth() == before
        assert outer.state is TxnState.ACTIVE
        db.txn_manager.commit(outer)

    def test_closed_database_raises_and_leaves_the_stack(self, any_engine_db, form):
        db = any_engine_db
        session = db.default_session()
        db.close()
        before = ambient_depth()
        with pytest.raises(DatabaseClosedError):
            FORMS[form](db, session, lambda txn: "never")
        assert ambient_depth() == before

    @pytest.mark.parametrize("form_name", sorted(SESSION_FORMS))
    def test_closed_session_raises_and_leaves_the_stack(self, any_engine_db, form_name):
        db = any_engine_db
        side = db.session("side")
        side.close()
        before = ambient_depth()
        with pytest.raises(DatabaseClosedError, match="session 'side' is closed"):
            FORMS[form_name](db, side, lambda txn: "never")
        assert ambient_depth() == before


class TestBlockShape:
    def test_every_form_is_a_plain_context_manager(self, any_engine_db):
        db = any_engine_db
        session = db.default_session()
        assert type(db.transaction()) is TransactionBlock
        assert type(db.txn_manager.transaction()) is TransactionBlock
        block = session.transaction()
        assert hasattr(block, "__enter__") and hasattr(block, "__exit__")
        assert not hasattr(block, "gen")  # not a generator-based manager
        ambient = session_module.ambient_session(session)
        assert not hasattr(ambient, "gen")


class TestAmbientSession:
    def test_one_push_per_transaction(self, any_engine_db, monkeypatch):
        """Inside its own block, a session's delegates and handles call
        straight through: the block's push is the only one."""
        db = any_engine_db
        session = db.default_session()
        with session.transaction():
            ptr = session.pnew(BlockNote, text="a").ptr
        pushes = []
        original = session_module.ambient_session.__enter__

        def counting_enter(self):
            pushes.append(self.session)
            return original(self)

        monkeypatch.setattr(session_module.ambient_session, "__enter__", counting_enter)

        def body(txn):
            handle = session.deref(ptr)
            handle.text = handle.text + "b"
            handle.post_event("Ping")
            session.post_many([(ptr, "Ping")])
            return handle.peek(ptr)

        assert session.run(body) == "ab"
        assert pushes == []

    def test_db_transaction_makes_the_default_session_ambient(
        self, any_engine_db, monkeypatch
    ):
        """The serial API's block is the default session's: it is ambient
        inside the block and gone after it, so a handle's member calls and
        writes inside call straight through."""
        db = any_engine_db
        assert session_module.current_ambient_session() is None
        with db.transaction():
            assert session_module.current_ambient_session() is db.default_session()
            ptr = db.pnew(BlockNote, text="a").ptr
        assert session_module.current_ambient_session() is None
        pushes = []
        original = session_module.ambient_session.__enter__

        def counting_enter(self):
            pushes.append(self.session)
            return original(self)

        monkeypatch.setattr(session_module.ambient_session, "__enter__", counting_enter)
        with db.transaction():
            handle = db.deref(ptr)
            handle.text = handle.text + "b"
            handle.post_event("Ping")
            assert handle.peek(ptr) == "ab"
        assert pushes == []
        assert session_module.current_ambient_session() is None

    def test_handle_of_session_a_runs_in_a_inside_session_b(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            target = db.pnew(BlockNote, text="orig").ptr
            other = db.pnew(BlockNote, text="other").ptr
        a = db.session("a")
        b = db.session("b")
        locks = db.storage.lock_manager
        txn_a = a.begin()
        handle = a.deref(target)
        before = ambient_depth()
        seen = {}

        def body(txn_b):
            seen["txn_b"] = txn_b
            handle.text = "written-from-b"  # a write through A's handle
            seen["peek"] = handle.peek(other)  # a read through A's handle
            return "done"

        assert b.run(body) == "done"
        txn_b = seen["txn_b"]
        assert ambient_depth() == before
        assert seen["peek"] == "other"
        # Both ran in A's transaction: A holds the locks and the cache.
        assert target.rid in txn_a.dirty
        assert locks.mode_held(txn_a.txid, target.rid) is LockMode.X
        assert locks.mode_held(txn_a.txid, other.rid) is LockMode.S
        assert other.rid in txn_a.cache
        assert txn_b.committed
        assert target.rid not in txn_b.cache and other.rid not in txn_b.cache
        assert locks.mode_held(txn_b.txid, target.rid) is None
        a.commit()
        with db.transaction():
            assert db.deref(target).text == "written-from-b"
