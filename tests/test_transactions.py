"""Transaction-manager tests: lifecycle, tabort, hooks, dependencies, system txns."""

import sys
import threading

import pytest

from repro.errors import (
    CommitDependencyError,
    NestedTransactionError,
    NoActiveTransactionError,
    TransactionAbort,
    TransactionError,
)
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.transactions.dependencies import CommitDependencyGraph
from repro.transactions.manager import OUTCOME_WINDOW
from repro.transactions.txn import TxnState


class Note(Persistent):
    text = field(str, default="")


class TestLifecycle:
    def test_commit_makes_state_committed(self, any_engine_db):
        db = any_engine_db
        txn = db.txn_manager.begin()
        assert txn.is_active
        db.txn_manager.commit(txn)
        assert txn.committed
        assert db.txn_manager.outcomes[txn.txid] is TxnState.COMMITTED

    def test_abort_makes_state_aborted(self, any_engine_db):
        db = any_engine_db
        txn = db.txn_manager.begin()
        db.txn_manager.abort(txn)
        assert txn.aborted

    def test_nested_begin_raises(self, any_engine_db):
        db = any_engine_db
        db.txn_manager.begin()
        with pytest.raises(NestedTransactionError):
            db.txn_manager.begin()

    def test_current_outside_raises(self, any_engine_db):
        with pytest.raises(NoActiveTransactionError):
            any_engine_db.txn_manager.current()

    def test_commit_foreign_txn_raises(self, any_engine_db):
        db = any_engine_db
        txn = db.txn_manager.begin()
        db.txn_manager.commit(txn)
        with pytest.raises(TransactionError):
            db.txn_manager.commit(txn)

    def test_txids_increase(self, any_engine_db):
        db = any_engine_db
        t1 = db.txn_manager.begin()
        db.txn_manager.commit(t1)
        t2 = db.txn_manager.begin()
        db.txn_manager.commit(t2)
        assert t2.txid > t1.txid


class TestContextManager:
    def test_commit_on_clean_exit(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Note, text="kept").ptr
        with db.transaction():
            assert db.deref(ptr).text == "kept"

    def test_tabort_swallowed_and_aborts(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Note, text="orig").ptr
        with db.transaction():
            db.deref(ptr).text = "changed"
            raise TransactionAbort("user tabort")
        # Execution continues after the block, as in O++.
        with db.transaction():
            assert db.deref(ptr).text == "orig"

    def test_other_exceptions_abort_and_propagate(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Note, text="orig").ptr
        with pytest.raises(ValueError):
            with db.transaction():
                db.deref(ptr).text = "changed"
                raise ValueError("boom")
        with db.transaction():
            assert db.deref(ptr).text == "orig"


class TestHooks:
    def test_hook_order_on_commit(self, any_engine_db):
        db = any_engine_db
        order = []
        txn = db.txn_manager.begin()
        txn.before_commit.append(lambda t: order.append("before"))
        txn.after_commit.append(lambda t: order.append("after"))
        db.txn_manager.commit(txn)
        assert order == ["before", "after"]

    def test_tabort_in_before_commit_turns_into_abort(self, any_engine_db):
        db = any_engine_db
        txn = db.txn_manager.begin()
        ptr = db.pnew(Note, text="doomed").ptr

        def veto(t):
            raise TransactionAbort("deferred veto")

        txn.before_commit.append(veto)
        state = db.txn_manager.commit(txn)
        assert state is TxnState.ABORTED
        with db.transaction():
            from repro.errors import DanglingPointerError

            with pytest.raises(DanglingPointerError):
                db.deref(ptr)

    def test_abort_hooks_fire(self, any_engine_db):
        db = any_engine_db
        order = []
        txn = db.txn_manager.begin()
        txn.before_abort.append(lambda t: order.append("before"))
        txn.after_abort.append(lambda t: order.append("after"))
        db.txn_manager.abort(txn)
        assert order == ["before", "after"]

    def test_implicit_abort_skips_before_abort(self, any_engine_db):
        db = any_engine_db
        order = []
        txn = db.txn_manager.begin()
        txn.before_abort.append(lambda t: order.append("before"))
        db.txn_manager.abort(txn, explicit=False)
        assert order == []

    def test_on_begin_listener_runs_per_txn(self, any_engine_db):
        db = any_engine_db
        seen = []
        db.txn_manager.on_begin(lambda t: seen.append(t.txid))
        with db.transaction():
            pass
        with db.transaction():
            pass
        assert len(seen) == 2


class TestSystemTransactions:
    def test_run_system_transaction_commits(self, any_engine_db):
        db = any_engine_db
        holder = {}

        def body(txn):
            holder["ptr"] = db.pnew(Note, text="system").ptr
            assert txn.system

        db.txn_manager.run_system_transaction(body)
        with db.transaction():
            assert db.deref(holder["ptr"]).text == "system"

    def test_system_txn_tabort_rolls_back(self, any_engine_db):
        db = any_engine_db
        holder = {}

        def body(txn):
            holder["ptr"] = db.pnew(Note).ptr
            raise TransactionAbort()

        txn = db.txn_manager.run_system_transaction(body)
        assert txn.aborted
        with db.transaction():
            from repro.errors import DanglingPointerError

            with pytest.raises(DanglingPointerError):
                db.deref(holder["ptr"])

    def test_dependency_on_committed_parent_ok(self, any_engine_db):
        db = any_engine_db
        parent = db.txn_manager.begin()
        db.txn_manager.commit(parent)
        txn = db.txn_manager.run_system_transaction(
            lambda t: None, depends_on=parent.txid
        )
        assert txn.committed

    def test_dependency_on_aborted_parent_blocks_commit(self, any_engine_db):
        db = any_engine_db
        parent = db.txn_manager.begin()
        db.txn_manager.abort(parent)
        with pytest.raises(CommitDependencyError):
            db.txn_manager.run_system_transaction(
                lambda t: None, depends_on=parent.txid
            )
        # The dependent work was rolled back and the manager is usable.
        with db.transaction():
            pass

    def test_dependent_work_rolled_back_on_dependency_failure(self, any_engine_db):
        db = any_engine_db
        parent = db.txn_manager.begin()
        db.txn_manager.abort(parent)
        holder = {}

        def body(txn):
            holder["ptr"] = db.pnew(Note, text="should-vanish").ptr

        with pytest.raises(CommitDependencyError):
            db.txn_manager.run_system_transaction(body, depends_on=parent.txid)
        with db.transaction():
            from repro.errors import DanglingPointerError

            with pytest.raises(DanglingPointerError):
                db.deref(holder["ptr"])


class TestDependencyGraph:
    def test_self_dependency_raises(self):
        graph = CommitDependencyGraph()
        with pytest.raises(CommitDependencyError):
            graph.add(1, 1)

    def test_unknown_parent_blocks(self):
        graph = CommitDependencyGraph()
        graph.add(2, 1)
        with pytest.raises(CommitDependencyError):
            graph.check_commit_allowed(2, {})

    def test_committed_parent_allows(self):
        graph = CommitDependencyGraph()
        graph.add(2, 1)
        graph.check_commit_allowed(2, {1: TxnState.COMMITTED})

    def test_forget_clears_edges(self):
        graph = CommitDependencyGraph()
        graph.add(2, 1)
        graph.forget(2)
        assert graph.parents_of(2) == frozenset()


class TestOutcomeWindow:
    """``TransactionManager.outcomes`` is bounded: long runs hold bounded
    memory, and dependencies behave the same inside the window."""

    def test_five_thousand_transactions_keep_at_most_the_window(
        self, any_engine_db
    ):
        db = any_engine_db
        manager = db.txn_manager
        last = None
        for _ in range(5000):
            last = manager.begin()
            manager.commit(last)
        assert len(manager.outcomes) <= OUTCOME_WINDOW
        # The newest outcomes are the ones kept, in finishing order.
        assert next(reversed(manager.outcomes)) == last.txid
        assert manager.outcomes[last.txid] is TxnState.COMMITTED
        assert list(manager.outcomes) == sorted(manager.outcomes)

    def test_parent_inside_the_window_still_satisfies_its_dependent(
        self, any_engine_db
    ):
        db = any_engine_db
        manager = db.txn_manager
        parent = manager.begin()
        manager.commit(parent)
        for _ in range(OUTCOME_WINDOW - 1):
            manager.commit(manager.begin())
        assert parent.txid in manager.outcomes
        txn = manager.run_system_transaction(lambda t: None, depends_on=parent.txid)
        assert txn.committed

    def test_parent_outside_the_window_reads_as_unknown(self, any_engine_db):
        db = any_engine_db
        manager = db.txn_manager
        parent = manager.begin()
        manager.commit(parent)
        for _ in range(OUTCOME_WINDOW):
            manager.commit(manager.begin())
        assert parent.txid not in manager.outcomes
        with pytest.raises(CommitDependencyError, match="unknown"):
            manager.run_system_transaction(lambda t: None, depends_on=parent.txid)

    def test_threaded_committers_keep_the_window_bounded(self, any_engine_db):
        db = any_engine_db
        sessions = [db.session(f"w{i}") for i in range(4)]
        errors = []

        def work(session):
            try:
                for _ in range(400):
                    session.run(lambda txn: None)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(s,)) for s in sessions]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        outcomes = db.txn_manager.outcomes
        # Racing evictions may each drop one entry, never more.
        assert OUTCOME_WINDOW - len(threads) <= len(outcomes) <= OUTCOME_WINDOW
        assert all(state is TxnState.COMMITTED for state in outcomes.values())
