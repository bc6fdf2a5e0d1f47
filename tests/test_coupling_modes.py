"""Coupling-mode tests: immediate, end (deferred), dependent, !dependent."""

import pytest

from repro.core.declarations import trigger
from repro.errors import TransactionAbort
from repro.objects.persistent import Persistent
from repro.objects.schema import field

AUDIT: list[str] = []


def audit(tag):
    def action(self, ctx):
        AUDIT.append(tag)

    return action


class Audited(Persistent):
    v = field(int, default=0)
    notes = field(list, default=[])

    __events__ = ["Go"]
    __triggers__ = [
        trigger("Immediate", "Go", action=audit("immediate"), perpetual=True),
        trigger("Deferred", "Go", action=audit("end"), coupling="end", perpetual=True),
        trigger(
            "Dependent", "Go", action=audit("dependent"),
            coupling="dependent", perpetual=True,
        ),
        trigger(
            "Independent", "Go", action=audit("independent"),
            coupling="!dependent", perpetual=True,
        ),
    ]


@pytest.fixture(autouse=True)
def _clear_audit():
    AUDIT.clear()
    yield
    AUDIT.clear()


def make_target(db, *activations):
    with db.transaction():
        obj = db.pnew(Audited)
        for name in activations:
            getattr(obj, name)()
        return obj.ptr


class TestImmediate:
    def test_fires_during_posting(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Immediate")
        with db.transaction():
            db.deref(ptr).post_event("Go")
            assert AUDIT == ["immediate"]  # fired before commit


class TestEnd:
    def test_fires_at_commit_not_at_posting(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Deferred")
        with db.transaction():
            db.deref(ptr).post_event("Go")
            assert AUDIT == []  # queued, not yet run
        assert AUDIT == ["end"]

    def test_not_run_if_transaction_aborts(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Deferred")
        with db.transaction():
            db.deref(ptr).post_event("Go")
            raise TransactionAbort()
        assert AUDIT == []

    def test_end_action_can_tabort_commit(self, any_engine_db):
        db = any_engine_db

        class Veto(Persistent):
            v = field(int, default=0)
            __events__ = ["Go"]
            __triggers__ = [
                trigger(
                    "VetoAtCommit", "Go",
                    action=lambda self, ctx: ctx.tabort("vetoed"),
                    coupling="end", perpetual=True,
                )
            ]

        with db.transaction():
            ptr = db.pnew(Veto).ptr
            db.deref(ptr).VetoAtCommit()
        with db.transaction():
            handle = db.deref(ptr)
            handle.v = 99
            handle.post_event("Go")
        # The deferred action aborted the commit: v never changed.
        with db.transaction():
            assert db.deref(ptr).v == 0

    def test_end_actions_fired_by_other_end_actions_drain(self, any_engine_db):
        """2 000 end actions queued in one transaction run in queue order,
        and the end actions *they* queue while the list drains run after
        all of them, in order, before the commit."""
        db = any_engine_db
        queued = 2000
        ran: list[tuple[str, int]] = []

        def first(self, ctx):
            ran.append(("A", len(ran)))
            self.post_event("Second")  # queues B while the end list drains

        class Chained(Persistent):
            __events__ = ["First", "Second"]
            __triggers__ = [
                trigger("A", "First", action=first, coupling="end", perpetual=True),
                trigger(
                    "B", "Second",
                    action=lambda self, ctx: ran.append(("B", len(ran))),
                    coupling="end", perpetual=True,
                ),
            ]

        with db.transaction():
            obj = db.pnew(Chained)
            ptr = obj.ptr
            obj.A()
            obj.B()
        with db.transaction() as txn:
            handle = db.deref(ptr)
            for _ in range(queued):
                handle.post_event("First")
            assert ran == []  # queued, not yet run
        assert ran == [("A", i) for i in range(queued)] + [
            ("B", queued + i) for i in range(queued)
        ]
        assert txn.attachments["trigger:end_list"] == []  # drained, then cleared


class TestDependent:
    def test_runs_after_commit(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Dependent")
        with db.transaction():
            db.deref(ptr).post_event("Go")
            assert AUDIT == []
        assert AUDIT == ["dependent"]

    def test_discarded_on_abort(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Dependent")
        with db.transaction():
            db.deref(ptr).post_event("Go")
            raise TransactionAbort()
        assert AUDIT == []

    def test_runs_in_separate_system_transaction(self, any_engine_db):
        db = any_engine_db

        class Recorder(Persistent):
            log = field(list, default=[])
            __events__ = ["Go"]
            __triggers__ = [
                trigger(
                    "Dep", "Go",
                    action=lambda self, ctx: self.note(ctx),
                    coupling="dependent", perpetual=True,
                )
            ]

            def note(self, ctx):
                assert ctx.txn.system
                self.log = self.log + ["ran"]

        with db.transaction():
            obj = db.pnew(Recorder)
            ptr = obj.ptr
            obj.Dep()
        with db.transaction():
            db.deref(ptr).post_event("Go")
        with db.transaction():
            assert db.deref(ptr).log == ["ran"]


class TestIndependent:
    def test_runs_after_commit(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Independent")
        with db.transaction():
            db.deref(ptr).post_event("Go")
        assert AUDIT == ["independent"]

    def test_runs_even_after_abort(self, any_engine_db):
        """The defining property: !dependent survives the detector's abort."""
        db = any_engine_db
        ptr = make_target(db, "Independent")
        with db.transaction():
            db.deref(ptr).post_event("Go")
            raise TransactionAbort()
        assert AUDIT == ["independent"]

    def test_independent_changes_survive_detector_abort(self, any_engine_db):
        db = any_engine_db

        class SideEffect(Persistent):
            spawned = field(int, default=0)
            __events__ = ["Go"]
            __triggers__ = [
                trigger(
                    "Indep", "Go",
                    action=lambda self, ctx: self.spawn(),
                    coupling="!dependent", perpetual=True,
                )
            ]

            def spawn(self):
                self.spawned += 1

        with db.transaction():
            obj = db.pnew(SideEffect)
            ptr = obj.ptr
            obj.Indep()
        with db.transaction():
            db.deref(ptr).post_event("Go")
            raise TransactionAbort()
        # "they may cause a system transaction to make permanent changes to
        # the database" — the !dependent action's write is durable even
        # though the detecting transaction rolled back.
        with db.transaction():
            assert db.deref(ptr).spawned == 1


class TestAllTogether:
    def test_ordering_immediate_end_dependent_independent(self, any_engine_db):
        db = any_engine_db
        ptr = make_target(db, "Immediate", "Deferred", "Dependent", "Independent")
        with db.transaction():
            db.deref(ptr).post_event("Go")
        assert AUDIT == ["immediate", "end", "dependent", "independent"]


class TestHookOrder:
    def test_the_trigger_systems_hooks_run_before_the_transactions_own(
        self, any_engine_db
    ):
        """End actions drain before the transaction's own before-commit
        hooks, and dependent actions run after its after-commit hooks (in
        their own system transaction)."""
        db = any_engine_db
        ptr = make_target(db, "Deferred", "Dependent")
        txn = db.txn_manager.begin()
        txn.before_commit.append(lambda t: AUDIT.append("own before"))
        txn.after_commit.append(lambda t: AUDIT.append("own after"))
        db.deref(ptr).post_event("Go")
        db.txn_manager.commit(txn)
        assert AUDIT == ["end", "own before", "own after", "dependent"]
