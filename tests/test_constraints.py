"""Constraints-as-triggers tests (Section 8 extension)."""

import pytest

from repro.core.constraints import activate_constraints, constraint_infos
from repro.errors import ConstraintViolationError, TriggerDeclarationError
from repro.objects.persistent import Persistent
from repro.objects.schema import field


class Account(Persistent):
    balance = field(float, default=0.0)
    limit = field(float, default=100.0)

    __events__ = ["after deposit", "after withdraw", "after set_limit"]
    __constraints__ = {
        "non_negative": lambda self: self.balance >= 0,
        "within_limit": lambda self: self.balance <= self.limit,
    }

    def deposit(self, amount):
        self.balance += amount

    def withdraw(self, amount):
        self.balance -= amount

    def set_limit(self, limit):
        self.limit = limit


class TestDeclaration:
    def test_constraints_compiled_as_triggers(self):
        infos = constraint_infos(Account)
        assert {i.name for i in infos} == {
            "__constraint_non_negative",
            "__constraint_within_limit",
        }
        assert all(i.perpetual for i in infos)

    def test_constraints_without_events_rejected(self):
        with pytest.raises(TriggerDeclarationError, match="no events"):

            class EventlessConstraint(Persistent):
                v = field(int, default=0)
                __constraints__ = {"positive": lambda self: self.v > 0}

    def test_non_callable_predicate_rejected(self):
        with pytest.raises(TriggerDeclarationError):

            class AlsoBad(Persistent):
                v = field(int, default=0)
                __events__ = ["after poke"]
                __constraints__ = {"broken": "not callable"}

                def poke(self):
                    pass


class TestEnforcement:
    def test_violation_aborts_and_raises(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Account).ptr
            db.deref(ptr).deposit(50.0)
        with pytest.raises(ConstraintViolationError, match="non_negative"):
            with db.transaction():
                db.deref(ptr).withdraw(500.0)
        with db.transaction():
            assert db.deref(ptr).balance == 50.0

    def test_all_constraints_checked(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Account).ptr
        with pytest.raises(ConstraintViolationError, match="within_limit"):
            with db.transaction():
                db.deref(ptr).deposit(150.0)

    def test_valid_updates_pass(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Account).ptr
            acct = db.deref(ptr)
            acct.deposit(80.0)
            acct.withdraw(30.0)
        with db.transaction():
            assert db.deref(ptr).balance == 50.0

    def test_auto_activated_on_pnew(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(Account)
            active = db.trigger_system.active_triggers(handle.ptr)
            assert len(active) == 2

    def test_constraint_depends_on_two_fields(self, any_engine_db):
        """Lowering the limit below the balance trips the constraint."""
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(Account).ptr
            db.deref(ptr).deposit(90.0)
        with pytest.raises(ConstraintViolationError):
            with db.transaction():
                db.deref(ptr).set_limit(50.0)
        with db.transaction():
            assert db.deref(ptr).limit == 100.0

    def test_activate_constraints_idempotent(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(Account)
            new_ids = activate_constraints(db, handle)
            assert new_ids == []  # pnew already activated them
            assert len(db.trigger_system.active_triggers(handle.ptr)) == 2

    def test_constraints_survive_reopen(self, db_path):
        from repro.objects.database import Database

        db = Database.open(db_path, engine="disk")
        with db.transaction():
            ptr = db.pnew(Account).ptr
        db.close()
        db2 = Database.open(db_path, engine="disk")
        with pytest.raises(ConstraintViolationError):
            with db2.transaction():
                db2.deref(ptr).withdraw(10.0)
        db2.close()

    def test_inherited_constraints_enforced_on_derived(self, any_engine_db):
        db = any_engine_db

        class PremiumAccount(Account):
            perks = field(list, default=[])

        with db.transaction():
            ptr = db.pnew(PremiumAccount).ptr
        with pytest.raises(ConstraintViolationError):
            with db.transaction():
                db.deref(ptr).withdraw(1.0)
