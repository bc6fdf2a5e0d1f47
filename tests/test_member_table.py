"""The member table: every name a handle answers with a call, built once.

``Metatype.install`` maps each member of a class to one callable
``(db, ptr, obj, *args)`` when the class is registered (the generated
``<method>WithPost`` wrappers of paper Section 5.3), and a handle binds
that callable to itself on access.  A member is every callable class
attribute that is neither a type nor a declared field, less the names
every object answers (the handle answers those itself).  Its entry is the
event wrapper, else the trigger activator, else an event-less wrapper that
marks the object dirty.  A class's triggers, own and inherited, have
distinct names: a second one would be unreachable, so it is refused.
"""

from __future__ import annotations

import functools
import os
import sys

import pytest

from repro.core.declarations import trigger
from repro.errors import TriggerDeclarationError
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.storage.locks import LockMode


class MemberPassive(Persistent):
    """No events, no triggers: a passive class still gets a table."""

    n = field(int, default=0)

    def bump(self):
        self.n += 1

    def _helper(self):
        self.n += 10

    @classmethod
    def make_label(cls, text):
        return f"{cls.__name__}:{text}"

    @staticmethod
    def twice(value):
        return 2 * value

    @property
    def doubled(self):
        return 2 * self.n

    class Nested:
        pass


class MemberActive(Persistent):
    n = field(int, default=0)
    __events__ = ["after touch"]
    __triggers__ = [trigger("Watch", "after touch", action=lambda s, c: None)]

    def touch(self):
        self.n += 1

    def bump(self):
        self.n += 1


class MemberClash(Persistent):
    """Triggers named like a method with an event and like one without."""

    __events__ = ["after ping"]
    __triggers__ = [
        trigger("ping", "after ping", action=lambda s, c: None),
        trigger("pong", "after ping", action=lambda s, c: None),
    ]

    def ping(self):
        pass

    def pong(self):
        pass


def _entry(handle, name):
    """The member-table callable a handle's attribute is bound to."""
    bound = getattr(handle, name)
    assert isinstance(bound, functools.partial)
    assert bound.func == handle._scoped
    return bound.args[0]


class TestMembership:
    def test_a_passive_class_has_a_table(self):
        members = MemberPassive.__metatype__.members
        for name in ("bump", "_helper", "make_label", "twice", "to_fields", "from_fields"):
            assert name in members, name

    def test_fields_properties_and_types_are_not_members(self):
        metatype = MemberPassive.__metatype__
        for name in ("n", "doubled", "Nested", "__metatype__"):
            assert name not in metatype.members, name
        assert metatype.plain_fields == frozenset({"n"})

    def test_names_every_object_answers_need_no_entry(self):
        members = MemberPassive.__metatype__.members
        for name in ("__init__", "__repr__", "__setattr__", "__init_subclass__"):
            assert name not in members, name

    def test_entries_by_kind(self):
        members = MemberActive.__metatype__.members
        assert members["touch"].__name__ == "touchWithPost"
        assert members["bump"].__name__ == "bumpWithPost"
        assert members["Watch"].__name__ == "activate"
        assert MemberActive.__metatype__.plain_fields == frozenset({"n"})

    def test_precedence_is_event_wrapper_then_trigger_then_method(self):
        members = MemberClash.__metatype__.members
        assert members["ping"].__name__ == "pingWithPost"
        assert members["pong"].__name__ == "activate"

    @pytest.mark.parametrize(
        "cls, name",
        [
            (MemberPassive, "bump"),
            (MemberPassive, "make_label"),
            (MemberPassive, "_helper"),
            (MemberActive, "Watch"),
            (MemberActive, "touch"),
        ],
    )
    def test_each_access_binds_the_one_prebuilt_callable(self, any_engine_db, cls, name):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(cls)
            first = _entry(handle, name)
            assert first is _entry(handle, name)
            assert first is cls.__metatype__.members[name]


class TestCalls:
    def test_an_event_less_call_marks_dirty_and_x_locks(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(MemberPassive).ptr
        with db.transaction():
            handle = db.deref(ptr)
            handle.bump()
            handle._helper()
            txn = db.txn_manager.current()
            assert ptr.rid in txn.dirty
            assert db.storage.lock_manager.mode_held(txn.txid, ptr.rid) is LockMode.X
        with db.transaction():
            assert db.deref(ptr).n == 11

    def test_classmethods_and_staticmethods_answer_through_the_handle(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(MemberPassive)
            assert handle.make_label("x") == "MemberPassive:x"
            assert handle.twice(4) == 8
            assert handle.doubled == 0

    def test_a_trigger_entry_activates(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(MemberActive)
            tid = handle.Watch()
            assert tid.rid == handle.obj.__dict__["_p_group"]

    def test_an_instance_dict_callable_comes_back_raw(self, any_engine_db):
        db = any_engine_db

        def callback():
            return "raw"

        with db.transaction():
            ptr = db.pnew(MemberPassive).ptr
        with db.transaction():
            handle = db.deref(ptr)
            handle.obj.callback = callback
            assert handle.callback is callback
            assert handle.callback() == "raw"
            assert ptr.rid not in db.txn_manager.current().dirty


def _repro_calls(fn):
    """The ``repro`` Python frames *fn* runs (comprehensions and lambdas
    skipped), counted with ``sys.setprofile``."""
    package = os.sep + "repro" + os.sep
    calls = []

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "call" and package in code.co_filename and code.co_name[0] != "<":
            calls.append(code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestCallCounts:
    """Nothing is built per call: an event-less member call is the handle's
    lookup, its session check, the wrapper, the method and ``mark_dirty``."""

    def test_an_event_less_call_and_a_field_write(self, mm_db):
        db = mm_db
        with db.transaction():
            ptr = db.pnew(MemberPassive).ptr
        with db.transaction():
            handle = db.deref(ptr)
            handle.bump()  # the first X lock is taken here
            bump = _repro_calls(lambda: handle.bump())
            write = _repro_calls(lambda: setattr(handle, "n", 5))
        assert bump[:4] == ["__getattr__", "_scoped", "is_ambient", "wrapper"]
        assert len(bump) <= 14, bump
        assert write[:4] == ["__setattr__", "_scoped", "is_ambient", "_write_field"]
        assert len(write) <= 13, write


def _define_redefined(version):
    class MemberRedefined(Persistent):
        n = field(int, default=0)

        def bump(self):
            self.n += 1 if version == "v1" else 100

    return MemberRedefined


class TestRedefinition:
    def test_a_redefined_class_gets_its_own_table(self, any_engine_db):
        db = any_engine_db
        v1 = _define_redefined("v1")
        with db.transaction():
            ptr = db.pnew(v1).ptr
        v2 = _define_redefined("v2")
        assert v2.__metatype__ is not v1.__metatype__
        assert v2.__metatype__.members["bump"] is not v1.__metatype__.members["bump"]
        with db.transaction():
            handle = db.deref(ptr)
            assert type(handle.obj) is v2
            assert _entry(handle, "bump") is v2.__metatype__.members["bump"]
            handle.bump()
        with db.transaction():
            assert db.deref(ptr).n == 100


def _never_fire(self, ctx):
    raise AssertionError("declared only to be refused")


class ShadowBase(Persistent):
    n = field(int, default=0)
    __events__ = ["after bump"]
    __triggers__ = [trigger("T", "after bump", action=_never_fire)]

    def bump(self):
        self.n += 1


class ShadowMiddle(ShadowBase):
    """Inherits ``T`` without declaring one: its subclasses inherit it once."""


class ShadowOther(Persistent):
    __events__ = ["after go"]
    __triggers__ = [trigger("T", "after go", action=_never_fire)]

    def go(self):
        pass


class TestTriggerNames:
    def test_a_derived_trigger_named_like_an_inherited_one_is_refused(self):
        with pytest.raises(
            TriggerDeclarationError,
            match="ShadowDerived: trigger 'T' of ShadowDerived is named like ShadowBase's",
        ):

            class ShadowDerived(ShadowBase):
                __triggers__ = [trigger("T", "after bump", action=_never_fire)]

    def test_a_deeper_subclass_is_refused_too(self):
        with pytest.raises(TriggerDeclarationError, match="of ShadowDeeper is named like ShadowBase's"):

            class ShadowDeeper(ShadowMiddle):
                __triggers__ = [trigger("T", "after bump", action=_never_fire)]

    def test_a_trigger_declared_twice_is_refused(self):
        with pytest.raises(TriggerDeclarationError, match="of ShadowTwice is named like ShadowTwice's"):

            class ShadowTwice(Persistent):
                __events__ = ["after go"]
                __triggers__ = [
                    trigger("T", "after go", action=_never_fire),
                    trigger("T", "after go", action=_never_fire),
                ]

                def go(self):
                    pass

    def test_two_bases_with_same_named_triggers_are_refused(self):
        with pytest.raises(
            TriggerDeclarationError,
            match="ShadowJoin: trigger 'T' of ShadowBase is named like ShadowOther's",
        ):

            class ShadowJoin(ShadowMiddle, ShadowOther):
                pass

    def test_a_diamond_inherits_its_shared_trigger_once(self):
        class ShadowLeft(ShadowBase):
            pass

        class ShadowDiamond(ShadowLeft, ShadowMiddle):
            pass

        infos = ShadowDiamond.__metatype__.all_trigger_infos
        assert infos == ShadowBase.__metatype__.trigger_infos
