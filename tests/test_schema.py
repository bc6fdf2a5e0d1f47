"""Field-declaration and Persistent-base tests."""

import functools

import pytest

from repro.core.declarations import trigger
from repro.core.monitored import LocalTriggerSystem
from repro.errors import SchemaError
from repro.objects.metatype import global_type_registry
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.persistent import Persistent, fields_of
from repro.objects.schema import Field, collect_fields, field
from repro.objects.serialize import FLAG_HAS_TRIGGERS


class Point(Persistent):
    x = field(float, default=0.0)
    y = field(float, default=0.0)
    label = field(str, default="origin")


class Labeled(Persistent):
    name = field(str)
    ref = field(PersistentPtr, default=NULL_PTR)
    tags = field(list, default=[])
    meta = field(dict, default={})


class Derived(Point):
    z = field(float, default=0.0)


class TestFieldDescriptor:
    def test_defaults_applied(self):
        p = Point()
        assert (p.x, p.y, p.label) == (0.0, 0.0, "origin")

    def test_kwargs_override_defaults(self):
        p = Point(x=1.5, label="moved")
        assert p.x == 1.5
        assert p.label == "moved"

    def test_unknown_kwarg_raises(self):
        with pytest.raises(SchemaError, match="no field"):
            Point(w=3)

    def test_type_check_on_assignment(self):
        p = Point()
        with pytest.raises(SchemaError, match="'label' expects str"):
            p.label = 42
        assert p.label == "origin"
        with pytest.raises(SchemaError):
            Point(label=42)

    def test_int_accepted_for_float_and_coerced(self):
        p = Point(x=2)
        assert p.x == 2.0
        assert isinstance(p.x, float)
        p.y = 3
        assert type(p.y) is float
        with pytest.raises(SchemaError):
            p.y = True  # a bool is not a number here, although it is an int
        assert p.y == 3.0

    def test_bool_rejected_for_int_field(self):
        class Counted(Persistent):
            n = field(int, default=0)

        c = Counted()
        with pytest.raises(SchemaError, match="bool is not an int"):
            c.n = True
        with pytest.raises(SchemaError):
            Counted(n=False)
        c.n = 4
        assert type(c.n) is int

    def test_none_allowed_when_nullable(self):
        class Maybe(Persistent):
            v = field(str, default=None)

        assert Maybe().v is None

    def test_not_nullable_rejects_none(self):
        class Req(Persistent):
            v = field(str, default="x", nullable=False)

        r = Req()
        with pytest.raises(SchemaError):
            r.v = None

    def test_unset_field_raises_attribute_error(self):
        item = Labeled.__new__(Labeled)
        with pytest.raises(AttributeError, match="field 'name' of Labeled is not set"):
            _ = item.name
        assert not hasattr(item, "name")

    def test_container_defaults_not_shared(self):
        a = Labeled(name="a")
        b = Labeled(name="b")
        a.tags.append("x")
        assert b.tags == []

    def test_unsupported_field_type_raises(self):
        with pytest.raises(SchemaError):
            field(set)


class TestSchemaCollection:
    def test_collect_fields_includes_bases_first(self):
        names = list(collect_fields(Derived))
        assert names.index("x") < names.index("z")
        assert set(names) == {"x", "y", "label", "z"}

    def test_fields_of_requires_persistent(self):
        with pytest.raises(SchemaError):
            fields_of(int)

    def test_metatype_registered_on_subclass(self):
        assert global_type_registry().find("Point") is Point.__metatype__
        assert Point.__metatype__.fields.keys() == {"x", "y", "label"}


class TestRoundtripHelpers:
    def test_to_fields_only_declared(self):
        p = Point(x=1.0)
        p.__dict__["_p_ptr"] = "not-a-field"
        assert set(p.to_fields()) == {"x", "y", "label"}

    def test_from_fields_bypasses_init(self):
        calls = []

        class Tracked(Persistent):
            v = field(int, default=0)

            def __init__(self, **kw):
                calls.append(1)
                super().__init__(**kw)

        t = Tracked.from_fields({"v": 7})
        assert t.v == 7
        assert calls == []

    def test_from_fields_ignores_dropped_fields(self):
        p = Point.from_fields({"x": 1.0, "removed_field": 9})
        assert p.x == 1.0
        assert "removed_field" not in p.__dict__

    def test_from_fields_validates(self):
        with pytest.raises(SchemaError):
            Point.from_fields({"label": 123})

    def test_repr_shows_fields(self):
        assert "label='origin'" in repr(Point())


class TestFieldProtocol:
    """What a field read, write and delete observe — the same whether the
    write check runs in the descriptor or in ``Persistent.__setattr__``
    (the type-check cases are in TestFieldDescriptor)."""

    def test_set_field_reads_its_value(self):
        p = Point(x=1.5)
        assert p.x == 1.5
        p.x = 2.5
        assert p.x == 2.5

    def test_del_of_a_declared_field_raises(self):
        p = Point(x=1.0)
        with pytest.raises(AttributeError):
            del p.x
        assert p.x == 1.0
        item = Labeled.__new__(Labeled)
        with pytest.raises(AttributeError):
            del item.name

    def test_class_access_returns_the_field(self):
        assert isinstance(Point.x, Field)
        assert Point.x is Point.__metatype__.fields["x"]
        assert Derived.x is Point.x

    def test_non_field_attributes_are_plain(self):
        p = Point()
        p.note = 42
        assert p.note == 42
        assert "note" not in p.to_fields()
        del p.note
        assert not hasattr(p, "note")

    def test_inherited_fields_checked_in_subclass(self):
        d = Derived()
        with pytest.raises(SchemaError):
            d.x = "far"
        with pytest.raises(SchemaError):
            Derived(label=1)
        d.z = 1
        assert type(d.z) is float

    def test_monitored_handle_write_type_checks(self):
        point = Point()
        handle = LocalTriggerSystem().monitor(point)
        with pytest.raises(SchemaError):
            handle.label = 7
        handle.x = 2
        assert point.x == 2.0 and type(point.x) is float

    def test_persistent_handle_write_type_checks(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            handle = db.pnew(Point)
            with pytest.raises(SchemaError):
                handle.label = 7
            handle.x = 2
            ptr = handle.ptr
        with db.transaction():
            point = db.deref(ptr)
            assert point.label == "origin"
            assert point.x == 2.0 and type(point.x) is float


class NameClashWatch(Persistent):
    """A field and a trigger share the name ``Watch``; ``bump`` declares
    no event."""

    Watch = field(int, default=3)
    hits = field(int, default=0)
    unset = field(int)
    __events__ = ["Ping"]
    __triggers__ = [trigger("Watch", "Ping", action=lambda self, ctx: None)]

    def bump(self):
        self.hits += 1


class TestHandleReads:
    """A handle answers a name with the method wrapper first, then the
    trigger activation, then the attribute; a set field that shares its
    name with neither is read straight from the instance."""

    def test_a_trigger_named_like_a_field_activates(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(NameClashWatch).ptr
        with db.transaction():
            handle = db.deref(ptr)
            assert handle.obj.Watch == 3
            assert isinstance(handle.Watch, functools.partial)
            tid = handle.Watch()
            assert tid.rid == handle.obj.__dict__["_p_group"]
            assert handle.obj._p_flags & FLAG_HAS_TRIGGERS
            assert handle.hits == 0

    def test_an_unset_field_read_through_a_handle_raises(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(NameClashWatch).ptr
        with db.transaction():
            handle = db.deref(ptr)
            with pytest.raises(AttributeError, match="'unset' of NameClashWatch is not set"):
                handle.unset

    def test_an_event_less_method_still_marks_the_object_dirty(self, any_engine_db):
        db = any_engine_db
        with db.transaction():
            ptr = db.pnew(NameClashWatch).ptr
        with db.transaction():
            handle = db.deref(ptr)
            handle.bump()
            assert ptr.rid in db.txn_manager.current().dirty
        with db.transaction():
            assert db.deref(ptr).hits == 1
