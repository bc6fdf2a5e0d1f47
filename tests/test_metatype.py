"""Metatype and type-registry tests."""

import warnings

import pytest

from repro.core.posting import user_event_int
from repro.errors import SchemaError, UnknownEventError, UnknownTypeError
from repro.objects.metatype import TypeRegistry, global_type_registry
from repro.objects.persistent import Persistent
from repro.objects.schema import field


class Vehicle(Persistent):
    wheels = field(int, default=4)


class Car(Vehicle):
    doors = field(int, default=4)


class Truck(Vehicle):
    payload = field(float, default=0.0)


class TestRegistry:
    def test_find_by_name(self):
        registry = global_type_registry()
        assert registry.find("Vehicle").pyclass is Vehicle

    def test_find_unknown_raises(self):
        with pytest.raises(UnknownTypeError):
            global_type_registry().find("NoSuchClass")

    def test_register_idempotent(self):
        registry = TypeRegistry()

        class Local(Persistent):
            pass

        first = registry.register(Local)
        second = registry.register(Local)
        assert first is second

    def test_subclasses_of(self):
        registry = global_type_registry()
        subs = {m.name for m in registry.subclasses_of(Vehicle.__metatype__)}
        assert {"Vehicle", "Car", "Truck"} <= subs

    def test_require_by_class_for_non_persistent(self):
        with pytest.raises(UnknownTypeError):
            global_type_registry().require_by_class(dict)

    def test_register_shim_resolves_via_find(self):
        registry = TypeRegistry()
        shim = object()
        registry.register_shim("Dynamic", shim)
        assert registry.find("Dynamic") is shim


    def test_a_same_named_class_from_another_module_warns(self):
        first = type("RegistryClash", (Persistent,), {"__module__": "app_one"})
        with pytest.warns(RuntimeWarning, match=r"'app_two' replaces .* 'app_one'"):
            second = type("RegistryClash", (Persistent,), {"__module__": "app_two"})
        assert global_type_registry().find("RegistryClash").pyclass is second

        registry = TypeRegistry()
        registry.register(second)
        with pytest.warns(RuntimeWarning, match="RegistryClash"):
            registry.register(first)
        assert registry.find("RegistryClash").pyclass is first

    def test_re_registering_or_redefining_in_one_module_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")

            class Redefined(Persistent):
                pass

            global_type_registry().register(Redefined)

            class Redefined(Persistent):  # noqa: F811 - schema evolution
                n = field(int, default=0)

        assert global_type_registry().find("Redefined").pyclass is Redefined


class Signaller(Persistent):
    __events__ = ["Wave", "after ping"]

    def ping(self):
        pass


class LoudSignaller(Signaller):
    __events__ = ["Shout"]


class TestUserEvents:
    def test_own_and_inherited_user_events_resolve(self):
        wave = user_event_int(Signaller.__metatype__, "Wave")
        assert user_event_int(LoudSignaller.__metatype__, "Wave") == wave
        assert user_event_int(LoudSignaller.__metatype__, "Shout") != wave
        assert LoudSignaller.__metatype__.user_events == {
            "Wave": wave,
            "Shout": LoudSignaller.__metatype__.event_ints["Shout"],
        }

    @pytest.mark.parametrize("name", ["Nope", "ping", "Shout"])
    def test_an_undeclared_user_event_raises(self, name):
        with pytest.raises(UnknownEventError, match=repr(name)):
            user_event_int(Signaller.__metatype__, name)


class TestMetatype:
    def test_base_metatypes_nearest_first(self):
        registry = global_type_registry()
        bases = Car.__metatype__.base_metatypes(registry)
        assert bases[0].name == "Vehicle"

    def test_is_subtype_of(self):
        assert Car.__metatype__.is_subtype_of(Vehicle.__metatype__)
        assert not Vehicle.__metatype__.is_subtype_of(Car.__metatype__)

    def test_trigger_info_out_of_range(self):
        with pytest.raises(SchemaError):
            Vehicle.__metatype__.trigger_info(0)

    def test_trigger_by_name_missing(self):
        with pytest.raises(SchemaError):
            Vehicle.__metatype__.trigger_by_name("Nope")

    def test_has_active_facilities(self):
        assert not Vehicle.__metatype__.has_active_facilities()
        from repro.workloads.credit_card import CredCard

        assert CredCard.__metatype__.has_active_facilities()

    def test_repr(self):
        assert "Vehicle" in repr(Vehicle.__metatype__)
