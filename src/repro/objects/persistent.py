"""The ``Persistent`` base class.

Subclassing :class:`Persistent` makes a class *persistence-capable*: its
:func:`~repro.objects.schema.field` declarations form the stored schema and
a :class:`~repro.objects.metatype.Metatype` is registered for it.  Plain
instances remain ordinary volatile Python objects; only objects created
with :meth:`~repro.objects.database.Database.pnew` (or loaded with
``deref``) live in a database.

This mirrors O++: a class is one definition, and persistence is a property
of the *allocation* (``new`` vs ``pnew``), not of the type.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SchemaError
from repro.objects.metatype import Metatype, global_type_registry
from repro.objects.schema import Field


class Persistent:
    """Base class for persistence-capable objects."""

    __metatype__: Metatype

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.__metatype__ = global_type_registry().register(cls)
        # Let the active-class declaration processor (if the class uses it)
        # compile events, triggers, and wrappers.  Imported lazily to keep
        # the object layer independent of the trigger system.
        active_here = (
            cls.__dict__.get("__events__")
            or cls.__dict__.get("__triggers__")
            or cls.__dict__.get("__constraints__")
        )
        inherited_active = any(
            base is not Persistent
            and getattr(base, "__metatype__", None) is not None
            and base.__metatype__.has_active_facilities()
            for base in cls.__mro__[1:]
            if isinstance(base, type)
        )
        if active_here or inherited_active:
            from repro.core.declarations import process_active_class

            process_active_class(cls)

    def __init__(self, **kwargs: Any) -> None:
        metatype = type(self).__metatype__
        for name, fld in metatype.fields.items():
            if name in kwargs:
                fld.assign(self, kwargs.pop(name))
            elif fld.has_default():
                fld.assign(self, fld.default_value())
        if kwargs:
            unknown = ", ".join(sorted(kwargs))
            raise SchemaError(f"{type(self).__name__} has no field(s): {unknown}")

    # -- field protocol ---------------------------------------------------------
    # Fields are non-data descriptors (reads are instance-dict hits), so the
    # write check lives here: a declared field goes through Field.assign,
    # any other name is an ordinary attribute.

    def __setattr__(self, name: str, value: Any) -> None:
        fld = type(self).__metatype__.fields.get(name)
        if fld is None:
            object.__setattr__(self, name, value)
        else:
            fld.assign(self, value)

    def __delattr__(self, name: str) -> None:
        if name in type(self).__metatype__.fields:
            raise AttributeError(
                f"field {name!r} of {type(self).__name__} cannot be deleted"
            )
        object.__delattr__(self, name)

    # -- serialization support --------------------------------------------------

    def to_fields(self) -> dict[str, Any]:
        """The currently-set declared fields, in schema order."""
        metatype = type(self).__metatype__
        values: dict[str, Any] = {}
        for name in metatype.fields:
            if name in self.__dict__:
                values[name] = self.__dict__[name]
        return values

    @classmethod
    def from_fields(cls, values: dict[str, Any]) -> "Persistent":
        """Rebuild an instance from stored field values (bypasses __init__)."""
        instance = cls.__new__(cls)
        metatype = cls.__metatype__
        for name, value in values.items():
            fld = metatype.fields.get(name)
            if fld is None:
                continue  # field dropped since this object was stored
            if type(value) is not fld.ftype:  # an exact match always passes
                fld.check(value)
            instance.__dict__[name] = value
        return instance

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.to_fields().items())
        return f"{type(self).__name__}({fields})"


def fields_of(cls: type) -> dict[str, Field]:
    """Public accessor for a persistent class's schema."""
    if not issubclass(cls, Persistent):
        raise SchemaError(f"{cls.__name__} is not a Persistent subclass")
    return dict(cls.__metatype__.fields)
