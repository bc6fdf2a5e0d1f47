"""Field declarations for persistent classes.

A persistent class declares its stored state with :func:`field`::

    class CredCard(Persistent):
        issued_to = field(PersistentPtr)
        cred_lim = field(float, default=0.0)
        curr_bal = field(float, default=0.0)

:class:`Field` is a *non-data* descriptor: values live in the instance
``__dict__``, which Python consults before a non-data descriptor, so
reading a set field is one dict hit — what a mask pays for ``self.n``.
The descriptor runs only for an unset field.  Writes are type-checked by
:meth:`Field.assign`, which :meth:`Persistent.__setattr__
<repro.objects.persistent.Persistent.__setattr__>` calls for declared
fields, so schema violations surface at the write site rather than at
serialization time.

Note the paper's design goal 5 is structural here: triggers and events are
*not* fields, so adding or removing them never changes the stored layout.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SchemaError
from repro.objects.oid import PersistentPtr

_SENTINEL = object()

#: Python types accepted as field types, mapped to a serializer tag name.
ALLOWED_TYPES: dict[type, str] = {
    int: "int",
    float: "float",
    bool: "bool",
    str: "str",
    bytes: "bytes",
    PersistentPtr: "ptr",
    list: "list",
    dict: "dict",
    object: "any",
}


class Field:
    """A typed, defaultable field collected into the class schema.

    Only ``__get__`` is defined, so a set value in the instance ``__dict__``
    wins the attribute lookup and the descriptor is reached only for an
    unset field (or class access, which returns the :class:`Field`).
    """

    __slots__ = ("ftype", "default", "name", "nullable")

    def __init__(self, ftype: type, default: Any = _SENTINEL, nullable: bool = True):
        if ftype not in ALLOWED_TYPES:
            allowed = ", ".join(t.__name__ for t in ALLOWED_TYPES)
            raise SchemaError(f"unsupported field type {ftype!r}; allowed: {allowed}")
        self.ftype = ftype
        self.default = default
        self.nullable = nullable
        self.name: str | None = None  # set by __set_name__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def has_default(self) -> bool:
        return self.default is not _SENTINEL

    def default_value(self) -> Any:
        if not self.has_default():
            raise SchemaError(f"field {self.name!r} has no default")
        value = self.default
        # Fresh containers per instance, like dataclass default_factory.
        if isinstance(value, (list, dict)):
            return type(value)(value)
        return value

    def check(self, value: Any) -> None:
        """Validate *value* against the declared type."""
        if type(value) is self.ftype:  # an exact match always passes
            return
        if value is None:
            if not self.nullable:
                raise SchemaError(f"field {self.name!r} is not nullable")
            return
        if self.ftype is object:
            return
        if self.ftype is float and isinstance(value, int) and not isinstance(value, bool):
            return  # ints are acceptable floats, as in most schemas
        if self.ftype is int and isinstance(value, bool):
            raise SchemaError(f"field {self.name!r}: bool is not an int")
        if not isinstance(value, self.ftype):
            raise SchemaError(
                f"field {self.name!r} expects {self.ftype.__name__}, "
                f"got {type(value).__name__}"
            )

    def assign(self, instance, value) -> None:
        """Check *value* and store it on *instance* (an int stored in a
        float field becomes a float)."""
        ftype = self.ftype
        if type(value) is not ftype:  # an exact match always passes check()
            self.check(value)
            if ftype is float and isinstance(value, int):
                value = float(value)  # check() has already refused a bool
        instance.__dict__[self.name] = value

    # -- descriptor protocol ---------------------------------------------------

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        # A set field is found in the instance dict before this runs.
        raise AttributeError(
            f"field {self.name!r} of {owner.__name__ if owner else '?'} is not set"
        )

    def __repr__(self) -> str:
        return f"field({self.ftype.__name__}, name={self.name!r})"


def field(ftype: type, default: Any = _SENTINEL, nullable: bool = True) -> Field:
    """Declare a stored field of a persistent class.

    ``ftype`` is a Python type from :data:`ALLOWED_TYPES` (use ``object``
    for schemaless values); ``default`` is applied by the base constructor
    when the field is not passed explicitly.
    """
    return Field(ftype, default, nullable)


def collect_fields(cls: type) -> dict[str, Field]:
    """Gather the full schema of *cls*, base classes first (C++ layout order)."""
    fields: dict[str, Field] = {}
    for klass in reversed(cls.__mro__):
        for name, value in vars(klass).items():
            if isinstance(value, Field):
                fields[name] = value
    return fields
