"""Persistent handles — the run-time form of ``persistent T *``.

The O++ compiler rewrites member-function invocations *through persistent
pointers* into calls of generated wrapper functions that post ``before``/
``after`` events (paper Section 5.3).  Python has no pointer types to
rewrite, so dereferencing returns a :class:`PersistentHandle` proxy:

* a member call runs the class's one wrapper for it (``Metatype.members``,
  built when the class is registered): it posts the member's declared
  events, if any, delegates, and marks the object dirty (any method may
  mutate); a trigger's name activates the trigger, reproducing
  ``pcred->AutoRaiseLimit(1000.0)``;
* field reads pass straight through (a set field that is not a member
  name is one instance-dict hit); field writes update the instance and
  mark it dirty (acquiring the write lock immediately — strict 2PL);
* any other attribute (a callable in the instance dict too) comes back raw;
* ``post_event`` posts a user-defined (declared) event, the explicit
  posting the paper requires for non-member-function events.

A handle is **bound to the session that dereferenced it**: every operation
through the handle runs with that session ambient, so its reads, writes,
lock acquisitions, and event postings land in the owning session's
transaction even if the handle escapes to other code.  Inside its own
session's transaction block the session already is ambient, and the
handle calls straight through.  (Serial programs
never notice — their handles are bound to the default session.)

Volatile instances never see a handle, so they pay zero trigger overhead —
design goals 3 and 4.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any

from repro.sessions.session import ambient_session, is_ambient

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.objects.oid import PersistentPtr
    from repro.objects.persistent import Persistent
    from repro.objects.schema import Field
    from repro.sessions.session import Session


class PersistentHandle:
    """Proxy for one persistent object within its session's transaction."""

    __slots__ = ("_db", "_ptr", "_obj", "_session")

    def __init__(
        self,
        db: "Database",
        ptr: "PersistentPtr",
        obj: "Persistent",
        session: "Session | None" = None,
    ):
        # The slots' own setters, bound once below: __setattr__ is the
        # field-write path.
        _set_db(self, db)
        _set_ptr(self, ptr)
        _set_obj(self, obj)
        _set_session(self, session)

    # -- identity ------------------------------------------------------------

    @property
    def ptr(self) -> "PersistentPtr":
        return self._ptr

    @property
    def obj(self) -> "Persistent":
        """The cached instance (volatile view of the persistent object)."""
        return self._obj

    @property
    def database(self) -> "Database":
        return self._db

    @property
    def session(self) -> "Session | None":
        """The session this handle is bound to (None on detached handles)."""
        return self._session

    def _scoped(self, fn, *args: Any, **kwargs: Any) -> Any:
        """Run *fn* with this handle's session ambient (pushing it only
        when it is not already the thread's ambient session)."""
        session = self._session
        if session is None or is_ambient(session):
            return fn(*args, **kwargs)
        with ambient_session(session):
            return fn(*args, **kwargs)

    # -- attribute protocol ------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        obj = self._obj
        metatype = type(obj).__metatype__
        if name in metatype.plain_fields:
            try:
                return obj.__dict__[name]
            except KeyError:
                pass  # unset: getattr below raises the field's own error
        member = metatype.members.get(name)
        if member is not None:
            return functools.partial(self._scoped, member, self._db, self._ptr, obj)
        return getattr(obj, name)

    def __setattr__(self, name: str, value: Any) -> None:
        metatype = type(self._obj).__metatype__
        fld = metatype.fields.get(name)
        if fld is None:
            raise AttributeError(
                f"{metatype.name} has no field {name!r}; only declared fields "
                "may be written through a persistent handle"
            )
        self._scoped(_write_field, self._db, self._obj, fld, value)

    # -- events -----------------------------------------------------------------

    def post_event(self, event_name: str) -> None:
        """Explicitly post the user-defined event *event_name* to this object."""
        self._scoped(
            self._db.trigger_system.post_user_event,
            self._db,
            self._ptr,
            self._obj,
            event_name,
        )

    # -- misc ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PersistentHandle) and other._ptr == self._ptr

    def __hash__(self) -> int:
        return hash(self._ptr)

    def __repr__(self) -> str:
        return f"<PersistentHandle {self._ptr!r} -> {self._obj!r}>"


def _write_field(db: "Database", obj: "Persistent", fld: "Field", value: Any) -> None:
    """A handle's field write: the field's own check and store, then dirty."""
    fld.assign(obj, value)
    db.mark_dirty(obj)


_set_db, _set_ptr, _set_obj, _set_session = (
    PersistentHandle.__dict__[slot].__set__ for slot in PersistentHandle.__slots__
)
