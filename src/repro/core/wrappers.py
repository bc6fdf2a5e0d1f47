"""Generated member-function wrappers (paper Section 5.3).

The O++ compiler rewrites ``pcred->PayBill(257.34)`` into
``pcred->PayBillWithPost(257.34)`` where the generated wrapper calls the
member function and posts its events::

    void CredCard::PayBillWithPost(float amount) {
        PayBill(amount);
        PostEvent(CredCardEvents[1], pthis, type_CredCard);
    }

Our wrappers are closures built once per class (``Metatype.members``) and
invoked only through :class:`~repro.objects.handle.PersistentHandle` —
"member functions invoked via volatile object pointers or references do not
cause events to be posted" (paper footnote 1), and indeed a volatile call
never touches this module.  The wrapper resolves the method dynamically on
the instance (the paper declares the wrapper ``virtual`` when the member
function is), posts the ``before`` event, calls the method, marks the
object dirty, posts the ``after`` event, and returns the method's value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.trigger_def import TriggerInfo
    from repro.objects.database import Database
    from repro.objects.oid import PersistentPtr
    from repro.objects.persistent import Persistent


def make_method_wrapper(
    method_name: str,
    before_eventnum: int | None,
    after_eventnum: int | None,
) -> Callable[..., Any]:
    """Build the ``<method>WithPost`` wrapper for one member function."""
    from repro.core.posting import EventOccurrence

    def wrapper(
        db: "Database",
        ptr: "PersistentPtr",
        obj: "Persistent",
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        trigger_system = db.trigger_system
        if before_eventnum is not None:
            occurrence = EventOccurrence(before_eventnum, method_name, args, kwargs)
            trigger_system.post_event(db, before_eventnum, ptr, obj, occurrence)
        method = getattr(obj, method_name)  # dynamic: virtual dispatch
        result = method(*args, **kwargs)
        db.mark_dirty(obj)
        if after_eventnum is not None:
            occurrence = EventOccurrence(after_eventnum, method_name, args, kwargs)
            trigger_system.post_event(db, after_eventnum, ptr, obj, occurrence)
        return result

    wrapper.__name__ = f"{method_name}WithPost"
    wrapper.__qualname__ = wrapper.__name__
    return wrapper


def make_activator(info: "TriggerInfo") -> Callable[..., Any]:
    """The member entry of trigger *info*: a call activates it."""

    def activate(db: "Database", ptr: "PersistentPtr", obj: "Persistent", *args: Any):
        return db.trigger_system.activate(db, ptr, info, *args)

    return activate
