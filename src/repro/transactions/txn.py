"""The transaction object.

A :class:`Transaction` carries the per-transaction state the rest of the
system needs: the object cache (instances dereferenced in this transaction),
the dirty set awaiting write-back, and four ordered hook lists.  The
database's trigger system implements coupling modes and transaction
events through hooks of the same four kinds, which the transaction
manager calls before each list:

* ``before_commit`` — deferred (*end*) trigger actions, then
  ``before tcomplete`` event posting; may raise
  :class:`~repro.errors.TransactionAbort` to veto the commit.
* ``after_commit`` — *dependent* and *!dependent* trigger actions, each run
  in its own system transaction; phoenix-queue draining.
* ``before_abort`` — ``before tabort`` event posting (explicit aborts only).
* ``after_abort`` — *!dependent* trigger actions (they run even when the
  detecting transaction aborts).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.objects.persistent import Persistent
    from repro.sessions.session import Session


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


#: The states in which a session's transaction is its current one:
#: ``COMMITTING`` counts, because before-commit hooks (deferred trigger
#: actions, ``before tcomplete`` posting) still run inside it.
CURRENT_STATES = (TxnState.ACTIVE, TxnState.COMMITTING)

Hook = Callable[["Transaction"], None]


class Transaction:
    """One transaction against one database."""

    def __init__(
        self,
        txid: int,
        db: "Database",
        *,
        system: bool = False,
        session: "Session | None" = None,
    ):
        self.txid = txid
        self.db = db
        self.system = system
        #: The session this transaction runs in (the default session for the
        #: serial API).  Handles, posting, and obs spans use it for scoping.
        self.session = session
        self.state = TxnState.ACTIVE
        # Object cache: rid -> live instance; dirty rids await write-back.
        self.cache: dict[int, "Persistent"] = {}
        self.dirty: set[int] = set()
        # Hook lists, run in registration order.
        self.before_commit: list[Hook] = []
        self.after_commit: list[Hook] = []
        self.before_abort: list[Hook] = []
        self.after_abort: list[Hook] = []
        # Free-form per-transaction scratch space; the trigger manager keys
        # its end/dependent/!dependent lists and the transaction-event
        # object list here so the transaction layer stays trigger-agnostic.
        self.attachments: dict[str, Any] = {}

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    @property
    def session_name(self) -> str:
        return self.session.name if self.session is not None else "?"

    @property
    def committed(self) -> bool:
        return self.state is TxnState.COMMITTED

    @property
    def aborted(self) -> bool:
        return self.state is TxnState.ABORTED

    def attachment(self, key: str, factory: Callable[[], Any]) -> Any:
        """Get (creating on first use) the attachment stored under *key*."""
        try:
            return self.attachments[key]
        except KeyError:
            value = self.attachments[key] = factory()
            return value

    def mark_dirty(self, rid: int) -> None:
        """Record that the cached object at *rid* needs write-back."""
        self.dirty.add(rid)

    def __repr__(self) -> str:
        kind = "system " if self.system else ""
        return f"<{kind}Transaction {self.txid} {self.state.value}>"
