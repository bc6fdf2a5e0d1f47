"""Exception hierarchy for the Ode reproduction.

All library errors derive from :class:`OdeError` so callers can catch a
single base class.  Transaction-control exceptions (:class:`TransactionAbort`)
deliberately derive from ``BaseException``-adjacent ``Exception`` but carry
control-flow meaning: raising one inside a trigger action is the Python
analogue of O++'s ``tabort`` statement.
"""

from __future__ import annotations


class OdeError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(OdeError):
    """Base class for storage-manager failures."""


class PageError(StorageError):
    """A slotted-page operation was invalid (bad slot, overflow, ...)."""


class PageFullError(PageError):
    """The record does not fit in the page's free space."""


class RecordNotFoundError(StorageError):
    """No record exists at the given record identifier."""


class BufferPoolError(StorageError):
    """Buffer-pool misuse, e.g. unpinning a page that is not pinned."""


class WALError(StorageError):
    """The write-ahead log is corrupt or was misused."""


class PageChecksumError(PageError):
    """A page read back from disk failed its checksum (torn write/bit rot)."""

    def __init__(self, page_no: int, stored: int, computed: int):
        self.page_no = page_no
        self.stored = stored
        self.computed = computed
        super().__init__(
            f"page {page_no} checksum mismatch: "
            f"stored {stored:#010x}, computed {computed:#010x}"
        )


class TransientIOError(OSError):
    """An injected, retryable I/O failure (``EIO``-style hiccup).

    Subclasses :class:`OSError` — not :class:`StorageError` — because the
    engine's retry loops must treat injected transient faults exactly like
    the real ``OSError`` they model; nothing above the retry layer should
    ever observe one.
    """


class UnrecoverableMediaError(StorageError):
    """The medium failed permanently; retrying cannot help.

    The engine reacts by *degrading to read-only* rather than risking a
    corrupt store: committed state stays readable, mutations are refused
    with :class:`ReadOnlyStorageError`.
    """


class ReadOnlyStorageError(StorageError):
    """A mutation was attempted on a storage manager degraded to read-only."""


class InjectedCrashError(BaseException):  # noqa: N818 - control flow
    """A fault-injection point simulated a process crash.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so that
    ``except Exception`` recovery paths in the engine cannot swallow it —
    a crashed process does not run exception handlers.  Only the crash
    harness catches it.
    """

    def __init__(self, point: str, hit: int):
        self.point = point
        self.hit = hit
        super().__init__(f"injected crash at failpoint {point!r} (hit #{hit})")


class LockError(StorageError):
    """Base class for lock-manager failures."""


class DeadlockError(LockError):
    """The requesting transaction was chosen as a deadlock victim."""

    def __init__(self, txid: int, cycle: tuple[int, ...] = ()):
        self.txid = txid
        self.cycle = tuple(cycle)
        detail = f" (cycle: {' -> '.join(map(str, cycle))})" if cycle else ""
        super().__init__(f"transaction {txid} aborted to break a deadlock{detail}")


class LockTimeoutError(LockError):
    """A lock could not be granted within the configured wait budget."""


class WaitPoisonedError(LockError):
    """A blocked lock wait was cancelled because the lock manager was
    poisoned (database crashed or closed while sessions were waiting).

    Raised in the *waiter*, never in the poisoner: the transaction that
    observed the failure gets the original error, while everyone parked
    behind its locks is woken with this instead of hanging forever.
    """


# ---------------------------------------------------------------------------
# Object manager
# ---------------------------------------------------------------------------


class ObjectError(OdeError):
    """Base class for object-manager failures."""


class DanglingPointerError(ObjectError):
    """A persistent pointer refers to a deleted or never-allocated object."""


class SchemaError(ObjectError):
    """A class schema declaration or value is invalid."""


class UnknownTriggerError(SchemaError):
    """A trigger number or name does not exist on the class.

    Subclasses :class:`SchemaError` (callers historically caught that)
    while carrying the class name and the valid range in its message.
    """


class SerializationError(ObjectError):
    """A value could not be encoded/decoded with the declared field type."""


class UnknownTypeError(ObjectError):
    """An object's stored type name is not registered in this process."""


class DatabaseClosedError(ObjectError):
    """An operation was attempted on a closed database."""


class DatabaseError(ObjectError):
    """Database-level misuse (duplicate open, bad path, ...)."""


class SessionError(DatabaseError):
    """Session-level misuse (duplicate live name, use after close, ...)."""


class SchedulerHangError(SessionError):
    """A cooperative-scheduler task thread failed to exit at shutdown.

    Carries the stuck task's name plus, when its session is known, the
    locks its transaction still holds and the transactions it waits for —
    the information needed to diagnose the hang instead of a silent
    ``join(timeout=...)`` that proceeds as if nothing happened.
    """

    def __init__(self, task: str, detail: str = ""):
        self.task = task
        message = f"scheduler task {task!r} did not exit"
        if detail:
            message += f": {detail}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


class TransactionError(OdeError):
    """Base class for transaction-manager failures."""


class NoActiveTransactionError(TransactionError):
    """A data operation was attempted outside a transaction block."""


class NestedTransactionError(TransactionError):
    """A top-level transaction was started while one is already active."""


class TransactionDeadlineError(TransactionError):
    """The transaction's deadline expired before it could finish.

    Enforced at the points where a transaction can stall indefinitely —
    lock waits and retry-loop boundaries — so a deadline bounds *waiting*,
    not CPU time.  Deliberately not retryable: the budget covered every
    attempt, so the unified retry classifier re-raises it.
    """


class TransactionAbort(Exception):  # noqa: N818 - control-flow, paper's `tabort`
    """Raised to abort the surrounding transaction (O++ ``tabort``).

    The paper relaxed the rule that ``tabort`` must appear statically inside a
    transaction block precisely so that *trigger actions* could abort the
    transaction that detected their event (Section 6).  Raising this from a
    trigger action aborts the event-detecting transaction.
    """

    def __init__(self, reason: str = "tabort"):
        self.reason = reason
        super().__init__(reason)


class CommitDependencyError(TransactionError):
    """A dependent transaction could not commit because its parent aborted."""


# ---------------------------------------------------------------------------
# Event language
# ---------------------------------------------------------------------------


class EventError(OdeError):
    """Base class for event-language failures."""


class EventParseError(EventError):
    """The textual event expression could not be parsed."""

    def __init__(self, message: str, text: str = "", pos: int = -1):
        self.text = text
        self.pos = pos
        if pos >= 0:
            caret = " " * pos + "^"
            message = f"{message}\n  {text}\n  {caret}"
        super().__init__(message)


class UnknownEventError(EventError):
    """An expression names an event not declared by the class."""


class UnknownMaskError(EventError):
    """An expression names a mask with no registered predicate."""


class FSMError(EventError):
    """The compiled finite state machine was misused at run time."""


# ---------------------------------------------------------------------------
# Trigger system
# ---------------------------------------------------------------------------


class TriggerError(OdeError):
    """Base class for trigger-system failures."""


class TriggerDeclarationError(TriggerError):
    """A trigger/event declaration in a class definition is invalid."""


class TriggerNotActiveError(TriggerError):
    """Deactivation or inspection of a trigger that is not active."""


class TriggerArgumentError(TriggerError):
    """Activation arguments do not match the trigger's parameter list."""


class ConstraintViolationError(TriggerError):
    """A constraint trigger rejected an update (constraints-as-triggers)."""

    def __init__(self, constraint: str, detail: str = ""):
        self.constraint = constraint
        self.detail = detail
        message = f"constraint {constraint!r} violated"
        if detail:
            message += f": {detail}"
        super().__init__(message)
