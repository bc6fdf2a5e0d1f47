"""The session: one application's transaction context over a shared database.

DESIGN.md §11 describes the model; the short version:

* a session owns *its* current transaction (``deref``/``pnew``/handles in a
  session resolve against that transaction's object cache);
* the **ambient session** is a thread-local — each session thread resolves
  ``db.txn_manager.current()`` to its own session's transaction, which is
  how every existing ``db.deref(...)`` call site became session-aware
  without changing its signature;
* persistent handles are *bound to the session that dereferenced them*: a
  handle used from anywhere runs its reads, writes, and event postings in
  its owning session's transaction.

Deadlock policy: the lock manager raises
:class:`~repro.errors.DeadlockError` in the victim (the session whose
request closed the cycle); :meth:`Session.run` aborts the transaction,
backs off, and retries the whole transaction body — the unit of retry is
the transaction, exactly because strict 2PL released all its locks at
abort.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro import obs
from repro.errors import (
    DatabaseClosedError,
    NoActiveTransactionError,
    TransactionAbort,
    TransactionDeadlineError,
    TransactionError,
)
from repro.faults.retry import (
    DEFAULT_UNIFIED_RETRY,
    RetryClass,
    RetryState,
    UnifiedRetryPolicy,
)
from repro.obs.metrics import Stats
from repro.storage.locks import current_wait_hooks
from repro.transactions.txn import CURRENT_STATES, TxnState

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.objects.handle import PersistentHandle
    from repro.objects.oid import PersistentPtr
    from repro.transactions.txn import Transaction


@dataclass
class SessionStats(Stats):
    """Per-database session counters (mounted as ``sessions.*``)."""

    opened: int = 0
    closed: int = 0
    peak_concurrent: int = 0
    #: deadlock-victim attempts that were actually retried (an attempt
    #: whose budget was exhausted re-raises and is *not* counted here —
    #: it lands in ``retry_exhausted`` instead)
    deadlock_retries: int = 0
    #: transactions that exhausted their retry budget
    retry_exhausted: int = 0
    system_txns: int = 0


# -- ambient session ----------------------------------------------------------

_ambient = threading.local()


def _ambient_stack() -> list:
    """The calling thread's ambient-session stack (created on first use)."""
    try:
        return _ambient.stack
    except AttributeError:
        stack = _ambient.stack = []
        return stack


def current_ambient_session() -> "Session | None":
    """The session the calling thread is executing in, if any."""
    stack = getattr(_ambient, "stack", None)
    return stack[-1] if stack else None


def is_ambient(session: "Session") -> bool:
    """Whether *session* is already the calling thread's ambient session."""
    stack = getattr(_ambient, "stack", None)
    return bool(stack) and stack[-1] is session


class ambient_session:  # noqa: N801 - used like the function it replaced
    """Make *session* the calling thread's ambient session for the block."""

    __slots__ = ("session", "_stack")

    def __init__(self, session: "Session"):
        self.session = session

    def __enter__(self) -> "Session":
        stack = self._stack = _ambient_stack()
        stack.append(self.session)
        return self.session

    def __exit__(self, *exc_info) -> None:
        self._stack.pop()


class TransactionBlock:
    """One ``with`` block with O++ transaction-block semantics, in one
    session.

    ``__enter__`` makes the session ambient (one push per transaction),
    begins the transaction and returns it.  ``__exit__`` pops the session
    after applying the block rules:

    * a clean exit commits;
    * ``tabort`` (a :class:`TransactionAbort` escaping the block) aborts
      explicitly and is swallowed — execution continues after the block,
      as in O++;
    * any other exception aborts implicitly and propagates.

    A transaction the body already finished (committed or aborted itself)
    is left alone.  This is the only implementation of those rules:
    :meth:`Session.transaction` builds it, :meth:`Database.transaction`,
    :meth:`TransactionManager.transaction`, :meth:`Session.run` and the
    system transactions of detached trigger actions all go through it.
    """

    __slots__ = ("session", "system", "txn", "_stack")

    def __init__(self, session: "Session", system: bool):
        self.session = session
        self.system = system
        self.txn: "Transaction | None" = None

    def __enter__(self) -> "Transaction":
        session = self.session
        if session.closed:
            session._check_open()
        stack = self._stack = _ambient_stack()
        stack.append(session)
        try:
            txn = self.txn = session.db.txn_manager.begin(
                system=self.system, session=session
            )
        except BaseException:
            stack.pop()
            raise
        return txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        txn = self.txn
        manager = self.session.db.txn_manager
        try:
            if exc_type is None:
                if txn.state is TxnState.ACTIVE:
                    manager.commit(txn)
                return False
            tabort = issubclass(exc_type, TransactionAbort)
            if txn.state is TxnState.ACTIVE:
                manager.abort(txn, explicit=tabort)
            return tabort
        finally:
            self._stack.pop()


class Session:
    """One application's connection to an open database."""

    def __init__(self, db: "Database", name: str, *, default: bool = False):
        self.db = db
        self.name = name
        self.default = default
        self.closed = False
        #: The session's active (or committing) transaction, if any.  Only
        #: the session's own thread assigns it, via the transaction manager.
        self.current_txn: "Transaction | None" = None
        #: Set by a CooperativeScheduler when this session runs under it;
        #: used to make deadlock backoff a deterministic yield.
        self.scheduler = None
        # Seeded from a *stable* digest, not hash() — str hashing is salted
        # per process, and a per-run seed would make threaded backoff (and
        # therefore any schedule it perturbs) unreplayable across runs.
        # Cooperative mode never consults this rng at all (see _backoff).
        self._rng = random.Random(zlib.crc32(f"{db.name}/{name}".encode("utf-8")))

    # -- transactions ---------------------------------------------------------

    def transaction(self, *, system: bool = False) -> TransactionBlock:
        """A transaction block in this session (O++ semantics, see
        :class:`TransactionBlock`)."""
        return TransactionBlock(self, system)

    def begin(self, *, system: bool = False) -> "Transaction":
        self._check_open()
        return self.db.txn_manager.begin(system=system, session=self)

    def commit(self) -> None:
        self.db.txn_manager.commit(self._require_txn())

    def abort(self) -> None:
        self.db.txn_manager.abort(self._require_txn())

    def run(
        self,
        body: Callable[["Transaction"], Any],
        *,
        retries: int | None = None,
        deadline: float | None = None,
        policy: "UnifiedRetryPolicy | None" = None,
    ) -> Any:
        """Run *body* in a transaction, retrying recoverable failures.

        Each failed attempt is classified (:mod:`repro.faults.retry`):
        deadlock victims, lock timeouts, and transient I/O errors that
        escaped the storage layer are retried from the top of the body —
        strict 2PL released all the aborted attempt's locks, so the unit
        of retry is the whole transaction — against per-class budgets from
        *policy* (default :data:`DEFAULT_UNIFIED_RETRY`); everything else
        re-raises immediately; a ``tabort`` (from the body or a trigger it
        fired) ends the attempt for good and ``run`` returns ``None``, as
        ``with db.transaction()`` does.  *retries* overrides just the deadlock
        budget (the historical signature).  Backoff is a deterministic
        yield under a cooperative scheduler and a crc32-seeded jittered
        sleep in threaded mode.

        *deadline*, in seconds, bounds the **waiting** across all
        attempts: each attempt's transaction registers an absolute
        deadline with the lock manager (a lock wait past it raises
        :class:`TransactionDeadlineError`), and the same check guards the
        retry loop itself, so a session cannot spin past its budget.
        CPU-bound bodies are not interrupted — the guarantee is "no
        unbounded waits", not preemption.
        """
        chosen = policy if policy is not None else DEFAULT_UNIFIED_RETRY
        if retries is not None:
            chosen = chosen.with_budget(RetryClass.DEADLOCK, retries)
        deadline_at = None if deadline is None else time.monotonic() + deadline
        state = None  # built by the first failed attempt
        while True:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                raise TransactionDeadlineError(
                    f"session {self.name!r}: deadline expired after "
                    f"{state.total_attempts if state else 0} failed attempt(s)"
                )
            try:
                with self.transaction() as txn:
                    if deadline_at is not None:
                        self.db.storage.lock_manager.set_deadline(
                            txn.txid, deadline_at
                        )
                    return body(txn)
                # The block swallowed a ``tabort`` from the body: the
                # transaction is aborted and, as after an O++ transaction
                # block, control simply continues — nothing to retry.
                return None
            except Exception as exc:
                if state is None:
                    state = RetryState(chosen)
                klass, may_retry = state.consume(exc)
                if not may_retry:
                    # An exhausted victim is not a retry: count it only in
                    # retry_exhausted, so `deadlock_retries` stays equal to
                    # the number of extra attempts actually made (E16's
                    # "deadlock retries" column reports retries, not
                    # victims).
                    if klass.retryable:
                        self.db.session_stats.retry_exhausted += 1
                    raise
                if klass is RetryClass.DEADLOCK:
                    self.db.session_stats.deadlock_retries += 1
                    if obs.ENABLED:
                        obs.emit(
                            "session.deadlock_retry",
                            session=self.name,
                            attempt=state.attempts[klass],
                        )
                elif obs.ENABLED:
                    obs.emit(
                        "session.retry",
                        session=self.name,
                        klass=klass.value,
                        attempt=state.attempts[klass],
                    )
                self.db.metrics.counter(f"retries.{klass.value}").inc()
                self._backoff(state.total_attempts, chosen)

    def _backoff(
        self, attempt: int, policy: "UnifiedRetryPolicy" = DEFAULT_UNIFIED_RETRY
    ) -> None:
        scheduler = self.scheduler
        if scheduler is None:
            # Running inside a scheduler task without an explicit binding:
            # the thread's lock-wait hooks *are* the scheduler.  Backing off
            # with time.sleep() here would wedge the whole scheduler — the
            # victim never yields, so the lock holders it keeps deadlocking
            # against never get the processor back to commit.
            hooks = current_wait_hooks()
            if hooks is not None and hasattr(hooks, "yield_now"):
                scheduler = hooks
        if scheduler is not None:
            # Deterministic: yield the processor `attempt` times so the
            # surviving transactions make progress before we retry.
            for _ in range(attempt):
                scheduler.yield_now()
        else:
            time.sleep(policy.delay(attempt, self._rng))

    # -- data plane (delegates to the database with this session ambient) ------

    # A closed session refuses as :meth:`transaction` does.  The check
    # sits on the branch that pushes the session: inside its own block a
    # session is ambient and pays nothing for it.

    def pnew(self, cls: type, *args: Any, **kwargs: Any) -> "PersistentHandle":
        self._check_open()
        with ambient_session(self):
            return self.db.pnew(cls, *args, **kwargs)

    def deref(self, ptr: "PersistentPtr") -> "PersistentHandle":
        if is_ambient(self):
            return self.db.deref(ptr, self)
        self._check_open()
        with ambient_session(self):
            return self.db.deref(ptr, self)

    def pdelete(self, ptr: "PersistentPtr") -> None:
        self._check_open()
        with ambient_session(self):
            return self.db.pdelete(ptr)

    def objects(self, cls: type, include_derived: bool = True):
        self._check_open()
        with ambient_session(self):
            yield from self.db.objects(cls, include_derived)

    def find(self, cls: type, field_name: str, value):
        self._check_open()
        with ambient_session(self):
            return self.db.find(cls, field_name, value)

    def post_many(self, items) -> int:
        """Batch-post ``(handle_or_ptr, event_name)`` pairs in this
        session's transaction (see :meth:`Database.post_many`)."""
        if is_ambient(self):
            return self.db.post_many(items)
        self._check_open()
        with ambient_session(self):
            return self.db.post_many(items)

    # -- plumbing ----------------------------------------------------------------

    def current_txn_or_raise(self) -> "Transaction":
        txn = self.current_txn
        if txn is None or txn.state not in CURRENT_STATES:
            raise NoActiveTransactionError(
                f"no active transaction in session {self.name!r}; "
                "use `with session.transaction():`"
            )
        return txn

    def _require_txn(self) -> "Transaction":
        txn = self.current_txn
        if txn is None:
            raise TransactionError(f"session {self.name!r} has no transaction")
        return txn

    def _check_open(self) -> None:
        if self.closed:
            raise DatabaseClosedError(f"session {self.name!r} is closed")

    def close(self) -> None:
        """Close the session, aborting any transaction still in flight."""
        if self.closed:
            return
        txn = self.current_txn
        if txn is not None and txn.is_active:
            self.db.txn_manager.abort(txn, explicit=False)
        self.closed = True
        self.db._session_closed(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Session {self.name!r} on {self.db.name!r} ({state})>"
