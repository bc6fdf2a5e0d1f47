"""Begin/commit/abort orchestration across concurrent sessions.

Each :class:`~repro.sessions.session.Session` runs one transaction at a
time (Ode programs execute transaction blocks serially *within* an
application), but the manager now keeps a **table of active transactions**
— one per session — instead of a single current one.  Conflicts between
them are mediated by the storage engine's lock manager: an incompatible
request blocks the session (cooperative yield or condition-variable wait)
until commit/abort of the holder releases its locks and grants waiters in
FIFO order.

``current()`` resolves through the *ambient session* (a thread-local set
by session entry points), so every existing call site —
``db.txn_manager.current()`` in posting, storage, handles — became
session-aware without signature changes.  The serial API uses the
database's default session and behaves exactly as before.

*System* transactions — those "not explicitly requested by the user, but
required for trigger processing" (paper Section 5.5) — used to run "between
user transactions"; with concurrent sessions they are **scheduled onto a
shared queue** (:meth:`TransactionManager.schedule_system`) that is drained
after every commit/abort by whichever session finished, each entry in its
own fresh system transaction.

The manager owns begin/commit/abort; it does not implement the O++ block
rules.  :class:`~repro.sessions.session.TransactionBlock` is the one
``with`` block — it makes its session ambient and commits, swallows a
``tabort`` or aborts — and :meth:`TransactionManager.transaction` and
:meth:`TransactionManager.run_system_transaction` both go through it, so
a system transaction runs with its own session ambient.

The commit path is ordered exactly as the paper describes: deferred (*end*)
actions and ``before tcomplete`` events run first (still inside the
transaction, able to ``tabort`` it), then dirty objects are written back,
the storage manager makes the transaction durable, and only then do the
detached-mode hooks schedule their system transactions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.errors import (
    CommitDependencyError,
    DatabaseClosedError,
    NestedTransactionError,
    NoActiveTransactionError,
    TransactionAbort,
    TransactionError,
)
from repro.transactions.dependencies import CommitDependencyGraph
from repro.transactions.txn import CURRENT_STATES, Transaction, TxnState

if TYPE_CHECKING:  # pragma: no cover
    from repro.objects.database import Database
    from repro.sessions.session import Session, TransactionBlock

#: How many finished transactions' outcomes :attr:`TransactionManager.
#: outcomes` keeps (oldest evicted first).  A commit dependency is checked
#: within a drain or two of its parent's commit, so the window only has to
#: cover the transactions other sessions finish meanwhile; a parent that
#: fell out of it reads as unknown, i.e. not committed.
OUTCOME_WINDOW = 1024


class TransactionManager:
    """Drives transactions for one :class:`~repro.objects.database.Database`."""

    def __init__(self, db: "Database"):
        self.db = db
        self._next_txid = 1
        self._txid_lock = threading.Lock()
        #: txid -> transaction, for every ACTIVE/COMMITTING transaction.
        self._active: dict[int, Transaction] = {}
        #: txid -> final state of the last :data:`OUTCOME_WINDOW` finished
        #: transactions, in finishing order.
        self.outcomes: OrderedDict[int, TxnState] = OrderedDict()
        self.dependencies = CommitDependencyGraph()
        self._begin_listeners: list[Callable[[Transaction], None]] = []
        # Detached trigger actions wait here until some session is between
        # transactions; (body, depends_on) pairs, drained FIFO.
        self._system_queue: deque = deque()
        self._draining = threading.local()

    # -- listeners ------------------------------------------------------------

    def on_begin(self, listener: Callable[[Transaction], None]) -> None:
        """Register a callback invoked for every new transaction.

        Local rules (:mod:`repro.core.monitored`) use this to install
        their hooks; the database's trigger system needs none, because
        its coupling hooks are called by :meth:`commit` and :meth:`abort`
        themselves.
        """
        self._begin_listeners.append(listener)

    def active_transactions(self) -> list[Transaction]:
        """The transactions currently in flight, across all sessions."""
        return list(self._active.values())

    # -- lifecycle --------------------------------------------------------------

    def begin(
        self, *, system: bool = False, session: "Session | None" = None
    ) -> Transaction:
        db = self.db
        if db.closed:
            raise DatabaseClosedError(f"database {db.name!r} is closed")
        sess = session if session is not None else db.current_session()
        held = sess.current_txn
        if held is not None and held.state in CURRENT_STATES:
            raise NestedTransactionError(
                f"transaction {held.txid} is still active in session "
                f"{sess.name!r}; Ode does not support nested transactions "
                "(paper Section 5.4.5)"
            )
        with self._txid_lock:
            txid = self._next_txid
            self._next_txid += 1
        txn = Transaction(txid, db, system=system, session=sess)
        db.storage.begin_transaction(txid)
        self._active[txid] = txn
        sess.current_txn = txn
        if obs.ENABLED:
            obs.emit("txn.begin", txid=txid, system=system, session=sess.name)
            # Per-transaction metrics delta: snapshot the registry now so
            # obs.transaction_delta(txn) can report what this txn cost.
            txn.attachments[obs.TXN_METRICS_KEY] = db.metrics.snapshot()
        for listener in self._begin_listeners:
            listener(txn)
        return txn

    def current(self) -> Transaction:
        """The calling session's active (or committing) transaction."""
        return self.db.current_session().current_txn_or_raise()

    def current_or_none(self) -> Transaction | None:
        try:
            return self.current()
        except NoActiveTransactionError:
            return None

    # -- commit ------------------------------------------------------------------

    def commit(self, txn: Transaction) -> TxnState:
        """Attempt to commit; returns the final state.

        A :class:`TransactionAbort` raised by a before-commit hook (an *end*
        trigger action or a ``before tcomplete`` trigger) turns the commit
        into an abort, as `tabort` semantics require.  The database's trigger
        system's hook of each kind runs before the transaction's own list
        of that kind.

        Committing releases the transaction's locks, which grants queued
        requests FIFO and wakes the blocked sessions holding them.
        """
        self._require_current(txn)
        txn.state = TxnState.COMMITTING
        trigger_system = self.db.trigger_system
        try:
            trigger_system.before_commit(txn)
            if txn.before_commit:
                for hook in list(txn.before_commit):
                    hook(txn)
        except TransactionAbort:
            txn.state = TxnState.ACTIVE
            self.abort(txn, explicit=True)
            return txn.state
        versions = trigger_system.versions
        try:
            self.dependencies.check_commit_allowed(txn.txid, self.outcomes)
            self.db.flush_transaction(txn)
            if versions is not None and versions.pending(txn):
                # MVCC commit-time merge (DESIGN.md §15): validate and
                # write the buffered trigger-group changes, make the
                # transaction durable, then publish the new version heads
                # — all under the one commit mutex, so no concurrent
                # committer can validate against a head that is about to
                # move.
                with versions.commit_mutex:
                    try:
                        publishes = versions.commit_merge(txn)
                        self.db.storage.commit_transaction(txn.txid)
                    except BaseException:
                        # A failed merge (a storage error; conflicts
                        # replay and never fail it) must roll back
                        # *before* the mutex is released: merged writes
                        # are taken without record locks, so a concurrent
                        # committer's write_merged could otherwise slip
                        # between them and their WAL undo — capturing
                        # this transaction's uncommitted bytes as its
                        # before-image, then losing its own committed
                        # merge to our rollback.  The system-queue drain
                        # is deferred out of the critical section: a
                        # drained body may wait on record locks whose
                        # holders want this mutex.
                        txn.state = TxnState.ACTIVE
                        self.abort(txn, explicit=False, drain=False)
                        raise
                    versions.publish(publishes)
            else:
                self.db.storage.commit_transaction(txn.txid)
        except BaseException:
            if txn.state is TxnState.COMMITTING:
                txn.state = TxnState.ACTIVE
                self.abort(txn, explicit=False)
            else:
                # Already rolled back under the commit mutex above; run
                # the deferred system-queue drain now the mutex is free.
                self.drain_system_queue(txn.session)
            raise
        txn.state = TxnState.COMMITTED
        self._finish(txn)
        if obs.ENABLED:
            obs.emit(
                "txn.commit",
                txid=txn.txid,
                system=txn.system,
                session=txn.session_name,
            )
        trigger_system.after_commit(txn)
        if txn.after_commit:
            for hook in list(txn.after_commit):
                hook(txn)
        self.drain_system_queue(txn.session)
        return txn.state

    # -- abort --------------------------------------------------------------------

    def abort(
        self, txn: Transaction, *, explicit: bool = True, drain: bool = True
    ) -> TxnState:
        """Roll *txn* back.  *explicit* aborts post ``before tabort`` events
        (via the before-abort hooks); implicit ones — crashes — cannot
        (paper Section 6).  ``drain=False`` skips the system-queue drain
        (after-abort hooks still *schedule*); the MVCC commit path uses it
        to keep system transactions out of the commit-mutex critical
        section, draining once the mutex is released."""
        self._require_current(txn)
        trigger_system = self.db.trigger_system
        if explicit:
            for hook in [trigger_system.before_abort, *txn.before_abort]:
                try:
                    hook(txn)
                except TransactionAbort:
                    pass  # already aborting
        if txn.attachments:
            # Before the locks go: a published index list must not outlive
            # the locks that made publishing it sound.
            self.db.withdraw_indexes(txn)
        self.db.storage.abort_transaction(txn.txid)
        txn.cache.clear()
        txn.dirty.clear()
        txn.state = TxnState.ABORTED
        self._finish(txn)
        if obs.ENABLED:
            obs.emit(
                "txn.abort",
                txid=txn.txid,
                explicit=explicit,
                system=txn.system,
                session=txn.session_name,
            )
        trigger_system.after_abort(txn)
        if txn.after_abort:
            for hook in list(txn.after_abort):
                hook(txn)
        if drain:
            self.drain_system_queue(txn.session)
        return txn.state

    def _finish(self, txn: Transaction) -> None:
        outcomes = self.outcomes
        outcomes[txn.txid] = txn.state
        if len(outcomes) > OUTCOME_WINDOW:
            outcomes.popitem(last=False)
        self.dependencies.forget(txn.txid)
        self._active.pop(txn.txid, None)
        sess = txn.session
        if sess is not None and sess.current_txn is txn:
            sess.current_txn = None

    def _require_current(self, txn: Transaction) -> None:
        if self._active.get(txn.txid) is not txn:
            raise TransactionError(f"{txn!r} is not an active transaction")
        sess = txn.session
        if sess is not None and sess.current_txn is not txn:
            raise TransactionError(
                f"{txn!r} is not session {sess.name!r}'s current transaction"
            )

    # -- conveniences -----------------------------------------------------------------

    def transaction(
        self, *, system: bool = False, session: "Session | None" = None
    ) -> "TransactionBlock":
        """``with`` block in *session* (default: the current one), with O++
        transaction-block semantics (see :class:`~repro.sessions.session.
        TransactionBlock`)."""
        sess = session if session is not None else self.db.current_session()
        return sess.transaction(system=system)

    def run_system_transaction(
        self,
        body: Callable[[Transaction], None],
        *,
        depends_on: int | None = None,
        session: "Session | None" = None,
    ) -> Transaction:
        """Run *body* in a fresh system transaction of *session* (default:
        the current one) and commit it, by the block rules of
        :meth:`transaction`; the session is ambient while *body* runs.

        With *depends_on*, the system transaction carries a commit
        dependency on that transaction (the *dependent* coupling mode);
        commit raises :class:`~repro.errors.CommitDependencyError` if the
        parent did not commit, and the action is rolled back.
        """
        sess = session if session is not None else self.db.current_session()
        self.db.session_stats.system_txns += 1
        with sess.transaction(system=True) as txn:
            if depends_on is not None:
                self.dependencies.add(txn.txid, depends_on)
            body(txn)
        return txn

    # -- the shared system-transaction queue -------------------------------------

    def schedule_system(
        self,
        body: Callable[[Transaction], None],
        *,
        depends_on: int | None = None,
    ) -> None:
        """Queue *body* to run in its own system transaction.

        Detached trigger actions (dependent / !dependent coupling) land
        here from after-commit/after-abort hooks; the queue is drained by
        whichever session just finished a transaction — i.e. "between
        transactions" generalized to many sessions.
        """
        self._system_queue.append((body, depends_on))

    def drain_system_queue(self, session: "Session | None" = None) -> int:
        """Run every queued system transaction; returns the number run.

        Re-entrancy guarded per thread: a system transaction finishing
        *during* the drain does not drain recursively — its own enqueues
        are picked up by the outer loop.  A scheduled body whose commit
        dependency failed is discarded (the *dependent* contract).
        """
        if not self._system_queue:
            return 0
        if getattr(self._draining, "active", False):
            return 0
        if self.db.closed:
            return 0
        sess = session if session is not None else self.db.current_session()
        ran = 0
        self._draining.active = True
        try:
            while True:
                try:
                    body, depends_on = self._system_queue.popleft()
                except IndexError:  # another session drained it meanwhile
                    break
                try:
                    self.run_system_transaction(
                        body, depends_on=depends_on, session=sess
                    )
                except CommitDependencyError:
                    pass  # parent did not commit: the dependent action dies
                ran += 1
        finally:
            self._draining.active = False
        return ran

