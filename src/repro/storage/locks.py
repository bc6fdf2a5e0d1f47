"""Strict two-phase lock manager with waits-for deadlock detection.

Ode's storage managers provide locking; the paper's Section 6 observes that
*"triggers turn read access into write access, increasing both the amount of
time the transactions spend waiting for locks and the likelihood of
deadlock"* — experiment E6 measures exactly that, so the lock manager keeps
detailed counters.

The manager serves two callers:

* the **serial** database (one session): :meth:`LockManager.acquire_or_raise`
  — with one transaction at a time a conflict indicates a bug, so it raises
  :class:`~repro.errors.LockError` without queueing the request;
* the **multi-session** database: :meth:`LockManager.acquire_blocking` —
  a conflicting request queues FIFO behind the current holders and earlier
  waiters and *blocks the calling session* until granted.  Releases
  (:meth:`release_all`) grant queued requests in arrival order per resource
  and wake the blocked sessions.  Engines pick the behaviour through
  :meth:`lock`, switched by the :attr:`blocking` flag the database flips
  when a second session opens.

Both callers start with the same grant-now step (:meth:`LockManager.
_grant_now`): a request that needs no wait costs the same in either mode,
and only what must wait differs — the serial path raises, the blocking
path queues and sleeps.

There is one lock table, guarded by one ``threading.RLock``; its
``threading.Condition`` is what a blocked session sleeps on (real
``threading`` concurrency).  A cooperative scheduler instead installs
per-thread *wait hooks* (:func:`set_wait_hooks`) and the manager delegates
the entire wait to the scheduler, which parks the session
deterministically.

Deadlock policy: a request that must wait is queued, and then — under the
same mutex — the waits-for graph is built from the table and searched
from the requester.  A request that closes a cycle raises
:class:`~repro.errors.DeadlockError` in the *requester* (the victim is the
transaction that completes the cycle — the simplest deterministic
policy); the victim's abort releases its locks, which grants and wakes the
survivors.  Queueing and the search are one atomic step, so every cycle
has exactly one victim, under real threads as under the cooperative
scheduler.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import time
from collections import defaultdict

from repro import obs
from repro.errors import (
    DeadlockError,
    LockError,
    LockTimeoutError,
    TransactionDeadlineError,
    WaitPoisonedError,
)


class LockMode(enum.IntEnum):
    """Shared or exclusive."""

    S = 1
    X = 2

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.S and other is LockMode.S


class LockRequestStatus(enum.Enum):
    GRANTED = "granted"
    WAIT = "wait"


@dataclasses.dataclass
class LockStats:
    """Counters consumed by experiment E6 (lock amplification).

    Every increment happens inside the lock manager's mutex (the manager
    shares it in as :attr:`_mutex`), and :meth:`snapshot`/:meth:`reset`
    take it too — otherwise a snapshot concurrent with a grant could see
    ``x_acquired`` without its paired ``upgrades`` (a torn multi-counter
    view), and a reset racing an increment would lose it.
    """

    s_acquired: int = 0
    x_acquired: int = 0
    upgrades: int = 0
    waits: int = 0
    deadlocks: int = 0
    timeouts: int = 0
    #: lock waits cancelled because the transaction's deadline expired
    deadline_aborts: int = 0
    #: waiters woken with :class:`WaitPoisonedError` (crash/close wake-all)
    poisoned_waits: int = 0

    def __post_init__(self) -> None:
        # Standalone instances (tests) get their own lock; a LockManager
        # replaces it with its own mutex so snapshot/reset serialize
        # against the increments themselves.
        self._mutex = threading.Lock()

    def snapshot(self) -> dict[str, int]:
        with self._mutex:
            return {
                field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)
            }

    def reset(self) -> None:
        with self._mutex:
            for field in dataclasses.fields(self):
                setattr(self, field.name, 0)


# -- cooperative wait hooks ----------------------------------------------------

#: Thread-local carrier for the active wait strategy.  A cooperative
#: scheduler sets hooks for each session thread it runs; the default (no
#: hooks) blocks on the manager's condition variable.
_wait_context = threading.local()


def set_wait_hooks(hooks) -> None:
    """Install *hooks* (or ``None``) as this thread's wait strategy.

    *hooks* needs one method: ``lock_wait(predicate)`` — block the calling
    session until ``predicate()`` is true, letting other sessions run.
    """
    _wait_context.hooks = hooks


def current_wait_hooks():
    return getattr(_wait_context, "hooks", None)


class _LockEntry:
    """Per-resource state: current holders and the FIFO wait queue."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}
        self.waiters: list[tuple[int, LockMode]] = []


class LockManager:
    """S/X locks on opaque hashable resources, strict 2PL discipline."""

    def __init__(self) -> None:
        #: Guards the table, the grant index and the stats.
        self._mutex = threading.RLock()
        #: What a blocked threaded session sleeps on; notified when a
        #: release grants, a deadline changes, or the manager is poisoned.
        self._cond = threading.Condition(self._mutex)
        self._table: dict[object, _LockEntry] = {}
        #: Grant index: txid → the resources it holds.
        self._held: dict[int, set[object]] = defaultdict(set)
        self.stats = LockStats()
        self.stats._mutex = self._mutex
        #: Conflict behaviour of :meth:`lock`: ``False`` (serial database)
        #: raises LockError, ``True`` (multi-session) blocks until granted.
        self.blocking = False
        #: Safety net for the threaded mode — a wait longer than this
        #: raises :class:`LockTimeoutError` instead of hanging the suite.
        self.wait_timeout = 30.0
        #: Per-transaction absolute deadlines (``time.monotonic()`` values)
        #: set through :meth:`set_deadline`; a lock wait past its deadline
        #: raises :class:`TransactionDeadlineError`.  Cleared by
        #: :meth:`release_all`, so the registry cannot leak across txids.
        #: Plain dict: single-key get/set/pop are atomic under the GIL and
        #: waiters re-check on every wake, so no extra lock is needed.
        self._deadlines: dict[int, float] = {}
        #: When set (see :meth:`poison`), every present and future blocked
        #: wait raises instead of sleeping — crash/close wake-all.
        self._poison: str | None = None
        #: Acquisition-order trace (see :meth:`start_order_trace`): when
        #: not ``None``, every grant appends ``(txid, resource, mode name,
        #: upgrading)`` — including grants made after a wait, which the
        #: obs layer does not re-announce.  The static analyzer's dynamic
        #: lockset checker consumes this to validate footprint order.
        #: Appends happen under the manager mutex.
        self.order_log: list[tuple[int, object, str, bool]] | None = None

    # -- order tracing -------------------------------------------------------

    def start_order_trace(self) -> list[tuple[int, object, str, bool]]:
        """Begin recording every grant in acquisition order; returns the
        live log list (cleared on each start)."""
        log: list[tuple[int, object, str, bool]] = []
        self.order_log = log
        return log

    def stop_order_trace(self) -> list[tuple[int, object, str, bool]]:
        """Stop recording and return the captured grant sequence."""
        log, self.order_log = self.order_log, None
        return log if log is not None else []

    # -- acquisition ---------------------------------------------------------

    def acquire(self, txid: int, resource: object, mode: LockMode) -> LockRequestStatus:
        """Request *mode* on *resource* for *txid* without blocking.

        Returns GRANTED immediately when compatible; otherwise records the
        FIFO wait (raising :class:`DeadlockError` if it would deadlock) and
        returns WAIT.  The caller retries after other transactions release.
        """
        with self._mutex:
            return self._acquire_locked(txid, resource, mode)

    def _entry_locked(self, resource: object) -> _LockEntry:
        entry = self._table.get(resource)
        if entry is None:
            entry = self._table[resource] = _LockEntry()
        return entry

    def _try_grant_locked(
        self, entry: _LockEntry, txid: int, resource: object, mode: LockMode
    ) -> bool:
        """Grant *mode* now if no wait is needed; whether *txid* holds it."""
        current = entry.holders.get(txid)
        if current is not None and current >= mode:
            return True  # already held at this strength
        if entry.waiters and any(w == txid for w, _ in entry.waiters):
            return False  # queued: only a release's grant retry grants it
        # An upgrader already holds the resource, so it conceptually sits at
        # the head of the queue: only the holders can block it.
        position = 0 if current is not None else None
        if not self._grantable(entry, txid, mode, position=position):
            return False
        self._grant(entry, txid, resource, mode)
        if obs.ENABLED:
            obs.emit(
                "lock.acquire",
                txid=txid,
                resource=resource,
                mode=mode.name,
                upgrade=current is not None,
            )
        return True

    def _acquire_locked(
        self, txid: int, resource: object, mode: LockMode
    ) -> LockRequestStatus:
        entry = self._entry_locked(resource)
        if self._try_grant_locked(entry, txid, resource, mode):
            return LockRequestStatus.GRANTED
        if any(w == txid for w, _ in entry.waiters):
            return LockRequestStatus.WAIT
        self.stats.waits += 1
        if obs.ENABLED:
            obs.emit(
                "lock.wait",
                txid=txid,
                resource=resource,
                mode=mode.name,
                blockers=self._describe_blockers(entry, txid, mode),
            )
        self._enqueue(entry, txid, mode)
        cycle = self._find_cycle(txid)
        if cycle:
            self.stats.deadlocks += 1
            entry.waiters = [(t, m) for t, m in entry.waiters if t != txid]
            if obs.ENABLED:
                obs.emit("lock.deadlock", txid=txid, cycle=list(cycle))
            raise DeadlockError(txid, cycle)
        return LockRequestStatus.WAIT

    def _grant_now(self, txid: int, resource: object, mode: LockMode) -> bool:
        """Grant *mode* if no wait is needed; whether *txid* now holds it.

        The one fast path of both modes, under one mutex hold.  A resource
        with no table entry — no holder, no waiter — is granted with one
        insert, skipping the grantability scan; any other request goes
        through :meth:`_try_grant_locked` (held at this strength, queued,
        or grantable — a sole holder's upgrade included).  Nothing is
        queued or counted as a wait here.
        """
        with self._mutex:
            entry = self._table.get(resource)
            if entry is not None:
                return self._try_grant_locked(entry, txid, resource, mode)
            # Uncontended: nobody holds or awaits *resource*.
            entry = self._table[resource] = _LockEntry()
            self._grant(entry, txid, resource, mode)
            if obs.ENABLED:
                obs.emit(
                    "lock.acquire",
                    txid=txid,
                    resource=resource,
                    mode=mode.name,
                    upgrade=False,
                )
            return True

    def acquire_or_raise(self, txid: int, resource: object, mode: LockMode) -> None:
        """Acquire, raising :class:`LockError` on conflict.

        The single-session database uses this path: with one transaction at a
        time a conflict indicates a bug rather than contention, so the
        request is neither queued nor counted as a wait.
        """
        if self._grant_now(txid, resource, mode):
            return
        holders = sorted(self.holders_of(resource))
        raise LockError(
            f"transaction {txid} blocked on {resource!r} held by {holders}"
        )

    def acquire_blocking(
        self,
        txid: int,
        resource: object,
        mode: LockMode,
        timeout: float | None = None,
    ) -> None:
        """Acquire, blocking the calling session until the lock is granted.

        Raises :class:`DeadlockError` when this request closes a waits-for
        cycle (the requester is the victim), :class:`LockTimeoutError`
        when the threaded wait exceeds *timeout* (default
        :attr:`wait_timeout`), :class:`TransactionDeadlineError` when the
        transaction's deadline (:meth:`set_deadline`) expires mid-wait,
        and :class:`WaitPoisonedError` when the manager is poisoned while
        the caller is parked.  An already-satisfiable request is granted
        even past a deadline or poison — only *waiting* is cancelled.

        A request that needs no wait is granted by :meth:`_grant_now`, the
        same step the serial path takes; only one that must wait looks up
        the thread's wait hooks and enters the loop below, which queues it
        (with the deadlock check) on its first pass.
        """
        if self._grant_now(txid, resource, mode):
            return
        hooks = current_wait_hooks()
        wait_deadline = None
        while True:
            with self._mutex:
                status = self._acquire_locked(txid, resource, mode)
                if status is LockRequestStatus.GRANTED:
                    return
                if self._poison is not None:
                    self._abandon_poisoned_locked(txid, resource)
                txn_deadline = self._deadlines.get(txid)
                if txn_deadline is not None and time.monotonic() >= txn_deadline:
                    self._abandon_deadline_locked(txid, resource, mode)
                if hooks is None:
                    # Threaded mode: sleep on the manager's condition until
                    # a release grants us (or a timeout/deadline/poison
                    # wakes us).
                    if wait_deadline is None:
                        budget = self.wait_timeout if timeout is None else timeout
                        wait_deadline = time.monotonic() + budget
                    while not self._is_granted_locked(txid, resource, mode):
                        if self._poison is not None:
                            self._abandon_poisoned_locked(txid, resource)
                        txn_deadline = self._deadlines.get(txid)
                        limit = (
                            wait_deadline
                            if txn_deadline is None
                            else min(wait_deadline, txn_deadline)
                        )
                        remaining = limit - time.monotonic()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            if self._is_granted_locked(txid, resource, mode):
                                break
                            if self._poison is not None:
                                self._abandon_poisoned_locked(txid, resource)
                            now = time.monotonic()
                            if txn_deadline is not None and now >= txn_deadline:
                                self._abandon_deadline_locked(txid, resource, mode)
                            if now >= wait_deadline:
                                self.stats.timeouts += 1
                                self._drop_request(txid, resource)
                                if obs.ENABLED:
                                    obs.emit(
                                        "lock.timeout",
                                        txid=txid,
                                        resource=resource,
                                        mode=mode.name,
                                    )
                                raise LockTimeoutError(
                                    f"transaction {txid} timed out waiting for "
                                    f"{resource!r} ({mode.name})"
                                )
                            # Notified without a grant: re-check and re-wait.
                    return
            # Cooperative mode: the scheduler parks this session and runs
            # others until the grant happened — or the wait must be
            # abandoned (poison, deadline), which the next loop iteration
            # turns into the matching raise.
            hooks.lock_wait(
                lambda: self.is_granted(txid, resource, mode)
                or self._wait_abandoned(txid)
            )

    def _abandon_poisoned_locked(self, txid: int, resource: object) -> None:
        self.stats.poisoned_waits += 1
        self._drop_request(txid, resource)
        raise WaitPoisonedError(
            f"transaction {txid}'s lock wait on {resource!r} was cancelled: "
            f"{self._poison}"
        )

    def _abandon_deadline_locked(
        self, txid: int, resource: object, mode: LockMode
    ) -> None:
        self.stats.deadline_aborts += 1
        self._drop_request(txid, resource)
        if obs.ENABLED:
            obs.emit("lock.deadline", txid=txid, resource=resource, mode=mode.name)
        raise TransactionDeadlineError(
            f"transaction {txid}'s deadline expired waiting for "
            f"{resource!r} ({mode.name})"
        )

    def _wait_abandoned(self, txid: int) -> bool:
        """Cooperative wake predicate arm: should this parked wait give up?"""
        if self._poison is not None:
            return True
        deadline = self._deadlines.get(txid)
        return deadline is not None and time.monotonic() >= deadline

    # -- deadlines and poisoning ------------------------------------------------

    def set_deadline(self, txid: int, deadline: float | None) -> None:
        """Bound *txid*'s lock waits by an absolute ``time.monotonic()``
        instant (``None`` clears).  :meth:`release_all` clears it too, so
        commit/abort cannot leak a deadline onto a recycled txid."""
        if deadline is None:
            self._deadlines.pop(txid, None)
            return
        self._deadlines[txid] = deadline
        # The dict write above happens before the notify, and a parked
        # waiter re-checks its deadline on every wake, so the update
        # cannot be lost.
        with self._mutex:
            self._cond.notify_all()

    def poison(self, reason: str) -> None:
        """Cancel every present and future blocked wait with
        :class:`WaitPoisonedError`.

        The crash/close path: when the process modelled by this database
        dies, sessions parked behind its locks must be *woken with an
        error*, not left to hang — a dead holder will never release.  The
        grant table is left intact for post-mortem inspection; a reopen
        builds a fresh manager.
        """
        self._poison = reason
        with self._mutex:
            self._cond.notify_all()
        if obs.ENABLED:
            obs.emit("lock.poison", reason=reason)

    @property
    def poisoned(self) -> bool:
        return self._poison is not None

    def lock(self, txid: int, resource: object, mode: LockMode) -> None:
        """The engines' acquisition entry point; behaviour per :attr:`blocking`."""
        if self.blocking:
            self.acquire_blocking(txid, resource, mode)
        else:
            self.acquire_or_raise(txid, resource, mode)

    # -- grant machinery -------------------------------------------------------

    def _grantable(
        self, entry: _LockEntry, txid: int, mode: LockMode, position: int | None
    ) -> bool:
        """Whether *txid*'s request is compatible with holders and the queue.

        *position* is the request's index in the FIFO queue (``None`` for a
        fresh request, which conceptually sits at the tail).  A request is
        grantable when no *other* holder conflicts and no earlier queued
        request conflicts — later arrivals never overtake an incompatible
        waiter, so writers cannot starve.
        """
        for holder, held in entry.holders.items():
            if holder != txid and not held.compatible(mode):
                return False
        if not entry.waiters:
            return True
        ahead = entry.waiters if position is None else entry.waiters[:position]
        for waiter, wmode in ahead:
            if waiter != txid and not (
                wmode.compatible(mode) and mode.compatible(wmode)
            ):
                return False
        return True

    def _grant(
        self, entry: _LockEntry, txid: int, resource: object, mode: LockMode
    ) -> None:
        current = entry.holders.get(txid)
        upgrading = current is not None and mode > current
        entry.holders[txid] = mode if current is None else max(current, mode)
        self._held[txid].add(resource)
        log = self.order_log
        if log is not None:
            log.append((txid, resource, mode.name, upgrading))
        if upgrading:
            self.stats.upgrades += 1
        if mode is LockMode.S:
            self.stats.s_acquired += 1
        else:
            self.stats.x_acquired += 1

    def _enqueue(self, entry: _LockEntry, txid: int, mode: LockMode) -> None:
        """Queue a request FIFO; lock *upgrades* jump ahead of fresh requests.

        An upgrader already holds the resource, so anything granted before
        it would conflict anyway; front-running it shortens the convoy and
        matches conventional lock-manager behaviour.
        """
        if txid in entry.holders:
            at = 0
            while at < len(entry.waiters) and entry.waiters[at][0] in entry.holders:
                at += 1
            entry.waiters.insert(at, (txid, mode))
        else:
            entry.waiters.append((txid, mode))

    def _describe_blockers(
        self, entry: _LockEntry, txid: int, mode: LockMode
    ) -> list:
        return sorted(
            holder
            for holder, held in entry.holders.items()
            if holder != txid and not held.compatible(mode)
        )

    def _is_granted_locked(
        self, txid: int, resource: object, mode: LockMode
    ) -> bool:
        entry = self._table.get(resource)
        if entry is None:
            return False
        held = entry.holders.get(txid)
        return held is not None and held >= mode

    def is_granted(self, txid: int, resource: object, mode: LockMode) -> bool:
        """Whether *txid* currently holds *resource* at least at *mode*."""
        with self._mutex:
            return self._is_granted_locked(txid, resource, mode)

    def _drop_request(self, txid: int, resource: object) -> None:
        """Remove *txid*'s queued request on *resource*, keeping grants.

        Safe to call with or without the mutex held (it re-enters the
        RLock); the timeout/deadline/poison abandon paths call it while
        already inside.
        """
        with self._mutex:
            entry = self._table.get(resource)
            if entry is not None:
                entry.waiters = [(t, m) for t, m in entry.waiters if t != txid]
                if not entry.holders and not entry.waiters:
                    del self._table[resource]

    # -- release ---------------------------------------------------------------

    def release_all(self, txid: int) -> None:
        """Release every lock *txid* holds, drop its queued requests, and
        grant-and-wake whoever its release unblocks (FIFO per resource).

        The grant retry covers the whole table, not just *txid*'s
        resources: a deadlock victim's withdrawn request can unblock a
        queue the victim never held.
        """
        self._deadlines.pop(txid, None)
        # Unlocked pre-check: every grant has a table entry, and only this
        # thread creates grants or queue entries for txid.
        if not self._table:
            return
        with self._mutex:
            for resource in self._held.pop(txid, ()):
                entry = self._table.get(resource)
                if entry is not None:
                    entry.holders.pop(txid, None)
                    if not entry.holders and not entry.waiters:
                        del self._table[resource]
            for entry in self._table.values():
                if entry.waiters:
                    entry.waiters = [(t, m) for t, m in entry.waiters if t != txid]
            if self._retry_locked():
                self._cond.notify_all()

    def retry_waiters(self) -> list[int]:
        """Grant every now-compatible queued request in FIFO arrival order
        per resource; returns the txids granted (with repeats per resource).

        Grants stop at the first still-blocked request of each queue so a
        late arrival can never overtake an incompatible earlier waiter.
        """
        with self._mutex:
            granted = self._retry_locked()
            if granted:
                self._cond.notify_all()
        return granted

    def _retry_locked(self) -> list[int]:
        granted: list[int] = []
        for resource, entry in list(self._table.items()):
            while entry.waiters:
                txid, mode = entry.waiters[0]
                held = entry.holders.get(txid)
                if held is not None and held >= mode:
                    entry.waiters.pop(0)  # stale: already satisfied
                    continue
                if not self._grantable(entry, txid, mode, position=0):
                    break
                entry.waiters.pop(0)
                self._grant(entry, txid, resource, mode)
                granted.append(txid)
            if not entry.holders and not entry.waiters:
                del self._table[resource]
        return granted

    # -- introspection ------------------------------------------------------------

    def holders_of(self, resource: object) -> frozenset[int]:
        with self._mutex:
            entry = self._table.get(resource)
            return frozenset(entry.holders) if entry else frozenset()

    def mode_held(self, txid: int, resource: object) -> LockMode | None:
        with self._mutex:
            entry = self._table.get(resource)
            return entry.holders.get(txid) if entry else None

    def locks_held(self, txid: int) -> frozenset[object]:
        with self._mutex:
            return frozenset(self._held.get(txid, ()))

    def waits_for_edges(self) -> dict[int, frozenset[int]]:
        with self._mutex:
            edges = self._edges_locked()
        return {txid: frozenset(blockers) for txid, blockers in edges.items()}

    # -- deadlock detection ----------------------------------------------------------

    def _edges_locked(self) -> dict[int, set[int]]:
        """The waits-for graph, built from the table under the mutex.

        An edge ``W -> B`` exists when queued request W conflicts with
        holder B, or with an *earlier* queued request B on the same
        resource (FIFO: W cannot be granted before B).  Building from
        ground truth is what keeps a transaction's edges on its *other*
        pending resources alive when one of its requests is granted.
        """
        edges: dict[int, set[int]] = {}
        for entry in self._table.values():
            for position, (txid, mode) in enumerate(entry.waiters):
                bucket = edges.setdefault(txid, set())
                for holder, held in entry.holders.items():
                    if holder != txid and not held.compatible(mode):
                        bucket.add(holder)
                for earlier, emode in entry.waiters[:position]:
                    if earlier != txid and not (
                        emode.compatible(mode) and mode.compatible(emode)
                    ):
                        bucket.add(earlier)
        return {txid: blockers for txid, blockers in edges.items() if blockers}

    def _find_cycle(self, start: int) -> tuple[int, ...]:
        """DFS from *start* in the waits-for graph; a cycle or ()."""
        graph = self._edges_locked()
        path: list[int] = []
        on_path: set[int] = set()
        visited: set[int] = set()

        def dfs(node: int) -> tuple[int, ...]:
            if node in on_path:
                idx = path.index(node)
                return tuple(path[idx:]) + (node,)
            if node in visited:
                return ()
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for nxt in graph.get(node, ()):
                cycle = dfs(nxt)
                if cycle:
                    return cycle
            path.pop()
            on_path.discard(node)
            return ()

        return dfs(start)
