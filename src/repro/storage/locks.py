"""Strict two-phase lock manager with waits-for deadlock detection.

Ode's storage managers provide locking; the paper's Section 6 observes that
*"triggers turn read access into write access, increasing both the amount of
time the transactions spend waiting for locks and the likelihood of
deadlock"* — experiment E6 measures exactly that, so the lock manager keeps
detailed counters.

The engines acquire through one entry point, :meth:`LockManager.lock`,
whose conflict behaviour is the :attr:`~LockManager.blocking` flag the
database flips when a second session opens:

* the **serial** database (one session) raises
  :class:`~repro.errors.LockError` on a conflict without queueing the
  request — with one transaction at a time a conflict indicates a bug;
* the **multi-session** database hands a conflicting request to
  :meth:`LockManager.acquire_blocking`, which queues it FIFO behind the
  current holders and earlier waiters and *blocks the calling session*
  until granted.  Releases (:meth:`release_all`) grant queued requests in
  arrival order per resource and wake the blocked sessions.

The lock table is two maps.  ``_holders`` maps a resource to a plain
holder dict ``{txid: mode}`` and keeps it while the resource has a holder
or a queue; ``_queues`` maps a resource to its FIFO wait queue and holds it
only while it has waiters.  :meth:`lock` does the grant-now step of both
modes itself, in one mutex hold: a resource absent from ``_holders`` —
nobody holds or awaits it — is one insert, a resource already held at that
strength returns at once, and any other grantable request (a sole
holder's upgrade included) is granted there.  Only a request that must
wait leaves that step.  :meth:`release_all` pops the transaction's grant
index, deletes each holder dict it empties that has no queue, and retries
only the queue map, only when it is non-empty.

The table is guarded by one ``threading.RLock``; its
``threading.Condition`` is what a blocked session sleeps on (real
``threading`` concurrency).  A cooperative scheduler instead installs
per-thread *wait hooks* (:func:`set_wait_hooks`) and the manager delegates
the entire wait to the scheduler, which parks the session
deterministically.

Deadlock policy: a request that must wait is queued, and then — under the
same mutex — the waits-for graph is built from the queues and searched
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
from repro.obs.metrics import LockedStats


class LockMode(enum.IntEnum):
    """Shared or exclusive."""

    S = 1
    X = 2

    def compatible(self, other: "LockMode") -> bool:
        return self is _S and other is _S


#: The shared mode, bound once: reading a member off an enum class is a
#: descriptor call, several times the cost of this global.
_S = LockMode.S


class LockRequestStatus(enum.Enum):
    GRANTED = "granted"
    WAIT = "wait"


@dataclasses.dataclass
class LockStats(LockedStats):
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


class LockManager:
    """S/X locks on opaque hashable resources, strict 2PL discipline."""

    def __init__(self) -> None:
        #: Guards the lock table, the grant index and the stats.
        self._mutex = threading.RLock()
        #: What a blocked threaded session sleeps on; notified when a
        #: release grants, a deadline changes, or the manager is poisoned.
        self._cond = threading.Condition(self._mutex)
        #: resource → its holders ``{txid: mode}``; kept while the resource
        #: has a holder or a queue, so an absent resource has neither.
        self._holders: dict[object, dict[int, LockMode]] = {}
        #: resource → its FIFO wait queue of ``(txid, mode)``; present only
        #: while the queue is non-empty.
        self._queues: dict[object, list[tuple[int, LockMode]]] = {}
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
        #: obs layer does not re-announce.  Only tests start it (the lock
        #: tests and the storage engines' timeline test); the analyzer's
        #: ``check_lock_trace`` reads obs ``lock.acquire``/``lock.wait``
        #: records instead.  Appends happen under the manager mutex.
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

    def lock(self, txid: int, resource: object, mode: LockMode) -> None:
        """The engines' acquisition entry point; behaviour per :attr:`blocking`.

        The grant-now step of both modes, under one mutex hold: an absent
        resource is granted with one insert, a resource already held at
        this strength returns, and any other request is granted through
        :meth:`_try_grant_locked` if no wait is needed.  A request that
        must wait raises :class:`LockError` in serial mode; in blocking
        mode it goes to :meth:`acquire_blocking`, outside the mutex.
        """
        with self._mutex:
            holders = self._holders.get(resource)
            if holders is None:
                # Uncontended: nobody holds or awaits *resource*.
                self._holders[resource] = {txid: mode}
                self._held[txid].add(resource)
                log = self.order_log
                if log is not None:
                    log.append((txid, resource, mode.name, False))
                if mode is _S:
                    self.stats.s_acquired += 1
                else:
                    self.stats.x_acquired += 1
                if obs.ENABLED:
                    obs.emit(
                        "lock.acquire",
                        txid=txid,
                        resource=resource,
                        mode=mode.name,
                        upgrade=False,
                    )
                return
            current = holders.get(txid)
            if current is not None and current >= mode:
                return  # already held at this strength
            if self._try_grant_locked(txid, resource, mode):
                return
            if not self.blocking:
                raise LockError(
                    f"transaction {txid} blocked on {resource!r} "
                    f"held by {sorted(holders)}"
                )
        self.acquire_blocking(txid, resource, mode)

    def acquire(self, txid: int, resource: object, mode: LockMode) -> LockRequestStatus:
        """Request *mode* on *resource* for *txid* without blocking.

        Returns GRANTED immediately when compatible; otherwise records the
        FIFO wait (raising :class:`DeadlockError` if it would deadlock) and
        returns WAIT.  The caller retries after other transactions release.
        """
        with self._mutex:
            return self._acquire_locked(txid, resource, mode)

    def _try_grant_locked(self, txid: int, resource: object, mode: LockMode) -> bool:
        """Grant *mode* now if no wait is needed; whether *txid* holds it.

        The general grant step: held at this strength, queued, or
        grantable.  Nothing is queued or counted as a wait here.
        """
        holders = self._holders.get(resource)
        if holders is None:
            holders = self._holders[resource] = {}
        current = holders.get(txid)
        if current is not None and current >= mode:
            return True  # already held at this strength
        queue = self._queues.get(resource)
        if queue is not None and any(w == txid for w, _ in queue):
            return False  # queued: only a release's grant retry grants it
        # An upgrader already holds the resource, so it conceptually sits at
        # the head of the queue: only the holders can block it.
        ahead = queue if queue is not None and current is None else ()
        if not self._grantable(holders, ahead, txid, mode):
            return False
        self._grant(holders, txid, resource, mode)
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
        if self._try_grant_locked(txid, resource, mode):
            return LockRequestStatus.GRANTED
        queue = self._queues.get(resource)
        if queue is not None and any(w == txid for w, _ in queue):
            return LockRequestStatus.WAIT
        holders = self._holders[resource]
        self.stats.waits += 1
        if obs.ENABLED:
            obs.emit(
                "lock.wait",
                txid=txid,
                resource=resource,
                mode=mode.name,
                blockers=self._describe_blockers(holders, txid, mode),
            )
        self._enqueue(holders, txid, resource, mode)
        cycle = self._find_cycle(txid)
        if cycle:
            self.stats.deadlocks += 1
            self._drop_request(txid, resource)
            if obs.ENABLED:
                obs.emit("lock.deadlock", txid=txid, cycle=list(cycle))
            raise DeadlockError(txid, cycle)
        return LockRequestStatus.WAIT

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

        The loop's first pass grants a request that needs no wait, or
        queues it (with the deadlock check); :meth:`lock` calls this only
        for a request its own grant-now step could not grant.
        """
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

    # -- grant machinery -------------------------------------------------------

    @staticmethod
    def _grantable(
        holders: dict[int, LockMode], ahead, txid: int, mode: LockMode
    ) -> bool:
        """Whether *txid*'s request is compatible with the holders and
        with *ahead*, the queued requests it must not overtake (empty for
        a queue's head or an upgrader; the whole queue for a fresh
        request, which conceptually sits at the tail).  Later arrivals
        never overtake an incompatible waiter, so writers cannot starve.
        """
        for holder, held in holders.items():
            if holder != txid and not held.compatible(mode):
                return False
        for waiter, wmode in ahead:
            if waiter != txid and not wmode.compatible(mode):
                return False
        return True

    def _grant(
        self, holders: dict[int, LockMode], txid: int, resource: object, mode: LockMode
    ) -> None:
        """Record a grant of *mode*, stronger than anything *txid* holds."""
        upgrading = txid in holders
        holders[txid] = mode
        self._held[txid].add(resource)
        log = self.order_log
        if log is not None:
            log.append((txid, resource, mode.name, upgrading))
        if upgrading:
            self.stats.upgrades += 1
        if mode is _S:
            self.stats.s_acquired += 1
        else:
            self.stats.x_acquired += 1

    def _enqueue(
        self, holders: dict[int, LockMode], txid: int, resource: object, mode: LockMode
    ) -> None:
        """Queue a request FIFO; lock *upgrades* jump ahead of fresh requests.

        An upgrader already holds the resource, so anything granted before
        it would conflict anyway; front-running it shortens the convoy and
        matches conventional lock-manager behaviour.
        """
        queue = self._queues.setdefault(resource, [])
        if txid in holders:
            at = 0
            while at < len(queue) and queue[at][0] in holders:
                at += 1
            queue.insert(at, (txid, mode))
        else:
            queue.append((txid, mode))

    @staticmethod
    def _describe_blockers(
        holders: dict[int, LockMode], txid: int, mode: LockMode
    ) -> list:
        return sorted(
            holder
            for holder, held in holders.items()
            if holder != txid and not held.compatible(mode)
        )

    def _is_granted_locked(self, txid: int, resource: object, mode: LockMode) -> bool:
        holders = self._holders.get(resource)
        if holders is None:
            return False
        held = holders.get(txid)
        return held is not None and held >= mode

    def is_granted(self, txid: int, resource: object, mode: LockMode) -> bool:
        """Whether *txid* currently holds *resource* at least at *mode*."""
        with self._mutex:
            return self._is_granted_locked(txid, resource, mode)

    def _drop_request(self, txid: int, resource: object) -> None:
        """Remove *txid*'s queued request on *resource*, keeping grants.

        Safe to call with or without the mutex held (it re-enters the
        RLock); the deadlock, timeout, deadline and poison paths call it
        while already inside.
        """
        with self._mutex:
            queue = self._queues.get(resource)
            if queue is None:
                return
            queue[:] = [(t, m) for t, m in queue if t != txid]
            if not queue:
                del self._queues[resource]
                if not self._holders[resource]:
                    del self._holders[resource]

    # -- release ---------------------------------------------------------------

    def release_all(self, txid: int) -> None:
        """Release every lock *txid* holds, drop its queued requests, and
        grant-and-wake whoever its release unblocks (FIFO per resource).

        The grant retry covers every queue, not just those on *txid*'s
        resources: a deadlock victim's withdrawn request can unblock a
        queue the victim never held.
        """
        self._deadlines.pop(txid, None)
        with self._mutex:
            held = self._held.pop(txid, None)
            if held:
                table, queues = self._holders, self._queues
                for resource in held:
                    holders = table[resource]
                    del holders[txid]
                    if not holders and resource not in queues:
                        del table[resource]
            if self._queues:
                for queue in self._queues.values():
                    queue[:] = [(t, m) for t, m in queue if t != txid]
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
        table, queues = self._holders, self._queues
        for resource, queue in list(queues.items()):
            holders = table[resource]
            while queue:
                txid, mode = queue[0]
                held = holders.get(txid)
                if held is None or held < mode:  # else stale: already satisfied
                    if not self._grantable(holders, (), txid, mode):
                        break
                    self._grant(holders, txid, resource, mode)
                    granted.append(txid)
                del queue[0]
            if not queue:
                del queues[resource]
                if not holders:
                    del table[resource]
        return granted

    # -- introspection ------------------------------------------------------------

    def holders_of(self, resource: object) -> frozenset[int]:
        with self._mutex:
            return frozenset(self._holders.get(resource, ()))

    def mode_held(self, txid: int, resource: object) -> LockMode | None:
        with self._mutex:
            holders = self._holders.get(resource)
            return holders.get(txid) if holders else None

    def locks_held(self, txid: int) -> frozenset[object]:
        with self._mutex:
            return frozenset(self._held.get(txid, ()))

    def waits_for_edges(self) -> dict[int, frozenset[int]]:
        with self._mutex:
            edges = self._edges_locked()
        return {txid: frozenset(blockers) for txid, blockers in edges.items()}

    # -- deadlock detection ----------------------------------------------------------

    def _edges_locked(self) -> dict[int, set[int]]:
        """The waits-for graph, built from the queue map under the mutex.

        An edge ``W -> B`` exists when queued request W conflicts with
        holder B, or with an *earlier* queued request B on the same
        resource (FIFO: W cannot be granted before B).  Building from
        ground truth is what keeps a transaction's edges on its *other*
        pending resources alive when one of its requests is granted.
        """
        edges: dict[int, set[int]] = {}
        for resource, queue in self._queues.items():
            holders = self._holders[resource]
            for position, (txid, mode) in enumerate(queue):
                bucket = edges.setdefault(txid, set())
                for holder, held in holders.items():
                    if holder != txid and not held.compatible(mode):
                        bucket.add(holder)
                for earlier, emode in queue[:position]:
                    if earlier != txid and not emode.compatible(mode):
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
