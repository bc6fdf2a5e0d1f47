"""The concurrent chaos workload: N sessions, one crash-checkable oracle.

The crash matrix (:mod:`repro.faults.harness`) runs this workload next to
the serial credit-card one: *n* sessions over one database each run a
mixed stream of trigger-posting transactions while the driver crashes the
"process" at storage failpoints.  The oracle (the harness's
:class:`~repro.faults.harness.Chaos`) must therefore accept any
interleaving the scheduler produced, which shapes the transaction design:

* every transaction of session *i* increments **its own account** and the
  **shared account** in the same transaction — so after recovery the
  per-session account value is exactly its count of committed
  transactions, and atomicity across records is checkable globally:
  ``shared.value == sum(account_i.value)`` must hold no matter where the
  crash landed;
* each account value must be the session's ``confirmed`` count or its
  ``pending`` count (commit in flight at the crash) — *per session*,
  because any subset of sessions can be mid-transaction when the process
  dies, but "no committed session's effects are lost" must hold for all;
* every odd transaction enqueues a **phoenix token** with a deterministic
  name, so the recovered settlement ledger must equal the union of each
  session's committed token schedule, each token exactly once;
* transactions post ``Ping``/``Pong`` on shared :class:`~repro.workloads.
  locksim.HotObject` hubs, whose perpetual ``Watch`` triggers write
  persistent TriggerState back — the S→X upgrades supply the lock
  contention (waits, upgrades, deadlock-retries) the matrix is meant to
  crash into.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable

from repro.errors import DeadlockError
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.workloads.locksim import HotObject

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.harness import CommitModel
    from repro.objects.database import Database
    from repro.objects.oid import PersistentPtr
    from repro.sessions.scheduler import CooperativeScheduler
    from repro.sessions.session import Session

SHARED_KEY = "chaos:shared"
LEDGER_KEY = "chaos:ledger"
ACCOUNT_KEY = "chaos:acct:{name}"
HUB_KEY = "chaos:hub:{i}"
SETTLE_KIND = "chaos.settle"

N_HUBS = 2


class ChaosAccount(Persistent):
    """A per-session (or the shared) transaction counter."""

    value = field(int, default=0)


class ChaosLedger(Persistent):
    """Application-side record of settled phoenix tokens (exactly-once)."""

    tokens = field(list, default=[])


class ChaosFiller(Persistent):
    """Page-spanning padding so a small disk buffer pool must evict."""

    payload = field(str, default="")


def session_names(n_sessions: int) -> list[str]:
    return [f"s{i}" for i in range(n_sessions)]


def tokens_for(name: str, committed: int) -> list[str]:
    """The phoenix tokens a session enqueued in its first *committed*
    transactions (the deterministic schedule: odd transactions enqueue)."""
    return [f"{name}:{k}" for k in range(committed) if k % 2 == 1]


# ---------------------------------------------------------------------------
# Setup and per-session programs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ChaosFixture:
    """Pointers the session programs operate on."""

    accounts: dict[str, "PersistentPtr"]
    shared: "PersistentPtr"
    ledger_rid: int
    hubs: list["PersistentPtr"]


def setup_chaos(
    db: "Database", setup: "CommitModel[bool]", n_sessions: int, *, fillers: int = 6
) -> ChaosFixture:
    """Create accounts, hubs (with Watch triggers), and the ledger.

    Two transactions: one atomic create (the oracle's all-or-nothing
    setup), then a filler touch that dirties several pages without
    changing modelled state — the same eviction pressure the cards
    workload applies.  *setup* is the create's confirmed/pending pair.
    """
    manager = db.txn_manager
    txn = manager.begin()
    accounts: dict[str, "PersistentPtr"] = {}
    for name in session_names(n_sessions):
        handle = db.pnew(ChaosAccount)
        db.catalog_set(txn, ACCOUNT_KEY.format(name=name), handle.ptr.rid)
        accounts[name] = handle.ptr
    shared = db.pnew(ChaosAccount)
    db.catalog_set(txn, SHARED_KEY, shared.ptr.rid)
    ledger = db.pnew(ChaosLedger)
    db.catalog_set(txn, LEDGER_KEY, ledger.ptr.rid)
    hubs = []
    for i in range(N_HUBS):
        hub = db.pnew(HotObject)
        hub.Watch()
        db.catalog_set(txn, HUB_KEY.format(i=i), hub.ptr.rid)
        hubs.append(hub.ptr)
    filler_ptrs = [
        db.pnew(ChaosFiller, payload=f"filler-{i}-" + "x" * 1500).ptr
        for i in range(fillers)
    ]
    fixture = ChaosFixture(
        accounts=accounts,
        shared=shared.ptr,
        ledger_rid=ledger.ptr.rid,
        hubs=hubs,
    )
    setup.attempt(True)
    manager.commit(txn)
    setup.confirm()

    txn = manager.begin()
    for ptr in filler_ptrs:
        db.deref(ptr).payload = "touched-" + "y" * 1500
    manager.commit(txn)  # no modelled state changes: crash here matches setup
    return fixture


def drain_retrying(db: "Database", scheduler: "CooperativeScheduler | None") -> int:
    """Drain phoenix intentions, retrying drain-internal deadlocks.

    Concurrent drains contend on the intention queue and the ledger; a
    deadlock victim inside :meth:`PhoenixQueue.drain` aborted its system
    transaction (the intention stays queued), so draining again is safe —
    and deterministic under a cooperative scheduler (threaded callers back
    off with a tiny sleep instead).
    """
    import time

    for attempt in range(10):
        try:
            return db.phoenix.drain()
        except DeadlockError:
            if scheduler is not None:
                scheduler.yield_now()
            else:
                time.sleep(0.001)
    raise AssertionError("phoenix drain kept deadlocking")  # pragma: no cover


def chaos_program(
    session: "Session",
    model: "CommitModel[int]",
    fixture: ChaosFixture,
    *,
    n_txns: int,
    scheduler: "CooperativeScheduler | None" = None,
    retries: int = 50,
    deadline: float | None = None,
) -> Callable[[], int]:
    """Build session *name*'s program: *n_txns* mixed transactions.

    Transaction *k*: increment the own account and the shared account,
    post ``Ping``/``Pong`` on hub ``(index + k) % N_HUBS``, and on odd *k*
    enqueue the phoenix token ``f"{name}:{k}"`` — then drain.  *model* is
    the session's confirmed/pending pair: the attempt happens at the end
    of the body (just before commit), the confirm after
    :meth:`Session.run` returns.
    """
    db = session.db
    name = session.name
    index = int(name[1:])

    def maybe_yield() -> None:
        if scheduler is not None:
            scheduler.yield_now()

    def program() -> int:
        # The drain between transactions begins a *system* transaction,
        # which resolves the calling thread's ambient session; on a bare
        # thread that would fall back to the shared default session and
        # concurrent drains would collide (NestedTransactionError).  Bind
        # the whole program to its own session instead.
        from repro.sessions.session import ambient_session

        with ambient_session(session):
            return _program_body()

    def _program_body() -> int:
        for k in range(n_txns):
            token = f"{name}:{k}" if k % 2 == 1 else None

            def body(txn, k=k, token=token):
                own = session.deref(fixture.accounts[name])
                own.value = own.value + 1
                maybe_yield()
                shared = session.deref(fixture.shared)
                shared.value = shared.value + 1
                maybe_yield()
                hub = session.deref(fixture.hubs[(index + k) % N_HUBS])
                hub.post_event("Ping")
                hub.post_event("Pong")
                maybe_yield()
                if token is not None:
                    db.phoenix.enqueue(
                        txn, SETTLE_KIND, {"ledger": fixture.ledger_rid, "token": token}
                    )
                model.attempt(model.confirmed + 1)

            session.run(body, retries=retries, deadline=deadline)
            model.confirm()
            if token is not None:
                drain_retrying(db, scheduler)
            maybe_yield()
        session.close()
        return n_txns

    return program
