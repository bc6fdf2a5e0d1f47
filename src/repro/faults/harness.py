"""Crash-matrix exploration: crash at every failpoint, recover, verify.

The harness runs a fixed trigger-posting workload (the paper's Section 4
credit-card domain: FSM-bearing triggers, a B-tree index, phoenix
intentions, a mid-run checkpoint, an aborted transaction) twice over:

1. **Record** — one fault-free run with a recording
   :class:`~repro.faults.FaultInjector` produces the *trace*: the ordered
   list of every failpoint hit the workload generates.
2. **Explore** — for each selected hit index, a fresh copy of the
   workload runs with ``crash_at`` set to that index.  The injected
   crash kills the "process" mid-operation; the database is then
   reopened *without* an injector (normal crash recovery), drained, and
   checked against the oracle:

   * every transaction confirmed committed before the crash is durable,
     the one in flight either committed whole or rolled back whole
     (state must equal the confirmed model or the pending model — never
     anything in between);
   * the B-tree index still finds the card under its current key;
   * each phoenix intention from the surviving model ran **exactly once
     at the application level** (the at-least-once drain plus an
     idempotent handler — the paper's phoenix contract);
   * :func:`repro.fsck.fsck` reports the recovered database clean.

The workload is deterministic, so the trace — and therefore the whole
matrix — is reproducible run to run.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import TransactionAbort
from repro.faults.injector import FaultInjector, HitRecord
from repro.objects.index import load_index
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.workloads.credit_card import CredCard, Customer

_CARD_KEY = "app:card"
_LEDGER_KEY = "app:ledger"
_SETTLE = "settle"


class SettlementLedger(Persistent):
    """Application-side record of settled phoenix tokens (exactly-once)."""

    tokens = field(list, default=[])


@dataclasses.dataclass(frozen=True)
class ModelState:
    """The oracle's logical state: what the database must look like."""

    created: bool = False
    purchases: int = 0
    balance: float = 0.0
    tokens: tuple[str, ...] = ()

    def matches_db(self, db) -> bool:
        with db.transaction():
            card_rid = db.catalog_get(_CARD_KEY)
            if card_rid is None:
                return not self.created
            if not self.created:
                return False
            from repro.objects.oid import PersistentPtr

            card = db.deref(PersistentPtr(db.name, card_rid))
            return (
                card.purchases == self.purchases
                and abs(card.curr_bal - self.balance) < 1e-9
            )


class Oracle:
    """Tracks the confirmed/pending model pair around every commit.

    Transactions are strictly sequential, so a single crash interrupts at
    most one: the recovered database must equal ``confirmed`` (the crash
    hit before the commit became durable) or ``pending`` (after).
    """

    def __init__(self) -> None:
        self.confirmed = ModelState()
        self.pending = ModelState()

    def attempt(self, **changes: Any) -> None:
        self.pending = dataclasses.replace(self.confirmed, **changes)

    def confirm(self) -> None:
        self.confirmed = self.pending

    @property
    def acceptable(self) -> tuple[ModelState, ...]:
        if self.pending == self.confirmed:
            return (self.confirmed,)
        return (self.confirmed, self.pending)


@dataclasses.dataclass
class CrashOutcome:
    """What happened when the workload crashed at one trace hit."""

    hit: int
    point: str
    matched: str  # "confirmed" | "pending"
    recovery: Any  # storage recovery stats, engine-dependent
    drained: int
    fsck_findings: list[str]


@dataclasses.dataclass
class MatrixResult:
    trace: list[HitRecord]
    explored: list[CrashOutcome]

    @property
    def points_explored(self) -> set[str]:
        return {o.point for o in self.explored}

    @property
    def families_explored(self) -> set[str]:
        """Failpoint families ("wal", "page", "checkpoint", ...)."""
        return {p.split(".", 1)[0] for p in self.points_explored}


# ---------------------------------------------------------------------------
# The workload under test
# ---------------------------------------------------------------------------


def _settle_handler(db):
    """The idempotent phoenix executor: settle a token at most once."""
    from repro.objects.oid import PersistentPtr

    def settle(txn, payload):
        ledger = db.deref(PersistentPtr(db.name, payload["ledger"]))
        token = payload["token"]
        if token not in ledger.tokens:
            ledger.tokens = ledger.tokens + [token]

    return settle


def run_workload(
    path: str,
    injector: FaultInjector,
    oracle: Oracle,
    *,
    engine: str = "disk",
    buffer_capacity: int = 3,
    trigger_cc: str = "2pl",
) -> None:
    """One deterministic pass of the trigger-posting workload.

    Raises :class:`~repro.errors.InjectedCrashError` when *injector* is
    armed with a crash; the caller owns cleanup and recovery.

    *trigger_cc* selects the TriggerState concurrency-control scheme; the
    MVCC merge writes through the same WAL as 2PL, so the whole matrix
    must hold unchanged under ``"mvcc"``.
    """
    from repro.objects.database import Database

    kwargs: dict[str, Any] = {"injector": injector, "trigger_cc": trigger_cc}
    if engine == "disk":
        kwargs["buffer_capacity"] = buffer_capacity
    db = Database.open(path, engine=engine, name=f"matrix:{path}", **kwargs)
    try:
        manager = db.txn_manager

        # Setup: card + AutoRaiseLimit FSM + ledger + index, one txn.
        txn = manager.begin()
        card = db.pnew(CredCard, cred_lim=10.0)
        card.AutoRaiseLimit(5.0)
        ledger = db.pnew(SettlementLedger)
        db.catalog_set(txn, _CARD_KEY, card.ptr.rid)
        db.catalog_set(txn, _LEDGER_KEY, ledger.ptr.rid)
        if engine == "disk":
            db.create_index(CredCard, "purchases")
        # Page-spanning filler so the small buffer pool must evict dirty
        # frames (covers the pool.evict failpoint on the disk engine).
        fillers = [
            db.pnew(Customer, name=f"filler-{i}-" + "x" * 1500).ptr
            for i in range(8)
        ]
        card_ptr, ledger_rid = card.ptr, ledger.ptr.rid
        oracle.attempt(created=True)
        manager.commit(txn)
        oracle.confirm()
        # Touch the filler spread: dirties several pages in one txn.
        txn = manager.begin()
        for ptr in fillers:
            handle = db.deref(ptr)
            handle.address = "updated"
        oracle.attempt()  # no modelled fields change
        manager.commit(txn)
        oracle.confirm()
        db.phoenix.register_handler(_SETTLE, _settle_handler(db))

        # A run of buys; enough to arm MoreCred (balance > 80% of limit).
        for i in range(4):
            txn = manager.begin()
            db.deref(card_ptr).buy(None, 3.0)
            oracle.attempt(
                purchases=oracle.confirmed.purchases + 1,
                balance=oracle.confirmed.balance + 3.0,
            )
            manager.commit(txn)
            oracle.confirm()

        # Two phoenix intentions, drained as they would be after tcommit.
        for k in range(2):
            token = f"settle-{k}"
            txn = manager.begin()
            db.deref(card_ptr).buy(None, 1.0)
            db.phoenix.enqueue(
                txn, _SETTLE, {"ledger": ledger_rid, "token": token}
            )
            oracle.attempt(
                purchases=oracle.confirmed.purchases + 1,
                balance=oracle.confirmed.balance + 1.0,
                tokens=oracle.confirmed.tokens + (token,),
            )
            manager.commit(txn)
            oracle.confirm()
            db.phoenix.drain()

        # pay_bill completes AutoRaiseLimit's relative event: FSM accepts.
        txn = manager.begin()
        db.deref(card_ptr).pay_bill(2.0)
        oracle.attempt(balance=oracle.confirmed.balance - 2.0)
        manager.commit(txn)
        oracle.confirm()

        # An aborted transaction: its logged writes must never survive.
        with db.transaction():
            db.deref(card_ptr).buy(None, 500.0)
            raise TransactionAbort("oracle: this buy must vanish")

        # Checkpoint mid-run, then more work so the log is live again.
        db.storage.checkpoint()
        txn = manager.begin()
        db.deref(card_ptr).buy(None, 3.0)
        oracle.attempt(
            purchases=oracle.confirmed.purchases + 1,
            balance=oracle.confirmed.balance + 3.0,
        )
        manager.commit(txn)
        oracle.confirm()
        db.close()  # inside the guard: the close-time checkpoint can crash too
    except BaseException:
        # Injected crash (or any failure): the "process" dies here.
        if not db._closed:
            db.simulate_crash()
        raise


# ---------------------------------------------------------------------------
# Record + explore
# ---------------------------------------------------------------------------


def record_trace(
    path: str,
    *,
    engine: str = "disk",
    trigger_cc: str = "2pl",
) -> list[HitRecord]:
    """The fault-free run: every failpoint hit, in order."""
    injector = FaultInjector(recording=True)
    run_workload(path, injector, Oracle(), engine=engine, trigger_cc=trigger_cc)
    return injector.trace


def select_hits(trace: list[HitRecord], limit: int | None) -> list[int]:
    """Pick hit indices to explore: every distinct failpoint first, then
    evenly-spaced extras up to *limit* (None = the whole trace)."""
    if limit is None or limit >= len(trace):
        return list(range(len(trace)))
    chosen: list[int] = []
    seen_points: set[str] = set()
    for rec in trace:
        if rec.point not in seen_points:
            seen_points.add(rec.point)
            chosen.append(rec.index)
    remaining = [i for i in range(len(trace)) if i not in set(chosen)]
    extra = max(0, limit - len(chosen))
    if extra and remaining:
        stride = max(1, len(remaining) // extra)
        chosen.extend(remaining[::stride][:extra])
    return sorted(chosen)[:max(limit, len(seen_points))]


def crash_and_verify(
    path: str,
    crash_at: int,
    point: str,
    *,
    engine: str = "disk",
    trigger_cc: str = "2pl",
) -> CrashOutcome:
    """Run the workload crashing at trace index *crash_at*, then recover
    and check every invariant.  Raises AssertionError on violation."""
    from repro.errors import InjectedCrashError
    from repro.fsck import fsck, fsck_database
    from repro.objects.database import Database
    from repro.objects.oid import PersistentPtr

    injector = FaultInjector(crash_at=crash_at)
    oracle = Oracle()
    try:
        run_workload(path, injector, oracle, engine=engine, trigger_cc=trigger_cc)
    except InjectedCrashError:
        pass
    else:
        raise AssertionError(f"crash_at={crash_at} never fired")

    # -- recovery (no injector: the next process boots on real I/O) -------
    # Recovery deliberately reopens with the same trigger_cc: the merged
    # TriggerState bytes are plain WAL'd records either way.
    kwargs: dict[str, Any] = {"trigger_cc": trigger_cc}
    if engine == "disk":
        kwargs["buffer_capacity"] = 8
    recovered = Database.open(
        path, engine=engine, name=f"matrix-recovered:{path}", **kwargs
    )
    try:
        recovery_stats = getattr(recovered.storage, "last_recovery", None)
        recovered.phoenix.register_handler(_SETTLE, _settle_handler(recovered))
        drained = recovered.phoenix.drain()

        # Invariant 1: atomic transactions — state is one of the models.
        candidates = [("confirmed", oracle.confirmed)]
        if oracle.pending != oracle.confirmed:
            candidates.append(("pending", oracle.pending))
        matched = None
        for label, model in candidates:
            if model.matches_db(recovered):
                matched = (label, model)
                break
        assert matched is not None, (
            f"crash@{crash_at} ({point}): recovered state matches neither "
            f"the confirmed nor the in-flight model: {oracle.acceptable}"
        )
        label, model = matched

        with recovered.transaction() as txn:
            # Invariant 2: the index still finds the card under its key.
            card_rid = recovered.catalog_get(_CARD_KEY)
            if engine == "disk" and model.created:
                index = load_index(recovered, "CredCard", "purchases")
                if index is not None:  # in-flight setup txn may have rolled back
                    card = recovered.deref(PersistentPtr(recovered.name, card_rid))
                    assert card_rid in index.lookup(txn, card.purchases), (
                        f"crash@{crash_at} ({point}): index lost the card"
                    )

            # Invariant 3: phoenix exactly-once at the application level.
            ledger_rid = recovered.catalog_get(_LEDGER_KEY)
            settled: list[str] = []
            if ledger_rid is not None:
                settled = list(
                    recovered.deref(
                        PersistentPtr(recovered.name, ledger_rid)
                    ).tokens
                )
            assert len(settled) == len(set(settled)), (
                f"crash@{crash_at} ({point}): token settled twice: {settled}"
            )
            assert sorted(settled) == sorted(model.tokens), (
                f"crash@{crash_at} ({point}): settled {settled} but the "
                f"{label} model enqueued {model.tokens}"
            )

        # Invariant 4: fsck is clean while open (trigger/index/phoenix).
        report = fsck_database(recovered)
        assert report.ok, (
            f"crash@{crash_at} ({point}): fsck: "
            + "; ".join(f.render() for f in report.findings)
        )
    finally:
        recovered.close()

    # Invariant 5: fsck of the closed files (physical + logical) is clean.
    report = fsck(path, engine=engine)
    assert report.ok, (
        f"crash@{crash_at} ({point}): post-close fsck: "
        + "; ".join(f.render() for f in report.findings)
    )
    return CrashOutcome(
        hit=crash_at,
        point=point,
        matched=label,
        recovery=recovery_stats,
        drained=drained,
        fsck_findings=[f.render() for f in report.findings],
    )


def explore(
    base_path: str,
    *,
    engine: str = "disk",
    limit: int | None = None,
    trigger_cc: str = "2pl",
) -> MatrixResult:
    """Record the trace, then crash-and-verify at the selected hits.

    *base_path* is a directory-like prefix: each run gets its own file
    set (``<base_path>-trace``, ``<base_path>-h<i>``).
    """
    trace = record_trace(f"{base_path}-trace", engine=engine, trigger_cc=trigger_cc)
    outcomes = []
    for i in select_hits(trace, limit):
        outcomes.append(
            crash_and_verify(
                f"{base_path}-h{i}",
                i,
                trace[i].point,
                engine=engine,
                trigger_cc=trigger_cc,
            )
        )
    return MatrixResult(trace=trace, explored=outcomes)
