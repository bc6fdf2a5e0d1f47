"""The crash matrix: crash at every failpoint hit, recover, verify.

One driver runs any *workload* — a constant database name, a ``reset()``
that starts a fresh oracle, a ``run(db)`` that drives the database while
updating that oracle, and a ``verify(recovered, where)`` that checks the
recovered database against it — on either engine under either
``trigger_cc``:

1. **Record** — one fault-free run with a recording
   :class:`~repro.faults.FaultInjector` produces the *trace*: the ordered
   list of every failpoint hit the workload generates.
2. **Explore** — for each selected hit index, a fresh run crashes at that
   hit.  The "process" dies mid-operation (``simulate_crash`` drops every
   unforced byte); the database is reopened *without* an injector under
   the same ``trigger_cc`` (normal crash recovery), phoenix is drained,
   and the recovered state must pass the workload's ``verify`` and
   :mod:`repro.fsck`, open and closed.

Two workloads:

* :class:`Cards` — one committer over the paper's Section 4 credit-card
  domain: FSM-bearing triggers, a B-tree index, phoenix intentions, a
  mid-run checkpoint, an aborted transaction;
* :class:`Chaos` — N sessions of :mod:`repro.workloads.chaos`, either
  interleaved by a deterministic cooperative scheduler or on real
  threads.

A workload whose runs replay (cards; cooperative chaos) must crash
exactly where the trace says; the driver asserts it.  The database name
is part of the record bytes, so each workload opens under a constant
name: a name that varied run to run would shift record sizes and page
boundaries, and hit *k* would stop meaning the same failpoint.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Callable, Generic, Protocol, TypeVar

from repro.errors import InjectedCrashError, TransactionAbort, WaitPoisonedError
from repro.faults.injector import FaultInjector, HitRecord
from repro.objects.index import load_index
from repro.objects.oid import PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import field
from repro.workloads import chaos
from repro.workloads.credit_card import CredCard, Customer

T = TypeVar("T")


class CommitModel(Generic[T]):
    """One committer's confirmed/pending pair.

    A committer's transactions are sequential, so a crash interrupts at
    most one of them: the recovered state must equal ``confirmed`` (the
    crash hit before the commit became durable) or ``pending`` (after) —
    never anything in between.
    """

    def __init__(self, initial: T) -> None:
        self.confirmed = self.pending = initial

    def attempt(self, state: T) -> None:
        self.pending = state

    def confirm(self) -> None:
        self.confirmed = self.pending

    @property
    def candidates(self) -> dict[str, T]:
        """The states a crash may leave, by label."""
        if self.pending == self.confirmed:
            return {"confirmed": self.confirmed}
        return {"confirmed": self.confirmed, "pending": self.pending}

    def match(self, holds: Callable[[T], bool]) -> str | None:
        """The label of the first candidate *holds* accepts, else None."""
        return next((k for k, s in self.candidates.items() if holds(s)), None)


def settle_handler(db) -> Callable:
    """The idempotent phoenix executor: settle a token at most once."""

    def settle(txn, payload):
        ledger = db.deref(PersistentPtr(db.name, payload["ledger"]))
        token = payload["token"]
        if token not in ledger.tokens:
            ledger.tokens = ledger.tokens + [token]

    return settle


class Workload(Protocol):
    name: str  # the database name, constant across runs
    label: str
    sessions: int
    settle_kind: str
    replays: bool  # does hit k land on the same failpoint every run?

    def reset(self) -> None: ...  # a fresh oracle, before the open

    def run(self, db) -> None: ...

    def verify(self, recovered, where: str) -> tuple[str, dict[str, Any]]: ...


@dataclasses.dataclass
class CrashOutcome:
    """What happened when a workload crashed at one trace hit."""

    hit: int
    point: str
    matched: str  # "pending" if an in-flight commit survived, else "confirmed"
    state: dict[str, Any]  # what the workload's verify read back
    drained: int
    recovery: Any  # the storage's RecoveryStats
    fsck_findings: list[str]


@dataclasses.dataclass
class MatrixResult:
    workload: Workload
    engine: str
    trigger_cc: str
    trace: list[HitRecord]
    explored: list[CrashOutcome]

    @property
    def points_explored(self) -> set[str]:
        return {o.point for o in self.explored}

    @property
    def families_explored(self) -> set[str]:
        """Failpoint families ("wal", "page", "checkpoint", ...)."""
        return {p.split(".", 1)[0] for p in self.points_explored}

    def survival_report(self) -> dict[str, Any]:
        """The JSON document the CI chaos job archives."""
        return {
            "workload": self.workload.label,
            "engine": self.engine,
            "trigger_cc": self.trigger_cc,
            "sessions": self.workload.sessions,
            "trace_hits": len(self.trace),
            "crashes_explored": len(self.explored),
            "points_explored": sorted(self.points_explored),
            "families_explored": sorted(self.families_explored),
            "recovered": len(self.explored),  # explore raises on any failure
            "survival_rate": 1.0 if self.explored else None,
            "outcomes": [dataclasses.asdict(o) for o in self.explored],
        }


# ---------------------------------------------------------------------------
# The cards workload: one committer
# ---------------------------------------------------------------------------

_CARD_KEY = "app:card"
_LEDGER_KEY = "app:ledger"


class SettlementLedger(Persistent):
    """Application-side record of settled phoenix tokens (exactly-once)."""

    tokens = field(list, default=[])


@dataclasses.dataclass(frozen=True)
class ModelState:
    """The cards oracle's logical state: what the database must look like."""

    created: bool = False
    purchases: int = 0
    balance: float = 0.0
    tokens: tuple[str, ...] = ()

    def bought(self, amount: float, token: str | None = None) -> "ModelState":
        tokens = self.tokens if token is None else self.tokens + (token,)
        return dataclasses.replace(
            self,
            purchases=self.purchases + 1,
            balance=self.balance + amount,
            tokens=tokens,
        )

    def matches_db(self, db) -> bool:
        with db.transaction():
            card_rid = db.catalog_get(_CARD_KEY)
            if card_rid is None:
                return not self.created
            if not self.created:
                return False
            card = db.deref(PersistentPtr(db.name, card_rid))
            return (
                card.purchases == self.purchases
                and abs(card.curr_bal - self.balance) < 1e-9
            )


class Cards:
    """The serial credit-card workload: strictly sequential transactions,
    so one :class:`CommitModel` of :class:`ModelState` is the oracle."""

    name = "cards"
    label = "cards"
    sessions = 1
    settle_kind = "settle"
    replays = True

    def reset(self) -> None:
        self.model = CommitModel(ModelState())

    def _commit(self, db, txn, state: ModelState) -> None:
        """Commit *txn*, whose durable effect is *state*."""
        self.model.attempt(state)
        db.txn_manager.commit(txn)
        self.model.confirm()

    def run(self, db) -> None:
        manager = db.txn_manager

        # Setup: card + AutoRaiseLimit FSM + ledger + index, one txn.
        txn = manager.begin()
        card = db.pnew(CredCard, cred_lim=10.0)
        card.AutoRaiseLimit(5.0)
        ledger = db.pnew(SettlementLedger)
        db.catalog_set(txn, _CARD_KEY, card.ptr.rid)
        db.catalog_set(txn, _LEDGER_KEY, ledger.ptr.rid)
        if db.engine == "disk":
            db.create_index(CredCard, "purchases")
        # Page-spanning filler so the small buffer pool must evict dirty
        # frames (covers the pool.evict failpoint on the disk engine).
        fillers = [
            db.pnew(Customer, name=f"filler-{i}-" + "x" * 1500).ptr
            for i in range(8)
        ]
        card_ptr, ledger_rid = card.ptr, ledger.ptr.rid
        self._commit(db, txn, ModelState(created=True))
        # Touch the filler spread: dirties several pages in one txn.
        txn = manager.begin()
        for ptr in fillers:
            db.deref(ptr).address = "updated"
        self._commit(db, txn, self.model.confirmed)  # no modelled change
        db.phoenix.register_handler(self.settle_kind, settle_handler(db))

        # A run of buys; enough to arm MoreCred (balance > 80% of limit).
        for _ in range(4):
            txn = manager.begin()
            db.deref(card_ptr).buy(None, 3.0)
            self._commit(db, txn, self.model.confirmed.bought(3.0))

        # Two phoenix intentions, drained as they would be after tcommit.
        for k in range(2):
            token = f"settle-{k}"
            txn = manager.begin()
            db.deref(card_ptr).buy(None, 1.0)
            db.phoenix.enqueue(
                txn, self.settle_kind, {"ledger": ledger_rid, "token": token}
            )
            self._commit(db, txn, self.model.confirmed.bought(1.0, token))
            db.phoenix.drain()

        # pay_bill completes AutoRaiseLimit's relative event: FSM accepts.
        txn = manager.begin()
        db.deref(card_ptr).pay_bill(2.0)
        paid = self.model.confirmed.balance - 2.0
        self._commit(
            db, txn, dataclasses.replace(self.model.confirmed, balance=paid)
        )

        # An aborted transaction: its logged writes must never survive.
        with db.transaction():
            db.deref(card_ptr).buy(None, 500.0)
            raise TransactionAbort("oracle: this buy must vanish")

        # Checkpoint mid-run, then more work so the log is live again.
        db.storage.checkpoint()
        txn = manager.begin()
        db.deref(card_ptr).buy(None, 3.0)
        self._commit(db, txn, self.model.confirmed.bought(3.0))

    def verify(self, recovered, where: str) -> tuple[str, dict[str, Any]]:
        # Invariant 1: atomic transactions — state is one of the models.
        label = self.model.match(lambda state: state.matches_db(recovered))
        assert label is not None, (
            f"{where}: recovered state matches neither the confirmed nor "
            f"the in-flight model: {self.model.candidates}"
        )
        model = self.model.candidates[label]

        with recovered.transaction() as txn:
            # Invariant 2: the index still finds the card under its key.
            card_rid = recovered.catalog_get(_CARD_KEY)
            if recovered.engine == "disk" and model.created:
                index = load_index(recovered, "CredCard", "purchases")
                if index is not None:  # in-flight setup txn may have rolled back
                    card = recovered.deref(PersistentPtr(recovered.name, card_rid))
                    assert card_rid in index.lookup(txn, card.purchases), (
                        f"{where}: index lost the card"
                    )

            # Invariant 3: phoenix exactly-once at the application level.
            ledger_rid = recovered.catalog_get(_LEDGER_KEY)
            settled: list[str] = []
            if ledger_rid is not None:
                settled = list(
                    recovered.deref(PersistentPtr(recovered.name, ledger_rid)).tokens
                )
            assert len(settled) == len(set(settled)), (
                f"{where}: token settled twice: {settled}"
            )
            assert sorted(settled) == sorted(model.tokens), (
                f"{where}: settled {settled} but the {label} model "
                f"enqueued {model.tokens}"
            )
        return label, dataclasses.asdict(model)


# ---------------------------------------------------------------------------
# The chaos workload: N sessions
# ---------------------------------------------------------------------------


class Chaos:
    """N sessions of :mod:`repro.workloads.chaos`.

    Any subset of sessions can be mid-commit when the crash lands, so each
    session carries its own :class:`CommitModel` of its committed count;
    the cross-session obligations (shared sum, ledger contents) are
    derived from the per-session recovered values.  The setup is one
    transaction, so its own model says whether every chaos key exists.

    ``mode="cooperative"`` interleaves the sessions on a deterministic
    scheduler, so the trace — including every deadlock-retry the
    contention produced — replays exactly.  ``mode="threaded"`` runs the
    same programs on real threads: no trace can predict where hit *k*
    lands, but whatever it interrupted, recovery must pass the same
    oracle.
    """

    name = "chaos-run"
    settle_kind = chaos.SETTLE_KIND

    def __init__(self, sessions: int = 4, txns: int = 3, mode: str = "cooperative"):
        self.sessions = sessions
        self.txns = txns
        self.mode = mode
        self.label = f"chaos/{mode}"
        self.replays = mode == "cooperative"

    def reset(self) -> None:
        self.setup = CommitModel(False)
        self.models = {
            name: CommitModel(0) for name in chaos.session_names(self.sessions)
        }

    def run(self, db) -> None:
        from repro.sessions.scheduler import CooperativeScheduler

        fixture = chaos.setup_chaos(db, self.setup, self.sessions)
        db.phoenix.register_handler(self.settle_kind, settle_handler(db))

        deaths: list[BaseException] = []
        deaths_lock = threading.Lock()

        def guarded(program, session):
            """The process-death boundary of one session.

            The first session to observe the injected crash poisons the
            lock manager so everyone parked behind its locks wakes (the
            concurrent analogue of the whole process dying); the poisoned
            waiters' own deaths are recorded the same way.  Any session
            that keeps running dies at its own next failpoint, because
            the injector is poisoned too.
            """

            def run():
                try:
                    return program()
                except (InjectedCrashError, WaitPoisonedError) as exc:
                    db.storage.lock_manager.poison(
                        f"session {session.name!r} died: {exc}"
                    )
                    with deaths_lock:
                        deaths.append(exc)
                    return None

            return run

        scheduler = CooperativeScheduler() if self.mode == "cooperative" else None
        sessions = [db.session(name) for name in self.models]
        programs = [
            chaos.chaos_program(
                session,
                self.models[session.name],
                fixture,
                n_txns=self.txns,
                scheduler=scheduler,
            )
            for session in sessions
        ]
        if scheduler is not None:
            for session, program in zip(sessions, programs):
                scheduler.spawn(
                    guarded(program, session), name=session.name, session=session
                )
            scheduler.run()
        else:
            threads = [
                threading.Thread(
                    target=guarded(program, session), name=session.name, daemon=True
                )
                for session, program in zip(sessions, programs)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive(), (
                    f"chaos session thread {thread.name} failed to return"
                )

        if deaths:
            # The process died mid-run; re-raise the first recorded crash
            # so the driver treats every mode uniformly.
            raise deaths[0]
        db.storage.checkpoint()  # quiesced: checkpoint (snapshot on mm)

    def verify(self, recovered, where: str) -> tuple[str, dict[str, Any]]:
        matched = "confirmed"
        accounts: dict[str, int] = {}
        shared_value = 0
        settled: list[str] = []
        with recovered.transaction():
            shared_rid = recovered.catalog_get(chaos.SHARED_KEY)
            if shared_rid is None:
                # Setup rolled back whole: nothing may exist, and no
                # session can have confirmed anything.
                assert not self.setup.confirmed, (
                    f"{where}: setup confirmed but its records are gone"
                )
                assert recovered.catalog_get(chaos.LEDGER_KEY) is None, (
                    f"{where}: partial setup survived (ledger without shared)"
                )
                for model in self.models.values():
                    assert model.confirmed == 0
            else:
                # Invariant 1: per-session atomicity and durability.
                for name, model in self.models.items():
                    rid = recovered.catalog_get(chaos.ACCOUNT_KEY.format(name=name))
                    assert rid is not None, f"{where}: account {name} missing"
                    actual = recovered.deref(PersistentPtr(recovered.name, rid)).value
                    label = model.match(lambda count: count == actual)
                    assert label is not None, (
                        f"{where}: session {name} has {actual} committed "
                        f"txns, oracle accepts {model.candidates}"
                    )
                    if label == "pending":
                        matched = "pending"
                    accounts[name] = actual

                # Invariant 2: cross-record atomicity under interleaving.
                shared_value = recovered.deref(
                    PersistentPtr(recovered.name, shared_rid)
                ).value
                assert shared_value == sum(accounts.values()), (
                    f"{where}: shared counter {shared_value} != "
                    f"sum of per-session accounts {accounts}"
                )

                # Invariant 3: phoenix exactly-once at the application level.
                ledger_rid = recovered.catalog_get(chaos.LEDGER_KEY)
                assert ledger_rid is not None, f"{where}: ledger missing"
                settled = list(
                    recovered.deref(PersistentPtr(recovered.name, ledger_rid)).tokens
                )
                assert len(settled) == len(set(settled)), (
                    f"{where}: token settled twice: {settled}"
                )
                expected = sorted(
                    token
                    for name, actual in accounts.items()
                    for token in chaos.tokens_for(name, actual)
                )
                assert sorted(settled) == expected, (
                    f"{where}: settled {sorted(settled)}, expected {expected}"
                )
        return matched, {
            "accounts": accounts,
            "shared": shared_value,
            "settled": len(settled),
        }


# ---------------------------------------------------------------------------
# The driver: record, crash, verify, explore
# ---------------------------------------------------------------------------


def _run(path: str, workload: Workload, injector, *, engine, trigger_cc) -> None:
    """One process lifetime: open, run, close.

    Raises :class:`InjectedCrashError` when *injector*'s crash fired,
    leaving the files exactly as the dead process would.
    """
    from repro.objects.database import Database

    kwargs: dict[str, Any] = {"injector": injector, "trigger_cc": trigger_cc}
    if engine == "disk":
        kwargs["buffer_capacity"] = 3
    workload.reset()  # before the open: the open itself can crash
    db = Database.open(path, engine=engine, name=workload.name, **kwargs)
    try:
        workload.run(db)
        db.close()  # inside the guard: the close-time checkpoint can crash too
    except BaseException:
        # Injected crash (or any failure): the "process" dies here.
        if not db._closed:
            db.simulate_crash()
        raise


def record_trace(
    path: str, workload: Workload, *, engine: str = "disk", trigger_cc: str = "2pl"
) -> list[HitRecord]:
    """The fault-free run: every failpoint hit, in order."""
    injector = FaultInjector(recording=True)
    _run(path, workload, injector, engine=engine, trigger_cc=trigger_cc)
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
    workload: Workload,
    *,
    engine: str = "disk",
    trigger_cc: str = "2pl",
    require_crash: bool = True,
) -> CrashOutcome | None:
    """Run *workload* crashing at trace index *crash_at*, then recover and
    check every invariant.  Raises AssertionError on violation.

    A workload that does not replay may crash anywhere or, with
    *require_crash* false, not at all if its run generated fewer hits
    (then nothing is verified and the result is None).
    """
    from repro.fsck import fsck, fsck_database
    from repro.objects.database import Database

    injector = FaultInjector(crash_at=crash_at)
    try:
        _run(path, workload, injector, engine=engine, trigger_cc=trigger_cc)
    except InjectedCrashError as exc:
        crashed = exc
    else:
        if require_crash:
            raise AssertionError(f"crash_at={crash_at} never fired")
        return None
    # Report where the crash actually landed — from the injector's record
    # of the *first* crash, because the exception caught here can be a
    # later poisoned re-raise (the abort path the original crash
    # triggered hits its own failpoints).
    actual = injector.crash_point or crashed.point or point
    if workload.replays and require_crash:
        assert actual == point, (
            f"crash_at={crash_at} fired at {actual!r}, but the trace "
            f"recorded {point!r} — the replay diverged"
        )
    where = f"crash@{crash_at} ({actual}, {workload.label}, {engine}/{trigger_cc})"

    # -- recovery (no injector: the next process boots on real I/O) -------
    kwargs: dict[str, Any] = {"trigger_cc": trigger_cc}
    if engine == "disk":
        kwargs["buffer_capacity"] = 8
    recovered = Database.open(
        path, engine=engine, name=f"{workload.name}-recovered", **kwargs
    )
    try:
        recovery = recovered.storage.last_recovery
        recovered.phoenix.register_handler(
            workload.settle_kind, settle_handler(recovered)
        )
        drained = recovered.phoenix.drain()
        matched, state = workload.verify(recovered, where)

        # Invariant 4: fsck is clean while open (trigger/index/phoenix).
        report = fsck_database(recovered)
        assert report.ok, (
            f"{where}: fsck: " + "; ".join(f.render() for f in report.findings)
        )
    finally:
        recovered.close()

    # Invariant 5: fsck of the closed files (physical + logical) is clean.
    report = fsck(path, engine=engine)
    assert report.ok, (
        f"{where}: post-close fsck: "
        + "; ".join(f.render() for f in report.findings)
    )
    return CrashOutcome(
        hit=crash_at,
        point=actual,
        matched=matched,
        state=state,
        drained=drained,
        recovery=recovery,
        fsck_findings=[f.render() for f in report.findings],
    )


def explore(
    base_path: str,
    workload: Workload,
    *,
    engine: str = "disk",
    limit: int | None = None,
    trigger_cc: str = "2pl",
) -> MatrixResult:
    """Record the trace, then crash-and-verify at the selected hits.

    *base_path* is a directory-like prefix: each run gets its own file
    set (``<base_path>-trace``, ``<base_path>-h<i>``).
    """
    trace = record_trace(
        f"{base_path}-trace", workload, engine=engine, trigger_cc=trigger_cc
    )
    explored = [
        crash_and_verify(
            f"{base_path}-h{i}",
            i,
            trace[i].point,
            workload,
            engine=engine,
            trigger_cc=trigger_cc,
        )
        for i in select_hits(trace, limit)
    ]
    return MatrixResult(
        workload=workload,
        engine=engine,
        trigger_cc=trigger_cc,
        trace=trace,
        explored=explored,
    )


def write_survival_report(results: list[MatrixResult], out_path: str) -> dict[str, Any]:
    """Merge per-engine matrix results into one JSON survival report."""
    document = {
        "matrices": [r.survival_report() for r in results],
        "points_total": sorted(set().union(*(r.points_explored for r in results)))
        if results
        else [],
        "all_recovered": all(
            len(r.explored) > 0 or len(r.trace) == 0 for r in results
        ),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
    return document
