"""The concurrent crash matrix: N sessions, crash at every failpoint hit.

The serial matrix (:mod:`repro.faults.harness`) interleaves nothing; this
module re-runs its record/explore discipline against the multi-session
engine driving :mod:`repro.workloads.chaos`:

1. **Record** — one fault-free run under a :class:`~repro.sessions.
   scheduler.CooperativeScheduler` captures the failpoint trace.  The
   scheduler is deterministic, so the trace (including every
   deadlock-retry the contention produced) replays exactly.
2. **Explore** — per selected hit, a fresh run crashes at that hit.  The
   session that hits the crash **poisons the lock manager** before it
   dies, so sessions parked behind its locks are woken with
   :class:`~repro.errors.WaitPoisonedError` instead of wedging the
   scheduler — the concurrent analogue of the whole process dying.  Any
   session that keeps running dies at its own next failpoint (the
   injector is poisoned too).  When every task has stopped, the harness
   drops unforced state (``simulate_crash``), reopens without an
   injector, drains phoenix, and checks the
   :class:`~repro.workloads.chaos.ChaosOracle` invariants:

   * per session: account value ∈ {confirmed, pending} — no committed
     transaction lost, no partial transaction visible;
   * globally: ``shared == sum(accounts)`` — cross-record atomicity held
     under interleaving;
   * ledger == the union of committed token schedules, exactly once;
   * fsck clean, open and closed.

**Threaded mode** runs the same programs on real threads — no recorded
trace can predict where hit *k* lands, so it serves as a smoke subset:
whatever the crash interrupted, recovery must satisfy the same oracle.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any

from repro.errors import InjectedCrashError, WaitPoisonedError
from repro.faults.harness import select_hits
from repro.faults.injector import FaultInjector, HitRecord
from repro.workloads import chaos

DEFAULT_SESSIONS = 4
DEFAULT_TXNS = 3


@dataclasses.dataclass
class ConcurrentOutcome:
    """What happened when the concurrent workload crashed at one hit."""

    hit: int
    point: str
    mode: str  # "cooperative" | "threaded"
    accounts: dict[str, int]
    shared: int
    settled: int
    drained: int
    sessions_died: int


@dataclasses.dataclass
class ConcurrentMatrixResult:
    trace: list[HitRecord]
    explored: list[ConcurrentOutcome]
    engine: str
    n_sessions: int

    @property
    def points_explored(self) -> set[str]:
        return {o.point for o in self.explored}

    @property
    def families_explored(self) -> set[str]:
        return {p.split(".", 1)[0] for p in self.points_explored}

    def survival_report(self) -> dict[str, Any]:
        """The JSON document the CI chaos job archives."""
        return {
            "engine": self.engine,
            "sessions": self.n_sessions,
            "trace_hits": len(self.trace),
            "crashes_explored": len(self.explored),
            "points_explored": sorted(self.points_explored),
            "families_explored": sorted(self.families_explored),
            "recovered": len(self.explored),  # explore raises on any failure
            "survival_rate": 1.0 if self.explored else None,
            "outcomes": [dataclasses.asdict(o) for o in self.explored],
        }


# ---------------------------------------------------------------------------
# One workload pass
# ---------------------------------------------------------------------------


def run_concurrent_workload(
    path: str,
    injector: FaultInjector,
    oracle: chaos.ChaosOracle,
    *,
    engine: str = "disk",
    n_sessions: int = DEFAULT_SESSIONS,
    txns_per_session: int = DEFAULT_TXNS,
    mode: str = "cooperative",
    buffer_capacity: int = 3,
) -> int:
    """One pass of the chaos workload; returns how many sessions died.

    Raises :class:`InjectedCrashError` when the armed crash fired (after
    every session task has stopped), leaving the on-disk state exactly as
    the dead process would.  The caller owns recovery.
    """
    from repro.objects.database import Database
    from repro.sessions.scheduler import CooperativeScheduler

    kwargs: dict[str, Any] = {"injector": injector}
    if engine == "disk":
        kwargs["buffer_capacity"] = buffer_capacity
    # The database *name* is embedded in persistent record bytes, so it
    # must be constant across runs: a per-path name shifts record sizes,
    # page boundaries, and therefore every failpoint hit index, and the
    # recorded trace would no longer line up with the crash runs.  Both
    # close() and simulate_crash() release the name, and the harness runs
    # one workload at a time, so a fixed name cannot collide.
    db = Database.open(path, engine=engine, name="chaos-run", **kwargs)
    try:
        fixture = chaos.setup_chaos(db, oracle, n_sessions)
        db.phoenix.register_handler(chaos.SETTLE_KIND, chaos.settle_handler(db))

        deaths: list[BaseException] = []
        deaths_lock = threading.Lock()

        def guarded(program, session):
            """The process-death boundary of one session.

            The first session to observe the injected crash poisons the
            lock manager so everyone parked behind its locks wakes; the
            poisoned waiters' own deaths are recorded the same way.
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

        scheduler = CooperativeScheduler() if mode == "cooperative" else None
        sessions = [db.session(name) for name in chaos.session_names(n_sessions)]
        programs = [
            chaos.chaos_program(
                session,
                oracle,
                fixture,
                n_txns=txns_per_session,
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
            # so the caller's recovery path treats every mode uniformly.
            raise deaths[0]

        # Quiesce, checkpoint (snapshot on mm), and close — each can crash.
        db.storage.checkpoint()
        db.close()
        return 0
    except BaseException:
        if not db._closed:
            db.simulate_crash()
        raise


# ---------------------------------------------------------------------------
# Record + explore
# ---------------------------------------------------------------------------


def record_concurrent_trace(
    path: str,
    *,
    engine: str = "disk",
    n_sessions: int = DEFAULT_SESSIONS,
    txns_per_session: int = DEFAULT_TXNS,
) -> list[HitRecord]:
    """The fault-free cooperative run: every failpoint hit, in order."""
    injector = FaultInjector(recording=True)
    run_concurrent_workload(
        path,
        injector,
        chaos.ChaosOracle(n_sessions),
        engine=engine,
        n_sessions=n_sessions,
        txns_per_session=txns_per_session,
    )
    return injector.trace


def crash_and_verify_concurrent(
    path: str,
    crash_at: int,
    point: str,
    *,
    engine: str = "disk",
    n_sessions: int = DEFAULT_SESSIONS,
    txns_per_session: int = DEFAULT_TXNS,
    mode: str = "cooperative",
    require_crash: bool = True,
) -> ConcurrentOutcome | None:
    """Crash the concurrent workload at hit *crash_at*, recover, verify.

    Raises AssertionError on any oracle violation.  In threaded mode the
    crash may land anywhere (or, with *require_crash* false, not fire at
    all if the run generated fewer hits); verification is identical.
    """
    injector = FaultInjector(crash_at=crash_at)
    oracle = chaos.ChaosOracle(n_sessions)
    crashed = None
    try:
        run_concurrent_workload(
            path,
            injector,
            oracle,
            engine=engine,
            n_sessions=n_sessions,
            txns_per_session=txns_per_session,
            mode=mode,
        )
    except InjectedCrashError as exc:
        crashed = exc
    if crashed is None:
        if require_crash:
            raise AssertionError(f"crash_at={crash_at} never fired")
        return None
    # Report where the crash actually landed — from the injector's record
    # of the *first* crash, because the exception the harness catches can
    # be a later poisoned re-raise (the abort path the original crash
    # triggered hits its own failpoints).  Cooperative runs replay the
    # recorded trace exactly (fixed database name, deterministic
    # scheduler), so this matches the trace label; threaded runs land
    # wherever the race put hit *crash_at*.
    actual_point = injector.crash_point or crashed.point or point
    if mode == "cooperative" and require_crash:
        assert actual_point == point, (
            f"crash_at={crash_at} fired at {actual_point!r}, but the trace "
            f"recorded {point!r} — the cooperative replay diverged"
        )
    return _verify_recovered(
        path, oracle, crash_at, actual_point, engine=engine, mode=mode
    )


def _verify_recovered(
    path: str,
    oracle: chaos.ChaosOracle,
    crash_at: int,
    point: str,
    *,
    engine: str,
    mode: str,
) -> ConcurrentOutcome:
    from repro.fsck import fsck, fsck_database
    from repro.objects.database import Database
    from repro.objects.oid import PersistentPtr

    where = f"crash@{crash_at} ({point}, {mode})"
    kwargs: dict[str, Any] = {}
    if engine == "disk":
        kwargs["buffer_capacity"] = 8
    recovered = Database.open(path, engine=engine, name="chaos-recovered", **kwargs)
    try:
        recovered.phoenix.register_handler(
            chaos.SETTLE_KIND, chaos.settle_handler(recovered)
        )
        drained = recovered.phoenix.drain()

        accounts: dict[str, int] = {}
        shared_value = 0
        settled: list[str] = []
        with recovered.transaction():
            shared_rid = recovered.catalog_get(chaos.SHARED_KEY)
            if shared_rid is None:
                # Setup rolled back whole: nothing may exist, and no
                # session can have confirmed anything.
                assert oracle.setup != "confirmed", (
                    f"{where}: setup confirmed but its records are gone"
                )
                assert recovered.catalog_get(chaos.LEDGER_KEY) is None, (
                    f"{where}: partial setup survived (ledger without shared)"
                )
                for model in oracle.models.values():
                    assert model.confirmed == 0
            else:
                # Invariant 1: per-session atomicity and durability.
                for name, model in oracle.models.items():
                    rid = recovered.catalog_get(chaos.ACCOUNT_KEY.format(name=name))
                    assert rid is not None, f"{where}: account {name} missing"
                    actual = recovered.deref(PersistentPtr(recovered.name, rid)).value
                    assert actual in model.acceptable, (
                        f"{where}: session {name} has {actual} committed "
                        f"txns, oracle accepts {model.acceptable}"
                    )
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

        # Invariant 4: fsck clean while open (triggers, index, phoenix).
        report = fsck_database(recovered)
        assert report.ok, (
            f"{where}: fsck: " + "; ".join(f.render() for f in report.findings)
        )
    finally:
        recovered.close()

    # Invariant 5: fsck of the closed files is clean too.
    report = fsck(path, engine=engine)
    assert report.ok, (
        f"{where}: post-close fsck: "
        + "; ".join(f.render() for f in report.findings)
    )
    return ConcurrentOutcome(
        hit=crash_at,
        point=point,
        mode=mode,
        accounts=accounts,
        shared=shared_value,
        settled=len(settled),
        drained=drained,
        sessions_died=0,  # not observable post-mortem; kept for the report
    )


def explore_concurrent(
    base_path: str,
    *,
    engine: str = "disk",
    limit: int | None = None,
    n_sessions: int = DEFAULT_SESSIONS,
    txns_per_session: int = DEFAULT_TXNS,
) -> ConcurrentMatrixResult:
    """Record the cooperative trace, then crash-and-verify selected hits."""
    trace = record_concurrent_trace(
        f"{base_path}-trace",
        engine=engine,
        n_sessions=n_sessions,
        txns_per_session=txns_per_session,
    )
    outcomes = []
    for i in select_hits(trace, limit):
        outcomes.append(
            crash_and_verify_concurrent(
                f"{base_path}-h{i}",
                i,
                trace[i].point,
                engine=engine,
                n_sessions=n_sessions,
                txns_per_session=txns_per_session,
            )
        )
    return ConcurrentMatrixResult(
        trace=trace, explored=outcomes, engine=engine, n_sessions=n_sessions
    )


def write_survival_report(
    results: list[ConcurrentMatrixResult], out_path: str
) -> dict[str, Any]:
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
