"""E18 — chaos bench: survival under faults at 2–8 threaded sessions.

Graceful-degradation figures for the fault-tolerance layer: N real
``threading`` sessions run retried update transactions (per-transaction
deadline registered with the lock manager) while the fault injector
misbehaves in two phases —

* **transient** — a burst of ``wal.force`` I/O errors plus short stalls: a
  sick disk.  The unified retry classifier (deadlocks, lock timeouts,
  transient I/O) must absorb everything; survival should be 100%.
* **media death** — ``wal.append`` dies permanently mid-run: the store
  degrades to read-only, in-flight writers abort typed, and every session
  still *returns* within its deadline.  Survival is the committed
  fraction; the refused remainder must all be typed errors.

Reported per (sessions, phase): survival rate, p50/p99 latency (retries
included), typed-abort count, and — after media death — the reopen
("recovery") time back to a writable store.
"""

import time

import pytest

from repro.errors import (
    LockTimeoutError,
    ReadOnlyStorageError,
    TransactionDeadlineError,
    WaitPoisonedError,
)
from repro.faults import Fault, FaultInjector, FaultKind
from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from benchmarks.common import drive_sessions, emit_table

POOL = 8
TXNS_PER_SESSION = 30
DEADLINE = 5.0

_RESULTS: list[list[object]] = []

_TYPED = (
    ReadOnlyStorageError,
    TransactionDeadlineError,
    LockTimeoutError,
    WaitPoisonedError,
)


class ChaosSlot(Persistent):
    value = field(int, default=0)


def _faults_for(phase, n_sessions):
    if phase == "transient":
        return [
            Fault("wal.force", FaultKind.IO_ERROR, after=10, count=3),
            Fault("wal.force", FaultKind.STALL, after=20, count=5, delay=0.005),
        ]
    # Media death mid-run: a flat offset clears the pool-setup appends,
    # then the onset scales with the workload so each session count sees
    # the medium die at a comparable phase of the run.
    return [
        Fault("wal.force", FaultKind.STALL, after=5, count=5, delay=0.005),
        Fault("wal.append", FaultKind.MEDIA_ERROR, after=30 + 10 * n_sessions),
    ]


def run_chaos(path, phase, n_sessions):
    injector = FaultInjector(_faults_for(phase, n_sessions))
    db = Database.open(path, engine="disk", injector=injector)
    with db.transaction():
        ptrs = [db.pnew(ChaosSlot).ptr for _ in range(POOL)]

    def bodies(session, index):
        for txn_index in range(TXNS_PER_SESSION):
            ptr = ptrs[(index * 5 + txn_index) % POOL]

            def body(txn, ptr=ptr):
                handle = session.deref(ptr)
                handle.value = handle.value + 1

            yield body

    # Only *typed* failures are allowed; anything else is re-raised.
    figures = drive_sessions(
        db,
        n_sessions,
        bodies,
        retries=200,
        deadline=DEADLINE,
        refusals=_TYPED,
        name="chaos",
    )
    outcomes = figures["outcomes"]
    committed = outcomes["committed"]
    # Survival accounting must agree with the durable state.
    with db.transaction():
        total = sum(db.deref(p).value for p in ptrs)
    assert total == committed

    degraded = db.read_only
    db.close()

    recovery_ms = 0.0
    if degraded:
        t0 = time.perf_counter()
        db2 = Database.open(path, engine="disk")
        with db2.transaction():
            db2.deref(ptrs[0]).value = total + 1  # writable again
        recovery_ms = (time.perf_counter() - t0) * 1e3
        db2.close()

    attempts = sum(outcomes.values())
    return {
        "survival": committed / attempts if attempts else 0.0,
        "typed_aborts": attempts - committed,
        "p50": figures["p50"],
        "p99": figures["p99"],
        "degraded": degraded,
        "recovery_ms": recovery_ms,
    }


@pytest.mark.parametrize("phase", ["transient", "media_death"])
@pytest.mark.parametrize("sessions", [2, 4, 8])
def test_chaos_survival(benchmark, tmp_path, phase, sessions):
    path = str(tmp_path / f"e18-{phase}-{sessions}")
    figures = benchmark.pedantic(
        lambda: run_chaos(path, phase, sessions), rounds=1, iterations=1
    )
    if phase == "transient":
        assert figures["survival"] == 1.0  # the classifier absorbed it all
        assert not figures["degraded"]
    else:
        assert figures["degraded"]
        assert figures["typed_aborts"] > 0  # refusals, never hangs
    _RESULTS.append(
        [
            phase,
            sessions,
            f"{figures['survival'] * 100:5.1f}%",
            figures["typed_aborts"],
            f"{figures['p50']:7.3f}",
            f"{figures['p99']:7.3f}",
            f"{figures['recovery_ms']:7.1f}",
        ]
    )


def teardown_module(module):
    order = {"transient": 0, "media_death": 1}
    _RESULTS.sort(key=lambda row: (order[row[0]], row[1]))
    emit_table(
        "E18",
        f"chaos survival ({TXNS_PER_SESSION} retried update txns per "
        f"session, deadline {DEADLINE:.0f}s, disk engine, real threads)",
        [
            "phase",
            "sessions",
            "survival",
            "typed aborts",
            "p50 ms",
            "p99 ms",
            "recovery ms",
        ],
        _RESULTS,
        notes=(
            "Transient phase: wal.force I/O errors + stalls, absorbed by "
            "the unified retry classifier — survival must be 100%.  Media "
            "death phase: wal.append dies permanently; the store degrades "
            "to read-only, refused transactions abort with typed errors "
            "within their deadline (no hangs), and 'recovery ms' is the "
            "reopen-to-writable time on a healthy medium."
        ),
    )
