"""E12 — crash recovery and phoenix transactions.

Two halves:

1. **Recovery cost/correctness** — commit N transactions (trigger states
   included), crash, reopen: recovery redoes history and undoes losers.
   Measured: reopen time vs N, with correctness asserted (committed
   trigger state survives, uncommitted advance rolled back).
2. **Phoenix `after tcommit`** (Sections 6/8) — an intention enqueued by a
   committing transaction survives a crash *before* it executes and runs
   on restart: the "once started will never stop trying" contract that
   reasonable after-commit semantics require.
3. **Injected crash points** — the fault-injection harness crashes the
   standard workload at representative failpoints and reports each
   recovery's stats, with every invariant (atomicity, index/trigger-state
   consistency, phoenix exactly-once, fsck-clean) checked inside
   ``crash_and_verify``.
"""

import pytest

from repro.faults.harness import Cards, crash_and_verify, record_trace, select_hits
from repro.objects.database import Database
from repro.workloads.credit_card import CredCard

from benchmarks.common import emit_table

_RESULTS: list[list[str]] = []
_FAULT_RESULTS: list[list[str]] = []


@pytest.mark.parametrize("n_txns", [50, 200])
def test_recovery_after_crash(benchmark, tmp_path, n_txns):
    path = str(tmp_path / f"e12-{n_txns}")
    db = Database.open(path, engine="disk")
    with db.transaction():
        handle = db.pnew(CredCard, cred_lim=1e9)
        ptr = handle.ptr
        handle.AutoRaiseLimit(100.0)
    for i in range(n_txns):
        with db.transaction():
            db.deref(ptr).buy(None, 1.0)
    # One uncommitted transaction in flight at the crash: this buy pushes
    # the balance over 80% of the limit, so MoreCred arms the FSM — a
    # logged trigger-group write that recovery must undo.  The object and
    # its group are written only when the transaction flushes, at commit;
    # the explicit flush and force stand in for a page eviction persisting
    # the loser's records (STEAL): without them, there is nothing to undo.
    txn = db.txn_manager.begin()
    db.deref(ptr).buy(None, 2e9)
    db.flush_transaction(txn)
    db.storage._wal.force()
    db.simulate_crash()

    def reopen():
        recovered = Database.open(path, engine="disk")
        stats = recovered.storage.last_recovery
        with recovered.transaction():
            balance = recovered.deref(ptr).curr_bal
        recovered.close()
        return stats, balance

    stats, balance = benchmark.pedantic(reopen, rounds=1, iterations=1)
    assert balance == pytest.approx(float(n_txns))  # loser undone
    assert stats.undo_applied >= 1  # the armed FSM state was rolled back
    _RESULTS.append(
        [
            n_txns,
            stats.records_scanned,
            stats.winners,
            stats.losers,
            stats.redo_applied,
            stats.undo_applied,
        ]
    )


def test_phoenix_after_tcommit_survives_crash(benchmark, tmp_path):
    path = str(tmp_path / "e12-phx")
    db = Database.open(path, engine="disk")
    with db.transaction() as txn:
        handle = db.pnew(CredCard)
        ptr = handle.ptr
        # The application's after-tcommit intention, durable with the txn.
        db.phoenix.enqueue(txn, "after-tcommit", {"card": ptr.rid})
    db.simulate_crash()  # crash before the intention ever ran

    executed = []

    def restart_and_drain():
        recovered = Database.open(path, engine="disk")
        recovered.phoenix.register_handler(
            "after-tcommit", lambda txn, payload: executed.append(payload)
        )
        ran = recovered.phoenix.drain()
        recovered.close()
        return ran

    ran = benchmark.pedantic(restart_and_drain, rounds=1, iterations=1)
    assert ran == 1
    assert executed == [{"card": ptr.rid}]
    _RESULTS.append(["phoenix", "-", "-", "-", "-", "ran after crash"])


def test_recovery_under_injected_faults(benchmark, tmp_path):
    """Crash the standard harness workload at one representative hit per
    failpoint family and report each recovery's stats."""
    base = str(tmp_path / "e12-faults")
    trace = record_trace(base + "-trace", Cards())
    # First hit of each distinct failpoint, one per family, in hit order.
    seen_families: set[str] = set()
    picks: list[int] = []
    for i in select_hits(trace, None):
        family = trace[i].point.split(".", 1)[0]
        if family not in seen_families:
            seen_families.add(family)
            picks.append(i)

    def run_picks():
        return [
            crash_and_verify(f"{base}-h{i}", i, trace[i].point, Cards())
            for i in picks
        ]

    outcomes = benchmark.pedantic(run_picks, rounds=1, iterations=1)
    for outcome in outcomes:
        stats = outcome.recovery
        _FAULT_RESULTS.append(
            [
                outcome.point,
                outcome.hit,
                outcome.matched,
                stats.winners,
                stats.losers,
                stats.redo_applied,
                stats.undo_applied,
                "clean" if not outcome.fsck_findings else "DIRTY",
            ]
        )
    assert len(outcomes) == len(picks)
    assert all(not o.fsck_findings for o in outcomes)


def teardown_module(module):
    emit_table(
        "E12",
        "crash recovery (redo winners incl. trigger states, undo losers)",
        ["txns", "log records", "winners", "losers", "redo", "undo"],
        _RESULTS,
        notes=(
            "Committed FSM advances survive the crash; the in-flight "
            "transaction's advance is undone; phoenix intentions execute on "
            "restart (Sections 5.5, 6, 8)."
        ),
    )
    emit_table(
        "E12b",
        "recovery under injected faults (one crash per failpoint family)",
        [
            "crash point",
            "hit",
            "state",
            "winners",
            "losers",
            "redo",
            "undo",
            "fsck",
        ],
        _FAULT_RESULTS,
        notes=(
            "Each row crashes the standard workload at an injected "
            "failpoint, reopens, recovers, and passes the full invariant "
            "suite (atomicity vs the model, index and trigger-state "
            "consistency, phoenix exactly-once, fsck clean)."
        ),
    )
