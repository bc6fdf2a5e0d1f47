"""E16 — multi-session throughput and latency vs session count.

The multi-session refactor's headline numbers: N real ``threading``
sessions over one shared database, each committing update transactions
against a shared object pool, blocked sessions sleeping on the lock
manager's condition variable and deadlock victims retrying with backoff.

Reported per (engine, session count): committed-transaction throughput
and per-transaction latency p50/p99 measured inside the worker threads.

Expected shape: the in-memory engine is GIL/lock-manager bound, so
throughput roughly plateaus while tail latency grows with contention; the
disk engine pays WAL fsyncs per commit, so concurrency mostly buys
latency overlap rather than raw throughput.  The interesting column is
p99: it grows with session count as lock convoys and deadlock retries
stack up — the cost side of the concurrency the paper's design assumes.

Each E16 session commits 300 transactions.  At 40 per session a cell
lasted a few milliseconds and identical code swung about 20 % between
runs — too noisy to judge a lock-manager change.  The E16b A/B keeps 40
posting transactions per session: its question (MVCC against 2PL, a
1.5x bar) is settled by far larger margins.
"""

import random

import pytest

from repro.objects.database import Database
from repro.objects.persistent import Persistent
from repro.objects.schema import field

from benchmarks.common import drive_sessions, emit_table

POOL = 16
TXNS_PER_SESSION = 300
#: E16b's posting transactions per session.
AB_TXNS_PER_SESSION = 40
#: Measured repeats per cell; the reported run is the throughput median.
REPEATS = 3

_RESULTS: list[list[str]] = []


def _median_run(make_db, run, n_sessions, repeats=REPEATS):
    """One discarded warmup run, then *repeats* measured runs, each on a
    fresh database; returns the run with the median throughput.

    The raw single-shot numbers were bimodal (the first run pays import
    and code-object warmup, allocator growth, and — on disk — cold page
    cache; thread start jitter splits the rest into fast/slow modes), so
    a lone sample routinely moved 2x run to run.  Warmup plus
    median-of-N makes the E16/E16b columns comparable across runs.
    """
    results = []
    for attempt in range(repeats + 1):
        db = make_db(attempt)
        try:
            figures = run(db, n_sessions)
        finally:
            db.close()
        if attempt > 0:  # attempt 0 is the warmup, discarded
            results.append(figures)
    results.sort(key=lambda figures: figures["throughput"])
    return results[len(results) // 2]


class Slot(Persistent):
    value = field(int, default=0)


def run_sessions(db, n_sessions):
    with db.transaction():
        ptrs = [db.pnew(Slot).ptr for _ in range(POOL)]

    def bodies(session, index):
        for txn_index in range(TXNS_PER_SESSION):
            ptr = ptrs[(index * 7 + txn_index) % POOL]

            def body(txn, ptr=ptr):
                handle = session.deref(ptr)
                handle.value = handle.value + 1

            yield body

    figures = drive_sessions(db, n_sessions, bodies, retries=200)

    with db.transaction():
        total = sum(db.deref(p).value for p in ptrs)
    assert total == n_sessions * TXNS_PER_SESSION  # conservation

    figures["deadlock_retries"] = db.session_stats.deadlock_retries
    return figures


@pytest.mark.parametrize("engine", ["mm", "disk"])
@pytest.mark.parametrize("sessions", [1, 2, 4, 8])
def test_concurrent_sessions(benchmark, tmp_path, engine, sessions):
    def make_db(attempt):
        return Database.open(
            str(tmp_path / f"e16-{engine}-{sessions}-r{attempt}"), engine=engine
        )

    figures = benchmark.pedantic(
        lambda: _median_run(make_db, run_sessions, sessions),
        rounds=1,
        iterations=1,
    )
    _RESULTS.append(
        [
            engine,
            sessions,
            f"{figures['throughput']:8.0f}",
            f"{figures['p50']:7.3f}",
            f"{figures['p99']:7.3f}",
            figures["deadlock_retries"],
        ]
    )


# -- A/B: trigger-posting workload under 2PL vs MVCC -------------------------

_AB_RESULTS: list[list[str]] = []


def run_trigger_sessions(db, n_sessions):
    """Same driver as :func:`run_sessions` (``drive_sessions``), but the body is
    the §6 workload: dereference several watched objects (in per-thread
    random order, so lock orderings collide) and post their Ping/Pong
    observation events.  Under 2PL each posting S→X-upgrades the object's
    trigger group; under MVCC it buffers (DESIGN.md §15)."""
    from repro.workloads.locksim import HotObject

    with db.transaction():
        ptrs = []
        for _ in range(POOL // 2):
            handle = db.pnew(HotObject)
            handle.Watch()
            ptrs.append(handle.ptr)

    def bodies(session, index):
        rng = random.Random(1996 * 31 + index)
        for _ in range(AB_TXNS_PER_SESSION):
            picks = [rng.randrange(len(ptrs)) for _ in range(3)]

            def body(txn, picks=picks):
                for obj_index in picks:
                    handle = session.deref(ptrs[obj_index])
                    _ = handle.value
                    handle.post_event("Ping")
                    handle.post_event("Pong")

            yield body

    figures = drive_sessions(db, n_sessions, bodies, retries=500, name="ab")
    figures["deadlock_retries"] = db.session_stats.deadlock_retries
    return figures


@pytest.mark.parametrize("sessions", [2, 8])
def test_trigger_posting_ab(tmp_path, sessions):
    figures = {}
    for cc in ("2pl", "mvcc"):

        def make_db(attempt, cc=cc):
            return Database.open(
                str(tmp_path / f"e16-ab-{cc}-{sessions}-r{attempt}"),
                engine="mm",
                trigger_cc=cc,
            )

        figures[cc] = _median_run(make_db, run_trigger_sessions, sessions)
        _AB_RESULTS.append(
            [
                cc,
                sessions,
                f"{figures[cc]['throughput']:8.0f}",
                f"{figures[cc]['p50']:7.3f}",
                f"{figures[cc]['p99']:7.3f}",
                figures[cc]["deadlock_retries"],
            ]
        )

    assert figures["mvcc"]["deadlock_retries"] == 0
    if sessions >= 8:
        # The acceptance bar: buffering beats S->X upgrades + deadlock
        # backoff by at least 1.5x once contention is real.
        ratio = figures["mvcc"]["throughput"] / figures["2pl"]["throughput"]
        assert ratio >= 1.5, f"mvcc/2pl throughput ratio {ratio:.2f} < 1.5"


def teardown_module(module):
    _RESULTS.sort(key=lambda row: (row[0], row[1]))
    if _AB_RESULTS:
        _AB_RESULTS.sort(key=lambda row: (row[0], row[1]))
        emit_table(
            "E16b",
            f"trigger-posting A/B: 2PL vs MVCC ({AB_TXNS_PER_SESSION} posting "
            f"txns per session over {POOL // 2} watched objects, real threads)",
            [
                "cc",
                "sessions",
                "txn/s",
                "p50 ms",
                "p99 ms",
                "deadlock retries",
            ],
            _AB_RESULTS,
            notes=(
                "Identical client code (deref + Ping/Pong posting); only "
                "trigger_cc differs.  Under 2PL every posting upgrades "
                "S->X on the object's trigger group, so victims retry with backoff "
                "and their retries land in their own p99 (retries counted "
                "as retries, not victims).  Under MVCC postings buffer and "
                "merge at commit, and a lost update replays there: zero "
                "deadlock retries by construction.  "
                f"Each cell is the median of {REPEATS} runs after one "
                "discarded warmup run, each on a fresh database."
            ),
        )
    emit_table(
        "E16",
        f"multi-session throughput/latency ({TXNS_PER_SESSION} update txns "
        f"per session over a {POOL}-object pool, real threads)",
        [
            "engine",
            "sessions",
            "txn/s",
            "p50 ms",
            "p99 ms",
            "deadlock retries",
        ],
        _RESULTS,
        notes=(
            "Blocked sessions sleep on the lock manager's condition "
            "variable; deadlock victims abort and retry with randomized "
            "backoff.  Throughput is committed transactions / wall time; "
            "latencies are measured per transaction inside each session "
            "thread (retries included — a deadlock's cost lands in its "
            "victim's tail latency).  Each cell is the median of "
            f"{REPEATS} runs after one discarded warmup run, each on a "
            "fresh database."
        ),
    )
