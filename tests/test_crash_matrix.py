"""Crash-matrix exploration tests.

The bounded quick subset runs in tier-1; the exhaustive matrix (every hit
in the trace, each workload on both engines under both trigger_cc) carries
the ``crash_matrix`` marker and runs with ``pytest -m crash_matrix``.
"""

import pytest

from repro.faults.harness import (
    Cards,
    Chaos,
    crash_and_verify,
    explore,
    record_trace,
    select_hits,
)

#: The full failpoint union: 17 on disk + the two mm-only snapshot points.
ALL_POINTS = {
    "checkpoint.after_flush",
    "checkpoint.before_truncate",
    "checkpoint.begin",
    "checkpoint.end",
    "page.read",
    "page.write",
    "page.sync",
    "pool.evict",
    "phoenix.drain.before_handler",
    "phoenix.drain.after_handler",
    "phoenix.drain.before_commit",
    "txn.commit.begin",
    "txn.commit.durable",
    "wal.append",
    "wal.force",
    "wal.force.after",
    "wal.truncate",
    "snapshot.write",
    "snapshot.replace",
}

#: What a whole trace reaches per engine: mm has no pages, no pool and no
#: flush before its snapshot; only mm writes a snapshot.
ENGINE_POINTS = {
    "disk": ALL_POINTS - {"snapshot.write", "snapshot.replace"},
    "mm": ALL_POINTS
    - {"page.read", "page.write", "page.sync", "pool.evict", "checkpoint.after_flush"},
}

#: Every-hit trace lengths per (workload, engine, trigger_cc).  Only
#: transactions that logged a mutation append a COMMIT and force, a 2PL
#: trigger group is logged once per transaction, at commit, a setup
#: ``pnew`` logs its own record and nothing else, a first activation
#: writes its object and its group, no index bucket, and a write of the
#: bytes a record already holds logs nothing (each chaos transaction's
#: Ping/Pong after its hub's first; the cards buys whose MVCC merge left
#: the card's group as it was).
TRACE_HITS = {
    ("cards", "disk", "2pl"): 200,
    ("cards", "disk", "mvcc"): 200,
    ("cards", "mm", "2pl"): 130,
    ("cards", "mm", "mvcc"): 130,
    ("chaos", "disk", "2pl"): 246,
    ("chaos", "disk", "mvcc"): 246,
    ("chaos", "mm", "2pl"): 198,
    ("chaos", "mm", "mvcc"): 198,
}
WORKLOADS = {"cards": Cards, "chaos": Chaos}


def test_trace_is_deterministic(tmp_path):
    a = record_trace(str(tmp_path / "a"), Cards())
    b = record_trace(str(tmp_path / "b"), Cards())
    assert [(r.index, r.point) for r in a] == [(r.index, r.point) for r in b]


def test_select_hits_covers_every_distinct_point(tmp_path):
    trace = record_trace(str(tmp_path / "t"), Cards())
    hits = select_hits(trace, 30)
    assert len(hits) >= 25
    assert {trace[i].point for i in hits} == {r.point for r in trace}


def test_quick_subset_disk(tmp_path):
    """Tier-1's bounded exploration: >=25 crash points, every failpoint
    family, all invariants checked inside crash_and_verify."""
    result = explore(str(tmp_path / "m"), Cards(), limit=30)
    assert len(result.explored) >= 25
    assert len(result.points_explored) >= 12
    assert {
        "wal",
        "page",
        "pool",
        "checkpoint",
        "txn",
        "phoenix",
    } <= result.families_explored


def test_quick_subset_mm(tmp_path):
    result = explore(str(tmp_path / "m"), Cards(), engine="mm", limit=18)
    assert len(result.explored) >= 14
    assert {"wal", "snapshot", "checkpoint", "phoenix"} <= result.families_explored


@pytest.mark.crash_matrix
@pytest.mark.parametrize("cc", ["2pl", "mvcc"])
@pytest.mark.parametrize("engine", ["disk", "mm"])
@pytest.mark.parametrize("workload", ["cards", "chaos"])
def test_every_hit(tmp_path, workload, engine, cc):
    """Crash at *every* failpoint hit of the workload's trace and recover.

    Under mvcc the merge path's write_merged records are WAL'd like any
    UPDATE, so every invariant (atomicity, index, phoenix exactly-once,
    fsck) must hold unchanged; the union of actual crash points over both
    engines is the full 19-point set."""
    result = explore(
        str(tmp_path / "m"), WORKLOADS[workload](), engine=engine, trigger_cc=cc
    )
    hits = TRACE_HITS[workload, engine, cc]
    assert len(result.explored) == len(result.trace) == hits
    assert result.points_explored == ENGINE_POINTS[engine]
    assert ENGINE_POINTS["disk"] | ENGINE_POINTS["mm"] == ALL_POINTS
