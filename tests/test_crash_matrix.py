"""Crash-matrix exploration tests.

The bounded quick subset runs in tier-1; the exhaustive matrices (every
hit in the trace, both engines) carry the ``crash_matrix`` marker and run
with ``pytest -m crash_matrix``.
"""

import pytest

from repro.faults.harness import (
    crash_and_verify,
    explore,
    record_trace,
    select_hits,
)


def test_trace_is_deterministic(tmp_path):
    a = record_trace(str(tmp_path / "a"))
    b = record_trace(str(tmp_path / "b"))
    assert [(r.index, r.point) for r in a] == [(r.index, r.point) for r in b]


def test_select_hits_covers_every_distinct_point(tmp_path):
    trace = record_trace(str(tmp_path / "t"))
    hits = select_hits(trace, 30)
    assert len(hits) >= 25
    assert {trace[i].point for i in hits} == {r.point for r in trace}


def test_quick_subset_disk(tmp_path):
    """Tier-1's bounded exploration: >=25 crash points, every failpoint
    family, all invariants checked inside crash_and_verify."""
    result = explore(str(tmp_path / "m"), limit=30)
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
    result = explore(str(tmp_path / "m"), engine="mm", limit=18)
    assert len(result.explored) >= 14
    assert {"wal", "snapshot", "checkpoint", "phoenix"} <= result.families_explored


@pytest.mark.crash_matrix
def test_full_matrix_disk(tmp_path):
    """Every single failpoint hit in the trace, exhaustively."""
    trace = record_trace(str(tmp_path / "t"))
    for i in range(len(trace)):
        crash_and_verify(str(tmp_path / f"h{i}"), i, trace[i].point)


@pytest.mark.crash_matrix
def test_full_matrix_mm(tmp_path):
    trace = record_trace(str(tmp_path / "t"), engine="mm")
    for i in range(len(trace)):
        crash_and_verify(str(tmp_path / f"h{i}"), i, trace[i].point, engine="mm")


@pytest.mark.crash_matrix
@pytest.mark.parametrize("engine", ["disk", "mm"])
def test_full_matrix_mvcc(tmp_path, engine):
    """The exhaustive matrix with trigger_cc="mvcc": the merge path's
    write_merged records are WAL'd like any UPDATE, so every invariant
    (atomicity, index, phoenix exactly-once, fsck) must hold unchanged."""
    trace = record_trace(str(tmp_path / "t"), engine=engine, trigger_cc="mvcc")
    for i in range(len(trace)):
        crash_and_verify(
            str(tmp_path / f"h{i}"),
            i,
            trace[i].point,
            engine=engine,
            trigger_cc="mvcc",
        )
