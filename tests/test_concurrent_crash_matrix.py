"""Concurrent crash-matrix tests: N sessions, crash at storage failpoints.

Tier-1 runs the bounded cooperative subset on both engines; the exhaustive
matrices (every hit in the trace) carry the ``crash_matrix`` marker, and
the threaded smoke subset (nondeterministic interleavings, real threads)
carries ``concurrency`` — same split as the serial matrix in
``test_crash_matrix.py``.
"""

import pytest

from repro.faults.concurrent import (
    crash_and_verify_concurrent,
    explore_concurrent,
    record_concurrent_trace,
)

#: The full failpoint union the ISSUE's acceptance criterion names: 17 on
#: disk + the two mm-only snapshot points.
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


def test_concurrent_trace_is_deterministic(tmp_path):
    """The cooperative scheduler replays: two runs at equal-length paths
    (path bytes leak into record sizes) produce identical hit traces —
    including every deadlock-retry the contention produced."""
    a = record_concurrent_trace(str(tmp_path / "a"), engine="mm")
    b = record_concurrent_trace(str(tmp_path / "b"), engine="mm")
    assert [(r.index, r.point) for r in a] == [(r.index, r.point) for r in b]


def test_quick_subset_disk(tmp_path):
    """Tier-1's bounded subset: select_hits explores the first hit of
    every distinct trace point (the limit only caps the extras), so even
    a small limit crashes once at each of disk's 17 failpoints."""
    result = explore_concurrent(str(tmp_path / "m"), limit=8)
    assert len(result.explored) >= 15
    assert result.points_explored == ALL_POINTS - {
        "snapshot.write",
        "snapshot.replace",
    }
    assert {"wal", "page", "txn", "phoenix", "checkpoint", "pool"} == (
        result.families_explored
    )
    report = result.survival_report()
    assert report["recovered"] == report["crashes_explored"] == len(result.explored)
    assert report["survival_rate"] == 1.0


def test_quick_subset_mm(tmp_path):
    result = explore_concurrent(str(tmp_path / "m"), engine="mm", limit=6)
    assert len(result.explored) >= 10
    assert {"snapshot.write", "snapshot.replace"} <= result.points_explored
    assert {"wal", "txn", "phoenix", "checkpoint", "snapshot"} == (
        result.families_explored
    )


@pytest.mark.crash_matrix
def test_every_hit_on_both_engines_covers_all_nineteen_points(tmp_path):
    """The tentpole's acceptance criterion: crash at *every* failpoint hit
    of the 4-session cooperative trace, on both engines, and recover —
    the union of actual crash points is the full 19-point set."""
    disk = explore_concurrent(str(tmp_path / "d"))
    mm = explore_concurrent(str(tmp_path / "e"), engine="mm")
    # Only transactions that logged a mutation append a COMMIT and force.
    assert len(disk.explored) == len(disk.trace) >= 305
    assert len(mm.explored) == len(mm.trace) >= 262
    assert disk.points_explored | mm.points_explored == ALL_POINTS
    assert {"snapshot.write", "snapshot.replace"} <= mm.points_explored


@pytest.mark.concurrency
class TestThreadedSmoke:
    """Real threads: the crash lands wherever the race put hit *k*; the
    oracle must hold regardless.  ``require_crash=False`` because a
    threaded run may commit fewer retried transactions than the crash
    index assumes."""

    @pytest.mark.parametrize("crash_at", [5, 40, 120, 260])
    def test_disk(self, tmp_path, crash_at):
        crash_and_verify_concurrent(
            str(tmp_path / f"t{crash_at}"),
            crash_at,
            "threaded",
            mode="threaded",
            require_crash=False,
        )

    @pytest.mark.parametrize("crash_at", [10, 80, 200])
    def test_mm(self, tmp_path, crash_at):
        crash_and_verify_concurrent(
            str(tmp_path / f"t{crash_at}"),
            crash_at,
            "threaded",
            engine="mm",
            mode="threaded",
            require_crash=False,
        )
